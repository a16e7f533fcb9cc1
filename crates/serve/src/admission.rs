//! Admission control: the overload-protection gate in front of the
//! scheduler (see DESIGN.md, "Overload protection & backpressure").
//!
//! The worker pool's queue is deliberately unbounded — jobs already
//! admitted must never deadlock on queue space — so boundedness lives
//! *here*, at admission. Every decision walks a ladder:
//!
//! 1. **Shed** when the pending-job gauge has reached the configured
//!    bound, or when the estimated queue wait already exceeds the
//!    request's deadline budget (doomed work is refused up front, not
//!    started only to time out). A shed is a typed [`Busy`] with a
//!    `retry_after_ms` hint, never silence.
//! 2. **Degrade** when pending work has crossed the (lower) degrade
//!    threshold: the request is admitted but its fidelity start tier is
//!    dropped to `Quick`, trading polish for latency under pressure.
//! 3. **Admit** otherwise.
//!
//! Admission hands out [`AdmissionTicket`]s. The ticket owns an
//! `AdmissionLease` that releases the pending slot when the job
//! completes (or when the ticket is dropped unsubmitted), so the gauge
//! can never leak on an error path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a request was shed at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The pending-job gauge reached the admission bound.
    QueueFull,
    /// The estimated queue wait already exceeds the request's deadline —
    /// admitting it would only start work that times out.
    DeadlineDoomed,
}

impl ShedReason {
    /// Stable lowercase label for stats and logs.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::DeadlineDoomed => "doomed",
        }
    }
}

/// A request refused at admission. Carries the retry hint the daemon
/// forwards on the wire as a `BUSY` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy {
    /// How long the caller should back off before retrying.
    pub retry_after_ms: u64,
    /// Which rung of the ladder refused the request.
    pub reason: ShedReason,
}

impl std::fmt::Display for Busy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "busy ({}); retry in {} ms",
            self.reason.label(),
            self.retry_after_ms
        )
    }
}

/// Releases one admitted job's pending slot on drop. Held by the job
/// state until completion.
pub(crate) struct AdmissionLease {
    controller: Arc<AdmissionController>,
}

impl std::fmt::Debug for AdmissionLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionLease").finish_non_exhaustive()
    }
}

impl Drop for AdmissionLease {
    fn drop(&mut self) {
        self.controller.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Proof of admission: carries the (possibly degraded) fidelity
/// decision, the request's absolute deadline, and the lease that keeps
/// the pending gauge honest.
#[derive(Debug)]
pub struct AdmissionTicket {
    /// Drop the request's start tier to `Quick` (pressure ladder rung 2).
    pub(crate) degrade: bool,
    pub(crate) lease: Option<AdmissionLease>,
    /// Absolute deadline carried from the wire; the scheduler takes the
    /// earlier of this and its own configured job timeout.
    pub(crate) deadline: Option<Instant>,
}

impl AdmissionTicket {
    /// Whether this ticket degrades the request to the `Quick` tier.
    pub fn degraded(&self) -> bool {
        self.degrade
    }
}

/// The admission gate. One per scheduler; all knobs zero means the gate
/// admits everything (the pre-overload-protection behavior) while still
/// tracking the pending gauge.
pub(crate) struct AdmissionController {
    /// Pending-job bound; 0 disables the bound.
    max_pending: usize,
    /// Degrade-to-`Quick` threshold; 0 disables degradation.
    degrade_pending: usize,
    /// Worker count, for queue-wait estimation.
    workers: usize,
    /// Jobs admitted but not yet completed.
    pending: AtomicUsize,
}

/// Clamp range for `retry_after_ms` hints.
const RETRY_MIN_MS: u64 = 25;
const RETRY_MAX_MS: u64 = 5_000;

impl AdmissionController {
    pub(crate) fn new(
        max_pending: usize,
        degrade_pending: usize,
        workers: usize,
    ) -> AdmissionController {
        AdmissionController {
            max_pending,
            degrade_pending,
            workers: workers.max(1),
            pending: AtomicUsize::new(0),
        }
    }

    /// Jobs admitted but not yet completed.
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// A ticket that skips every check — for the scheduler's direct
    /// submit paths (batch, CLI), which have no wire deadline but must
    /// still occupy the pending gauge so admission decisions see their
    /// load.
    pub(crate) fn bypass_ticket(self: &Arc<Self>) -> AdmissionTicket {
        self.pending.fetch_add(1, Ordering::SeqCst);
        AdmissionTicket {
            degrade: false,
            lease: Some(AdmissionLease {
                controller: Arc::clone(self),
            }),
            deadline: None,
        }
    }

    /// Estimated milliseconds until the queue has drained enough for a
    /// retry to stand a chance.
    fn retry_hint(&self, pending: usize, avg_job_ms: u64) -> u64 {
        let est = pending as u64 * avg_job_ms.max(1) / self.workers as u64;
        est.clamp(RETRY_MIN_MS, RETRY_MAX_MS)
    }

    /// Walk the admission ladder. `avg_job_ms` is the caller's current
    /// estimate of one job's service time (used for wait estimation and
    /// retry hints).
    pub(crate) fn admit(
        self: &Arc<Self>,
        deadline: Option<Instant>,
        avg_job_ms: u64,
    ) -> Result<AdmissionTicket, Busy> {
        let pending = self.pending.load(Ordering::SeqCst);

        // Rung 1a: hard queue bound.
        if self.max_pending > 0 && pending >= self.max_pending {
            return Err(Busy {
                retry_after_ms: self.retry_hint(pending, avg_job_ms),
                reason: ShedReason::QueueFull,
            });
        }

        // Rung 1b: doomed at admission — the estimated wait through the
        // queue already blows the request's budget, so starting it would
        // only burn a worker on a job that times out anyway.
        if let Some(d) = deadline {
            let est_wait =
                Duration::from_millis(pending as u64 * avg_job_ms.max(1) / self.workers as u64);
            if Instant::now() + est_wait >= d {
                return Err(Busy {
                    retry_after_ms: self.retry_hint(pending, avg_job_ms),
                    reason: ShedReason::DeadlineDoomed,
                });
            }
        }

        self.pending.fetch_add(1, Ordering::SeqCst);
        // Rung 2: admitted, but under pressure — drop fidelity to Quick.
        let degrade = self.degrade_pending > 0 && pending >= self.degrade_pending;
        Ok(AdmissionTicket {
            degrade,
            lease: Some(AdmissionLease {
                controller: Arc::clone(self),
            }),
            deadline,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(max_pending: usize, degrade: usize) -> Arc<AdmissionController> {
        Arc::new(AdmissionController::new(max_pending, degrade, 2))
    }

    #[test]
    fn queue_bound_sheds_and_lease_releases() {
        let c = controller(2, 0);
        let a = c.admit(None, 10).unwrap();
        let b = c.admit(None, 10).unwrap();
        let shed = c.admit(None, 10).unwrap_err();
        assert_eq!(shed.reason, ShedReason::QueueFull);
        assert!(shed.retry_after_ms >= RETRY_MIN_MS);
        drop(a);
        assert_eq!(c.pending(), 1);
        assert!(c.admit(None, 10).is_ok(), "slot freed by the lease");
        drop(b);
    }

    #[test]
    fn degrade_threshold_drops_fidelity_before_shedding() {
        let c = controller(4, 2);
        let a = c.admit(None, 10).unwrap();
        let b = c.admit(None, 10).unwrap();
        assert!(!a.degraded() && !b.degraded());
        let d = c.admit(None, 10).unwrap();
        assert!(d.degraded(), "past the degrade threshold: Quick tier");
    }

    #[test]
    fn doomed_deadline_is_shed_at_admission() {
        let c = controller(16, 0);
        // Hold 8 pending jobs at 100 ms each over 2 workers → ~400 ms
        // estimated wait; a 1 ms budget is doomed.
        let held: Vec<_> = (0..8).map(|_| c.admit(None, 100).unwrap()).collect();
        let doomed = c
            .admit(Some(Instant::now() + Duration::from_millis(1)), 100)
            .unwrap_err();
        assert_eq!(doomed.reason, ShedReason::DeadlineDoomed);
        // A generous budget still gets in.
        assert!(c
            .admit(Some(Instant::now() + Duration::from_secs(30)), 100)
            .is_ok());
        drop(held);
    }

    #[test]
    fn all_knobs_zero_admits_everything() {
        let c = controller(0, 0);
        let tickets: Vec<_> = (0..64).map(|_| c.admit(None, 10).unwrap()).collect();
        assert!(tickets.iter().all(|t| !t.degraded()));
        assert_eq!(c.pending(), 64);
        drop(tickets);
        assert_eq!(c.pending(), 0);
    }
}
