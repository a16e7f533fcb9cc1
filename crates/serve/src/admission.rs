//! Admission control: the overload-protection gate in front of the
//! scheduler (see DESIGN.md, "Overload protection & backpressure").
//!
//! The worker pool's queue is deliberately unbounded — jobs already
//! admitted must never deadlock on queue space — so boundedness lives
//! *here*, at admission. Every decision walks a ladder:
//!
//! 1. **Shed** when the pending-job gauge has reached the configured
//!    bound, when the caller's tenant is over its fair share or out of
//!    token-bucket quota, or when the estimated queue wait already
//!    exceeds the request's deadline budget (doomed work is refused up
//!    front, not started and then killed by the watchdog). A shed is a
//!    typed [`Busy`] with a `retry_after_ms` hint, never silence.
//! 2. **Degrade** when pending work has crossed the (lower) degrade
//!    threshold: the request is admitted but its fidelity start tier is
//!    dropped to `Quick`, trading polish for latency under pressure.
//! 3. **Admit** otherwise.
//!
//! Tenants are keyed by the session's module-context digest (the
//! `ModuleDigests` context fingerprint), so "one chatty client" means
//! one module being hammered, regardless of how many connections it
//! opens. Fairness is two mechanisms: a per-tenant in-flight cap (a
//! tenant may hold at most a quarter of the admission queue) and an
//! optional token bucket (`quota_burst` tokens, refilled at
//! `quota_per_sec`).
//!
//! Admission hands out [`AdmissionTicket`]s. The ticket owns an
//! [`AdmissionLease`] that releases the pending slot and the tenant's
//! in-flight count when the job completes (or when the ticket is
//! dropped unsubmitted), so the gauge can never leak on an error path.

use crate::lock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a request was shed at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The pending-job gauge reached the admission bound.
    QueueFull,
    /// The tenant is over its fair share or out of token-bucket quota.
    QuotaExhausted,
    /// The estimated queue wait already exceeds the request's deadline —
    /// admitting it would only feed the watchdog.
    DeadlineDoomed,
}

impl ShedReason {
    /// Stable lowercase label for stats and logs.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::QuotaExhausted => "quota",
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

/// Per-tenant token bucket + in-flight gauge.
struct TenantState {
    tokens: f64,
    last_refill: Instant,
    inflight: usize,
}

/// Releases one admitted job's pending slot (and its tenant's in-flight
/// count) on drop. Held by the job state until completion.
pub(crate) struct AdmissionLease {
    controller: Arc<AdmissionController>,
    tenant: Option<u64>,
}

impl std::fmt::Debug for AdmissionLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionLease")
            .field("tenant", &self.tenant)
            .finish_non_exhaustive()
    }
}

impl Drop for AdmissionLease {
    fn drop(&mut self) {
        self.controller.pending.fetch_sub(1, Ordering::SeqCst);
        if let Some(id) = self.tenant {
            let mut tenants = lock(&self.controller.tenants);
            if let Some(t) = tenants.get_mut(&id) {
                t.inflight = t.inflight.saturating_sub(1);
            }
        }
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
    /// Token-bucket burst per tenant; 0 disables quotas.
    quota_burst: u32,
    /// Token-bucket refill rate per tenant, tokens/second.
    quota_per_sec: u32,
    /// Worker count, for queue-wait estimation.
    workers: usize,
    /// Jobs admitted but not yet completed.
    pending: AtomicUsize,
    tenants: Mutex<HashMap<u64, TenantState>>,
}

/// Keep the tenant map from growing without bound: past this many
/// entries, full-and-idle buckets are pruned on the next admit.
const TENANT_MAP_HIGH_WATER: usize = 1024;

/// Clamp range for `retry_after_ms` hints.
const RETRY_MIN_MS: u64 = 25;
const RETRY_MAX_MS: u64 = 5_000;

impl AdmissionController {
    pub(crate) fn new(
        max_pending: usize,
        degrade_pending: usize,
        quota_burst: u32,
        quota_per_sec: u32,
        workers: usize,
    ) -> AdmissionController {
        AdmissionController {
            max_pending,
            degrade_pending,
            quota_burst,
            quota_per_sec,
            workers: workers.max(1),
            pending: AtomicUsize::new(0),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// Jobs admitted but not yet completed.
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// A ticket that skips every check — for the scheduler's direct
    /// submit paths (batch, CLI), which have no tenant and no wire
    /// deadline but must still occupy the pending gauge so admission
    /// decisions see their load.
    pub(crate) fn bypass_ticket(self: &Arc<Self>) -> AdmissionTicket {
        self.pending.fetch_add(1, Ordering::SeqCst);
        AdmissionTicket {
            degrade: false,
            lease: Some(AdmissionLease {
                controller: Arc::clone(self),
                tenant: None,
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
        tenant: Option<u64>,
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
        // only hand the watchdog a corpse.
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

        // Rung 1c: per-tenant fairness (in-flight share + token bucket).
        if let Some(id) = tenant {
            self.charge_tenant(id, avg_job_ms)?;
        }

        self.pending.fetch_add(1, Ordering::SeqCst);
        // Rung 2: admitted, but under pressure — drop fidelity to Quick.
        let degrade = self.degrade_pending > 0 && pending >= self.degrade_pending;
        Ok(AdmissionTicket {
            degrade,
            lease: Some(AdmissionLease {
                controller: Arc::clone(self),
                tenant,
            }),
            deadline,
        })
    }

    /// Charge one request against `tenant`'s fair share and token
    /// bucket; on success its in-flight count is incremented (released
    /// by the lease).
    fn charge_tenant(&self, id: u64, avg_job_ms: u64) -> Result<(), Busy> {
        let quotas = self.quota_burst > 0 && self.quota_per_sec > 0;
        // A tenant's fair share of the admission queue: a quarter of the
        // bound, at least one. Unlimited when the queue is unbounded.
        let share = if self.max_pending > 0 {
            (self.max_pending / 4).max(1)
        } else {
            usize::MAX
        };
        let mut tenants = lock(&self.tenants);
        if tenants.len() >= TENANT_MAP_HIGH_WATER {
            let full = f64::from(self.quota_burst);
            tenants.retain(|_, t| t.inflight > 0 || (quotas && t.tokens < full));
        }
        let now = Instant::now();
        let t = tenants.entry(id).or_insert_with(|| TenantState {
            tokens: f64::from(self.quota_burst),
            last_refill: now,
            inflight: 0,
        });
        if t.inflight >= share {
            return Err(Busy {
                retry_after_ms: avg_job_ms.clamp(RETRY_MIN_MS, RETRY_MAX_MS),
                reason: ShedReason::QuotaExhausted,
            });
        }
        if quotas {
            let elapsed = now.duration_since(t.last_refill).as_secs_f64();
            t.tokens = (t.tokens + elapsed * f64::from(self.quota_per_sec))
                .min(f64::from(self.quota_burst));
            t.last_refill = now;
            if t.tokens < 1.0 {
                // Time until one token refills, in ms.
                let wait = ((1.0 - t.tokens) / f64::from(self.quota_per_sec) * 1000.0) as u64;
                return Err(Busy {
                    retry_after_ms: wait.clamp(RETRY_MIN_MS, RETRY_MAX_MS),
                    reason: ShedReason::QuotaExhausted,
                });
            }
            t.tokens -= 1.0;
        }
        t.inflight += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(
        max_pending: usize,
        degrade: usize,
        burst: u32,
        per_sec: u32,
    ) -> Arc<AdmissionController> {
        Arc::new(AdmissionController::new(
            max_pending,
            degrade,
            burst,
            per_sec,
            2,
        ))
    }

    #[test]
    fn queue_bound_sheds_and_lease_releases() {
        let c = controller(2, 0, 0, 0);
        let a = c.admit(None, None, 10).unwrap();
        let b = c.admit(None, None, 10).unwrap();
        let shed = c.admit(None, None, 10).unwrap_err();
        assert_eq!(shed.reason, ShedReason::QueueFull);
        assert!(shed.retry_after_ms >= RETRY_MIN_MS);
        drop(a);
        assert_eq!(c.pending(), 1);
        assert!(c.admit(None, None, 10).is_ok(), "slot freed by the lease");
        drop(b);
    }

    #[test]
    fn degrade_threshold_drops_fidelity_before_shedding() {
        let c = controller(4, 2, 0, 0);
        let a = c.admit(None, None, 10).unwrap();
        let b = c.admit(None, None, 10).unwrap();
        assert!(!a.degraded() && !b.degraded());
        let d = c.admit(None, None, 10).unwrap();
        assert!(d.degraded(), "past the degrade threshold: Quick tier");
    }

    #[test]
    fn tenant_fair_share_caps_one_chatty_client() {
        // Bound 8 → per-tenant share 2: the chatty tenant is capped
        // while another tenant still gets in.
        let c = controller(8, 0, 0, 0);
        let _a = c.admit(Some(1), None, 10).unwrap();
        let _b = c.admit(Some(1), None, 10).unwrap();
        let shed = c.admit(Some(1), None, 10).unwrap_err();
        assert_eq!(shed.reason, ShedReason::QuotaExhausted);
        assert!(c.admit(Some(2), None, 10).is_ok(), "other tenants unharmed");
    }

    #[test]
    fn token_bucket_exhausts_and_reports_quota() {
        let c = controller(0, 0, 2, 1);
        let _a = c.admit(Some(7), None, 10).unwrap();
        let _b = c.admit(Some(7), None, 10).unwrap();
        let shed = c.admit(Some(7), None, 10).unwrap_err();
        assert_eq!(shed.reason, ShedReason::QuotaExhausted);
        assert!(shed.retry_after_ms >= RETRY_MIN_MS);
    }

    #[test]
    fn doomed_deadline_is_shed_at_admission() {
        let c = controller(16, 0, 0, 0);
        // Hold 8 pending jobs at 100 ms each over 2 workers → ~400 ms
        // estimated wait; a 1 ms budget is doomed.
        let held: Vec<_> = (0..8).map(|_| c.admit(None, None, 100).unwrap()).collect();
        let doomed = c
            .admit(None, Some(Instant::now() + Duration::from_millis(1)), 100)
            .unwrap_err();
        assert_eq!(doomed.reason, ShedReason::DeadlineDoomed);
        // A generous budget still gets in.
        assert!(c
            .admit(None, Some(Instant::now() + Duration::from_secs(30)), 100)
            .is_ok());
        drop(held);
    }

    #[test]
    fn all_knobs_zero_admits_everything() {
        let c = controller(0, 0, 0, 0);
        let tickets: Vec<_> = (0..64)
            .map(|i| c.admit(Some(i % 3), None, 10).unwrap())
            .collect();
        assert!(tickets.iter().all(|t| !t.degraded()));
        assert_eq!(c.pending(), 64);
        drop(tickets);
        assert_eq!(c.pending(), 0);
    }
}
