//! Deterministic, seeded fault injection for the decompilation pipeline.
//!
//! A [`FaultPlan`] forces a named pass (a [`Stage`] site) to fail, time
//! out, or hit a simulated allocation cap at exactly the Nth invocation
//! of that site. Plans are threaded through the pipeline via
//! `SplendidOptions::faults` as an `Option<Arc<FaultPlan>>`; the hook is
//! zero-cost when empty (`None` short-circuits before any counter is
//! touched), so the happy path stays byte- and cycle-identical with the
//! machinery compiled in.
//!
//! Counters are per-plan, not global: two schedulers (or two tests)
//! running concurrently with different plans never interfere.

use crate::error::{SplendidError, Stage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The pass fails outright (fatal for the attempted tier; the
    /// ladder degrades the function, the module-level site fails the
    /// prepare step).
    Fail,
    /// The pass stalls for `millis`, then reports a transient timeout —
    /// the serve layer's bounded backoff will retry these.
    Timeout {
        /// Injected stall before the error is reported.
        millis: u64,
    },
    /// The pass reports exhausting its allocation budget. Recoverable
    /// but *not* transient: retrying the same input hits the same cap.
    AllocCap,
}

impl FaultKind {
    /// Stable label used in fault-campaign reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Fail => "fail",
            FaultKind::Timeout { .. } => "timeout",
            FaultKind::AllocCap => "alloc-cap",
        }
    }
}

/// One scheduled fault: fire `kind` at the `nth` invocation of `site`
/// (1-based) within the owning plan's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The instrumented pass to sabotage.
    pub site: Stage,
    /// Which invocation of the site trips the fault (1 = the first).
    pub nth: u64,
    /// Failure mode.
    pub kind: FaultKind,
}

/// A deterministic set of scheduled faults plus per-site invocation
/// counters. Cheap to share (`Arc`), safe to consult from many workers.
#[derive(Debug, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    counters: [AtomicU64; crate::error::STAGES.len()],
    fired: AtomicU64,
}

fn site_index(site: Stage) -> usize {
    crate::error::STAGES
        .iter()
        .position(|s| *s == site)
        .unwrap_or(0)
}

impl FaultPlan {
    /// A plan firing the given specs.
    pub fn new(specs: Vec<FaultSpec>) -> FaultPlan {
        FaultPlan {
            specs,
            ..FaultPlan::default()
        }
    }

    /// A plan with a single scheduled fault.
    pub fn single(site: Stage, nth: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan::new(vec![FaultSpec { site, nth, kind }])
    }

    /// The instrumented sites consult this at every invocation. Returns
    /// `Err` exactly when a scheduled fault's invocation count is hit.
    pub fn check(&self, site: Stage) -> Result<(), SplendidError> {
        let n = self.counters[site_index(site)].fetch_add(1, Ordering::Relaxed) + 1;
        for spec in &self.specs {
            if spec.site != site || spec.nth != n {
                continue;
            }
            self.fired.fetch_add(1, Ordering::Relaxed);
            let detail = format!(
                "injected fault ({}) at {} invocation {n}",
                spec.kind.label(),
                site
            );
            return Err(match spec.kind {
                FaultKind::Fail => SplendidError::recoverable(site, detail),
                FaultKind::Timeout { millis } => {
                    std::thread::sleep(Duration::from_millis(millis));
                    SplendidError::transient(site, detail)
                }
                FaultKind::AllocCap => SplendidError::recoverable(site, detail),
            });
        }
        Ok(())
    }

    /// How many scheduled faults actually fired.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// How many times `site` has been consulted.
    pub fn invocations(&self, site: Stage) -> u64 {
        self.counters[site_index(site)].load(Ordering::Relaxed)
    }

    /// The scheduled faults.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Severity;

    #[test]
    fn fires_exactly_at_the_nth_invocation() {
        let plan = FaultPlan::single(Stage::Structure, 3, FaultKind::Fail);
        assert!(plan.check(Stage::Structure).is_ok());
        assert!(plan.check(Stage::Structure).is_ok());
        let err = plan.check(Stage::Structure).unwrap_err();
        assert_eq!(err.stage, Stage::Structure);
        assert_eq!(err.severity, Severity::Recoverable);
        assert!(plan.check(Stage::Structure).is_ok(), "fires only once");
        assert_eq!(plan.fired(), 1);
        assert_eq!(plan.invocations(Stage::Structure), 4);
    }

    #[test]
    fn sites_are_independent() {
        let plan = FaultPlan::single(Stage::Naming, 1, FaultKind::AllocCap);
        assert!(plan.check(Stage::Structure).is_ok());
        assert!(plan.check(Stage::Detransform).is_ok());
        let err = plan.check(Stage::Naming).unwrap_err();
        assert!(err.is_recoverable());
        assert!(!err.transient);
    }

    #[test]
    fn timeout_faults_are_transient() {
        let plan = FaultPlan::single(Stage::Detransform, 1, FaultKind::Timeout { millis: 0 });
        let err = plan.check(Stage::Detransform).unwrap_err();
        assert!(err.transient);
        assert!(err.is_recoverable());
    }
}
