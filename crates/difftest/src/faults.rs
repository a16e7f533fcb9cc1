//! Seeded fault-injection campaign: prove that every injected pipeline
//! fault yields degraded-but-*correct* output.
//!
//! For each fault index the campaign derives — deterministically from the
//! campaign seed — a target case (from a small pre-verified pool), an
//! injection site, an invocation ordinal, and a fault kind. It then
//! decompiles the case's parallel IR exactly once with that single-fault
//! [`FaultPlan`] armed and checks, in order:
//!
//! 1. **no panic** escaped the pipeline (the ladder's containment held);
//! 2. the fault actually **fired** (no vacuous passes);
//! 3. a per-function fault **degraded** at least one function (and the
//!    emitted C carries the degradation annotation), while a transient
//!    module-wide fault was absorbed by **prepare retry** with no
//!    degradation — mirroring the serve layer's backoff policy;
//! 4. the degraded C **recompiles and runs to the same checksum** as the
//!    unfaulted `-O0` reference.
//!
//! Unlike the six-route oracle, the campaign decompiles each case exactly
//! once per fault: the oracle's stability route decompiles twice, which
//! would break the Nth-invocation determinism of the injection counters.

use crate::gen::{generate, GenConfig};
use splendid_cfront::OmpRuntime;
use splendid_core::{
    assemble_output, decompile_function, prepare_module, FaultKind, FaultPlan, SplendidOptions,
    Stage, StageTimings,
};
use splendid_interp::{CompilerProfile, MachineConfig};
use splendid_ir::hash::fnv64;
use splendid_parallel::{parallelize_module, ParallelizeOptions};
use splendid_polybench::Harness;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Campaign configuration (mirrors `splendid difftest --faults`).
#[derive(Debug, Clone)]
pub struct FaultCampaignConfig {
    /// Campaign seed; fault `i` derives everything from `(seed, i)`.
    pub seed: u64,
    /// Number of faults to inject.
    pub faults: u64,
    /// Size of the case pool faults cycle over (kept small: each pool
    /// case is generated, compiled, and reference-run once up front).
    pub cases: u64,
}

impl Default for FaultCampaignConfig {
    fn default() -> FaultCampaignConfig {
        FaultCampaignConfig {
            seed: 0,
            faults: 200,
            cases: 8,
        }
    }
}

/// One fault that violated the containment contract.
#[derive(Debug, Clone)]
pub struct FaultFailure {
    /// Fault index within the campaign.
    pub index: u64,
    /// Pool case the fault was injected into.
    pub case: u64,
    /// Injection site label.
    pub site: &'static str,
    /// Fault kind label.
    pub kind: &'static str,
    /// Invocation ordinal the fault was armed for.
    pub nth: u64,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for FaultFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault={} case={} site={} kind={} nth={}: {}",
            self.index, self.case, self.site, self.kind, self.nth, self.detail
        )
    }
}

/// Campaign result; `Display` is byte-deterministic for a given config.
#[derive(Debug, Clone)]
pub struct FaultCampaignReport {
    /// Campaign seed.
    pub seed: u64,
    /// Faults injected.
    pub faults_run: u64,
    /// Faults that actually fired (should equal `faults_run`).
    pub fired: u64,
    /// Functions emitted below the `Natural` tier, summed.
    pub degraded_functions: u64,
    /// Module preparations retried after a transient fault.
    pub prepare_retries: u64,
    /// Panics that escaped the pipeline (must be zero).
    pub panics: u64,
    /// Contract violations.
    pub failed: Vec<FaultFailure>,
}

impl FaultCampaignReport {
    /// True iff every fault was contained, fired, and checksum-verified.
    pub fn all_passed(&self) -> bool {
        self.failed.is_empty() && self.panics == 0
    }
}

impl std::fmt::Display for FaultCampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fault campaign: seed={:#x} faults={} fired={} degraded={} prepare-retries={} panics={} failed={}",
            self.seed,
            self.faults_run,
            self.fired,
            self.degraded_functions,
            self.prepare_retries,
            self.panics,
            self.failed.len()
        )?;
        for fc in &self.failed {
            writeln!(f, "FAIL {fc}")?;
        }
        Ok(())
    }
}

/// A pre-verified pool case: source, parallel IR, reference checksum.
struct PoolCase {
    index: u64,
    src: String,
    arrays: Vec<String>,
    module: splendid_ir::Module,
    reference: f64,
}

fn build_pool(cfg: &FaultCampaignConfig, failures: &mut Vec<FaultFailure>) -> Vec<PoolCase> {
    let gen_cfg = GenConfig::default();
    let mut pool = Vec::new();
    for case in 0..cfg.cases.max(1) {
        let prog = generate(cfg.seed, case, &gen_cfg);
        let arrays = prog.array_names();
        let src = prog.render();
        let built = (|| -> Result<PoolCase, String> {
            let names: Vec<&str> = arrays.iter().map(|s| s.as_str()).collect();
            let o0 = Harness::compile_o0(&src, OmpRuntime::LibOmp).map_err(|e| e.to_string())?;
            let (reference, _) =
                Harness::run(&o0, MachineConfig::default(), &names).map_err(|e| e.to_string())?;
            if !reference.is_finite() {
                return Err(format!("non-finite reference checksum {reference}"));
            }
            let mut module =
                Harness::compile(&src, OmpRuntime::LibOmp).map_err(|e| e.to_string())?;
            let opts = ParallelizeOptions {
                version_aliasing: true,
                min_work: 0,
                only_functions: vec!["kernel".into()],
            };
            parallelize_module(&mut module, &opts);
            Ok(PoolCase {
                index: case,
                src,
                arrays,
                module,
                reference,
            })
        })();
        match built {
            Ok(pc) => pool.push(pc),
            Err(detail) => failures.push(FaultFailure {
                index: u64::MAX,
                case,
                site: "pool",
                kind: "build",
                nth: 0,
                detail,
            }),
        }
    }
    pool
}

/// Decompile with the serve layer's transient-retry policy: a transient
/// preparation error gets up to two more attempts (the injection counter
/// advances across attempts, so a single transient fault is absorbed).
fn decompile_with_retry(
    module: &splendid_ir::Module,
    opts: &SplendidOptions,
) -> Result<(String, StageTimings, u64), String> {
    let mut retries = 0u64;
    loop {
        let mut timings = StageTimings::default();
        match prepare_module(module, opts, &mut timings) {
            Ok(prepared) => {
                let functions = prepared
                    .module
                    .func_ids()
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|fid| decompile_function(&prepared, fid, opts, &mut timings))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                let output = assemble_output(&prepared, functions, &mut timings);
                return Ok((output.source, timings, retries));
            }
            Err(e) if e.transient && retries < 2 => retries += 1,
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Run a fault campaign. Deterministic: two runs of the same config
/// produce byte-identical reports.
pub fn run_fault_campaign(cfg: &FaultCampaignConfig) -> FaultCampaignReport {
    let mut failed = Vec::new();
    let pool = build_pool(cfg, &mut failed);
    let mut fired_total = 0u64;
    let mut degraded_total = 0u64;
    let mut retries_total = 0u64;
    let mut panics = 0u64;

    for index in 0..cfg.faults {
        let Some(case) = pool.get((index % pool.len().max(1) as u64) as usize) else {
            break; // pool construction failed entirely; already reported
        };
        let mut rng = PlanDraws::new(fnv64(format!("fault:{:#x}:{index}", cfg.seed).as_bytes()));
        // Module-wide detransformation cannot degrade per function, so it
        // only receives transient kinds (absorbed by retry); per-function
        // sites get the full kind mix.
        let (site, nth, kind) = match rng.below(4) {
            0 => (Stage::Detransform, 1, FaultKind::Timeout { millis: 1 }),
            1 => (Stage::Naming, 1 + rng.below(2), pick_kind(&mut rng)),
            2 => (Stage::Structure, 1 + rng.below(2), pick_kind(&mut rng)),
            _ => (Stage::Pragma, 1 + rng.below(2), pick_kind(&mut rng)),
        };
        let plan = Arc::new(FaultPlan::single(site, nth, kind));
        let opts = SplendidOptions {
            faults: Some(Arc::clone(&plan)),
            ..SplendidOptions::default()
        };
        let fail = |detail: String| FaultFailure {
            index,
            case: case.index,
            site: site.label(),
            kind: kind.label(),
            nth,
            detail,
        };

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            decompile_with_retry(&case.module, &opts)
        }));
        let (source, timings, retries) = match outcome {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                failed.push(fail(format!("pipeline error instead of degradation: {e}")));
                continue;
            }
            Err(payload) => {
                panics += 1;
                failed.push(fail(format!(
                    "panic escaped the pipeline: {}",
                    splendid_core::panic_message(payload)
                )));
                continue;
            }
        };

        let fired = plan.fired();
        if fired == 0 {
            failed.push(fail(format!(
                "fault never fired ({} invocations of {})",
                plan.invocations(site),
                site.label()
            )));
            continue;
        }
        fired_total += fired;
        retries_total += retries;
        let degraded = u64::from(timings.degraded_structured) + u64::from(timings.degraded_literal);
        degraded_total += degraded;

        if site == Stage::Detransform {
            // Transient module-wide fault: absorbed by retry, untouched
            // functions, no degradation.
            if retries == 0 {
                failed.push(fail("transient prepare fault was not retried".into()));
                continue;
            }
            if degraded != 0 {
                failed.push(fail(format!(
                    "prepare retry must not degrade functions (got {degraded})"
                )));
                continue;
            }
        } else {
            if degraded == 0 {
                failed.push(fail("fault fired but no function degraded".into()));
                continue;
            }
            if !source.contains("splendid: degraded to") {
                failed.push(fail("degraded output is missing its annotation".into()));
                continue;
            }
        }

        // The contract that matters: degraded output stays correct.
        let names: Vec<&str> = case.arrays.iter().map(|s| s.as_str()).collect();
        match Harness::recompile_and_run(
            &source,
            OmpRuntime::LibOmp,
            CompilerProfile::gcc(),
            &names,
        ) {
            Ok((checksum, _)) => {
                if checksum != case.reference {
                    failed.push(fail(format!(
                        "degraded checksum {checksum} != reference {} \
                         \n--- degraded source ---\n{source}\
                         \n--- original source ---\n{}",
                        case.reference, case.src
                    )));
                }
            }
            Err(e) => failed.push(fail(format!(
                "degraded output failed to recompile: {e}\
                 \n--- degraded source ---\n{source}"
            ))),
        }
    }

    FaultCampaignReport {
        seed: cfg.seed,
        faults_run: cfg.faults,
        fired: fired_total,
        degraded_functions: degraded_total,
        prepare_retries: retries_total,
        panics,
        failed,
    }
}

/// The draws that pick each fault's site, ordinal and kind: xorshift64*
/// with 13/7/17 shifts and `%` bounding. This is not
/// `splendid_ir::rng::Rng` (12/25/27, Lemire bounding) so that the
/// report printed for a given `--seed` stays the same across releases
/// and can be compared byte for byte; every other seeded stream uses
/// `Rng`.
struct PlanDraws(u64);

impl PlanDraws {
    fn new(seed: u64) -> PlanDraws {
        PlanDraws(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    /// Value in `[0, bound)`; `bound` is nonzero at every call site.
    fn below(&mut self, bound: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D) % bound
    }
}

fn pick_kind(rng: &mut PlanDraws) -> FaultKind {
    match rng.below(3) {
        0 => FaultKind::Fail,
        1 => FaultKind::Timeout { millis: 1 },
        _ => FaultKind::AllocCap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_contained_and_deterministic() {
        let cfg = FaultCampaignConfig {
            seed: 0xFA_17,
            faults: 16,
            cases: 2,
        };
        let a = run_fault_campaign(&cfg);
        assert!(a.all_passed(), "campaign violated containment:\n{a}");
        assert_eq!(a.panics, 0);
        assert!(a.fired >= a.faults_run, "every fault must fire: {a}");
        assert!(
            a.degraded_functions > 0,
            "per-function faults must degrade: {a}"
        );
        let b = run_fault_campaign(&cfg);
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "campaign must be deterministic"
        );
    }

    #[test]
    fn detransform_faults_are_absorbed_by_retry() {
        // Force many faults over one case: some will hit Detransform.
        let cfg = FaultCampaignConfig {
            seed: 1,
            faults: 12,
            cases: 1,
        };
        let report = run_fault_campaign(&cfg);
        assert!(report.all_passed(), "{report}");
        assert!(
            report.prepare_retries > 0,
            "expected at least one transient prepare retry in 12 faults: {report}"
        );
    }
}
