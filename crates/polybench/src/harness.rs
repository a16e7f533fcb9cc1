//! End-to-end pipeline harness driving every experiment.

use crate::kernels::Benchmark;
use splendid_baselines::{decompile_ghidra_like, decompile_rellic_like, BaselineOutput};
use splendid_cfront::{lower_program, parse_program, LowerOptions, OmpRuntime};
use splendid_core::{decompile, DecompileOutput, SplendidOptions};
use splendid_interp::{CompilerProfile, MachineConfig, Vm};
use splendid_ir::Module;
use splendid_parallel::{parallelize_module, ParallelizeOptions, ParallelizeReport};
use splendid_transforms::{optimize_module, O2Options};

/// Minimum estimated work for the Polly-sim profitability check (see
/// `ParallelizeOptions::min_work`).
pub const MIN_PARALLEL_WORK: u64 = 20_000;

/// Everything produced for one benchmark by the full pipeline.
#[derive(Debug, Clone)]
pub struct PipelineArtifacts {
    /// Parallel IR after `-O2` + Polly-sim.
    pub parallel_module: Module,
    /// What the parallelizer did per loop.
    pub report: ParallelizeReport,
    /// SPLENDID full-variant decompilation.
    pub splendid: DecompileOutput,
    /// Rellic-like baseline output.
    pub rellic: BaselineOutput,
    /// Ghidra-like baseline output.
    pub ghidra: BaselineOutput,
}

/// Which pipeline stage a [`HarnessError`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarnessStage {
    /// C parsing (cfront).
    Parse,
    /// C-to-IR lowering (cfront).
    Lower,
    /// Interpreting the `init` function.
    Init,
    /// Interpreting the `kernel` function.
    Kernel,
    /// Reading a checksum global after execution.
    Checksum,
    /// Anything else that names its own stage in the message.
    Other,
    /// A stage panicked; the payload is preserved in the message.
    Panic,
}

impl HarnessStage {
    fn label(&self) -> &'static str {
        match self {
            HarnessStage::Parse => "parse",
            HarnessStage::Lower => "lower",
            HarnessStage::Init => "init",
            HarnessStage::Kernel => "kernel",
            HarnessStage::Checksum => "checksum",
            HarnessStage::Other => "stage",
            HarnessStage::Panic => "panic",
        }
    }
}

/// Harness errors carry the failing stage plus a message, so callers (the
/// difftest oracle in particular) can report *where* a generated program
/// broke the pipeline instead of aborting the whole run.
#[derive(Debug, Clone)]
pub struct HarnessError {
    /// The stage that failed.
    pub stage: HarnessStage,
    /// Human-readable detail.
    pub message: String,
}

impl HarnessError {
    /// Error in a given stage.
    pub fn new(stage: HarnessStage, message: impl Into<String>) -> HarnessError {
        HarnessError {
            stage,
            message: message.into(),
        }
    }

    /// Error in an ad-hoc stage described by the message alone.
    pub fn other(message: impl Into<String>) -> HarnessError {
        HarnessError::new(HarnessStage::Other, message)
    }
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "harness error [{}]: {}",
            self.stage.label(),
            self.message
        )
    }
}

impl std::error::Error for HarnessError {}

/// Run `f`, converting a panic into a structured [`HarnessError`].
///
/// cfront lowering and the interpreter have internal invariants that
/// machine-generated sources can violate in ways hand-written PolyBench
/// kernels never did; a differential-testing oracle must survive those as
/// reportable errors, not process aborts.
fn contain_panics<T>(f: impl FnOnce() -> Result<T, HarnessError>) -> Result<T, HarnessError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "opaque panic payload".to_string()
            };
            Err(HarnessError::new(HarnessStage::Panic, msg))
        }
    }
}

/// The pipeline harness.
pub struct Harness;

impl Harness {
    /// Compile C source to optimized IR with the given OpenMP runtime.
    pub fn compile(src: &str, runtime: OmpRuntime) -> Result<Module, HarnessError> {
        contain_panics(|| {
            let prog = parse_program(src)
                .map_err(|e| HarnessError::new(HarnessStage::Parse, e.to_string()))?;
            let mut m = lower_program(&prog, "bench", &LowerOptions { runtime })
                .map_err(|e| HarnessError::new(HarnessStage::Lower, e.to_string()))?;
            optimize_module(&mut m, &O2Options::default());
            Ok(m)
        })
    }

    /// [`Harness::compile`] without the `-O2` pass pipeline: the raw
    /// lowered IR, used as the differential-testing reference route.
    pub fn compile_o0(src: &str, runtime: OmpRuntime) -> Result<Module, HarnessError> {
        contain_panics(|| {
            let prog = parse_program(src)
                .map_err(|e| HarnessError::new(HarnessStage::Parse, e.to_string()))?;
            lower_program(&prog, "bench", &LowerOptions { runtime })
                .map_err(|e| HarnessError::new(HarnessStage::Lower, e.to_string()))
        })
    }

    /// Compile sequential source and run the Polly-sim parallelizer over
    /// its kernel function.
    pub fn polly(src: &str) -> Result<(Module, ParallelizeReport), HarnessError> {
        let mut m = Self::compile(src, OmpRuntime::LibOmp)?;
        let opts = ParallelizeOptions {
            version_aliasing: true,
            min_work: MIN_PARALLEL_WORK,
            only_functions: vec!["kernel".into()],
        };
        let report = parallelize_module(&mut m, &opts);
        Ok((m, report))
    }

    /// Run init + kernel; returns `(checksum over check_globals, kernel
    /// cycles)`.
    pub fn run(
        module: &Module,
        config: MachineConfig,
        check_globals: &[&str],
    ) -> Result<(f64, u64), HarnessError> {
        contain_panics(|| {
            let mut vm = Vm::new(module, config);
            if module.func_by_name("init").is_some() {
                vm.call_by_name("init", &[])
                    .map_err(|e| HarnessError::new(HarnessStage::Init, e.to_string()))?;
            }
            let before = vm.cycles();
            vm.call_by_name("kernel", &[])
                .map_err(|e| HarnessError::new(HarnessStage::Kernel, e.to_string()))?;
            let cycles = vm.cycles() - before;
            let mut sum = 0.0;
            for g in check_globals {
                sum += vm
                    .checksum_global(g)
                    .map_err(|e| HarnessError::new(HarnessStage::Checksum, format!("{g}: {e}")))?;
            }
            Ok((sum, cycles))
        })
    }

    /// Sequential-baseline cycles of a source under a profile.
    pub fn run_source(
        src: &str,
        runtime: OmpRuntime,
        profile: CompilerProfile,
        check_globals: &[&str],
    ) -> Result<(f64, u64), HarnessError> {
        let m = Self::compile(src, runtime)?;
        Self::run(&m, MachineConfig::xeon_28core(profile), check_globals)
    }

    /// Full pipeline for a benchmark: Polly-sim + SPLENDID + baselines.
    pub fn pipeline(bench: &Benchmark) -> Result<PipelineArtifacts, HarnessError> {
        let (parallel_module, report) = Self::polly(bench.sequential)?;
        let splendid = decompile(&parallel_module, &SplendidOptions::default())
            .map_err(|e| HarnessError::other(format!("splendid: {e}")))?;
        let rellic = decompile_rellic_like(&parallel_module);
        let ghidra = decompile_ghidra_like(&parallel_module);
        Ok(PipelineArtifacts {
            parallel_module,
            report,
            splendid,
            rellic,
            ghidra,
        })
    }

    /// Compile the whole suite to parallel IR: the batch workload the
    /// serve layer schedules (`splendid dump-polybench`, perfbench).
    pub fn polly_suite() -> Result<Vec<(String, Module)>, HarnessError> {
        crate::kernels::benchmarks()
            .iter()
            .map(|b| {
                Self::polly(b.sequential)
                    .map(|(m, _)| (b.name.to_string(), m))
                    .map_err(|e| HarnessError::new(e.stage, format!("{}: {}", b.name, e.message)))
            })
            .collect()
    }

    /// Recompile decompiled source and execute it, returning the checksum
    /// and kernel cycles.
    ///
    /// Never panics on malformed input: parse, lowering, and execution
    /// failures — including panics from pipeline invariants violated by
    /// generator-shaped sources — come back as a stage-tagged
    /// [`HarnessError`], so a differential-testing oracle can record the
    /// case and keep going.
    pub fn recompile_and_run(
        source: &str,
        runtime: OmpRuntime,
        profile: CompilerProfile,
        check_globals: &[&str],
    ) -> Result<(f64, u64), HarnessError> {
        Self::run_source(source, runtime, profile, check_globals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{benchmark, benchmarks};

    #[test]
    fn recompile_and_run_reports_parse_failures_as_errors() {
        // Generator-shaped degenerate input: an unterminated block.
        let err = Harness::recompile_and_run(
            "void kernel() { for (;;) {",
            OmpRuntime::LibOmp,
            CompilerProfile::gcc(),
            &[],
        )
        .unwrap_err();
        assert_eq!(err.stage, HarnessStage::Parse, "{err}");
    }

    #[test]
    fn recompile_and_run_reports_missing_kernel_as_error() {
        let err = Harness::recompile_and_run(
            "double A[4];\nvoid init() { A[0] = 1.0; }\n",
            OmpRuntime::LibOmp,
            CompilerProfile::gcc(),
            &["A"],
        )
        .unwrap_err();
        assert_eq!(err.stage, HarnessStage::Kernel, "{err}");
    }

    #[test]
    fn recompile_and_run_reports_unknown_checksum_global_as_error() {
        let err = Harness::recompile_and_run(
            "void kernel() { int i; i = 0; }",
            OmpRuntime::LibOmp,
            CompilerProfile::gcc(),
            &["missing"],
        )
        .unwrap_err();
        assert_eq!(err.stage, HarnessStage::Checksum, "{err}");
    }

    #[test]
    fn harness_contains_panics_as_structured_errors() {
        let err =
            contain_panics::<()>(|| panic!("invariant violated by generated input")).unwrap_err();
        assert_eq!(err.stage, HarnessStage::Panic);
        assert!(err.message.contains("invariant violated"), "{err}");
    }

    #[test]
    fn empty_loop_bodies_round_trip_without_aborting() {
        // The canonical generator shape that must never abort the oracle:
        // a kernel whose loop body is empty.
        let src = "double A[8];\nvoid kernel() {\n  int i;\n  for (i = 0; i < 4; i++) {\n  }\n  A[0] = 1.0;\n}\n";
        let r =
            Harness::recompile_and_run(src, OmpRuntime::LibGomp, CompilerProfile::gcc(), &["A"]);
        assert!(r.is_ok(), "{r:?}");
    }

    #[test]
    fn gemm_pipeline_end_to_end() {
        let b = benchmark("gemm").unwrap();
        let art = Harness::pipeline(&b).unwrap();
        assert_eq!(art.report.parallelized_count(), 1, "{:?}", art.report);
        let s = &art.splendid.source;
        assert!(s.contains("#pragma omp parallel"), "{s}");
        assert!(!s.contains("__kmpc"), "{s}");

        // Semantics: sequential == parallel == decompiled-and-recompiled.
        let seq = Harness::run_source(
            b.sequential,
            OmpRuntime::LibOmp,
            CompilerProfile::clang(),
            b.check_globals,
        )
        .unwrap();
        let par = Harness::run(
            &art.parallel_module,
            MachineConfig::default(),
            b.check_globals,
        )
        .unwrap();
        assert_eq!(seq.0, par.0, "parallelization must preserve semantics");
        for rt in [OmpRuntime::LibOmp, OmpRuntime::LibGomp] {
            let re = Harness::recompile_and_run(
                &art.splendid.source,
                rt,
                CompilerProfile::gcc(),
                b.check_globals,
            )
            .unwrap();
            assert_eq!(re.0, seq.0, "decompiled code must match under {rt:?}");
        }
        // Performance: the parallel version is much faster than sequential.
        let speedup = seq.1 as f64 / par.1 as f64;
        assert!(speedup > 4.0, "expected real speedup, got {speedup:.2}");
    }

    #[test]
    fn every_benchmark_parallelizes_like_its_reference() {
        for b in benchmarks() {
            let (_, report) = Harness::polly(b.sequential).unwrap();
            let expected = b.reference.matches("#pragma omp for").count();
            assert_eq!(
                report.parallelized_count(),
                expected,
                "{}: reference pragmas vs parallelizer disagree: {:?}",
                b.name,
                report
            );
        }
    }

    #[test]
    fn every_benchmark_semantics_preserved_through_decompilation() {
        for b in benchmarks() {
            let art = Harness::pipeline(&b).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let seq = Harness::run_source(
                b.sequential,
                OmpRuntime::LibOmp,
                CompilerProfile::clang(),
                b.check_globals,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let re = Harness::recompile_and_run(
                &art.splendid.source,
                OmpRuntime::LibGomp,
                CompilerProfile::gcc(),
                b.check_globals,
            )
            .unwrap_or_else(|e| panic!("{}: recompile: {e}\n{}", b.name, art.splendid.source));
            assert!(seq.0.is_finite(), "{}: non-finite checksum", b.name);
            assert_eq!(seq.0, re.0, "{}: checksum mismatch", b.name);
        }
    }
}
