//! The SPLENDID decompilation pipeline and its evaluation variants.
//!
//! Besides the paper's variants, the pipeline implements a per-function
//! **fidelity ladder** (`Natural → Structured → Literal`): when a
//! sophisticated detransform fails — organically or under an injected
//! [`FaultPlan`] — only the affected function degrades to the next tier,
//! and the bottom tier (statement-per-instruction emission) is always
//! available, so a module-level answer is always produced.

use crate::cmap::ctype_of_mem;
use crate::detransform::{detransform_and_inline, RegionReport};
use crate::devectorize::{devectorize_module, DevecReport};
use crate::error::{panic_message, SplendidError, Stage};
use crate::fault::FaultPlan;
use crate::literal::emit_literal;
use crate::naming::{assign_names, assign_register_names, NameOrigin};
use crate::structure::{structure_function, StructureOptions};
use splendid_cfront::ast::{print_func, CFunc};
use splendid_ir::{FuncId, Module};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's evaluation variants (§5.3.1). The discriminant is the
/// variant's byte on the daemon wire and in cache-key option fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Variant {
    /// SPLENDID v1: natural control-flow construction only (for-loop
    /// reconstruction, loop-rotate de-transformation). Runtime calls stay.
    V1 = 1,
    /// Portable SPLENDID (v2): v1 + explicit parallelism translation
    /// (region detransformation, inlining, OpenMP pragmas).
    Portable = 2,
    /// Full SPLENDID: v2 + source variable renaming.
    Full = 3,
}

/// Fidelity tiers of the per-function degradation ladder, best first.
///
/// `Natural` is the paper's full pipeline. `Structured` keeps the
/// structurer but turns off the fragile detransforms (loop de-rotation,
/// guard elimination, pragma re-synthesis, expression folding) — the
/// Rellic-like shape. `Literal` is statement-per-instruction emission
/// with labels and gotos: mechanically derived from the IR, it cannot
/// fail on well-formed input and is always semantics-preserving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FidelityTier {
    /// Full natural decompilation (loop/pragma/name recovery).
    Natural,
    /// Single-pass emission for latency-critical requests: the literal
    /// emitter run as the *requested* tier, skipping naming and CFG
    /// reconstruction entirely. Opt-in only — the automatic degradation
    /// walk never lands here (a failed `Natural` goes to `Structured`),
    /// so requesting `Quick` is the only way to get it.
    Quick,
    /// Conservative structuring, register names, no pragmas.
    Structured,
    /// Statement-per-instruction C with labels and gotos.
    Literal,
}

impl FidelityTier {
    /// Stable lowercase label used in annotations and stats output.
    pub fn label(self) -> &'static str {
        match self {
            FidelityTier::Natural => "natural",
            FidelityTier::Quick => "quick",
            FidelityTier::Structured => "structured",
            FidelityTier::Literal => "literal",
        }
    }
}

impl std::fmt::Display for FidelityTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Options for [`decompile`].
#[derive(Debug, Clone)]
pub struct SplendidOptions {
    /// Which variant to run.
    pub variant: Variant,
    /// Guard-check elimination (ablation: design choice 1 in DESIGN.md).
    pub guard_elimination: bool,
    /// Expression folding (ablation: design choice 4).
    pub inline_expressions: bool,
    /// Highest fidelity tier to attempt. `Natural` (the default) runs
    /// the full ladder; the serve layer retries panicked work items with
    /// `Literal` to skip the fragile tiers entirely.
    pub start_tier: FidelityTier,
    /// Deterministic fault-injection plan. `None` (the default) is the
    /// zero-cost happy path: no counter is touched anywhere.
    pub faults: Option<Arc<FaultPlan>>,
    /// Run the bounded translation validator over every decompiled
    /// function and annotate the emitted C with per-function
    /// `verified`/`UNVERIFIED` tags. Off by default: validation is a
    /// serve-layer concern (the scheduler re-lowers and probe-executes
    /// the output), and the flag participates in cache keying so
    /// validated and unvalidated results never alias.
    pub validate: bool,
}

impl Default for SplendidOptions {
    fn default() -> SplendidOptions {
        SplendidOptions {
            variant: Variant::Full,
            guard_elimination: true,
            inline_expressions: true,
            start_tier: FidelityTier::Natural,
            faults: None,
            validate: false,
        }
    }
}

/// Consult the fault plan, if any, at an instrumented site.
#[inline]
fn fault_gate(opts: &SplendidOptions, site: Stage) -> Result<(), SplendidError> {
    match &opts.faults {
        None => Ok(()),
        Some(plan) => plan.check(site),
    }
}

/// Run `job` with panics contained as fatal stage errors.
fn contain<T>(stage: Stage, fname: &str, job: impl FnOnce() -> T) -> Result<T, SplendidError> {
    catch_unwind(AssertUnwindSafe(job))
        .map_err(|p| SplendidError::fatal(stage, panic_message(p)).in_function(fname))
}

/// Variable-restoration statistics (Figure 8).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NamingStats {
    /// Distinct local variables emitted.
    pub total_vars: usize,
    /// Of those, named from source metadata (directly or through inlining).
    pub restored_vars: usize,
}

impl NamingStats {
    /// Restored fraction in percent (100 when there are no variables).
    pub fn restored_pct(&self) -> f64 {
        if self.total_vars == 0 {
            100.0
        } else {
            100.0 * self.restored_vars as f64 / self.total_vars as f64
        }
    }
}

/// Result of decompiling a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompileOutput {
    /// Pretty-printed C source of the translation unit.
    pub source: String,
    /// Aggregate naming statistics.
    pub naming: NamingStats,
    /// Reports from the Parallel Region Detransformer.
    pub regions: Vec<RegionReport>,
    /// Total `goto` statements emitted (0 for fully structured output).
    pub gotos: usize,
}

/// Per-stage wall-clock time spent inside the pipeline.
///
/// Collected by [`decompile`] / [`decompile_function`] and aggregated by
/// callers (the serve layer sums these across work items into its
/// service-wide stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Parallel-region detransformation + inlining (module-wide).
    pub detransform: Duration,
    /// Variable-name restoration (per function).
    pub naming: Duration,
    /// Control-flow structuring + expression reconstruction (per function).
    pub structure: Duration,
    /// C pretty-printing (per function) and translation-unit assembly.
    pub emit: Duration,
    /// Functions that fell back to the structured tier.
    pub degraded_structured: u32,
    /// Functions that fell back to the literal tier.
    pub degraded_literal: u32,
}

impl StageTimings {
    /// Sum of all stages.
    pub fn total(&self) -> Duration {
        self.detransform + self.naming + self.structure + self.emit
    }

    /// Accumulate another timing record into this one.
    pub fn absorb(&mut self, other: &StageTimings) {
        self.detransform += other.detransform;
        self.naming += other.naming;
        self.structure += other.structure;
        self.emit += other.emit;
        self.degraded_structured += other.degraded_structured;
        self.degraded_literal += other.degraded_literal;
    }
}

/// A module after the module-wide pipeline stages, ready for reentrant
/// per-function decompilation via [`decompile_function`].
#[derive(Debug, Clone)]
pub struct PreparedModule {
    /// Detransformed (and, for non-V1 variants, region-inlined) module.
    pub module: Module,
    /// Reports from the Parallel Region Detransformer.
    pub regions: Vec<RegionReport>,
    /// Reports from the SIMD devectorizer: widened loops recovered as
    /// scalar `for` loops carrying a `#pragma omp simd` marker.
    pub simd_loops: Vec<DevecReport>,
    /// Lazily computed, memoized content digests (see [`crate::fingerprint`]):
    /// the serve cache keys every per-function lookup on these, so
    /// computing them once per prepared module instead of once per lookup
    /// is what makes an incremental re-decompile O(changed functions).
    pub(crate) digests: std::sync::OnceLock<crate::fingerprint::ModuleDigests>,
}

/// Result of decompiling a single function of a [`PreparedModule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionOutput {
    /// The reconstructed C function, printed: the header line, the
    /// indented body, the closing brace and a trailing newline.
    pub text: String,
    /// Naming statistics for this function alone.
    pub naming: NamingStats,
    /// `goto` statements emitted for this function.
    pub gotos: usize,
    /// The fidelity tier the function was actually emitted at.
    pub tier: FidelityTier,
}

impl FunctionOutput {
    /// Insert `/* note */` as the first line of the function body. A
    /// later note lands above an earlier one, so the ladder's
    /// degradation note ends up below validation's verdict.
    pub fn annotate(&mut self, note: &str) {
        let at = self.text.find('\n').map_or(self.text.len(), |i| i + 1);
        self.text.insert_str(at, &format!("  /* {note} */\n"));
    }
}

/// What one successful fidelity-tier attempt emitted, before printing.
struct Emitted {
    cfunc: CFunc,
    naming: NamingStats,
    gotos: usize,
}

/// Run the module-wide stages (parallel-region detransformation and
/// inlining) once, so individual functions can then be decompiled
/// independently — and concurrently — with [`decompile_function`].
pub fn prepare_module(
    module: &Module,
    opts: &SplendidOptions,
    timings: &mut StageTimings,
) -> Result<PreparedModule, SplendidError> {
    let start = Instant::now();
    let mut work = module.clone();
    let regions = if opts.variant != Variant::V1 {
        fault_gate(opts, Stage::Detransform)?;
        let detransformed = catch_unwind(AssertUnwindSafe(|| detransform_and_inline(&mut work)))
            .map_err(|p| SplendidError::fatal(Stage::Detransform, panic_message(p)))?;
        detransformed.map_err(|e| SplendidError::fatal(Stage::Detransform, e))?
    } else {
        Vec::new()
    };
    // Devectorization runs for every variant: without it, vector
    // instructions reach the structurer's expression builder and the
    // whole function degrades to the literal tier.
    let simd_loops = catch_unwind(AssertUnwindSafe(|| devectorize_module(&mut work)))
        .map_err(|p| SplendidError::fatal(Stage::Detransform, panic_message(p)))?;
    timings.detransform += start.elapsed();
    Ok(PreparedModule {
        module: work,
        regions,
        simd_loops,
        digests: std::sync::OnceLock::new(),
    })
}

/// One attempt at emitting `fid` at a specific fidelity tier.
fn attempt_tier(
    prepared: &PreparedModule,
    fid: FuncId,
    opts: &SplendidOptions,
    tier: FidelityTier,
    timings: &mut StageTimings,
) -> Result<Emitted, SplendidError> {
    let work = &prepared.module;
    let fname = work.name_of(work.func(fid).name).to_string();

    if tier == FidelityTier::Literal || tier == FidelityTier::Quick {
        // The bottom rung (and its opt-in `Quick` twin): no fault gates,
        // no fragile passes. Either it emits or the input IR itself is
        // malformed.
        let start = Instant::now();
        let lit = contain(Stage::Emit, &fname, || emit_literal(work, work.func(fid)))??;
        timings.structure += start.elapsed();
        return Ok(Emitted {
            cfunc: lit.cfunc,
            naming: NamingStats {
                total_vars: lit.vars,
                restored_vars: 0,
            },
            gotos: lit.gotos,
        });
    }

    let start = Instant::now();
    fault_gate(opts, Stage::Naming).map_err(|e| e.in_function(&fname))?;
    let use_source_names = tier == FidelityTier::Natural && opts.variant == Variant::Full;
    let naming = contain(Stage::Naming, &fname, || {
        if use_source_names {
            assign_names(work, fid)
        } else {
            assign_register_names(work, fid)
        }
    })?;
    timings.naming += start.elapsed();

    let sopts = if tier == FidelityTier::Natural {
        StructureOptions {
            detransform_rotation: true,
            guard_elimination: opts.guard_elimination,
            emit_pragmas: opts.variant != Variant::V1,
            inline_expressions: opts.inline_expressions,
            hoist_decls: false,
        }
    } else {
        // Conservative structuring: do-while loops, register names, no
        // guard elimination, no pragmas, no expression folding, and all
        // declarations hoisted to the function top so block scoping can
        // never invalidate a live value.
        StructureOptions {
            detransform_rotation: false,
            guard_elimination: false,
            emit_pragmas: false,
            inline_expressions: false,
            hoist_decls: true,
        }
    };
    fault_gate(opts, Stage::Structure).map_err(|e| e.in_function(&fname))?;
    if sopts.emit_pragmas {
        fault_gate(opts, Stage::Pragma).map_err(|e| e.in_function(&fname))?;
    }
    let start = Instant::now();
    let structured = contain(Stage::Structure, &fname, || {
        structure_function(work, work.func(fid), &naming, &sopts)
    })??;
    timings.structure += start.elapsed();

    let restored = structured
        .variables
        .iter()
        .filter(|(_, o)| *o == NameOrigin::SourceVariable)
        .count();
    Ok(Emitted {
        cfunc: structured.cfunc,
        naming: NamingStats {
            total_vars: structured.variables.len(),
            restored_vars: restored,
        },
        gotos: structured.gotos,
    })
}

/// Decompile one function of a prepared module, walking the fidelity
/// ladder from `opts.start_tier` down until a tier succeeds, and print
/// the tier that did.
///
/// This is the reentrant unit of work the service layer schedules: it
/// takes only shared references, touches no global state, and two calls
/// with the same `(function IR, options)` produce identical output. A
/// failure (organic or injected) in one tier degrades only this function
/// to the next tier; `Err` is returned only when even the literal tier
/// cannot emit, which means the function IR itself is malformed.
pub fn decompile_function(
    prepared: &PreparedModule,
    fid: FuncId,
    opts: &SplendidOptions,
    timings: &mut StageTimings,
) -> Result<FunctionOutput, SplendidError> {
    let mut first_error: Option<SplendidError> = None;
    for tier in [
        FidelityTier::Natural,
        FidelityTier::Quick,
        FidelityTier::Structured,
        FidelityTier::Literal,
    ] {
        if tier < opts.start_tier {
            continue;
        }
        // `Quick` is opt-in: the automatic walk from `Natural` skips it so
        // organic degradation keeps its established Structured → Literal
        // shape (and its stats).
        if tier == FidelityTier::Quick && opts.start_tier != FidelityTier::Quick {
            continue;
        }
        match attempt_tier(prepared, fid, opts, tier, timings) {
            Ok(emitted) => {
                match tier {
                    // A *requested* Quick emit is not a degradation.
                    FidelityTier::Natural | FidelityTier::Quick => {}
                    FidelityTier::Structured => timings.degraded_structured += 1,
                    FidelityTier::Literal => timings.degraded_literal += 1,
                }
                let start = Instant::now();
                let mut out = FunctionOutput {
                    text: print_func(&emitted.cfunc),
                    naming: emitted.naming,
                    gotos: emitted.gotos,
                    tier,
                };
                timings.emit += start.elapsed();
                if tier > FidelityTier::Natural && tier != FidelityTier::Quick {
                    let why = first_error
                        .as_ref()
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "requested by caller".to_string());
                    out.annotate(&format!("splendid: degraded to {tier} tier: {why}"));
                }
                return Ok(out);
            }
            Err(e) => {
                if first_error.is_none() {
                    first_error = Some(e.clone());
                }
                if tier == FidelityTier::Literal {
                    return Err(e);
                }
            }
        }
    }
    // start_tier below Literal always reaches one of the returns above;
    // this is only for an (impossible) empty ladder.
    Err(first_error
        .unwrap_or_else(|| SplendidError::fatal(Stage::Emit, "no fidelity tier attempted")))
}

/// Lay out a translation unit: one declaration line per global of
/// `prepared`, a blank line when there are any, then the printed
/// functions separated by blank lines.
pub fn print_unit(prepared: &PreparedModule, functions: &[FunctionOutput]) -> String {
    let module = &prepared.module;
    let text_len: usize = functions.iter().map(|f| f.text.len() + 1).sum();
    let mut out = String::with_capacity(text_len + 64 * module.globals.len());
    for g in &module.globals {
        let _ = writeln!(
            out,
            "{};",
            ctype_of_mem(&g.mem).decl(module.name_of(g.name))
        );
    }
    if !module.globals.is_empty() {
        out.push('\n');
    }
    for (i, f) in functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&f.text);
    }
    out
}

/// Assemble per-function outputs (in module function order) into the
/// final [`DecompileOutput`].
pub fn assemble_output(
    prepared: &PreparedModule,
    functions: Vec<FunctionOutput>,
    timings: &mut StageTimings,
) -> DecompileOutput {
    let start = Instant::now();
    let source = print_unit(prepared, &functions);
    timings.emit += start.elapsed();
    let mut naming = NamingStats::default();
    let mut gotos = 0;
    for f in &functions {
        naming.total_vars += f.naming.total_vars;
        naming.restored_vars += f.naming.restored_vars;
        gotos += f.gotos;
    }
    DecompileOutput {
        source,
        naming,
        regions: prepared.regions.clone(),
        gotos,
    }
}

/// Decompile a parallel-IR module to C/OpenMP source.
pub fn decompile(
    module: &Module,
    opts: &SplendidOptions,
) -> Result<DecompileOutput, SplendidError> {
    decompile_timed(module, opts).map(|(out, _)| out)
}

/// [`decompile`] that also reports where the time went.
pub fn decompile_timed(
    module: &Module,
    opts: &SplendidOptions,
) -> Result<(DecompileOutput, StageTimings), SplendidError> {
    let mut timings = StageTimings::default();
    let prepared = prepare_module(module, opts, &mut timings)?;
    let functions = prepared
        .module
        .func_ids()
        .collect::<Vec<_>>()
        .into_iter()
        .map(|fid| decompile_function(&prepared, fid, opts, &mut timings))
        .collect::<Result<Vec<_>, _>>()?;
    let out = assemble_output(&prepared, functions, &mut timings);
    Ok((out, timings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use splendid_cfront::{lower_program, parse_program, LowerOptions, OmpRuntime};
    use splendid_interp::{MachineConfig, Vm};
    use splendid_parallel::{parallelize_module, ParallelizeOptions};
    use splendid_transforms::{optimize_module, O2Options};

    /// Compile C -> IR -> O2 -> Polly-sim.
    fn polly_pipeline(src: &str) -> Module {
        let prog = parse_program(src).unwrap();
        let mut m = lower_program(&prog, "bench", &LowerOptions::default()).unwrap();
        optimize_module(&mut m, &O2Options::default());
        parallelize_module(&mut m, &ParallelizeOptions::default());
        m
    }

    const JACOBI_LIKE: &str = r#"
#define N 1000
double A[1000];
double B[1000];

void init() {
  int i;
  for (i = 0; i < N; i++) {
    A[i] = i * 0.125;
  }
}

void kernel() {
  int i;
  for (i = 1; i < N - 1; i++) {
    B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0;
  }
}
"#;

    #[test]
    fn full_decompilation_produces_portable_openmp() {
        let m = polly_pipeline(JACOBI_LIKE);
        let out = decompile(&m, &SplendidOptions::default()).unwrap();
        let src = &out.source;
        assert!(
            src.contains("#pragma omp parallel"),
            "missing parallel pragma:\n{src}"
        );
        assert!(
            src.contains("#pragma omp for schedule(static) nowait"),
            "{src}"
        );
        assert!(src.contains("for ("), "{src}");
        assert!(
            !src.contains("__kmpc"),
            "runtime calls must be eliminated:\n{src}"
        );
        assert!(
            !src.contains("do {"),
            "rotated loops must be de-rotated:\n{src}"
        );
        assert_eq!(out.gotos, 0, "fully structured output expected:\n{src}");
    }

    #[test]
    fn variable_names_restored() {
        let m = polly_pipeline(JACOBI_LIKE);
        let out = decompile(&m, &SplendidOptions::default()).unwrap();
        // The induction variable name `i` survives into the pragma'd loop.
        assert!(
            out.source.contains("for (uint64_t i = ") || out.source.contains("for (uint64_t i="),
            "IV should be named i:\n{}",
            out.source
        );
        assert!(out.naming.restored_pct() > 50.0, "{:?}", out.naming);
    }

    #[test]
    fn v1_keeps_runtime_calls() {
        let m = polly_pipeline(JACOBI_LIKE);
        let out = decompile(
            &m,
            &SplendidOptions {
                variant: Variant::V1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.source.contains("__kmpc_fork_call"), "{}", out.source);
        assert!(!out.source.contains("#pragma"), "{}", out.source);
        // But control flow is still natural: for loops, not do-while.
        assert!(out.source.contains("for ("), "{}", out.source);
    }

    #[test]
    fn portable_variant_uses_register_names() {
        let m = polly_pipeline(JACOBI_LIKE);
        let out = decompile(
            &m,
            &SplendidOptions {
                variant: Variant::Portable,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.source.contains("#pragma omp"), "{}", out.source);
        assert_eq!(out.naming.restored_vars, 0);
    }

    #[test]
    fn decompiled_output_recompiles_and_matches_semantics() {
        let m = polly_pipeline(JACOBI_LIKE);
        let out = decompile(&m, &SplendidOptions::default()).unwrap();

        // Reference result: run the parallel IR directly.
        let reference = {
            let mut vm = Vm::new(&m, MachineConfig::default());
            vm.call_by_name("init", &[]).unwrap();
            vm.call_by_name("kernel", &[]).unwrap();
            vm.checksum_all().unwrap()
        };

        // Recompile the decompiled source with BOTH runtimes (portability).
        for rt in [OmpRuntime::LibOmp, OmpRuntime::LibGomp] {
            let prog = parse_program(&out.source)
                .map_err(|e| format!("recompile parse failed: {e}\n{}", out.source))
                .unwrap();
            let mut m2 = lower_program(&prog, "re", &LowerOptions { runtime: rt }).unwrap();
            optimize_module(&mut m2, &O2Options::default());
            let mut vm = Vm::new(&m2, MachineConfig::default());
            vm.call_by_name("init", &[]).unwrap();
            vm.call_by_name("kernel", &[]).unwrap();
            let got = vm.checksum_all().unwrap();
            assert_eq!(got, reference, "semantics must match under {rt:?}");
        }
    }

    #[test]
    fn may_alias_check_decompiles_to_if_else() {
        let src = r#"
void may_alias(double* A, double* B, double* C) {
  int i;
  for (i = 0; i < 999; i++) {
    A[i+1] = M_PI * B[i] + exp(C[i]);
  }
}
"#;
        let m = polly_pipeline(src);
        let out = decompile(&m, &SplendidOptions::default()).unwrap();
        let s = &out.source;
        assert!(s.contains("if ("), "aliasing check must appear:\n{s}");
        assert!(s.contains("} else {"), "sequential fallback expected:\n{s}");
        assert!(s.contains("#pragma omp"), "{s}");
        assert!(s.contains("3.14159265358979"), "M_PI constant:\n{s}");
        // Both versions use for loops.
        assert!(s.matches("for (").count() >= 2, "{s}");
    }

    #[test]
    fn guard_elimination_ablation() {
        let m = polly_pipeline(JACOBI_LIKE);
        let with = decompile(&m, &SplendidOptions::default()).unwrap();
        let without = decompile(
            &m,
            &SplendidOptions {
                guard_elimination: false,
                ..Default::default()
            },
        )
        .unwrap();
        // Disabling guard elimination keeps an if around a do-while.
        assert!(without.source.contains("do {"), "{}", without.source);
        assert!(!with.source.contains("do {"), "{}", with.source);
    }

    #[test]
    fn statement_per_instruction_ablation() {
        let m = polly_pipeline(JACOBI_LIKE);
        let folded = decompile(&m, &SplendidOptions::default()).unwrap();
        let unfolded = decompile(
            &m,
            &SplendidOptions {
                inline_expressions: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            unfolded.source.lines().count() > folded.source.lines().count(),
            "statement-per-instruction must be longer"
        );
    }

    #[test]
    fn decompilation_is_deterministic() {
        let m = polly_pipeline(JACOBI_LIKE);
        let a = decompile(&m, &SplendidOptions::default()).unwrap();
        let b = decompile(&m, &SplendidOptions::default()).unwrap();
        assert_eq!(a.source, b.source);
    }

    #[test]
    fn nested_loop_kernel_structure() {
        let src = r#"
#define N 64
double A[64][64];
double x[64];
double y[64];
void mv() {
  int i;
  int j;
  for (i = 0; i < N; i++) {
    y[i] = 0.0;
    for (j = 0; j < N; j++) {
      y[i] = y[i] + A[i][j] * x[j];
    }
  }
}
"#;
        let m = polly_pipeline(src);
        let out = decompile(&m, &SplendidOptions::default()).unwrap();
        let s = &out.source;
        // Two nested for loops, 2-D subscripts.
        assert!(s.matches("for (").count() >= 2, "{s}");
        assert!(s.contains("A[") && s.contains("]["), "2-D indexing:\n{s}");
        assert_eq!(out.gotos, 0, "{s}");
    }

    #[test]
    fn annotations_open_the_body_latest_first() {
        let mut out = FunctionOutput {
            text: "long f(long n) {\n  return n;\n}\n".into(),
            naming: NamingStats::default(),
            gotos: 0,
            tier: FidelityTier::Literal,
        };
        out.annotate("splendid: degraded to literal tier: x");
        out.annotate("splendid: verified");
        assert_eq!(
            out.text,
            "long f(long n) {\n  /* splendid: verified */\n  \
             /* splendid: degraded to literal tier: x */\n  return n;\n}\n"
        );
    }

    // ---- fidelity ladder ---------------------------------------------------

    /// Checksum of running init + kernel on a module in the interpreter.
    fn checksum_of(m: &Module) -> f64 {
        let mut vm = Vm::new(m, MachineConfig::default());
        vm.call_by_name("init", &[]).unwrap();
        vm.call_by_name("kernel", &[]).unwrap();
        vm.checksum_all().unwrap()
    }

    /// Recompile decompiled source under libomp and return its checksum.
    fn recompiled_checksum(source: &str) -> f64 {
        let prog = parse_program(source)
            .unwrap_or_else(|e| panic!("recompile parse failed: {e}\n{source}"));
        let mut m2 = lower_program(&prog, "re", &LowerOptions::default()).unwrap();
        optimize_module(&mut m2, &O2Options::default());
        checksum_of(&m2)
    }

    #[test]
    fn structure_fault_degrades_one_function_and_preserves_semantics() {
        use crate::error::Stage;
        use crate::fault::{FaultKind, FaultPlan};
        let m = polly_pipeline(JACOBI_LIKE);
        let reference = checksum_of(&m);
        let opts = SplendidOptions {
            faults: Some(Arc::new(FaultPlan::single(
                Stage::Structure,
                1,
                FaultKind::Fail,
            ))),
            ..Default::default()
        };
        let (out, timings) = decompile_timed(&m, &opts).unwrap();
        assert_eq!(timings.degraded_structured, 1, "exactly one function falls");
        assert_eq!(timings.degraded_literal, 0);
        assert_eq!(
            out.source.matches("splendid: degraded to").count(),
            1,
            "the degraded function is annotated once:\n{}",
            out.source
        );
        assert_eq!(
            recompiled_checksum(&out.source),
            reference,
            "degraded output must stay semantics-preserving:\n{}",
            out.source
        );
    }

    #[test]
    fn literal_start_tier_preserves_semantics() {
        let m = polly_pipeline(JACOBI_LIKE);
        let reference = checksum_of(&m);
        let opts = SplendidOptions {
            start_tier: FidelityTier::Literal,
            ..Default::default()
        };
        let (out, timings) = decompile_timed(&m, &opts).unwrap();
        assert!(
            timings.degraded_literal >= 2,
            "every function is pinned at the literal tier: {timings:?}"
        );
        assert!(
            out.source.contains("degraded to literal tier"),
            "{}",
            out.source
        );
        assert_eq!(
            recompiled_checksum(&out.source),
            reference,
            "literal tier is statement-per-instruction but semantics-exact:\n{}",
            out.source
        );
    }

    #[test]
    fn empty_fault_plan_is_behavior_neutral() {
        use crate::fault::FaultPlan;
        let m = polly_pipeline(JACOBI_LIKE);
        let base = decompile(&m, &SplendidOptions::default()).unwrap();
        let with_plan = decompile(
            &m,
            &SplendidOptions {
                faults: Some(Arc::new(FaultPlan::new(Vec::new()))),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            base.source, with_plan.source,
            "an empty plan must be byte-identical to no plan"
        );
    }

    #[test]
    fn detransform_fault_fails_prepare_with_transient_error() {
        use crate::error::Stage;
        use crate::fault::{FaultKind, FaultPlan};
        let m = polly_pipeline(JACOBI_LIKE);
        let opts = SplendidOptions {
            faults: Some(Arc::new(FaultPlan::single(
                Stage::Detransform,
                1,
                FaultKind::Timeout { millis: 0 },
            ))),
            ..Default::default()
        };
        let err = decompile(&m, &opts).unwrap_err();
        assert_eq!(err.stage, Stage::Detransform);
        assert!(err.transient, "timeout faults surface as transient: {err}");
    }
}
