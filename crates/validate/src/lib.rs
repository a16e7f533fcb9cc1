#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! `splendid-validate`: bounded translation validation.
//!
//! Difftest (PR 2) gives *statistical* confidence that decompilation
//! preserves semantics; this crate gives *per-function* evidence at
//! serve time. The checker takes the source IR and the decompiled C,
//! re-lowers the C back to IR through `splendid-cfront` (at O0, so the
//! re-lowering itself stays as simple as possible), and executes both
//! sides in lockstep over a bounded set of probe states:
//!
//! * probe 0 runs each side from its natural initial state (globals as
//!   initialized, zero arguments);
//! * probes 1..N first drive every f64 global of *both* VMs into the
//!   same seeded finite state and seed scalar arguments, so functions
//!   that only read state the module's `init` would have produced are
//!   still exercised on meaningful values.
//!
//! After each probe the return value and every 8-byte word of every
//! source-module global are compared **bitwise**. Any divergence is a
//! [`ReasonKind::Mismatch`] — the only verdict that indicates the
//! decompiled C is actually wrong (the serve layer reacts by falling one
//! rung down the fidelity ladder). Everything else the checker cannot
//! prove is reported as a distinct incompleteness reason (pointer
//! parameters, re-lowering failures, exhausted execution bounds, ...):
//! the function is tagged `UNVERIFIED` but not re-decompiled, because
//! the output is not known to be wrong.
//!
//! `Verified` therefore means: at least one probe ran both sides to
//! completion, and no probe observed any divergence. It is a bounded
//! equivalence check, not a proof — see DESIGN.md, "Translation
//! validation", for the precise claim and its known holes.

pub mod mutate;

use splendid_cfront::{lower_program, parse_program, LowerOptions};
use splendid_interp::{CompilerProfile, MachineConfig, RtVal, Vm};
use splendid_ir::{hash::Fnv64, rng::Rng, Function, GlobalId, InstKind, Module, Type};

/// Checker bounds and seeding.
#[derive(Debug, Clone)]
pub struct ValidateConfig {
    /// Probe states per function (probe 0 is the natural initial state;
    /// the rest are seeded). At least 1.
    pub probes: u32,
    /// Seed mixed into every probe's state generator; fixed so verdicts
    /// are deterministic across runs and processes.
    pub seed: u64,
    /// Instruction budget for the *source* side of one probe. The
    /// re-lowered side gets a proportional budget (the O0 re-lowering
    /// executes more instructions for the same work), so a diverging
    /// non-terminating mutant still exhausts it.
    pub fuel: u64,
    /// Cores simulated by both VMs (parallel regions execute with real
    /// fan-out semantics; 2 keeps the fork paths exercised and cheap).
    pub cores: u32,
}

impl Default for ValidateConfig {
    fn default() -> ValidateConfig {
        ValidateConfig {
            probes: 3,
            seed: 0x53_50_4C_44, // "SPLD"
            fuel: 20_000_000,
            cores: 2,
        }
    }
}

impl ValidateConfig {
    fn machine(&self, fuel: u64) -> MachineConfig {
        MachineConfig {
            cores: self.cores,
            fuel,
            ..MachineConfig::xeon_28core(CompilerProfile::clang())
        }
    }
}

/// Why a function could not be verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReasonKind {
    /// The decompiled C failed to parse or lower back to IR.
    Relower,
    /// The function is absent from the re-lowered module.
    MissingFunction,
    /// The signature is outside the checker's input model (pointer
    /// parameters cannot be seeded meaningfully).
    UnsupportedSignature,
    /// A module global is outside the checker's comparison model
    /// (non-8-byte elements).
    UnsupportedGlobal,
    /// The function contains instructions outside the checker's probe
    /// model (vector IR: the lockstep comparison is defined over the
    /// *devectorized* module the serve layer validates, not over raw
    /// vector instructions).
    UnsupportedInstruction,
    /// Every probe ran out of fuel on the source side.
    BoundExhausted,
    /// Every probe was inconclusive (the source itself failed to run).
    Inconclusive,
    /// A probe observed divergent behavior: the decompiled C is wrong.
    Mismatch,
}

impl ReasonKind {
    /// Stable label used in annotations, stats, and reports.
    pub fn label(self) -> &'static str {
        match self {
            ReasonKind::Relower => "relower",
            ReasonKind::MissingFunction => "missing-function",
            ReasonKind::UnsupportedSignature => "unsupported-signature",
            ReasonKind::UnsupportedGlobal => "unsupported-global",
            ReasonKind::UnsupportedInstruction => "unsupported-instruction",
            ReasonKind::BoundExhausted => "bound-exhausted",
            ReasonKind::Inconclusive => "inconclusive",
            ReasonKind::Mismatch => "mismatch",
        }
    }
}

/// A structured `Unverified` reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reason {
    /// Failure class.
    pub kind: ReasonKind,
    /// Human-readable detail (probe index, diverging location, error).
    pub detail: String,
}

impl Reason {
    fn new(kind: ReasonKind, detail: impl Into<String>) -> Reason {
        Reason {
            kind,
            detail: detail.into(),
        }
    }

    /// True iff this reason proves the output wrong (as opposed to
    /// merely unprovable). Only mismatches trigger ladder fallback.
    pub fn is_mismatch(&self) -> bool {
        self.kind == ReasonKind::Mismatch
    }
}

impl std::fmt::Display for Reason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.detail.is_empty() {
            f.write_str(self.kind.label())
        } else {
            write!(f, "{}: {}", self.kind.label(), self.detail)
        }
    }
}

/// Per-function certificate payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// At least one conclusive probe, zero divergences.
    Verified,
    /// Not verified; the reason says whether the output is *wrong*
    /// (mismatch) or merely *unprovable* (everything else).
    Unverified(Reason),
}

impl Verdict {
    /// True for [`Verdict::Verified`].
    pub fn is_verified(&self) -> bool {
        matches!(self, Verdict::Verified)
    }
}

/// One function's verdict, for module-level reports.
#[derive(Debug, Clone)]
pub struct FunctionVerdict {
    /// Function name (shared between source IR and decompiled C).
    pub name: String,
    /// The verdict.
    pub verdict: Verdict,
}

/// Re-lower decompiled C source to IR at O0. No optimization passes run:
/// the simpler the re-lowering, the smaller the trusted base of the
/// check.
pub fn relower(source: &str) -> Result<Module, String> {
    let prog = parse_program(source).map_err(|e| format!("parse: {e}"))?;
    lower_program(&prog, "validate", &LowerOptions::default()).map_err(|e| format!("lower: {e}"))
}

/// Validate every (non-outlined) function of `src` against the
/// decompiled C `source`. Re-lowers once; a re-lowering failure yields
/// an `Unverified(Relower)` verdict for every function.
pub fn check_module(src: &Module, source: &str, cfg: &ValidateConfig) -> Vec<FunctionVerdict> {
    let relowered = relower(source);
    src.functions
        .iter()
        .filter(|f| !f.is_outlined)
        .map(|f| FunctionVerdict {
            name: src.name_of(f.name).to_string(),
            verdict: match &relowered {
                Ok(m) => check_function(src, m, src.name_of(f.name), cfg),
                Err(e) => Verdict::Unverified(Reason::new(ReasonKind::Relower, e.clone())),
            },
        })
        .collect()
}

/// Validate one function of `src` against its namesake in the already
/// re-lowered module.
pub fn check_function(
    src: &Module,
    relowered: &Module,
    name: &str,
    cfg: &ValidateConfig,
) -> Verdict {
    let unv = |kind, detail: String| Verdict::Unverified(Reason::new(kind, detail));

    let Some(sf) = src.functions.iter().find(|f| src.name_of(f.name) == name) else {
        return unv(
            ReasonKind::MissingFunction,
            format!("'{name}' not in source module"),
        );
    };
    let Some(rf) = relowered
        .functions
        .iter()
        .find(|f| relowered.name_of(f.name) == name)
    else {
        return unv(
            ReasonKind::MissingFunction,
            format!("'{name}' not in re-lowered module"),
        );
    };

    // Probe model: scalar (and marker-call) instructions only. Raw
    // vector IR is honestly incomplete: the serve pipeline devectorizes
    // before validating, so a vector instruction reaching the checker
    // means the caller skipped that step — refusing here is cheaper and
    // sounder than pretending the scalar lockstep covers wide lanes.
    if let Some(detail) = find_vector_instruction(src, sf) {
        return unv(ReasonKind::UnsupportedInstruction, detail);
    }

    // Input model: scalar int/float parameters only. Pointers cannot be
    // seeded meaningfully (the checker has no aliasing model), so such
    // functions are honestly incomplete rather than spuriously verified.
    if let Some(p) = sf.params.iter().find(|p| !seedable(p.ty)) {
        return unv(
            ReasonKind::UnsupportedSignature,
            format!(
                "parameter '{}' has unseedable type {}",
                src.name_of(p.name),
                p.ty
            ),
        );
    }
    if sf.params.len() != rf.params.len() {
        return unv(
            ReasonKind::Mismatch,
            format!(
                "parameter count differs: source {} vs re-lowered {}",
                sf.params.len(),
                rf.params.len()
            ),
        );
    }

    // Comparison model: every source global, word by word. Globals with
    // sub-word elements have no byte-accurate reader here; refuse rather
    // than under-compare.
    let mut globals = Vec::with_capacity(src.globals.len());
    for g in &src.globals {
        let name = src.name_of(g.name);
        if g.mem.elem().size_bytes() != 8 {
            return unv(
                ReasonKind::UnsupportedGlobal,
                format!("global '{name}' has non-word elements"),
            );
        }
        let (Some(src_id), Some(re_id)) = (last_named(src, name), last_named(relowered, name))
        else {
            return unv(
                ReasonKind::Mismatch,
                format!("global '{name}' missing from re-lowered module"),
            );
        };
        globals.push(PairedGlobal {
            name,
            src: src_id,
            re: re_id,
            words: g.mem.num_elems() as usize,
            seeded: g.mem.elem() == Type::F64,
        });
    }

    let mut conclusive = 0u32;
    let mut first_src_failure: Option<Reason> = None;
    for probe in 0..cfg.probes.max(1) {
        match run_probe(src, relowered, sf, rf, &globals, probe, cfg) {
            ProbeOutcome::Agree => conclusive += 1,
            ProbeOutcome::Diverge(detail) => {
                return unv(ReasonKind::Mismatch, format!("probe {probe}: {detail}"));
            }
            ProbeOutcome::SourceFailed(reason) => {
                first_src_failure.get_or_insert(reason);
            }
        }
    }
    if conclusive == 0 {
        return Verdict::Unverified(first_src_failure.unwrap_or_else(|| {
            Reason::new(ReasonKind::Inconclusive, "no probe ran to completion")
        }));
    }
    Verdict::Verified
}

/// A source global and the re-lowered global of the same name, paired
/// once per function. Each side is the module's last global of that
/// name, the one `@name` and [`Vm::read_global_f64`] resolve to.
struct PairedGlobal<'a> {
    name: &'a str,
    src: GlobalId,
    re: GlobalId,
    /// Elements of the source global, all 8-byte words.
    words: usize,
    /// Whether probes seed it (f64 elements).
    seeded: bool,
}

fn last_named(m: &Module, name: &str) -> Option<GlobalId> {
    m.globals
        .iter()
        .rposition(|g| m.name_of(g.name) == name)
        .map(|i| GlobalId(i as u32))
}

fn seedable(ty: Type) -> bool {
    ty.is_int() || ty.is_float()
}

/// First vector instruction of `f`, if any, described for the verdict.
/// Both vector-typed results and the lane/reduce operations (whose
/// results may be scalar) count — either puts the function outside the
/// scalar probe model.
fn find_vector_instruction(src: &Module, f: &Function) -> Option<String> {
    for bb in f.block_ids() {
        for &i in &f.block(bb).insts {
            let inst = f.inst(i);
            let vectorish = matches!(inst.ty, Type::Vec(_))
                || matches!(
                    inst.kind,
                    InstKind::Splat { .. }
                        | InstKind::ExtractLane { .. }
                        | InstKind::InsertLane { .. }
                        | InstKind::Reduce { .. }
                );
            if vectorish {
                return Some(format!(
                    "function '{}' contains vector instruction {} (devectorize before validating)",
                    src.name_of(f.name),
                    inst.ty
                ));
            }
        }
    }
    None
}

enum ProbeOutcome {
    /// Both sides ran to completion and every observation matched.
    Agree,
    /// Observable divergence: return value, a global word, or the
    /// re-lowered side failing/looping where the source did not.
    Diverge(String),
    /// The source side itself could not complete; nothing was proven
    /// (and nothing disproven) by this probe.
    SourceFailed(Reason),
}

fn run_probe(
    src: &Module,
    relowered: &Module,
    sf: &Function,
    rf: &Function,
    globals: &[PairedGlobal<'_>],
    probe: u32,
    cfg: &ValidateConfig,
) -> ProbeOutcome {
    let mut vm_src = Vm::new(src, cfg.machine(cfg.fuel));

    // Drive the source side into its seeded state. Only f64 words are
    // seeded (the only element type this pipeline's globals use); values
    // are finite and small so arithmetic stays finite-ish and branches on
    // magnitudes are exercised. The re-lowered side gets the same words
    // below, once its fuel budget is known.
    let mut rng = ProbeRng::new(cfg.seed, src.name_of(sf.name), probe);
    let seeds: Vec<Vec<u64>> = if probe > 0 {
        globals
            .iter()
            .filter(|g| g.seeded)
            .map(|g| (0..g.words).map(|_| rng.next_f64().to_bits()).collect())
            .collect()
    } else {
        Vec::new()
    };
    if let Err(detail) = seed_globals(&mut vm_src, globals, &seeds, |g| g.src) {
        return ProbeOutcome::SourceFailed(Reason::new(
            ReasonKind::Inconclusive,
            format!("probe {probe}: {detail}"),
        ));
    }
    let args: Vec<RtVal> = sf
        .params
        .iter()
        .map(|p| {
            if p.ty.is_float() {
                RtVal::F64(if probe == 0 { 1.0 } else { rng.next_f64() })
            } else {
                RtVal::Int(if probe == 0 { 0 } else { rng.next_small_int() })
            }
        })
        .collect();

    let src_ret = match vm_src.call_by_name(src.name_of(sf.name), &args) {
        Ok(r) => r,
        Err(e) => {
            let kind = if e.0.contains("fuel exhausted") {
                ReasonKind::BoundExhausted
            } else {
                ReasonKind::Inconclusive
            };
            return ProbeOutcome::SourceFailed(Reason::new(
                kind,
                format!("probe {probe}: source side: {e}"),
            ));
        }
    };

    // Give the re-lowered side a generous multiple of what the source
    // actually executed: a faithful O0 re-lowering is a small constant
    // factor slower, while a mutant that diverges into an endless loop
    // still blows the bound (and that *is* a mismatch).
    let re_fuel = vm_src.insts_executed().saturating_mul(64).max(100_000);
    let re_args: Vec<RtVal> = rf
        .params
        .iter()
        .zip(&args)
        .map(|(p, a)| match (p.ty.is_float(), a) {
            (true, RtVal::Int(v)) => RtVal::F64(*v as f64),
            (false, RtVal::F64(v)) => RtVal::Int(*v as i64),
            _ => *a,
        })
        .collect();
    let mut vm_re = Vm::new(relowered, cfg.machine(re_fuel));
    if let Err(detail) = seed_globals(&mut vm_re, globals, &seeds, |g| g.re) {
        return ProbeOutcome::Diverge(format!("could not seed re-lowered side: {detail}"));
    }
    let re_ret = match vm_re.call_by_name(relowered.name_of(rf.name), &re_args) {
        Ok(r) => r,
        Err(e) => {
            return ProbeOutcome::Diverge(format!(
                "source completed but re-lowered side failed: {e}"
            ));
        }
    };

    if let Some(detail) = compare_returns(src_ret, re_ret) {
        return ProbeOutcome::Diverge(detail);
    }
    let (mut s_words, mut r_words) = (Vec::new(), Vec::new());
    for g in globals {
        s_words.resize(g.words, 0);
        r_words.resize(g.words, 0);
        // Where each side's words stop being readable, and why.
        let s_end = vm_src.read_global_words(g.src, &mut s_words).err();
        let r_end = vm_re.read_global_words(g.re, &mut r_words).err();
        let gname = g.name;
        for k in 0..g.words {
            if let Some((_, e)) = s_end.as_ref().filter(|(at, _)| *at == k) {
                return ProbeOutcome::SourceFailed(Reason::new(
                    ReasonKind::Inconclusive,
                    format!("probe {probe}: reading source global '{gname}': {e}"),
                ));
            }
            if let Some((_, e)) = r_end.as_ref().filter(|(at, _)| *at == k) {
                return ProbeOutcome::Diverge(format!(
                    "re-lowered global '{gname}' unreadable: {e}"
                ));
            }
            if s_words[k] != r_words[k] {
                let (s, r) = (f64::from_bits(s_words[k]), f64::from_bits(r_words[k]));
                return ProbeOutcome::Diverge(format!(
                    "global {gname}[{k}]: source {s:?} vs re-lowered {r:?}"
                ));
            }
        }
    }
    ProbeOutcome::Agree
}

/// Write one probe's seed words into every f64 global of `vm`, on the
/// side `side` picks. Both VMs get the same words, so source and
/// re-lowered VMs start bit-identical.
fn seed_globals(
    vm: &mut Vm<'_>,
    globals: &[PairedGlobal<'_>],
    seeds: &[Vec<u64>],
    side: impl Fn(&PairedGlobal<'_>) -> GlobalId,
) -> Result<(), String> {
    for (g, words) in globals.iter().filter(|g| g.seeded).zip(seeds) {
        vm.write_global_words(side(g), words)
            .map_err(|e| format!("could not seed global '{}': {e}", g.name))?;
    }
    Ok(())
}

/// Bitwise comparison of optional return values. Pointer returns are
/// compared only for *presence* (absolute addresses are an artifact of
/// each VM's layout, not of the program).
fn compare_returns(s: Option<RtVal>, r: Option<RtVal>) -> Option<String> {
    match (s, r) {
        (None, None) => None,
        (Some(RtVal::Int(a)), Some(RtVal::Int(b))) if a == b => None,
        (Some(RtVal::F64(a)), Some(RtVal::F64(b))) if a.to_bits() == b.to_bits() => None,
        // Int/float width drift across the C round trip: compare by value
        // when the integer is exactly representable.
        (Some(RtVal::Int(a)), Some(RtVal::F64(b))) | (Some(RtVal::F64(b)), Some(RtVal::Int(a)))
            if a as f64 == b && b.fract() == 0.0 =>
        {
            None
        }
        (Some(RtVal::Ptr(_)), Some(RtVal::Ptr(_))) => None,
        (s, r) => Some(format!(
            "return value differs: source {s:?} vs re-lowered {r:?}"
        )),
    }
}

/// Deterministic per-(seed, function, probe) value stream: the shared
/// xorshift64* generator over an FNV-keyed state, mapped into small
/// finite ranges.
struct ProbeRng(Rng);

impl ProbeRng {
    fn new(seed: u64, fname: &str, probe: u32) -> ProbeRng {
        let h = Fnv64::seeded(seed).write(fname.as_bytes()).finish()
            ^ u64::from(probe).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ProbeRng(Rng::from_state(h | 1)) // xorshift state must be non-zero
    }

    /// Finite f64 in [-2.0, 2.0) with a coarse grid (multiples of
    /// 1/128), so float arithmetic on both sides hits identical bit
    /// patterns without accumulating representation noise.
    fn next_f64(&mut self) -> f64 {
        let raw = (self.0.next_u64() % 512) as i64 - 256;
        raw as f64 / 128.0
    }

    /// Small signed integer in [-4, 8): plausible loop trip counts and
    /// branch selectors.
    fn next_small_int(&mut self) -> i64 {
        (self.0.next_u64() % 12) as i64 - 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splendid_core::SplendidOptions;
    use splendid_parallel::{parallelize_module, ParallelizeOptions};
    use splendid_transforms::{optimize_module, O2Options};

    fn polly_pipeline(src: &str) -> Module {
        let prog = parse_program(src).unwrap();
        let mut m = lower_program(&prog, "v", &LowerOptions::default()).unwrap();
        optimize_module(&mut m, &O2Options::default());
        parallelize_module(&mut m, &ParallelizeOptions::default());
        m
    }

    const KERNEL: &str = r#"
#define N 64
double A[64];
double B[64];
void init() {
  int i;
  for (i = 0; i < N; i++) { A[i] = i * 0.125; }
}
void kernel() {
  int i;
  for (i = 1; i < N - 1; i++) { B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0; }
}
"#;

    fn decompile_prepared(m: &Module) -> (Module, String) {
        // The serve layer validates the *prepared* module (outlined
        // regions inlined back) against the decompiled source; mirror
        // that here via the one-shot pipeline.
        let mut timings = splendid_core::StageTimings::default();
        let opts = SplendidOptions::default();
        let prepared = splendid_core::prepare_module(m, &opts, &mut timings).unwrap();
        let functions = prepared
            .module
            .func_ids()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|fid| {
                splendid_core::decompile_function(&prepared, fid, &opts, &mut timings).unwrap()
            })
            .collect();
        let out = splendid_core::assemble_output(&prepared, functions, &mut timings);
        (prepared.module, out.source)
    }

    /// Probe values are part of every cached certificate's meaning: pin
    /// one probe's stream so the generator cannot drift silently.
    #[test]
    fn probe_value_stream_is_pinned() {
        let mut rng = ProbeRng::new(ValidateConfig::default().seed, "kernel_gemm", 1);
        let floats: Vec<f64> = (0..4).map(|_| rng.next_f64()).collect();
        let ints: Vec<i64> = (0..4).map(|_| rng.next_small_int()).collect();
        assert_eq!(floats, [1.03125, -0.96875, -1.1015625, 0.9921875]);
        assert_eq!(ints, [-2, 3, -3, 7]);
    }

    #[test]
    fn faithful_decompilation_verifies() {
        let m = polly_pipeline(KERNEL);
        let (prepared, source) = decompile_prepared(&m);
        let verdicts = check_module(&prepared, &source, &ValidateConfig::default());
        assert!(!verdicts.is_empty());
        for v in &verdicts {
            assert!(v.verdict.is_verified(), "{}: {:?}", v.name, v.verdict);
        }
    }

    #[test]
    fn corrupted_constant_is_a_mismatch() {
        let m = polly_pipeline(KERNEL);
        let (prepared, source) = decompile_prepared(&m);
        // 3.0 -> 4.0 in the kernel divisor: observably wrong output.
        let bad = source.replace("/ 3.0", "/ 4.0");
        assert_ne!(bad, source, "replacement must hit:\n{source}");
        let verdicts = check_module(&prepared, &bad, &ValidateConfig::default());
        let kernel = verdicts.iter().find(|v| v.name == "kernel").unwrap();
        match &kernel.verdict {
            Verdict::Unverified(r) if r.is_mismatch() => {}
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn unparsable_c_is_relower_not_mismatch() {
        let m = polly_pipeline(KERNEL);
        let verdicts = check_module(&m, "void kernel() {", &ValidateConfig::default());
        for v in &verdicts {
            match &v.verdict {
                Verdict::Unverified(r) => assert_eq!(r.kind, ReasonKind::Relower),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn missing_function_is_reported_by_name() {
        let m = polly_pipeline(KERNEL);
        let (prepared, source) = decompile_prepared(&m);
        // Keep only init by renaming kernel in the C.
        let bad = source.replace("void kernel()", "void kernel_gone()");
        let verdicts = check_module(&prepared, &bad, &ValidateConfig::default());
        let kernel = verdicts.iter().find(|v| v.name == "kernel").unwrap();
        match &kernel.verdict {
            Verdict::Unverified(r) => assert_eq!(r.kind, ReasonKind::MissingFunction),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pointer_parameters_are_honest_incompleteness() {
        let src = r#"
void scale(double* A) {
  int i;
  for (i = 0; i < 8; i++) { A[i] = A[i] * 2.0; }
}
"#;
        let m = polly_pipeline(src);
        let (prepared, source) = decompile_prepared(&m);
        let verdicts = check_module(&prepared, &source, &ValidateConfig::default());
        let v = verdicts.iter().find(|v| v.name == "scale").unwrap();
        match &v.verdict {
            Verdict::Unverified(r) => {
                assert_eq!(r.kind, ReasonKind::UnsupportedSignature);
                assert!(!r.is_mismatch(), "incompleteness must not claim wrongness");
            }
            other => panic!("{other:?}"),
        }
    }

    const VEC_KERNEL: &str = r#"
double A[64];
double B[64];
double C[64];
void kernel() {
  int i;
  for (i = 0; i < 64; i++) { A[i] = B[i] + C[i]; }
}
"#;

    fn o2_pipeline(src: &str) -> Module {
        let prog = parse_program(src).unwrap();
        let mut m = lower_program(&prog, "v", &LowerOptions::default()).unwrap();
        optimize_module(&mut m, &O2Options::default());
        m
    }

    #[test]
    fn raw_vector_ir_is_honest_incompleteness() {
        use splendid_transforms::vectorize::{vectorize_module, VectorizeOptions};
        let m = o2_pipeline(VEC_KERNEL);
        let (_, source) = decompile_prepared(&m);
        let mut wide = m.clone();
        let stats = vectorize_module(&mut wide, &VectorizeOptions::default());
        assert!(stats.vectorized_loops >= 1, "kernel should vectorize");
        // Validating the *vectorized* module (caller skipped
        // devectorize): the checker must refuse, not error or claim
        // the scalar lockstep covered wide lanes.
        let verdicts = check_module(&wide, &source, &ValidateConfig::default());
        let kernel = verdicts.iter().find(|v| v.name == "kernel").unwrap();
        match &kernel.verdict {
            Verdict::Unverified(r) => {
                assert_eq!(r.kind, ReasonKind::UnsupportedInstruction);
                assert!(!r.is_mismatch(), "incompleteness must not claim wrongness");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lane_index_flip_in_devectorized_output_is_refuted() {
        use splendid_transforms::vectorize::{vectorize_module, VectorizeOptions};
        let mut m = o2_pipeline(VEC_KERNEL);
        let stats = vectorize_module(&mut m, &VectorizeOptions::default());
        assert!(stats.vectorized_loops >= 1, "kernel should vectorize");
        let (prepared, source) = decompile_prepared(&m);
        assert!(source.contains("#pragma omp simd"), "{source}");
        // The faithful devectorization verifies...
        let ok = check_module(&prepared, &source, &ValidateConfig::default());
        let kv = ok.iter().find(|v| v.name == "kernel").unwrap();
        assert!(kv.verdict.is_verified(), "{:?}\n{source}", kv.verdict);
        // ...and a lane-index flip (a devectorizer bug shifting which
        // lane an iteration reads) is refuted, not silently verified.
        let bad = source.replace("B[i]", "B[i + 1]");
        assert_ne!(bad, source, "replacement must hit:\n{source}");
        let verdicts = check_module(&prepared, &bad, &ValidateConfig::default());
        let kernel = verdicts.iter().find(|v| v.name == "kernel").unwrap();
        match &kernel.verdict {
            Verdict::Unverified(r) if r.is_mismatch() => {}
            other => panic!("expected mismatch, got {other:?}\n{bad}"),
        }
    }

    #[test]
    fn verdicts_are_deterministic() {
        let m = polly_pipeline(KERNEL);
        let (prepared, source) = decompile_prepared(&m);
        let cfg = ValidateConfig::default();
        let a = check_module(&prepared, &source, &cfg);
        let b = check_module(&prepared, &source, &cfg);
        let fmt = |vs: &[FunctionVerdict]| {
            vs.iter()
                .map(|v| format!("{}={:?}", v.name, v.verdict))
                .collect::<Vec<_>>()
                .join(";")
        };
        assert_eq!(fmt(&a), fmt(&b));
    }

    /// Asserts that at least 90% of the functions of the first `kernels`
    /// PolyBench kernels are proven `Verified`.
    fn polybench_verifies_at_least_90_percent(kernels: usize) {
        let suite = splendid_polybench::Harness::polly_suite().unwrap();
        let mut verified = 0usize;
        let mut total = 0usize;
        for (name, module) in suite.iter().take(kernels) {
            let (prepared, source) = decompile_prepared(module);
            for v in check_module(&prepared, &source, &ValidateConfig::default()) {
                total += 1;
                if v.verdict.is_verified() {
                    verified += 1;
                } else {
                    eprintln!("{name}/{}: {:?}", v.name, v.verdict);
                }
            }
        }
        assert!(total > 0);
        assert!(
            verified * 10 >= total * 9,
            "{verified}/{total} verified (need >= 90%)"
        );
    }

    #[test]
    fn polybench_suite_mostly_verifies() {
        // A fast smoke over a few kernels, so regressions fail close to
        // home; the full suite below holds the gate.
        polybench_verifies_at_least_90_percent(4);
    }

    #[test]
    #[ignore = "full suite: CI validate job runs it in release"]
    fn full_polybench_suite_mostly_verifies() {
        polybench_verifies_at_least_90_percent(usize::MAX);
    }
}
