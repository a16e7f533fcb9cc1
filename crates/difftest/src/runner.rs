//! Campaign driver: generate N cases, oracle each, shrink failures,
//! and produce a byte-deterministic report.
//!
//! With [`DifftestConfig::validate`] set, every case is additionally
//! pushed through the translation validator and cross-checked against
//! the oracle verdict: the validator must never say `Verified` about a
//! decompilation the six-route oracle proves wrong (soundness), while
//! `Unverified` verdicts on oracle-passing cases are tallied as the
//! checker's incompleteness rate.

use crate::gen::{generate, GenConfig};
use crate::oracle::{CaseFailure, Decompiler, InProcessDecompiler, Oracle};
use crate::shrink::shrink;
use splendid_core::SplendidOptions;
use splendid_ir::hash::{fnv64, Fnv64};
use splendid_parallel::{parallelize_module, ParallelizeOptions};
use splendid_polybench::Harness;

/// Campaign configuration (mirrors the `splendid difftest` CLI flags).
#[derive(Debug, Clone)]
pub struct DifftestConfig {
    /// Campaign seed; case `i` is generated from `(seed, i)`.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: u64,
    /// Minimize failing cases before reporting.
    pub shrink: bool,
    /// Replay exactly one case index instead of the whole campaign.
    pub only_case: Option<u64>,
    /// Profitability floor for the parallelizer route.
    pub min_work: u64,
    /// Cross-check every case against the translation validator.
    pub validate: bool,
}

impl Default for DifftestConfig {
    fn default() -> DifftestConfig {
        DifftestConfig {
            seed: 0,
            cases: 100,
            shrink: true,
            only_case: None,
            min_work: 0,
            validate: false,
        }
    }
}

/// One failing case, ready to print.
#[derive(Debug, Clone)]
pub struct FailedCase {
    /// Case index within the campaign.
    pub case: u64,
    /// The (post-shrink, if enabled) failure.
    pub failure: CaseFailure,
    /// Source of the failing program — shrunk when shrinking ran.
    pub source: String,
    /// Line count of the program as generated, before shrinking.
    pub original_lines: usize,
    /// Whether `source` is the shrunk form.
    pub shrunk: bool,
}

/// Campaign result. `Display` is byte-deterministic for a given
/// `(seed, cases, min_work)` — two runs must print identically.
#[derive(Debug, Clone)]
pub struct DifftestReport {
    /// Campaign seed.
    pub seed: u64,
    /// Cases executed.
    pub cases_run: u64,
    /// Cases on which every route agreed.
    pub passed: u64,
    /// Divergent or erroring cases.
    pub failed: Vec<FailedCase>,
    /// Loops the parallelizer route outlined, summed over passing cases.
    pub parallelized_loops: usize,
    /// Loops the vectorizer widened, summed over passing cases. Only
    /// nonzero (and only printed) when the oracle ran the SIMD routes.
    pub vectorized_loops: usize,
    /// Whether the oracle ran the `vectorize`/`devectorize` routes.
    pub simd_routes: bool,
    /// FNV-1a over the passing checksums' bit patterns: a campaign
    /// fingerprint that two identical runs must reproduce exactly.
    pub checksum_digest: u64,
    /// Validator cross-check results; `None` unless
    /// [`DifftestConfig::validate`] was set.
    pub validation: Option<ValidationReport>,
}

/// Validator cross-check tallies for one campaign.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    /// Cases the validator actually checked end to end.
    pub cases_checked: u64,
    /// Functions the validator marked `Verified`, summed over cases.
    pub functions_verified: u64,
    /// Functions the validator marked `Unverified`, summed over cases.
    pub functions_unverified: u64,
    /// Oracle-passing cases where at least one function came back
    /// `Unverified` — the checker's incompleteness, not a bug.
    pub incomplete_cases: u64,
    /// Cases the validator could not set up (compile/decompile error on
    /// the validation pipeline itself) — skipped, not counted either way.
    pub skipped_cases: u64,
    /// Soundness violations: case indices where a decompile-route
    /// oracle failure coexists with an all-`Verified` verdict. Must
    /// stay empty; any entry is a validator bug.
    pub unsound_cases: Vec<u64>,
}

impl ValidationReport {
    /// Fraction of checked oracle-passing work the validator could not
    /// prove, in [0, 1]. Zero when nothing was checked.
    pub fn incompleteness_rate(&self) -> f64 {
        if self.cases_checked == 0 {
            0.0
        } else {
            self.incomplete_cases as f64 / self.cases_checked as f64
        }
    }
}

impl DifftestReport {
    /// True iff no case diverged.
    pub fn all_passed(&self) -> bool {
        self.failed.is_empty()
    }

    /// True iff the validator cross-check (if run) found no case where
    /// it claimed `Verified` about a decompilation the oracle refuted.
    pub fn validator_sound(&self) -> bool {
        self.validation
            .as_ref()
            .is_none_or(|v| v.unsound_cases.is_empty())
    }
}

/// The one-liner a failure report leads with, plus the command to rerun it.
pub fn replay_command(seed: u64, case: u64) -> String {
    format!(
        "SEED={seed:#x} CASE={case}  (replay: splendid difftest --seed {seed:#x} --case {case} --shrink)"
    )
}

impl std::fmt::Display for DifftestReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "difftest: seed={:#x} cases={} passed={} failed={}",
            self.seed,
            self.cases_run,
            self.passed,
            self.failed.len()
        )?;
        writeln!(
            f,
            "  parallelized loops: {}  checksum digest: {:#018x}",
            self.parallelized_loops, self.checksum_digest
        )?;
        if self.simd_routes {
            writeln!(f, "  vectorized loops: {}", self.vectorized_loops)?;
        }
        if let Some(v) = &self.validation {
            writeln!(
                f,
                "  validate: checked={} verified={} unverified={} incomplete={} skipped={} unsound={}",
                v.cases_checked,
                v.functions_verified,
                v.functions_unverified,
                v.incomplete_cases,
                v.skipped_cases,
                v.unsound_cases.len()
            )?;
            writeln!(
                f,
                "  validate incompleteness rate: {:.1}%",
                v.incompleteness_rate() * 100.0
            )?;
            for case in &v.unsound_cases {
                writeln!(f, "VALIDATE-UNSOUND {}", replay_command(self.seed, *case))?;
            }
        }
        for fc in &self.failed {
            writeln!(f, "FAIL {}", replay_command(self.seed, fc.case))?;
            writeln!(f, "  {}", fc.failure)?;
            let lines = fc.source.lines().count();
            if fc.shrunk {
                writeln!(
                    f,
                    "  shrunk program ({} lines, from {}):",
                    lines, fc.original_lines
                )?;
            } else {
                writeln!(f, "  program ({lines} lines):")?;
            }
            for line in fc.source.lines() {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

/// Run a campaign.
pub fn run_difftest(oracle: &Oracle, cfg: &DifftestConfig) -> DifftestReport {
    let gen_cfg = GenConfig::default();
    let case_indices: Vec<u64> = match cfg.only_case {
        Some(c) => vec![c],
        None => (0..cfg.cases).collect(),
    };

    let mut passed = 0;
    let mut failed = Vec::new();
    let mut parallelized = 0usize;
    let mut vectorized = 0usize;
    let mut digest = Fnv64::new();
    let mut validation = cfg.validate.then(ValidationReport::default);

    for &case in &case_indices {
        let prog = generate(cfg.seed, case, &gen_cfg);
        let arrays = prog.array_names();
        let src = prog.render();
        let oracle_result = oracle.check_source(&src, &arrays);
        if let Some(v) = validation.as_mut() {
            cross_check_case(v, case, &src, cfg.min_work, &oracle_result);
        }
        match oracle_result {
            Ok(report) => {
                passed += 1;
                parallelized += report.parallelized_loops;
                vectorized += report.vectorized_loops;
                digest.write_u64(report.checksum.to_bits());
            }
            Err(failure) => {
                let original_lines = src.lines().count();
                let (source, failure, shrunk) = if cfg.shrink {
                    let res = shrink(oracle, &prog, &arrays, &failure);
                    (res.program.render(), res.failure, true)
                } else {
                    (src, failure, false)
                };
                failed.push(FailedCase {
                    case,
                    failure,
                    source,
                    original_lines,
                    shrunk,
                });
            }
        }
    }

    DifftestReport {
        seed: cfg.seed,
        cases_run: case_indices.len() as u64,
        passed,
        failed,
        parallelized_loops: parallelized,
        vectorized_loops: vectorized,
        simd_routes: oracle.vectorize,
        checksum_digest: digest.finish(),
        validation,
    }
}

/// Oracle routes whose failure indicts the *decompilation* rather than
/// the generated program itself. Only on these may an all-`Verified`
/// validator verdict be called unsound: an o0/o2/polly failure happens
/// before decompilation and the validator makes no claim about it. The
/// SIMD routes are also excluded — `devectorize` decompiles the
/// *vectorized* module, while the validator's verdicts cover the polly
/// module, so they speak about different inputs.
fn failure_indicts_decompilation(route: &str) -> bool {
    matches!(
        route,
        "stability" | "decompile-libomp" | "decompile-libgomp"
    )
}

/// Run the translation validator over one case and fold the verdicts
/// into the campaign tallies, cross-referencing the oracle's result.
fn cross_check_case(
    tally: &mut ValidationReport,
    case: u64,
    src: &str,
    min_work: u64,
    oracle_result: &Result<crate::oracle::CaseReport, CaseFailure>,
) {
    let Some(verdicts) = validate_source(src, min_work) else {
        tally.skipped_cases += 1;
        return;
    };
    let unverified = verdicts
        .iter()
        .filter(|fv| !fv.verdict.is_verified())
        .count() as u64;
    let verified = verdicts.len() as u64 - unverified;
    tally.cases_checked += 1;
    tally.functions_verified += verified;
    tally.functions_unverified += unverified;
    match oracle_result {
        Ok(_) => {
            if unverified > 0 {
                tally.incomplete_cases += 1;
            }
        }
        Err(failure) => {
            if failure_indicts_decompilation(failure.route) && unverified == 0 && verified > 0 {
                tally.unsound_cases.push(case);
            }
        }
    }
}

/// Build the exact module the oracle's decompile routes consume
/// (O2 compile, then the Polly-sim parallelizer restricted to
/// `kernel`), decompile it with default options, and run the bounded
/// equivalence checker over the pair. `None` when the validation
/// pipeline itself cannot be set up for this program.
pub fn validate_source(
    src: &str,
    min_work: u64,
) -> Option<Vec<splendid_validate::FunctionVerdict>> {
    let mut polly = Harness::compile(src, splendid_cfront::OmpRuntime::LibOmp).ok()?;
    let _ = parallelize_module(
        &mut polly,
        &ParallelizeOptions {
            version_aliasing: true,
            min_work,
            only_functions: vec!["kernel".into()],
        },
    );
    let source = InProcessDecompiler
        .decompile(&polly, &SplendidOptions::default())
        .ok()?;
    Some(splendid_validate::check_module(
        &polly,
        &source,
        &splendid_validate::ValidateConfig::default(),
    ))
}

/// Top-level `double` array declarations in a corpus source file, in
/// declaration order — the checksum list for corpus replay. Matches the
/// generator's rendering (`double A[N];` / `double A[N][M];` at column 0).
pub fn arrays_in_source(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in src.lines() {
        if let Some(rest) = line.strip_prefix("double ") {
            if let Some(bracket) = rest.find('[') {
                let name = rest[..bracket].trim();
                if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                    out.push(name.to_string());
                }
            }
        }
    }
    out
}

/// Replay one corpus source through every route.
pub fn replay_corpus_source(
    oracle: &Oracle,
    src: &str,
) -> Result<crate::oracle::CaseReport, CaseFailure> {
    oracle.check_source(src, &arrays_in_source(src))
}

/// Parse a seed argument: `0x`-prefixed hex, then decimal, then — for any
/// other spelling (`--seed 0xSPLENDID`) — the FNV-1a hash of the text
/// itself.
pub fn parse_seed(text: &str) -> u64 {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    if let Ok(v) = text.parse::<u64>() {
        return v;
    }
    fnv64(text.as_bytes())
}

/// Digest of a campaign for determinism checks: the report text itself.
pub fn report_fingerprint(report: &DifftestReport) -> u64 {
    fnv64(report.to_string().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::InProcessDecompiler;

    #[test]
    fn seed_parsing_accepts_hex_decimal_and_words() {
        assert_eq!(parse_seed("0x10"), 16);
        assert_eq!(parse_seed("123"), 123);
        // Not valid hex (S, P, L, N, I): falls back to the FNV hash, and
        // does so stably.
        assert_eq!(parse_seed("0xSPLENDID"), parse_seed("0xSPLENDID"));
        assert_ne!(parse_seed("0xSPLENDID"), parse_seed("0xSPLENDIE"));
    }

    #[test]
    fn small_campaign_passes_and_is_deterministic() {
        let dec = InProcessDecompiler;
        let oracle = Oracle::new(&dec);
        let cfg = DifftestConfig {
            seed: 0x5EED,
            cases: 12,
            ..DifftestConfig::default()
        };
        let a = run_difftest(&oracle, &cfg);
        let b = run_difftest(&oracle, &cfg);
        assert!(a.all_passed(), "campaign diverged:\n{a}");
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(report_fingerprint(&a), report_fingerprint(&b));
        assert!(
            a.parallelized_loops > 0,
            "expected at least one parallelizable kernel in 12 cases"
        );
    }

    #[test]
    fn validator_cross_check_is_sound_and_deterministic() {
        let dec = InProcessDecompiler;
        let oracle = Oracle::new(&dec);
        let cfg = DifftestConfig {
            seed: 0x5EED,
            cases: 6,
            validate: true,
            ..DifftestConfig::default()
        };
        let a = run_difftest(&oracle, &cfg);
        assert!(a.all_passed(), "campaign diverged:\n{a}");
        let v = a.validation.as_ref().expect("validation was requested");
        assert!(
            a.validator_sound(),
            "validator certified an oracle-refuted case:\n{a}"
        );
        assert!(v.cases_checked > 0, "no case reached the validator:\n{a}");
        assert!(
            v.functions_verified > 0,
            "validator proved nothing on a passing campaign:\n{a}"
        );
        assert!(a.to_string().contains("validate: checked="));
        assert!(a.to_string().contains("incompleteness rate"));
        let b = run_difftest(&oracle, &cfg);
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "validated report must be deterministic"
        );
    }

    #[test]
    fn validation_off_keeps_the_report_free_of_validate_lines() {
        let dec = InProcessDecompiler;
        let oracle = Oracle::new(&dec);
        let cfg = DifftestConfig {
            seed: 0x5EED,
            cases: 2,
            ..DifftestConfig::default()
        };
        let report = run_difftest(&oracle, &cfg);
        assert!(report.validation.is_none());
        assert!(
            report.validator_sound(),
            "no validation means vacuously sound"
        );
        assert!(!report.to_string().contains("validate:"));
    }

    #[test]
    fn decompile_route_failures_are_the_only_unsoundness_witnesses() {
        assert!(failure_indicts_decompilation("stability"));
        assert!(failure_indicts_decompilation("decompile-libomp"));
        assert!(failure_indicts_decompilation("decompile-libgomp"));
        assert!(!failure_indicts_decompilation("o0"));
        assert!(!failure_indicts_decompilation("o2"));
        assert!(!failure_indicts_decompilation("polly"));
        assert!(!failure_indicts_decompilation("vectorize"));
        assert!(!failure_indicts_decompilation("devectorize"));
    }

    #[test]
    fn simd_campaign_passes_and_is_deterministic() {
        let dec = InProcessDecompiler;
        let mut oracle = Oracle::new(&dec);
        oracle.vectorize = true;
        let cfg = DifftestConfig {
            seed: 0x5EED,
            cases: 12,
            ..DifftestConfig::default()
        };
        let a = run_difftest(&oracle, &cfg);
        let b = run_difftest(&oracle, &cfg);
        assert!(a.all_passed(), "SIMD campaign diverged:\n{a}");
        assert_eq!(a.to_string(), b.to_string());
        assert!(
            a.vectorized_loops > 0,
            "expected at least one vectorizable loop in 12 cases:\n{a}"
        );
        assert!(a.to_string().contains("vectorized loops:"));
    }

    #[test]
    fn only_case_runs_exactly_one_case() {
        let dec = InProcessDecompiler;
        let oracle = Oracle::new(&dec);
        let cfg = DifftestConfig {
            seed: 7,
            cases: 100,
            only_case: Some(3),
            ..DifftestConfig::default()
        };
        let report = run_difftest(&oracle, &cfg);
        assert_eq!(report.cases_run, 1);
    }

    #[test]
    fn array_scanner_matches_generator_output() {
        let prog = crate::gen::generate(11, 2, &crate::gen::GenConfig::default());
        assert_eq!(arrays_in_source(&prog.render()), prog.array_names());
    }

    #[test]
    fn replay_command_mentions_seed_and_case() {
        let line = replay_command(0x2A, 17);
        assert!(line.contains("SEED=0x2a"));
        assert!(line.contains("CASE=17"));
        assert!(line.contains("--case 17"));
    }
}
