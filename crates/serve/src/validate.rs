//! Scheduler-side translation validation: certificates, the certificate
//! cache, and the ladder-fallback loop.
//!
//! When a job is submitted with [`SplendidOptions::validate`] set, the
//! last work item — after every function slot is filled, before the
//! translation unit is assembled — runs `run_validation`. Per function
//! it:
//!
//! 1. looks for a cached [`Certificate`] (in the scheduler's
//!    certificate LRU first, then the blob tiers — so a warm restart
//!    answers verdicts from disk without re-running the checker);
//! 2. on a miss, re-lowers the current decompiled unit and probe-checks
//!    the function with [`splendid_validate::check_function`];
//! 3. on a **mismatch** — the only verdict that proves the output wrong
//!    — falls one rung down the fidelity ladder, re-decompiles the
//!    function (through the same cache layers as every work item), and
//!    re-checks; a function still mismatching at the `Literal` floor is
//!    served anyway but counted as quarantined and tagged as unverified;
//! 4. stamps the outcome into the emitted C as a leading
//!    `/* splendid: verified */` or `/* splendid: UNVERIFIED: ... */`
//!    comment and persists the certificate (never under fault
//!    injection — degraded verdicts must not outlive the process).
//!
//! Certificates are keyed off the same `(function, options)` FNV-64
//! fingerprint as function records, so validation amortizes exactly
//! like decompilation does.

use crate::codec;
use crate::scheduler::{cache_key, Caches, Fetched, StatsSink};
use splendid_cfront::{print_program, CProgram, CStmt};
use splendid_core::{FidelityTier, FunctionOutput, PreparedModule, SplendidOptions};
use splendid_ir::hash::Fnv64;
use splendid_ir::{FuncId, Module};
use splendid_validate::{check_function, relower, ReasonKind, ValidateConfig, Verdict};

/// Leading comment stamped into every verified function.
pub const VERIFIED_ANNOTATION: &str = "splendid: verified";
/// Prefix of the comment stamped into every unverified function.
pub const UNVERIFIED_ANNOTATION: &str = "splendid: UNVERIFIED: ";

/// The persistent outcome of validating one `(function, options)` pair.
///
/// `tier` records the fidelity tier the function was *served* at after
/// any validation-driven fallback, so a warm restart can re-derive the
/// same output without re-proving anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The checker observed no divergence (and at least one conclusive
    /// probe ran).
    pub verified: bool,
    /// Tier the function ended up being served at.
    pub tier: FidelityTier,
    /// True when the reason is a proven mismatch (as opposed to an
    /// incompleteness of the checker).
    pub mismatch: bool,
    /// Empty for verified certificates; the `Unverified` reason text
    /// otherwise.
    pub reason: String,
}

/// Certificate key for one function: derived from (not equal to) the
/// function record key, so cert and output blobs never collide in the
/// shared tiers.
pub fn cert_cache_key(function_key: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write(b"cert:");
    h.write_u64(function_key);
    h.finish()
}

/// What validating one job's functions did, for the job result.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidateOutcome {
    /// Functions stamped verified.
    pub verified: usize,
    /// Functions stamped unverified.
    pub unverified: usize,
}

/// Validate every function of a finished fan-out, falling down the
/// fidelity ladder on proven mismatches. `functions` is in
/// `prepared.module.func_ids()` order (the slot order) and is mutated
/// in place: fallback replaces entries, and every entry gets a verdict
/// annotation. Returns the verdict tally.
pub(crate) fn run_validation(
    prepared: &PreparedModule,
    functions: &mut [FunctionOutput],
    options: &SplendidOptions,
    caches: &Caches,
    stats: &StatsSink,
    expired: &dyn Fn() -> bool,
) -> ValidateOutcome {
    let run = Validation {
        prepared,
        options,
        caches,
        stats,
        cfg: ValidateConfig::default(),
    };
    let fids: Vec<_> = prepared.module.func_ids().collect();
    debug_assert_eq!(fids.len(), functions.len());

    // The re-lowered module is shared by every function check and
    // rebuilt only after a fallback replaces an output.
    let mut relowered: Option<Result<Module, String>> = None;
    let mut outcome = ValidateOutcome::default();

    for (i, &fid) in fids.iter().enumerate() {
        if expired() {
            // Deadline pressure: stop proving, leave the remaining
            // functions unannotated. The job-level timeout machinery
            // decides what happens to the job itself.
            break;
        }
        // Fault-injected runs still validate (the annotations are the
        // whole point of seeing a degraded run's verdicts) but have no
        // key, so they never read or write certificates: a verdict
        // observed under injection must not outlive the process, let
        // alone reach a peer.
        let ckey = cache_key(prepared, fid, options)
            .and_then(Result::ok)
            .map(cert_cache_key);

        // Certificate fast path: memory, then tiers.
        if let Some(ckey) = ckey {
            let hit = caches.certs.read_through(ckey, || {
                codec::decode_cert_record(&caches.tiers.get(ckey)?).ok()
            });
            // The certificate replays when the slot is already at (or
            // below) its recorded tier, or when the function can still
            // be derived at that tier; the slot keeps its output either
            // way. Otherwise prove from scratch.
            if let Some(cert) =
                hit.filter(|c| functions[i].tier >= c.tier || run.derive_at(fid, c.tier).is_some())
            {
                stats.add(|s| &s.certs_from_cache, 1);
                apply_verdict(&mut functions[i], cert, stats, &mut outcome);
                continue;
            }
        }

        stats.add(|s| &s.validations_run, 1);
        let cert = run.prove(fid, i, functions, &mut relowered);
        if let Some(ckey) = ckey {
            caches.certs.insert(ckey, cert.clone());
            caches.tiers.put(ckey, &codec::encode_cert_record(&cert));
        }
        apply_verdict(&mut functions[i], cert, stats, &mut outcome);
    }
    outcome
}

/// What every check and fallback of one [`run_validation`] shares.
struct Validation<'a> {
    prepared: &'a PreparedModule,
    options: &'a SplendidOptions,
    caches: &'a Caches,
    stats: &'a StatsSink,
    cfg: ValidateConfig,
}

impl Validation<'_> {
    /// Prove one function: check, and on a proven mismatch walk down the
    /// fidelity ladder re-decompiling and re-checking until the verdict
    /// is clean or the `Literal` floor still mismatches (quarantine).
    fn prove(
        &self,
        fid: FuncId,
        slot: usize,
        functions: &mut [FunctionOutput],
        relowered: &mut Option<Result<Module, String>>,
    ) -> Certificate {
        let prepared = self.prepared;
        let name = prepared.module.name_of(prepared.module.func(fid).name);
        loop {
            let module = relowered.get_or_insert_with(|| relower(&print_unit(prepared, functions)));
            let verdict = match module {
                Ok(m) => check_function(&prepared.module, m, name, &self.cfg),
                Err(e) => Verdict::Unverified(splendid_validate::Reason {
                    kind: ReasonKind::Relower,
                    detail: e.clone(),
                }),
            };
            let tier = functions[slot].tier;
            match verdict {
                Verdict::Verified => {
                    return Certificate {
                        verified: true,
                        tier,
                        mismatch: false,
                        reason: String::new(),
                    }
                }
                Verdict::Unverified(reason) => {
                    if reason.is_mismatch() {
                        if let Some(out) = next_tier(tier).and_then(|t| self.derive_at(fid, t)) {
                            self.stats.add(|s| &s.validate_fallbacks, 1);
                            functions[slot] = out;
                            *relowered = None;
                            continue;
                        }
                        // Mismatch at the Literal floor (or the fallback
                        // could not be derived): serve it, but say so.
                        self.stats.add(|s| &s.validate_quarantined, 1);
                    }
                    return Certificate {
                        verified: false,
                        tier,
                        mismatch: reason.is_mismatch(),
                        reason: reason.to_string(),
                    };
                }
            }
        }
    }

    /// Re-decompile one function with its start tier pinned, through the
    /// cache layers (the bumped tier changes the options fingerprint, so
    /// validated-fallback outputs get their own key space and are shared
    /// across jobs and restarts like any other record). No deadline and
    /// no panic retry: any failure is `None`.
    fn derive_at(&self, fid: FuncId, tier: FidelityTier) -> Option<FunctionOutput> {
        let opts = SplendidOptions {
            start_tier: tier,
            ..self.options.clone()
        };
        let key = cache_key(self.prepared, fid, &opts).and_then(Result::ok);
        match self
            .caches
            .fetch_function(self.prepared, fid, &opts, key, None, self.stats)
        {
            Fetched::Cached(out) | Fetched::Decompiled(Ok(out)) => Some(out),
            _ => None,
        }
    }
}

/// Stamp the verdict into the function body and tally it.
fn apply_verdict(
    out: &mut FunctionOutput,
    cert: Certificate,
    stats: &StatsSink,
    outcome: &mut ValidateOutcome,
) {
    let text = if cert.verified {
        outcome.verified += 1;
        stats.add(|s| &s.functions_verified, 1);
        VERIFIED_ANNOTATION.to_string()
    } else {
        outcome.unverified += 1;
        stats.add(|s| &s.functions_unverified, 1);
        format!("{UNVERIFIED_ANNOTATION}{}", sanitize(&cert.reason))
    };
    out.cfunc.body.insert(0, CStmt::Comment(text));
}

/// Comment-safe, single-line rendering of a reason string.
fn sanitize(reason: &str) -> String {
    reason.replace("*/", "* /").replace(['\n', '\r'], " ")
}

fn next_tier(tier: FidelityTier) -> Option<FidelityTier> {
    match tier {
        FidelityTier::Natural => Some(FidelityTier::Structured),
        // A mismatched Quick emit falls into the ordinary ladder.
        FidelityTier::Quick => Some(FidelityTier::Structured),
        FidelityTier::Structured => Some(FidelityTier::Literal),
        FidelityTier::Literal => None,
    }
}

/// Print the current state of the translation unit (globals + every
/// function as it stands mid-validation). Verdict annotations are not
/// yet inserted at this point, and degradation comments are stripped by
/// the re-lowering lexer, so the printed unit is exactly what a
/// consumer would compile.
fn print_unit(prepared: &PreparedModule, functions: &[FunctionOutput]) -> String {
    let program = CProgram {
        defines: Vec::new(),
        globals: prepared.c_globals(),
        functions: functions.iter().map(|f| f.cfunc.clone()).collect(),
    };
    print_program(&program)
}

/// Count verdict annotations in an already-assembled program — how the
/// whole-module fast path reports verdicts for a unit whose validation
/// ran in a previous process.
pub(crate) fn count_annotations(program: &CProgram) -> ValidateOutcome {
    let mut outcome = ValidateOutcome::default();
    for f in &program.functions {
        for s in &f.body {
            match s {
                CStmt::Comment(t) if t == VERIFIED_ANNOTATION => outcome.verified += 1,
                CStmt::Comment(t) if t.starts_with(UNVERIFIED_ANNOTATION) => {
                    outcome.unverified += 1
                }
                _ => {}
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cert_key_never_collides_with_function_key() {
        for k in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            assert_ne!(cert_cache_key(k), k);
        }
    }

    #[test]
    fn sanitize_keeps_comments_closed() {
        let s = sanitize("bad */ worse\nline");
        assert!(!s.contains("*/"));
        assert!(!s.contains('\n'));
    }

    #[test]
    fn annotation_counting_matches_prefixes() {
        use splendid_cfront::CFunc;
        let mk = |comment: &str| CFunc {
            name: "f".into(),
            ret: splendid_cfront::CType::Void,
            params: vec![],
            body: vec![CStmt::Comment(comment.into()), CStmt::Return(None)],
        };
        let program = CProgram {
            defines: vec![],
            globals: vec![],
            functions: vec![
                mk(VERIFIED_ANNOTATION),
                mk("splendid: UNVERIFIED: mismatch: probe 1"),
                mk("splendid: degraded to literal tier: x"),
            ],
        };
        let out = count_annotations(&program);
        assert_eq!((out.verified, out.unverified), (1, 1));
    }
}
