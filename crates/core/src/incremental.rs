//! Incremental re-preparation: re-prepare only the functions an edit
//! touched, transplanting them into a clone of the previous prepared
//! module.
//!
//! The daemon's UPDATE fast path (see `splendid-daemon`'s session module)
//! hashes per-function source spans instead of re-parsing the module; the
//! deferred preparation work then lands here at the next DECOMPILE. Given
//! the previous [`PreparedModule`] and a *mini-module* text — the shared
//! preamble (module header, globals, debug variables) plus only the dirty
//! root functions and their outlined `_polly_parN` regions — [`reprepare`]
//! parses and prepares just those bytes and splices the resulting prepared
//! functions into a clone of the previous module. Cost is proportional to
//! the edit, not the module: for a 1-of-16-kernel edit the mini-module is
//! ~1/16th of the text, so parse + detransform (the two dominant UPDATE
//! costs) shrink by the same factor.
//!
//! The transplant is deliberately conservative. Function bodies reference
//! their module through four channels: interned [`splendid_ir::Symbol`]s (re-interned
//! into the destination table by string), [`splendid_ir::GlobalId`]/`VarId` arena
//! indices (valid only because the preamble — and hence both arenas — is
//! byte-identical by construction), and direct function references
//! (`Callee::Func` / [`Value::Function`]), which a *prepared* function
//! should no longer contain (regions are inlined back) — if one survives,
//! [`reprepare`] refuses and the caller falls back to a full
//! [`prepare_module`]. Correctness never depends on the incremental path
//! being taken.

use crate::error::{SplendidError, Stage};
use crate::fingerprint::{function_fingerprint, ModuleDigests};
use crate::pipeline::{prepare_module, PreparedModule, SplendidOptions, StageTimings};
use splendid_ir::{parser::parse_module, Callee, FuncId, InstKind, Module, Value};

/// Strip the `_polly_parN` suffix the parallelizer gives outlined region
/// functions, yielding the root function the region is inlined back into.
/// Non-outlined names come back unchanged.
pub fn root_of(name: &str) -> &str {
    if let Some(pos) = name.rfind("_polly_par") {
        let digits = &name[pos + "_polly_par".len()..];
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            return &name[..pos];
        }
    }
    name
}

/// Clone `src_fid` out of `src` and install it as `dst_fid` in `dst`,
/// re-interning every symbol into `dst`'s table. Arena indices
/// (globals, debug variables) carry over untouched — the caller
/// guarantees both modules share a byte-identical preamble. Refuses
/// functions that reference other functions directly, since `FuncId`s
/// do not transfer across modules.
pub fn transplant_function(
    dst: &mut Module,
    dst_fid: FuncId,
    src: &Module,
    src_fid: FuncId,
) -> Result<(), String> {
    let mut f = src.func(src_fid).clone();
    f.name = dst.symbols.intern(src.name_of(f.name));
    for p in &mut f.params {
        p.name = dst.symbols.intern(src.name_of(p.name));
    }
    for b in &mut f.blocks {
        b.name = dst.symbols.intern(src.name_of(b.name));
    }
    for inst in &mut f.insts {
        if let Some(n) = inst.name {
            inst.name = Some(dst.symbols.intern(src.name_of(n)));
        }
        if let InstKind::Call { callee, .. } = &mut inst.kind {
            match callee {
                Callee::External(n) => {
                    *callee = Callee::External(dst.symbols.intern(src.name_of(*n)));
                }
                Callee::Func(_) => {
                    return Err(format!(
                        "function '{}' calls another function by id; ids do not \
                         transfer across modules",
                        dst.name_of(f.name)
                    ));
                }
            }
        }
        let mut bad = false;
        inst.kind.for_each_operand(|v| {
            if matches!(v, Value::Function(_)) {
                bad = true;
            }
        });
        if bad {
            return Err(format!(
                "function '{}' takes another function's address; ids do not \
                 transfer across modules",
                dst.name_of(f.name)
            ));
        }
    }
    dst.functions[dst_fid.index()] = f;
    Ok(())
}

/// True when both modules declare the same globals and debug variables in
/// the same order — the precondition for arena indices to transfer.
fn preambles_match(a: &Module, b: &Module) -> bool {
    a.globals.len() == b.globals.len()
        && a.di_vars.len() == b.di_vars.len()
        && a.globals.iter().zip(&b.globals).all(|(x, y)| {
            a.name_of(x.name) == b.name_of(y.name) && x.mem == y.mem && x.init == y.init
        })
        && a.di_vars.iter().zip(&b.di_vars).all(|(x, y)| {
            a.name_of(x.name) == b.name_of(y.name) && a.name_of(x.scope) == b.name_of(y.scope)
        })
}

/// Re-prepare only `dirty_roots` from `mini_text` and transplant the
/// results into a clone of `prev`.
///
/// `mini_text` must be a well-formed module text consisting of the same
/// preamble as `prev`'s source plus the dirty root functions and any
/// outlined regions belonging to them. On any structural surprise — a
/// missing function, a preamble mismatch, a cross-function reference —
/// this returns a *recoverable* error and the caller should fall back to
/// a full [`prepare_module`]; nothing is mutated on failure.
pub fn reprepare(
    prev: &PreparedModule,
    mini_text: &str,
    dirty_roots: &[&str],
    opts: &SplendidOptions,
    timings: &mut StageTimings,
) -> Result<PreparedModule, SplendidError> {
    let recoverable = |msg: String| SplendidError::recoverable(Stage::Detransform, msg);
    let mini = parse_module(mini_text)
        .map_err(|e| recoverable(format!("incremental parse failed: {e}")))?;
    if !preambles_match(&prev.module, &mini) {
        return Err(recoverable(
            "mini-module preamble does not match the previous module".into(),
        ));
    }
    let mini_prep = prepare_module(&mini, opts, timings)?;

    let mut module = prev.module.clone();
    // Digests are seeded from the previous module: only the transplanted
    // functions are re-printed and re-hashed, so fingerprinting cost also
    // tracks the edit, not the module.
    let mut functions = prev.digests().functions.clone();
    let mut regions = Vec::with_capacity(prev.regions.len());
    for r in &prev.regions {
        if !dirty_roots.contains(&r.caller_name.as_str()) {
            regions.push(r.clone());
        }
    }
    regions.extend(mini_prep.regions.iter().cloned());
    let mut simd_loops = Vec::with_capacity(prev.simd_loops.len());
    for r in &prev.simd_loops {
        if !dirty_roots.contains(&r.function.as_str()) {
            simd_loops.push(r.clone());
        }
    }
    simd_loops.extend(mini_prep.simd_loops.iter().cloned());

    for name in dirty_roots {
        let dst_fid = module
            .func_by_name(name)
            .ok_or_else(|| recoverable(format!("'{name}' not in the previous module")))?;
        let src_fid = mini_prep
            .module
            .func_by_name(name)
            .ok_or_else(|| recoverable(format!("'{name}' not in the mini-module")))?;
        transplant_function(&mut module, dst_fid, &mini_prep.module, src_fid)
            .map_err(recoverable)?;
        functions[dst_fid.index()] = (name.to_string(), function_fingerprint(&module, dst_fid));
    }

    let digests = ModuleDigests {
        context: prev.digests().context,
        functions,
    };
    let prepared = PreparedModule {
        module,
        regions,
        simd_loops,
        digests: std::sync::OnceLock::new(),
    };
    let _ = prepared.digests.set(digests);
    Ok(prepared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splendid_ir::printer::module_str;

    fn lowered(consts: &[f64]) -> Module {
        use splendid_cfront::{lower_program, parse_program, LowerOptions};
        use splendid_parallel::{parallelize_module, ParallelizeOptions};
        use splendid_transforms::{optimize_module, O2Options};
        let mut src = String::new();
        for (i, c) in consts.iter().enumerate() {
            src.push_str(&format!("double A{i}[64];\ndouble B{i}[64];\n"));
            src.push_str(&format!(
                "void kernel{i}() {{ int j; for (j = 1; j < 63; j++) {{ \
                 B{i}[j] = (A{i}[j-1] + A{i}[j+1]) * {c:?}; }} }}\n"
            ));
        }
        let prog = parse_program(&src).unwrap();
        let mut m = lower_program(&prog, "inc", &LowerOptions::default()).unwrap();
        optimize_module(&mut m, &O2Options::default());
        parallelize_module(&mut m, &ParallelizeOptions::default());
        m
    }

    /// Build the mini-module text for `roots` out of `text` using the
    /// span scanner, the same way the daemon session does.
    fn mini_text_for(text: &str, roots: &[&str]) -> String {
        let spans = splendid_ir::scan_spans(text);
        let mut out = String::new();
        for &(a, b) in &spans.preamble {
            out.push_str(&text[a..b]);
        }
        for f in &spans.funcs {
            if roots.contains(&root_of(f.name_str(text))) {
                out.push_str(f.body_str(text));
            }
        }
        out
    }

    #[test]
    fn root_of_strips_region_suffixes() {
        assert_eq!(root_of("kernel3_polly_par7"), "kernel3");
        assert_eq!(root_of("kernel3_polly_par12"), "kernel3");
        assert_eq!(root_of("kernel3"), "kernel3");
        assert_eq!(root_of("k_polly_par"), "k_polly_par");
        assert_eq!(root_of("k_polly_parX"), "k_polly_parX");
    }

    #[test]
    fn reprepare_matches_full_prepare() {
        let opts = SplendidOptions::default();
        let mut t = StageTimings::default();

        // The daemon always works from module *text*, so build the
        // previous prepared module through the same parse round-trip it
        // uses (in-memory lowered modules carry dead arena slots the
        // printer never emits, which would make the comparison unfair).
        let before_text = module_str(&lowered(&[0.25, 0.5, 0.75]));
        let before = splendid_ir::parser::parse_module(&before_text).unwrap();
        let prev = prepare_module(&before, &opts, &mut t).unwrap();

        // Edit kernel1's constant only, at the IR-text level.
        let after_text = module_str(&lowered(&[0.25, 0.625, 0.75]));
        let mini = mini_text_for(&after_text, &["kernel1"]);
        assert!(
            mini.len() < after_text.len(),
            "mini-module must be a subset"
        );

        let inc = reprepare(&prev, &mini, &["kernel1"], &opts, &mut t).unwrap();
        let full = {
            let m = splendid_ir::parser::parse_module(&after_text).unwrap();
            prepare_module(&m, &opts, &mut t).unwrap()
        };

        // The transplanted module must be semantically identical to the
        // fully prepared one (Module equality resolves symbols by string).
        assert_eq!(inc.module, full.module);
        // And its seeded digests must agree with freshly computed ones.
        let inc_d = inc.digests();
        let full_d = full.digests();
        assert_eq!(inc_d.context, full_d.context);
        assert_eq!(inc_d.functions, full_d.functions);
    }

    #[test]
    fn reprepare_refuses_unknown_roots() {
        let opts = SplendidOptions::default();
        let mut t = StageTimings::default();
        let m = lowered(&[0.25]);
        let prev = prepare_module(&m, &opts, &mut t).unwrap();
        let text = module_str(&m);
        let mini = mini_text_for(&text, &["kernel0"]);
        let err = reprepare(&prev, &mini, &["nope"], &opts, &mut t).unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn reprepare_refuses_preamble_drift() {
        let opts = SplendidOptions::default();
        let mut t = StageTimings::default();
        let m = lowered(&[0.25]);
        let prev = prepare_module(&m, &opts, &mut t).unwrap();
        let text = module_str(&m);
        let mini = mini_text_for(&text, &["kernel0"]).replace("[64 x f64]", "[65 x f64]");
        assert!(reprepare(&prev, &mini, &["kernel0"], &opts, &mut t).is_err());
    }
}
