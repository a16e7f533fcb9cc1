//! Stable content fingerprints for functions and modules.
//!
//! The serve function cache, and the daemon's incremental dirty tracking,
//! both need to decide "is this function's IR the same bytes as before?"
//! across processes and releases. Identity is FNV-1a 64
//! ([`splendid_ir::hash`]) over the canonical printed form of the
//! function (the printer is deterministic), producing digests that are
//! reproducible, loggable, and comparable over the wire.
//!
//! Two granularities are provided:
//!
//! * **Semantic** fingerprints ([`function_fingerprint`],
//!   [`module_fingerprints`]) hash the canonical *printed* IR of a parsed
//!   module. They are insensitive to whitespace and comment differences in
//!   the input text and are what the serve cache keys on.
//! * **Span** fingerprints ([`span_fingerprints_into`]) hash the raw
//!   *source bytes* of each `func` definition located by
//!   [`splendid_ir::scan_spans_into`] — no tokenizing, no parsing, no
//!   per-function allocation once buffers are warm. They are the daemon's
//!   UPDATE fast path: an edit re-hashes only the module text (microseconds)
//!   and re-parses nothing until a DECOMPILE actually needs the IR.

use crate::pipeline::PreparedModule;
use splendid_ir::{hash::Fnv64, printer::function_str, FuncId, Module, ModuleSpans};

pub use splendid_ir::hash::fnv64;

/// Content fingerprint of one function: FNV-1a 64 of its canonical
/// printed IR. Two functions fingerprint equal iff the printer emits
/// identical bytes for them.
pub fn function_fingerprint(module: &Module, fid: FuncId) -> u64 {
    fnv64(function_str(module, module.func(fid)).as_bytes())
}

/// `(name, fingerprint)` for every function of a module, in arena order.
///
/// This is the daemon's dirty-tracking input: an UPDATE diffs the new
/// module's fingerprint list against the previous one and re-decompiles
/// only functions whose digest changed (or whose name is new).
pub fn module_fingerprints(module: &Module) -> Vec<(String, u64)> {
    module
        .func_ids()
        .map(|fid| {
            (
                module.name_of(module.func(fid).name).to_string(),
                function_fingerprint(module, fid),
            )
        })
        .collect()
}

/// Fingerprint of everything outside a function's own body that its
/// decompilation can read: global declarations and the debug-variable
/// arena (naming resolves `dbg !N` through it).
pub fn module_context_fingerprint(m: &Module) -> u64 {
    let mut h = Fnv64::new();
    for g in &m.globals {
        h.write(m.name_of(g.name).as_bytes());
        h.write(format!("{}|{:?};", g.mem, g.init).as_bytes());
    }
    for dv in &m.di_vars {
        h.write(m.name_of(dv.name).as_bytes())
            .write(b"@")
            .write(m.name_of(dv.scope).as_bytes())
            .write(b";");
    }
    h.finish()
}

/// Span fingerprint of one `func` definition in module *text*: the hash of
/// its name bytes and the hash of its full definition bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanFingerprint {
    /// FNV-1a 64 of the function name bytes (without the `@`).
    pub name_hash: u64,
    /// FNV-1a 64 of the whole `func ... { ... }` definition bytes.
    pub body_hash: u64,
}

/// Per-function span fingerprints of a module text plus the hash of the
/// preamble (module header, globals, debug variables).
///
/// Buffers are reusable across scans via [`SpanFingerprints::clear`]; in
/// steady state [`span_fingerprints_into`] performs zero heap allocations.
#[derive(Clone, Debug, Default)]
pub struct SpanFingerprints {
    /// Hash over all preamble bytes (everything outside `func` bodies).
    pub preamble: u64,
    /// Function span fingerprints in file order.
    pub funcs: Vec<SpanFingerprint>,
}

impl SpanFingerprints {
    /// Reset without releasing capacity.
    pub fn clear(&mut self) {
        self.preamble = 0;
        self.funcs.clear();
    }

    /// Position of the function whose name hashes to `name_hash`.
    pub fn position_of(&self, name_hash: u64) -> Option<usize> {
        self.funcs.iter().position(|f| f.name_hash == name_hash)
    }
}

/// Hash every function span of `text` into `out`, reusing `spans` as the
/// scan scratch buffer. This is the incremental UPDATE primitive: cost is
/// one linear pass over the text, with no parsing and no allocation once
/// `spans`/`out` have warmed to the module's function count.
pub fn span_fingerprints_into(text: &str, spans: &mut ModuleSpans, out: &mut SpanFingerprints) {
    splendid_ir::scan_spans_into(text, spans);
    out.clear();
    let mut pre = Fnv64::new();
    for &(a, b) in &spans.preamble {
        pre.write(&text.as_bytes()[a..b]);
    }
    out.preamble = pre.finish();
    for f in &spans.funcs {
        out.funcs.push(SpanFingerprint {
            name_hash: fnv64(f.name_str(text).as_bytes()),
            body_hash: fnv64(f.body_str(text).as_bytes()),
        });
    }
}

/// Convenience wrapper allocating fresh buffers.
pub fn span_fingerprints(text: &str) -> SpanFingerprints {
    let mut spans = ModuleSpans::default();
    let mut out = SpanFingerprints::default();
    span_fingerprints_into(text, &mut spans, &mut out);
    out
}

/// Memoized content digests of a [`PreparedModule`], computed once and
/// shared by every consumer (serve cache-key construction, daemon dirty
/// tracking).
#[derive(Debug, Clone)]
pub struct ModuleDigests {
    /// [`module_context_fingerprint`] of the prepared module.
    pub context: u64,
    /// `(name, fingerprint)` per function, in arena order.
    pub functions: Vec<(String, u64)>,
}

impl PreparedModule {
    /// The memoized digests, computing them on first use.
    pub fn digests(&self) -> &ModuleDigests {
        self.digests.get_or_init(|| ModuleDigests {
            context: module_context_fingerprint(&self.module),
            functions: module_fingerprints(&self.module),
        })
    }

    /// Memoized [`module_context_fingerprint`].
    pub fn context_fingerprint(&self) -> u64 {
        self.digests().context
    }

    /// Memoized per-function fingerprint (arena order matches
    /// [`Module::func_ids`](splendid_ir::Module::func_ids)).
    pub fn function_fingerprint(&self, fid: FuncId) -> u64 {
        self.digests().functions[fid.0 as usize].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_detect_single_function_edits() {
        use splendid_cfront::{lower_program, parse_program, LowerOptions};
        let src = "double A[8];\nvoid f() { int i; for (i = 0; i < 8; i++) { A[i] = 1.0; } }\n\
                   void g() { int i; for (i = 0; i < 8; i++) { A[i] = 2.0; } }";
        let edited = src.replace("2.0", "3.0");
        let lower = |s: &str| {
            let prog = parse_program(s).unwrap();
            lower_program(&prog, "fp", &LowerOptions::default()).unwrap()
        };
        let before = module_fingerprints(&lower(src));
        let after = module_fingerprints(&lower(&edited));
        assert_eq!(before.len(), 2);
        assert_eq!(before[0], after[0], "untouched function keeps its digest");
        assert_eq!(before[1].0, after[1].0);
        assert_ne!(before[1].1, after[1].1, "edited function must re-digest");
    }

    #[test]
    fn span_fingerprints_localize_edits() {
        let src = "module \"m\"\nglobal @A : [8 x f64] = zero\nfunc @f() -> void {\nbb0 entry:\n  ret void\n}\nfunc @g() -> void {\nbb0 entry:\n  ret void\n}\n";
        let a = span_fingerprints(src);
        let b = span_fingerprints(src);
        assert_eq!(a.funcs, b.funcs, "fingerprints are deterministic");
        assert_eq!(a.preamble, b.preamble);

        // A real edit in @g touches only @g's span hash.
        let edited = src.replace(
            "func @g() -> void {\nbb0 entry:\n  ret void",
            "func @g() -> void {\nbb0 entry:\n  unreachable",
        );
        let c = span_fingerprints(&edited);
        assert_eq!(a.funcs.len(), 2);
        assert_eq!(c.funcs.len(), 2);
        assert_eq!(a.funcs[0], c.funcs[0], "edit to @g must not touch @f");
        assert_eq!(a.funcs[1].name_hash, c.funcs[1].name_hash);
        assert_ne!(a.funcs[1].body_hash, c.funcs[1].body_hash);
        assert_eq!(a.preamble, c.preamble);

        // A preamble edit touches only the preamble hash.
        let edited = src.replace("[8 x f64]", "[9 x f64]");
        let d = span_fingerprints(&edited);
        assert_eq!(a.funcs, d.funcs);
        assert_ne!(a.preamble, d.preamble);
    }

    #[test]
    fn span_fingerprint_buffers_are_reusable() {
        let mut spans = ModuleSpans::default();
        let mut out = SpanFingerprints::default();
        let one = "func @f() -> void {\nbb0 entry:\n  ret void\n}\n";
        span_fingerprints_into(one, &mut spans, &mut out);
        let first = out.funcs.clone();
        span_fingerprints_into("module \"empty\"\n", &mut spans, &mut out);
        assert!(out.funcs.is_empty());
        span_fingerprints_into(one, &mut spans, &mut out);
        assert_eq!(out.funcs, first, "reuse must be stateless");
    }
}
