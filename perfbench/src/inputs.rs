//! Seeded input generation: the PolyBench suite as IR text, semantics-free
//! module variants, and the editor's one-constant edits.

use splendid_ir::printer::module_str;
use splendid_polybench::Harness;

/// splitmix64: small, seedable, and the same stream on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE7C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One kernel of the suite: its name, IR text, and the golden C the
/// decompiler must reproduce (`tests/golden/<name>.c`).
pub struct Kernel {
    pub name: String,
    pub text: String,
    pub golden: String,
}

/// The 16 PolyBench kernels through cfront → -O2 → Polly-sim, printed as
/// IR text, with their golden outputs read from the checkout.
pub fn suite() -> Result<Vec<Kernel>, String> {
    Harness::polly_suite()
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|(name, module)| {
            let path = format!("tests/golden/{name}.c");
            let golden =
                std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
            Ok(Kernel {
                text: module_str(&module),
                name,
                golden,
            })
        })
        .collect()
}

/// Name of the marker global a variant carries.
pub fn marker(tag: &str) -> String {
    format!("perfbench_{tag}")
}

/// `text` with one extra, unused `f64` global declared right after the
/// module header. The global changes the module context — so every
/// function misses the function cache and the module key is new — but
/// not the semantics, and the work equals that of the plain kernel.
pub fn variant(text: &str, tag: &str) -> String {
    let header_end = text.find('\n').map_or(text.len(), |i| i + 1);
    let mut out = String::with_capacity(text.len() + 48);
    out.push_str(&text[..header_end]);
    out.push_str(&format!("global @{} : f64 = zero\n", marker(tag)));
    out.push_str(&text[header_end..]);
    out
}

/// Decompiled C with the marker's declaration removed and temporaries
/// renumbered, ready to compare against a golden file. `None` when the
/// marker declaration is not there exactly once.
pub fn without_marker(source: &str, tag: &str) -> Option<String> {
    let decl = format!("double {};", marker(tag));
    let mut found = 0;
    let rest: Vec<&str> = source
        .lines()
        .filter(|l| {
            let hit = *l == decl;
            found += hit as usize;
            !hit
        })
        .collect();
    (found == 1).then(|| canonical(&(rest.join("\n") + "\n")))
}

/// Renumber the decompiler's temporaries (`v<digits>`) in order of first
/// appearance. Their numbers come from instruction ids, which a
/// print-then-parse round trip renumbers; everything else must match.
pub fn canonical(source: &str) -> String {
    let mut names: Vec<String> = Vec::new();
    let mut out = String::with_capacity(source.len());
    let bytes = source.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &source[start..i];
            if word.len() > 1
                && word.starts_with('v')
                && word[1..].bytes().all(|b| b.is_ascii_digit())
            {
                let k = names.iter().position(|n| n == word).unwrap_or_else(|| {
                    names.push(word.to_string());
                    names.len() - 1
                });
                out.push_str(&format!("v#{k}"));
            } else {
                out.push_str(word);
            }
        } else {
            let start = i;
            i += 1;
            while i < bytes.len() && !(bytes[i].is_ascii_alphabetic() || bytes[i] == b'_') {
                i += 1;
            }
            out.push_str(&source[start..i]);
        }
    }
    out
}

/// Functions in the editor's module.
pub const EDIT_FUNCTIONS: usize = 16;

/// The editor: a 16-kernel synthetic module whose every edit changes one
/// kernel's constant to a value not used before in the run. Each edit is
/// a text edit of the previous module (microseconds), not a regeneration
/// through cfront → -O2 → Polly-sim (tens of milliseconds).
#[derive(Clone)]
pub struct Editor {
    pub text: String,
    consts: Vec<f64>,
    edits: u64,
}

/// The literal a kernel's constant prints as in the IR.
fn literal(c: f64) -> String {
    format!("f64 {c:?}")
}

impl Editor {
    pub fn new() -> Result<Editor, String> {
        // x.5 values: exact in binary, printed without exponent, and never
        // equal to the kernels' other literals (0.25, 0.5, 0.75).
        let consts: Vec<f64> = (0..EDIT_FUNCTIONS).map(|f| 100.5 + f as f64).collect();
        let text = splendid_daemon::bench::synthetic_module(&consts)?;
        Ok(Editor {
            text,
            consts,
            edits: 0,
        })
    }

    /// Change kernel `f`'s constant to a fresh value; returns it.
    pub fn edit(&mut self, f: usize) -> f64 {
        let fresh = 1000.5 + self.edits as f64;
        self.edits += 1;
        let (old, new) = (literal(self.consts[f]), literal(fresh));
        let mut out = String::with_capacity(self.text.len() + 64);
        let mut rest = self.text.as_str();
        let mut hits = 0;
        while let Some(pos) = rest.find(&old) {
            let after = rest.as_bytes().get(pos + old.len()).copied();
            out.push_str(&rest[..pos]);
            if after.is_some_and(|b| b.is_ascii_digit() || b == b'.' || b == b'e') {
                out.push_str(&old);
            } else {
                out.push_str(&new);
                hits += 1;
            }
            rest = &rest[pos + old.len()..];
        }
        out.push_str(rest);
        assert!(
            hits > 0,
            "constant {old} of kernel {f} not found in the module text"
        );
        self.text = out;
        self.consts[f] = fresh;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splendid_core::fingerprint::span_fingerprints;
    use splendid_core::incremental::root_of;
    use splendid_core::{prepare_module, SplendidOptions, StageTimings};
    use splendid_ir::parser::parse_module;
    use splendid_serve::function_cache_key;
    use std::collections::BTreeSet;

    fn in_checkout() {
        // Tests run from the benchmark package; the golden files live at
        // the repository root.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
    }

    #[test]
    fn variants_decompile_to_the_golden_files_apart_from_the_marker() {
        in_checkout();
        let suite = suite().unwrap();
        assert_eq!(suite.len(), 16);
        for k in &suite {
            let text = variant(&k.text, "t1");
            let m = parse_module(&text).unwrap();
            let out = splendid_core::decompile(&m, &SplendidOptions::default()).unwrap();
            assert_eq!(
                without_marker(&out.source, "t1").as_deref(),
                Some(canonical(&k.golden).as_str()),
                "{}",
                k.name
            );
            // The marker is what makes the check pass: another tag fails.
            assert_eq!(without_marker(&out.source, "t2"), None);
        }
    }

    #[test]
    fn variants_change_every_function_cache_key() {
        in_checkout();
        let opts = SplendidOptions::default();
        for k in suite().unwrap().iter().take(4) {
            let prep = |tag: &str| {
                let m = parse_module(&variant(&k.text, tag)).unwrap();
                prepare_module(&m, &opts, &mut StageTimings::default()).unwrap()
            };
            let (a, b) = (prep("a"), prep("b"));
            for fid in a.module.func_ids() {
                assert_ne!(
                    function_cache_key(&a, fid, &opts),
                    function_cache_key(&b, fid, &opts),
                    "{}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn canonical_renumbers_temporaries_only() {
        assert_eq!(
            canonical("double v63 = x[i]; y = v63 + v7 + v63; avg = 1;"),
            "double v#0 = x[i]; y = v#0 + v#1 + v#0; avg = 1;"
        );
        assert_eq!(canonical("double v4;"), canonical("double v90;"));
        assert_ne!(canonical("v1 + v2"), canonical("v1 + v1"));
    }

    #[test]
    fn each_edit_changes_exactly_one_root_function_with_a_fresh_constant() {
        let mut ed = Editor::new().unwrap();
        let mut rng = Rng::new(7);
        let mut seen: BTreeSet<u64> = ed.consts.iter().map(|c| c.to_bits()).collect();
        for _ in 0..20 {
            let before = span_fingerprints(&ed.text);
            let f = rng.below(EDIT_FUNCTIONS);
            let fresh = ed.edit(f);
            assert!(seen.insert(fresh.to_bits()), "constant {fresh} repeated");
            let after = span_fingerprints(&ed.text);
            assert_eq!(before.preamble, after.preamble);
            assert_eq!(before.funcs.len(), after.funcs.len());
            let mut spans = splendid_ir::ModuleSpans::default();
            splendid_ir::scan_spans_into(&ed.text, &mut spans);
            let changed: BTreeSet<&str> = before
                .funcs
                .iter()
                .zip(&after.funcs)
                .zip(&spans.funcs)
                .filter(|((b, a), _)| b.body_hash != a.body_hash)
                .map(|(_, s)| root_of(s.name_str(&ed.text)))
                .collect();
            assert_eq!(changed, BTreeSet::from([format!("kernel{f}").as_str()]));
        }
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
    }
}
