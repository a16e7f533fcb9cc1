//! Panic-freedom sweep: `prepare_module` and `decompile_function` must
//! never unwind — not on the difftest generator corpus, not on the full
//! PolyBench suite, and not on deliberately malformed IR. Failures are
//! allowed (and expected, for the malformed inputs); panics are not —
//! not even one the pipeline's own `contain` barrier turns into an error,
//! so every panic is counted by a hook before anything can catch it.

use splendid_cfront::OmpRuntime;
use splendid_core::{
    decompile_function, prepare_module, FidelityTier, SplendidOptions, StageTimings, Variant,
};
use splendid_difftest::{generate, GenConfig};
use splendid_ir::{parser::parse_module, Module};
use splendid_parallel::{parallelize_module, ParallelizeOptions};
use splendid_polybench::Harness;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Once;

thread_local! {
    /// Panics raised on this thread since the hook was installed.
    static PANICS: Cell<usize> = const { Cell::new(0) };
}

/// Install (once per process) a panic hook that counts every panic on
/// the panicking thread, caught or not, then defers to the default hook.
fn count_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.with(|p| p.set(p.get() + 1));
            default(info);
        }));
    });
}

/// The option points swept per module: every fidelity start tier plus the
/// V1 variant (which skips the detransformer entirely).
fn option_matrix() -> Vec<SplendidOptions> {
    vec![
        SplendidOptions::default(),
        SplendidOptions {
            variant: Variant::V1,
            ..Default::default()
        },
        SplendidOptions {
            start_tier: FidelityTier::Structured,
            ..Default::default()
        },
        SplendidOptions {
            start_tier: FidelityTier::Literal,
            ..Default::default()
        },
    ]
}

/// Run the whole per-function pipeline under `catch_unwind`; the result
/// (Ok or Err) is irrelevant — only an unwind fails the sweep.
fn assert_no_panic(label: &str, module: &Module, opts: &SplendidOptions) {
    count_panics();
    let before = PANICS.with(Cell::get);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut timings = StageTimings::default();
        let prepared = match prepare_module(module, opts, &mut timings) {
            Ok(p) => p,
            Err(_) => return,
        };
        for fid in prepared.module.func_ids().collect::<Vec<_>>() {
            let _ = decompile_function(&prepared, fid, opts, &mut timings);
        }
    }));
    assert!(outcome.is_ok(), "{label}: pipeline panicked");
    let contained = PANICS.with(Cell::get) - before;
    assert_eq!(
        contained, 0,
        "{label}: {contained} panic(s) caught inside the pipeline"
    );
}

#[test]
fn difftest_corpus_never_panics() {
    let cfg = GenConfig::default();
    for case in 0..8u64 {
        let prog = generate(0xDECAF ^ case, case, &cfg);
        let src = prog.render();
        let mut module = Harness::compile(&src, OmpRuntime::LibOmp)
            .unwrap_or_else(|e| panic!("case {case}: generated program must compile: {e}"));
        parallelize_module(
            &mut module,
            &ParallelizeOptions {
                version_aliasing: true,
                min_work: 0,
                only_functions: vec!["kernel".into()],
            },
        );
        for (i, opts) in option_matrix().iter().enumerate() {
            assert_no_panic(&format!("difftest case {case} opts {i}"), &module, opts);
        }
    }
}

#[test]
fn polybench_suite_never_panics() {
    let suite = Harness::polly_suite().expect("polly suite builds");
    assert!(suite.len() >= 16, "expected the full suite");
    for (name, module) in &suite {
        for (i, opts) in option_matrix().iter().enumerate() {
            assert_no_panic(&format!("{name} opts {i}"), module, opts);
        }
    }
}

#[test]
fn malformed_ir_never_panics() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/malformed");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("ir"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "malformed corpus went missing: {files:?}");

    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let label = path.file_name().unwrap().to_string_lossy().into_owned();
        // The parser may reject the file (fine) — but must not unwind.
        let parsed = catch_unwind(|| parse_module(&text));
        let module = match parsed {
            Ok(Ok(m)) => m,
            Ok(Err(_)) => continue,
            Err(_) => panic!("{label}: parser panicked"),
        };
        for (i, opts) in option_matrix().iter().enumerate() {
            assert_no_panic(&format!("{label} opts {i}"), &module, opts);
        }
    }
}
