//! Every fidelity tier prints C that recompiles to the source's
//! behaviour. Each fixture in `tests/tiers/` verifies and is decompiled
//! starting at the Natural, Structured and Literal tiers; the output must
//! come from the requested tier (no degradation), re-lower through
//! cfront, and be `Verified` for every function. `missing-arg.ir`
//! references an argument the function does not have: every tier must
//! refuse it with a typed error instead.

use splendid_core::{
    assemble_output, decompile_function, prepare_module, FidelityTier, SplendidOptions,
    StageTimings,
};
use splendid_ir::{parser::parse_module, verify::verify_module};
use splendid_validate::{check_module, ValidateConfig};
use std::path::Path;

const TIERS: [FidelityTier; 3] = [
    FidelityTier::Natural,
    FidelityTier::Structured,
    FidelityTier::Literal,
];

fn fixtures() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/tiers");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("ir"))
        .collect();
    files.sort();
    assert!(files.len() >= 5, "tier fixtures went missing: {files:?}");
    files
        .iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(p).unwrap())
        })
        .collect()
}

#[test]
fn every_tier_recompiles_every_fixture() {
    for (file, text) in fixtures() {
        let module = parse_module(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        if file != "missing-arg.ir" {
            verify_module(&module).unwrap_or_else(|e| panic!("{file}: {e}"));
        }
        for tier in TIERS {
            let label = format!("{file} at {tier}");
            let opts = SplendidOptions {
                start_tier: tier,
                ..Default::default()
            };
            let mut timings = StageTimings::default();
            let prepared = prepare_module(&module, &opts, &mut timings)
                .unwrap_or_else(|e| panic!("{label}: prepare: {e}"));
            let outputs: Vec<_> = prepared
                .module
                .func_ids()
                .map(|fid| decompile_function(&prepared, fid, &opts, &mut timings))
                .collect();
            if file == "missing-arg.ir" {
                for out in outputs {
                    let e = out.expect_err(&label);
                    assert!(e.message.contains("missing arg 3"), "{label}: {e}");
                }
                continue;
            }
            let functions: Vec<_> = outputs
                .into_iter()
                .map(|out| out.unwrap_or_else(|e| panic!("{label}: {e}")))
                .collect();
            for f in &functions {
                assert_eq!(f.tier, tier, "{label}: degraded\n{}", f.text);
            }
            let source = assemble_output(&prepared, functions, &mut timings).source;
            let verdicts = check_module(&prepared.module, &source, &ValidateConfig::default());
            assert!(!verdicts.is_empty(), "{label}: nothing checked");
            for v in verdicts {
                assert!(
                    v.verdict.is_verified(),
                    "{label}: {} {:?}\n{source}",
                    v.name,
                    v.verdict
                );
            }
        }
    }
}
