//! On-disk compatibility pins: the cache keys a store written by an
//! earlier build was filled under. A warm restart finds its records only
//! if these stay byte-identical, so any change here orphans every
//! existing cache directory.
//!
//! The input is a checked-in `splendid dump-polybench` module, so the
//! keys stay pinned to the bytes a store was filled from; a second test
//! checks that a fresh pipeline run still prints exactly those bytes.

use splendid_core::{prepare_module, SplendidOptions, StageTimings};
use splendid_ir::parser::parse_module;
use splendid_serve::{cert_cache_key, function_cache_key, module_cache_key};

const GEMM_IR: &str = include_str!("fixtures/gemm.ir");

#[test]
fn polybench_gemm_cache_keys_are_pinned() {
    let opts = SplendidOptions::default();
    assert_eq!(module_cache_key(GEMM_IR, &opts), 0xe5c8_d1c6_9d21_e879);
    let validated = SplendidOptions {
        validate: true,
        ..SplendidOptions::default()
    };
    assert_eq!(module_cache_key(GEMM_IR, &validated), 0xe45f_c0b9_1eee_38ae);

    let module = parse_module(GEMM_IR).unwrap();
    let prepared = prepare_module(&module, &opts, &mut StageTimings::default()).unwrap();
    let keys: Vec<(&str, u64, u64)> = prepared
        .module
        .func_ids()
        .map(|fid| {
            let key = function_cache_key(&prepared, fid, &opts);
            let name = prepared.module.name_of(prepared.module.func(fid).name);
            (name, key, cert_cache_key(key))
        })
        .collect();
    assert_eq!(
        keys,
        [
            ("init", 0x1a28_bd8c_5417_76e3, 0x79aa_0012_3d08_a9a0),
            ("kernel", 0x94da_00bc_95b1_7519, 0x9f85_1f03_c774_266d),
        ]
    );
}

#[test]
fn fresh_polybench_gemm_matches_the_fixture() {
    let gemm = splendid_polybench::kernels::benchmark("gemm").unwrap();
    let (module, _) = splendid_polybench::Harness::polly(gemm.sequential).unwrap();
    assert_eq!(splendid_ir::printer::module_str(&module), GEMM_IR);
}
