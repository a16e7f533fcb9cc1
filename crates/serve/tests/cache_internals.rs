//! Direct tests for the service cache internals: LRU eviction order over
//! multi-step access patterns, eviction counter accuracy, and the options
//! fingerprint in the content-addressed key.

use splendid_cfront::OmpRuntime;
use splendid_core::{
    prepare_module, FidelityTier, FunctionOutput, NamingStats, SplendidOptions, StageTimings,
    Variant,
};
use splendid_polybench::Harness;
use splendid_serve::{function_cache_key, FunctionCache};
use std::sync::Arc;

fn out(tag: usize) -> Arc<FunctionOutput> {
    Arc::new(FunctionOutput {
        text: format!("void f{tag}() {{\n}}\n"),
        naming: NamingStats {
            total_vars: tag,
            restored_vars: 0,
        },
        gotos: 0,
        tier: FidelityTier::Natural,
    })
}

/// Which of the keys `0..n` are resident, without perturbing LRU order
/// more than necessary: a `get` on each key in ascending order.
fn resident(cache: &FunctionCache, n: u64) -> Vec<u64> {
    (0..n).filter(|&k| cache.get(k).is_some()).collect()
}

#[test]
fn eviction_follows_recency_over_a_multi_step_pattern() {
    let c = FunctionCache::new(3);
    c.insert(0, out(0));
    c.insert(1, out(1));
    c.insert(2, out(2));
    // Recency now (most → least): 2, 1, 0.
    assert!(c.get(0).is_some()); // 0, 2, 1
    assert!(c.get(1).is_some()); // 1, 0, 2
    c.insert(3, out(3)); // evicts 2 → 3, 1, 0
    assert_eq!(resident(&c, 5), vec![0, 1, 3]);
    // The resident() scan touched 0,1,3 ascending → recency 3, 1, 0.
    c.insert(4, out(4)); // evicts 0 → 4, 3, 1
    c.insert(5, out(5)); // evicts 1 → 5, 4, 3
    assert_eq!(resident(&c, 6), vec![3, 4, 5]);
    assert_eq!(c.counters().evictions, 3);
}

#[test]
fn eviction_counter_is_exact_and_refreshes_do_not_evict() {
    let cap = 4;
    let c = FunctionCache::new(cap);
    for k in 0..10u64 {
        c.insert(k, out(k as usize));
    }
    let counters = c.counters();
    assert_eq!(counters.insertions, 10);
    assert_eq!(counters.evictions, 10 - cap as u64);
    assert_eq!(counters.entries, cap);

    // Re-inserting a resident key refreshes in place: no insertion, no
    // eviction, entry count unchanged.
    c.insert(9, out(99));
    let after = c.counters();
    assert_eq!(after.insertions, counters.insertions);
    assert_eq!(after.evictions, counters.evictions);
    assert_eq!(after.entries, cap);
    assert_eq!(c.get(9).unwrap().naming.total_vars, 99);
}

const SRC: &str = "double A[8];\n\
    void init() {\n  int i;\n  for (i = 0; i < 8; i++) { A[i] = i * 0.5; }\n}\n\
    void kernel() {\n  int i;\n  for (i = 0; i < 8; i++) { A[i] = A[i] + 1.0; }\n}\n";

#[test]
fn options_change_misses_the_cache_key() {
    let module = Harness::compile(SRC, OmpRuntime::LibOmp).expect("compile");
    let mut timings = StageTimings::default();
    let full = SplendidOptions::default();
    let prepared = prepare_module(&module, &full, &mut timings).expect("prepare");
    let fid = prepared.module.func_ids().next().expect("a function");

    // Same module, same function, same options → same key (twice).
    assert_eq!(
        function_cache_key(&prepared, fid, &full),
        function_cache_key(&prepared, fid, &full)
    );

    // Any change to SplendidOptions must change the key: a cached result
    // from another variant would be silently wrong output.
    let v1 = SplendidOptions {
        variant: Variant::V1,
        ..SplendidOptions::default()
    };
    assert_ne!(
        function_cache_key(&prepared, fid, &full),
        function_cache_key(&prepared, fid, &v1)
    );

    // Distinct functions in the same module get distinct keys.
    let fids: Vec<_> = prepared.module.func_ids().collect();
    if let [a, b, ..] = fids.as_slice() {
        assert_ne!(
            function_cache_key(&prepared, *a, &full),
            function_cache_key(&prepared, *b, &full)
        );
    }
}
