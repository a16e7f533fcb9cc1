//! Per-layer metrics from a traced run.
//!
//! A traced run times each op as usual, then replays the op's own inputs
//! through each layer's public entry points with a span around every
//! call. Each op then splits into the replayed layers' self times plus
//! `serve.unattributed_ms`: the op's cost that no replayed call covers
//! (pool hand-off, cache keys and fills, job bookkeeping).

use crate::stats;
use crate::trace::{self_times, Kind, Tracer};
use std::collections::BTreeMap;

/// Op id of spans that belong to set-up, not to any op.
pub const SETUP_OP: u64 = u64::MAX;

/// The crates a span can be charged to, in report order.
pub const LAYERS: [&str; 8] = [
    "ir",
    "core",
    "serve",
    "daemon",
    "cachestore",
    "validate",
    "cfront",
    "interp",
];

/// One op of the traced phase. `base_ms` is what the layers' self times
/// must add up to: the op's CPU time where the scheduler fans an op out
/// over several workers (the replay runs serially, so wall time would
/// under-count it), its wall time where the op runs serially.
pub struct TracedOp {
    pub id: u64,
    pub base_ms: f64,
    pub cpu_ms: f64,
    pub wall_ms: f64,
}

/// Metrics whose value is a span's mean inclusive time per op:
/// `(metric, unit, span, scale from seconds)`.
const SPAN_METRICS: [(&str, &str, &str, f64); 19] = [
    ("ir.parse_ms", "ms", "ir.parse", 1e3),
    ("core.prepare_ms", "ms", "core.prepare", 1e3),
    ("core.function_ms", "ms", "core.function", 1e3),
    ("core.assemble_ms", "ms", "core.assemble", 1e3),
    ("core.fingerprint_ms", "ms", "core.fingerprint", 1e3),
    (
        "core.span_fingerprint_us",
        "us",
        "core.span_fingerprint",
        1e6,
    ),
    ("core.reprepare_ms", "ms", "core.reprepare", 1e3),
    ("serve.codec_decode_us", "us", "serve.codec_decode", 1e6),
    ("daemon.update_ms", "ms", "daemon.update", 1e3),
    ("daemon.decompile_ms", "ms", "daemon.decompile", 1e3),
    (
        "daemon.update_fingerprint_us",
        "us",
        "daemon.update_fingerprint",
        1e6,
    ),
    (
        "daemon.update_bookkeeping_us",
        "us",
        "daemon.update_bookkeeping",
        1e6,
    ),
    ("cachestore.get_us", "us", "cachestore.get", 1e6),
    ("cachestore.put_us", "us", "cachestore.put", 1e6),
    ("validate.relower_ms", "ms", "validate.relower", 1e3),
    ("validate.check_ms", "ms", "validate.check", 1e3),
    ("cfront.parse_ms", "ms", "cfront.parse", 1e3),
    ("cfront.lower_ms", "ms", "cfront.lower", 1e3),
    ("interp.vm_new_ms", "ms", "interp.vm_new", 1e3),
];

/// Metrics a workload supplies itself (counts and ratios read from the
/// program's own replies and stats), with their units. A workload that
/// does not exercise a layer leaves its metrics at 0.
const EXTRA_METRICS: [(&str, &str); 9] = [
    ("core.degraded_functions", "count"),
    ("serve.lru_hit_ratio", "ratio"),
    ("serve.functions_decompiled", "count"),
    ("serve.functions_from_cache", "count"),
    ("serve.disk_hit_ratio", "ratio"),
    ("daemon.wire_ms", "ms"),
    ("validate.verified", "count"),
    ("interp.insts", "count"),
    ("interp.minst_per_s", "Minst/s"),
];

/// Every per-layer metric the traced run prints, in order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = SPAN_METRICS
        .iter()
        .map(|(n, u, _, _)| (n.to_string(), *u))
        .collect();
    out.extend(EXTRA_METRICS.iter().map(|(n, u)| (n.to_string(), *u)));
    out.extend([
        ("serve.unattributed_ms".to_string(), "ms"),
        ("serve.cpu_ms_per_op".to_string(), "ms"),
        ("cachestore.open_ms".to_string(), "ms"),
        ("trace.overhead_pct".to_string(), "%"),
    ]);
    out.extend(LAYERS.iter().map(|l| (format!("{l}.self_share"), "%")));
    out
}

/// Turn the spans of a traced run into the per-layer metrics.
/// `extras` are the workload's own counts (see [`EXTRA_METRICS`]);
/// `untraced_ms` are the latencies of the untraced ops the run
/// alternated with the traced ones.
pub fn summarize(
    tracer: &Tracer,
    ops: &[TracedOp],
    extras: &[(&'static str, f64)],
    untraced_ms: &[f64],
) -> Vec<(String, f64, &'static str)> {
    let spans = tracer.spans();
    let selfs = self_times(spans);
    let n = ops.len().max(1) as f64;

    let mut inclusive: BTreeMap<&str, f64> = BTreeMap::new();
    let mut layer_self: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut opens, mut open_s) = (0u32, 0.0);
    for (s, own) in spans.iter().zip(&selfs) {
        if s.name == "cachestore.open" {
            opens += 1;
            open_s += s.dur().as_secs_f64();
        }
        if s.op == SETUP_OP {
            continue;
        }
        *inclusive.entry(s.name).or_default() += s.dur().as_secs_f64();
        if s.kind == Kind::Layer {
            *layer_self.entry(s.layer()).or_default() += own.as_secs_f64();
        }
    }
    let base_s: f64 = ops.iter().map(|o| o.base_ms / 1e3).sum();
    let attributed_s: f64 = layer_self.values().sum();
    let unattributed_s = base_s - attributed_s;

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (metric, _, span, scale) in SPAN_METRICS {
        values.insert(
            metric.into(),
            inclusive.get(span).copied().unwrap_or(0.0) * scale / n,
        );
    }
    for (name, v) in extras {
        values.insert(name.to_string(), *v);
    }
    values.insert("serve.unattributed_ms".into(), unattributed_s * 1e3 / n);
    values.insert(
        "serve.cpu_ms_per_op".into(),
        ops.iter().map(|o| o.cpu_ms).sum::<f64>() / n,
    );
    if opens > 0 {
        values.insert("cachestore.open_ms".into(), open_s * 1e3 / f64::from(opens));
    }
    let traced: Vec<f64> = ops.iter().map(|o| o.wall_ms).collect();
    if !traced.is_empty() && !untraced_ms.is_empty() {
        let (p50, base) = (stats::median(&traced), stats::median(untraced_ms));
        values.insert("trace.overhead_pct".into(), (p50 - base) / base * 100.0);
    }
    let mut shares = Vec::new();
    for layer in LAYERS {
        let mut s = layer_self.get(layer).copied().unwrap_or(0.0);
        if layer == "serve" {
            s += unattributed_s;
        }
        let share = if base_s > 0.0 {
            s / base_s * 100.0
        } else {
            0.0
        };
        shares.push(format!("{layer} {share:.1}%"));
        values.insert(format!("{layer}.self_share"), share);
    }
    println!(
        "layer shares of {:.3} ms per op (serve includes {:.3} ms unattributed): {}",
        base_s * 1e3 / n,
        unattributed_s * 1e3 / n,
        shares.join(", ")
    );

    names()
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn shares_and_unattributed_account_for_the_op() {
        let mut t = Tracer::default();
        t.span("replay", Kind::Frame, 0, |t| {
            t.call("ir.parse", 0, || {
                std::thread::sleep(Duration::from_millis(2))
            });
            t.span("validate.relower", Kind::Layer, 0, |t| {
                t.call("cfront.parse", 0, || {
                    std::thread::sleep(Duration::from_millis(1))
                });
            });
        });
        let replayed: f64 = t.spans()[1..]
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| s.dur().as_secs_f64() * 1e3)
            .sum();
        let ops = [TracedOp {
            id: 0,
            base_ms: replayed + 5.0,
            cpu_ms: 1.0,
            wall_ms: 1.0,
        }];
        let m: BTreeMap<String, f64> = summarize(&t, &ops, &[("validate.verified", 2.0)], &[1.0])
            .into_iter()
            .map(|(n, v, _)| (n, v))
            .collect();
        assert!((m["serve.unattributed_ms"] - 5.0).abs() < 1e-6);
        let total: f64 = LAYERS.iter().map(|l| m[&format!("{l}.self_share")]).sum();
        assert!((total - 100.0).abs() < 1e-6, "{total}");
        assert!(m["ir.parse_ms"] >= 2.0);
        assert_eq!(m["validate.verified"], 2.0);
        assert_eq!(m["interp.insts"], 0.0);
        assert_eq!(m.len(), names().len());
    }
}
