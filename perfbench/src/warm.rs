//! `warm-restart`: a scheduler restarted over a persistent store answers
//! suite variants it has not been asked for yet from disk, through the
//! whole-module fast path. This is the only workload that reads
//! cachestore and decodes codec records; core does nothing here.
//!
//! Preparation (neither timed nor set-up): a tiered scheduler fills a
//! store with [`VARIANTS`] suite variants and flushes it. The timed part
//! runs in windows: restart over the store (one `setup_s` sample), then
//! every variant once, [`SUITES_PER_OP`] suites per op, in a seeded order.

use crate::batch::{check_module, tag};
use crate::inputs::{self, canonical, variant, Kernel, Rng};
use crate::layers::{self, TracedOp, SETUP_OP};
use crate::trace::{Kind, Tracer};
use crate::{env, Args, Report};
use splendid_cachestore::{CacheStore, StoreConfig};
use splendid_core::SplendidOptions;
use splendid_serve::codec::decode_module_record;
use splendid_serve::{
    module_cache_key, BlobTiers, CacheTier, DiskTier, JobRequest, Scheduler, ServeConfig,
    StatsSnapshot,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Suite variants in the store: 1024 module records plus the function
/// records the fill wrote, a few MiB. The store size is part of the
/// workload, because a clean open still scans the active segment.
const VARIANTS: u64 = 64;
/// Suites per op: 128 modules, a few milliseconds, so that one op is
/// long enough to time steadily.
const SUITES_PER_OP: usize = 8;
/// Function-cache entries of the filling scheduler: small, so the fill
/// does not set the run's peak RSS.
const FILL_CACHE_ENTRIES: usize = 64;
/// Share of windows, the quietest, the end-to-end metrics come from.
const QUIET_SHARE: f64 = 0.25;

/// One timed op and what the scheduler counted for it.
struct WarmOp {
    id: u64,
    variants: Vec<u64>,
    cpu_ms: f64,
    wall_ms: f64,
    from_cache: u64,
    disk_hits: u64,
    disk_misses: u64,
}

fn requests(suite: &[Kernel], variants: &[u64], seed: u64) -> Vec<JobRequest> {
    variants
        .iter()
        .flat_map(|&v| {
            let t = tag(seed, v);
            suite
                .iter()
                .map(move |k| JobRequest::from_text(k.name.clone(), variant(&k.text, &t)))
        })
        .collect()
}

fn disk_counts(s: &StatsSnapshot) -> (u64, u64) {
    s.tiers
        .iter()
        .find(|t| t.name == "disk")
        .map_or((0, 0), |t| (t.hits, t.misses))
}

fn tiered(store: &Path, config: ServeConfig) -> Result<Scheduler, String> {
    let disk = DiskTier::open(store, StoreConfig::default())
        .map_err(|e| format!("opening {}: {e}", store.display()))?;
    let tiers: Vec<Arc<dyn CacheTier>> = vec![Arc::new(disk)];
    Ok(Scheduler::new_with_tiers(config, BlobTiers::new(tiers)))
}

fn fill(suite: &[Kernel], goldens: &[String], store: &Path, seed: u64) -> Result<(), String> {
    let s = tiered(
        store,
        ServeConfig {
            cache_capacity: FILL_CACHE_ENTRIES,
            ..ServeConfig::default()
        },
    )?;
    for v in 1..=VARIANTS {
        let t = tag(seed, v);
        let results = s.decompile_batch(requests(suite, &[v], seed));
        for (r, g) in results.iter().zip(goldens) {
            check_module(r, g, &t, Some(0)).map_err(|e| format!("fill: {e}"))?;
        }
    }
    s.flush_cache();
    drop(s);
    let bytes: u64 = std::fs::read_dir(store)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    println!("store: {VARIANTS} suite variants, {bytes} bytes on disk");
    Ok(())
}

pub fn run(args: &Args, dir: &Path, rep: &mut Report) -> Result<(), String> {
    let suite = inputs::suite()?;
    let goldens: Vec<String> = suite.iter().map(|k| canonical(&k.golden)).collect();
    let store = dir.join("store");
    fill(&suite, &goldens, &store, args.seed)?;

    rep.quiet_share = QUIET_SHARE;
    let mut rng = Rng::new(args.seed);
    let mut order: Vec<u64> = (1..=VARIANTS).collect();
    let mut next_op = 0u64;
    let mut tracer = Tracer::default();
    // Per window, its traced ops.
    let mut rounds: Vec<Vec<WarmOp>> = Vec::new();

    let end = Instant::now() + crate::timed(args);
    while Instant::now() < end {
        // One window: restart, then every variant once, stopping at `end`.
        rng.shuffle(&mut order);
        let s = rep.setup(|| tiered(&store, ServeConfig::default()))?;
        rep.workers = s.workers();
        let mut ran = Vec::new();
        for chunk in order.chunks(SUITES_PER_OP) {
            if Instant::now() >= end {
                break;
            }
            next_op += 1;
            let reqs = requests(&suite, chunk, args.seed);
            let before = s.stats();
            let cpu = env::cpu_ns();
            let start = Instant::now();
            let results = s.decompile_batch(reqs);
            let elapsed = start.elapsed();
            let cpu_ms = env::cpu_ns().saturating_sub(cpu) as f64 / 1e6;
            let after = s.stats();
            let modules = results.len() as u64;
            let (h0, m0) = disk_counts(&before);
            let (h1, m1) = disk_counts(&after);
            let o = WarmOp {
                id: next_op,
                variants: chunk.to_vec(),
                cpu_ms,
                wall_ms: elapsed.as_secs_f64() * 1e3,
                from_cache: after.functions_from_cache - before.functions_from_cache,
                disk_hits: h1 - h0,
                disk_misses: m1 - m0,
            };
            let decompiled = after.functions_decompiled - before.functions_decompiled;
            let check = results
                .iter()
                .enumerate()
                .try_for_each(|(i, r)| {
                    let t = tag(args.seed, chunk[i / suite.len()]);
                    check_module(r, &goldens[i % suite.len()], &t, None)?;
                    match r {
                        Ok(r) if r.cached_functions != r.functions => {
                            Err(format!("{}: not answered from the store", r.name))
                        }
                        _ => Ok(()),
                    }
                })
                .and_then(|()| {
                    if o.disk_hits == modules && o.disk_misses == 0 && decompiled == 0 {
                        Ok(())
                    } else {
                        Err(format!(
                            "{} disk hits, {} misses, {decompiled} functions decompiled for {modules} modules",
                            o.disk_hits, o.disk_misses
                        ))
                    }
                });
            rep.op(elapsed, modules, check);
            // The op is timed from outside; only its span is recorded.
            if crate::traced(args, o.id) {
                tracer.record("op", Kind::Frame, o.id, elapsed);
                ran.push(o);
            } else if args.trace {
                rep.untraced_ms.push(o.wall_ms);
            }
        }
        rounds.push(ran);
    }
    if !args.trace {
        return Ok(());
    }

    // A replay of every window against the store opened directly (the
    // scheduler's disk tier holds its lock while it runs): one open,
    // then per module a `get` and a module-record decode.
    let opts = SplendidOptions::default();
    let mut ops = Vec::new();
    for ran in &rounds {
        let mut cs = tracer
            .call("cachestore.open", SETUP_OP, || {
                CacheStore::open(&store, StoreConfig::default())
            })
            .map_err(|e| format!("replay open: {e}"))?;
        for o in ran {
            tracer.span("replay", Kind::Frame, o.id, |tr| {
                for &v in &o.variants {
                    let t = tag(args.seed, v);
                    for k in &suite {
                        let key = module_cache_key(&variant(&k.text, &t), &opts);
                        let blob = tr
                            .call("cachestore.get", o.id, || cs.get(key))
                            .ok_or_else(|| format!("replay: {} missing from the store", k.name))?;
                        tr.call("serve.codec_decode", o.id, || decode_module_record(&blob))
                            .map_err(|e| format!("replay decode: {e:?}"))?;
                    }
                }
                Ok::<(), String>(())
            })?;
            ops.push(TracedOp {
                id: o.id,
                base_ms: o.cpu_ms,
                cpu_ms: o.cpu_ms,
                wall_ms: o.wall_ms,
            });
        }
    }
    let all: Vec<&WarmOp> = rounds.iter().flatten().collect();
    let n = all.len().max(1) as f64;
    let (hits, misses) = all
        .iter()
        .fold((0, 0), |(h, m), o| (h + o.disk_hits, m + o.disk_misses));
    let extras = vec![
        (
            "serve.functions_from_cache",
            all.iter().map(|o| o.from_cache).sum::<u64>() as f64 / n,
        ),
        (
            "serve.disk_hit_ratio",
            if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
        ),
    ];
    rep.layers = layers::summarize(&tracer, &ops, &extras, &rep.untraced_ms);
    rep.tracer = Some(tracer);
    Ok(())
}
