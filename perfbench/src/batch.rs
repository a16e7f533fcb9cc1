//! `batch-decompile`: one `decompile_batch` over the 16 PolyBench modules
//! per op, each module a fresh variant, so every function misses the
//! function cache while the work equals that of the plain suite. This is
//! the `splendid batch` path; ir and core do nearly all of its work.

use crate::inputs::{self, canonical, variant, without_marker, Kernel};
use crate::layers::{self, TracedOp};
use crate::trace::{Kind, Tracer};
use crate::{env, Args, Report};
use splendid_core::{
    assemble_output, decompile_function, prepare_module, FidelityTier, SplendidOptions,
    StageTimings,
};
use splendid_ir::parser::parse_module;
use splendid_serve::{JobError, JobRequest, JobResult, Scheduler, ServeConfig, StatsSnapshot};
use std::time::Instant;

/// Ops per window. Each window opens on a fresh scheduler, as one
/// `splendid batch` invocation would.
const WINDOW_OPS: usize = 48;
/// Share of windows, the quietest, the end-to-end metrics come from.
const QUIET_SHARE: f64 = 0.25;
/// Ops a user pays once per invocation: the first suites through a fresh
/// scheduler fault in its threads, allocator arenas and code.
const WARMUP_OPS: u64 = 2;

/// Variant tag of op `n` in a run with `seed`.
pub fn tag(seed: u64, n: u64) -> String {
    format!("s{seed}_{n}")
}

/// Check one job's output against its golden file, apart from the
/// variant marker; `cached` is how many functions must have come from a
/// cache.
pub fn check_module(
    r: &Result<JobResult, JobError>,
    golden: &str,
    tag: &str,
    cached: Option<usize>,
) -> Result<(), String> {
    let r = r.as_ref().map_err(|e| format!("job error: {e}"))?;
    if r.degraded_functions != 0 {
        return Err(format!(
            "{}: {} degraded function(s)",
            r.name, r.degraded_functions
        ));
    }
    if let Some(want) = cached {
        if r.cached_functions != want {
            return Err(format!(
                "{}: {} cached function(s), want {want}",
                r.name, r.cached_functions
            ));
        }
    }
    match without_marker(&r.output.source, tag) {
        Some(out) if out == golden => Ok(()),
        Some(_) => Err(format!("{}: output differs from its golden file", r.name)),
        None => Err(format!("{}: variant marker missing from output", r.name)),
    }
}

fn requests(suite: &[Kernel], tag: &str) -> Vec<JobRequest> {
    suite
        .iter()
        .map(|k| JobRequest::from_text(k.name.clone(), variant(&k.text, tag)))
        .collect()
}

fn check_batch(
    goldens: &[String],
    results: &[Result<JobResult, JobError>],
    tag: &str,
) -> Result<(), String> {
    if results.len() != goldens.len() {
        return Err(format!(
            "{} results for {} modules",
            results.len(),
            goldens.len()
        ));
    }
    results
        .iter()
        .zip(goldens)
        .try_for_each(|(r, g)| check_module(r, g, tag, Some(0)))
}

pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let suite = inputs::suite()?;
    let goldens: Vec<String> = suite.iter().map(|k| canonical(&k.golden)).collect();
    let modules = suite.len() as u64;
    rep.quiet_share = QUIET_SHARE;
    // Op n decompiles the variants tagged n; set-ups take tags too.
    let mut next = 0u64;
    let mut tracer = Tracer::default();
    let mut ops = Vec::new();
    let mut counts = ServeCounts::default();

    let end = Instant::now() + crate::timed(args);
    while Instant::now() < end {
        // Set-up: scheduler start plus the warm-up ops; inputs are
        // generated before the clock starts and checked after it stops.
        let warm: Vec<(String, Vec<JobRequest>)> = (0..WARMUP_OPS)
            .map(|_| {
                next += 1;
                let t = tag(args.seed, next);
                let r = requests(&suite, &t);
                (t, r)
            })
            .collect();
        let (sched, outs) = rep.setup(|| {
            let s = Scheduler::new(ServeConfig::default());
            let outs: Vec<_> = warm
                .into_iter()
                .map(|(t, r)| (t, s.decompile_batch(r)))
                .collect();
            (s, outs)
        });
        for (t, out) in &outs {
            check_batch(&goldens, out, t).map_err(|e| format!("warm-up: {e}"))?;
        }
        rep.workers = sched.workers();

        for _ in 0..WINDOW_OPS {
            if Instant::now() >= end {
                break;
            }
            next += 1;
            let (id, t) = (next, tag(args.seed, next));
            let reqs = requests(&suite, &t);
            let traced = crate::traced(args, id);
            let before = traced.then(|| sched.stats());
            let cpu = env::cpu_ns();
            let start = Instant::now();
            let results = if traced {
                tracer.span("op", Kind::Frame, id, |_| sched.decompile_batch(reqs))
            } else {
                sched.decompile_batch(reqs)
            };
            let elapsed = start.elapsed();
            let cpu_ms = env::cpu_ns().saturating_sub(cpu) as f64 / 1e6;
            rep.op(elapsed, modules, check_batch(&goldens, &results, &t));
            if let Some(before) = before {
                counts.add(&before, &sched.stats());
                ops.push(TracedOp {
                    id,
                    base_ms: cpu_ms,
                    cpu_ms,
                    wall_ms: elapsed.as_secs_f64() * 1e3,
                });
            } else if args.trace {
                rep.untraced_ms.push(elapsed.as_secs_f64() * 1e3);
            }
        }
    }
    if !args.trace {
        return Ok(());
    }

    // Each traced op's inputs replayed through ir and core with a span
    // around every call.
    let mut degraded = 0u64;
    for o in &ops {
        let t = tag(args.seed, o.id);
        tracer.span("replay", Kind::Frame, o.id, |tr| {
            for k in &suite {
                degraded += replay_module(tr, o.id, &variant(&k.text, &t))?;
            }
            Ok::<(), String>(())
        })?;
    }
    let mut extras = counts.extras(ops.len());
    extras.push(("core.degraded_functions", degraded as f64));
    rep.layers = layers::summarize(&tracer, &ops, &extras, &rep.untraced_ms);
    rep.tracer = Some(tracer);
    Ok(())
}

/// What the scheduler counted over the traced ops.
#[derive(Default)]
pub struct ServeCounts {
    decompiled: u64,
    from_cache: u64,
    hits: u64,
    lookups: u64,
}

impl ServeCounts {
    /// Add what the scheduler counted between two snapshots.
    pub fn add(&mut self, before: &StatsSnapshot, after: &StatsSnapshot) {
        self.decompiled += after.functions_decompiled - before.functions_decompiled;
        self.from_cache += after.functions_from_cache - before.functions_from_cache;
        let hits = after.cache.hits - before.cache.hits;
        self.hits += hits;
        self.lookups += hits + after.cache.misses - before.cache.misses;
    }

    /// The counts per op, as per-layer metrics.
    pub fn extras(&self, ops: usize) -> Vec<(&'static str, f64)> {
        let n = ops.max(1) as f64;
        vec![
            ("serve.functions_decompiled", self.decompiled as f64 / n),
            ("serve.functions_from_cache", self.from_cache as f64 / n),
            (
                "serve.lru_hit_ratio",
                if self.lookups > 0 {
                    self.hits as f64 / self.lookups as f64
                } else {
                    0.0
                },
            ),
        ]
    }
}

/// Replay one module through the layer calls a scheduler job makes:
/// parse, prepare, fingerprint, every function, assemble. Returns the
/// prepared module's decompiled functions and how many were degraded.
pub fn replay_functions(
    tr: &mut Tracer,
    id: u64,
    text: &str,
    opts: &SplendidOptions,
) -> Result<
    (
        splendid_core::PreparedModule,
        Vec<splendid_core::FunctionOutput>,
    ),
    String,
> {
    let mut timings = StageTimings::default();
    let module = tr
        .call("ir.parse", id, || parse_module(text))
        .map_err(|e| format!("replay parse: {e}"))?;
    let prepared = tr
        .call("core.prepare", id, || {
            prepare_module(&module, opts, &mut timings)
        })
        .map_err(|e| format!("replay prepare: {e}"))?;
    tr.call("core.fingerprint", id, || {
        std::hint::black_box(prepared.digests());
    });
    let mut outs = Vec::new();
    for fid in prepared.module.func_ids() {
        let out = tr
            .call("core.function", id, || {
                decompile_function(&prepared, fid, opts, &mut timings)
            })
            .map_err(|e| format!("replay decompile: {e}"))?;
        outs.push(out);
    }
    Ok((prepared, outs))
}

fn replay_module(tr: &mut Tracer, id: u64, text: &str) -> Result<u64, String> {
    let opts = SplendidOptions::default();
    let (prepared, outs) = replay_functions(tr, id, text, &opts)?;
    let degraded = outs
        .iter()
        .filter(|o| o.tier > FidelityTier::Natural)
        .count() as u64;
    let mut timings = StageTimings::default();
    tr.call("core.assemble", id, || {
        std::hint::black_box(assemble_output(&prepared, outs, &mut timings));
    });
    Ok(degraded)
}
