//! `edit-loop`: the interactive path the paper is named for. An
//! in-process daemon with a disk cache directory (as deployed for warm
//! restarts) holds one session on the 16-function synthetic module; each
//! op is an UPDATE that changes one kernel's constant, then a DECOMPILE.
//! It covers span fingerprinting, incremental re-preparation, 15 cache
//! hits plus one decompile, the wire protocol, and one write-behind.
//!
//! Before timing, the session decompiles context variants of its module
//! until its function cache is full, so every edit evicts one entry and
//! `peak_rss_mb` is the plateau however many edits a run completes.

use crate::inputs::{canonical, variant, Editor, Rng, EDIT_FUNCTIONS};
use crate::layers::{self, TracedOp};
use crate::trace::{Kind, Tracer};
use crate::{env, Args, Report};
use splendid_cachestore::{CacheStore, StoreConfig};
use splendid_core::fingerprint::{fnv64, span_fingerprints_into, SpanFingerprints};
use splendid_core::incremental::{reprepare, root_of};
use splendid_core::{
    assemble_output, decompile, decompile_function, prepare_module, FidelityTier, FunctionOutput,
    PreparedModule, SplendidOptions, StageTimings,
};
use splendid_daemon::{Daemon, DaemonClient, DaemonConfig, Response};
use splendid_ir::{parser::parse_module, ModuleSpans};
use splendid_serve::codec::encode_function_record;
use splendid_serve::function_cache_key;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

/// Edits per window, every function equally often in a seeded order, so
/// that every window does the same work. Each window opens with a set-up
/// of its own, on a throwaway daemon: start, OPEN, and the first full
/// DECOMPILE. The window's edits then go to the run's long-lived session.
const WINDOW_OPS: usize = 4 * EDIT_FUNCTIONS;
/// Share of windows, the quietest, the end-to-end metrics come from.
const QUIET_SHARE: f64 = 0.25;
/// One round in this many (seeded) is also decompiled from scratch with
/// `splendid_core::decompile`, outside the timed region, and compared.
const SAMPLE_ONE_IN: usize = 32;

/// What one UPDATE + DECOMPILE round trip returned.
struct Round {
    elapsed: Duration,
    decompile_rtt: Duration,
    server_micros: u64,
    cached: u32,
    functions: u32,
    degraded: u32,
    source: String,
}

fn check_update(r: &Response) -> Result<(), String> {
    match r {
        Response::Updated {
            dirty: 1,
            total: 16,
            ..
        } => Ok(()),
        other => Err(format!("UPDATED: want 1 of 16 dirty, got {other:?}")),
    }
}

fn result_fields(r: Response) -> Result<(u32, u32, u32, u64, String), String> {
    match r {
        Response::Result {
            functions,
            cached,
            degraded,
            wall_micros,
            fast_path: false,
            source,
            ..
        } => Ok((functions, cached, degraded, wall_micros, source)),
        other => Err(format!(
            "expected a RESULT from the scheduler, got {other:?}"
        )),
    }
}

/// One op, optionally traced: the client round trips, with the times
/// the server reported in its replies recorded as child spans.
fn round_trip(
    c: &mut DaemonClient,
    text: &str,
    mut tr: Option<(&mut Tracer, u64)>,
) -> Result<Round, String> {
    let io = |e: std::io::Error| e.to_string();
    let start = Instant::now();
    let upd = match tr.as_mut() {
        None => c.update(text).map_err(io)?,
        Some((tr, id)) => tr.span("daemon.update", Kind::Layer, *id, |tr| {
            let r = c.update(text).map_err(io)?;
            if let Response::Updated {
                fingerprint_nanos,
                bookkeeping_nanos,
                ..
            } = r
            {
                // Span fingerprinting is core work, replayed below;
                // bookkeeping is the daemon's own.
                let ns = Duration::from_nanos;
                tr.record(
                    "daemon.update_fingerprint",
                    Kind::Frame,
                    *id,
                    ns(fingerprint_nanos),
                );
                tr.record(
                    "daemon.update_bookkeeping",
                    Kind::Layer,
                    *id,
                    ns(bookkeeping_nanos),
                );
            }
            Ok::<_, String>(r)
        })?,
    };
    let update_rtt = start.elapsed();
    let res = match tr.as_mut() {
        None => c.decompile().map_err(io)?,
        Some((tr, id)) => tr.span("daemon.decompile", Kind::Layer, *id, |tr| {
            let r = c.decompile().map_err(io)?;
            if let Response::Result { wall_micros, .. } = r {
                // The server-side work is replayed; what is left of the
                // round trip is the wire.
                tr.record(
                    "daemon.server",
                    Kind::Frame,
                    *id,
                    Duration::from_micros(wall_micros),
                );
            }
            Ok::<_, String>(r)
        })?,
    };
    let elapsed = start.elapsed();
    check_update(&upd)?;
    let (functions, cached, degraded, server_micros, source) = result_fields(res)?;
    Ok(Round {
        elapsed,
        decompile_rtt: elapsed - update_rtt,
        server_micros,
        cached,
        functions,
        degraded,
        source,
    })
}

fn check_round(r: &Round) -> Result<(), String> {
    if r.functions as usize != EDIT_FUNCTIONS || r.cached as usize != EDIT_FUNCTIONS - 1 {
        return Err(format!(
            "RESULT: {} of {} functions cached, want 15 of 16",
            r.cached, r.functions
        ));
    }
    if r.degraded != 0 {
        return Err(format!("RESULT: {} degraded function(s)", r.degraded));
    }
    Ok(())
}

/// A from-scratch decompile of the same text, compared with the
/// incremental result (temporaries renumbered: the session re-parses a
/// mini-module, which numbers instructions differently).
fn cross_check(text: &str, source: &str) -> Result<(), String> {
    let m = parse_module(text).map_err(|e| format!("cross-check parse: {e}"))?;
    let full = decompile(&m, &SplendidOptions::default()).map_err(|e| e.to_string())?;
    if canonical(&full.source) == canonical(source) {
        Ok(())
    } else {
        Err("incremental result differs from a from-scratch decompile".into())
    }
}

fn start_session(dir: &Path, text: &str) -> Result<(Daemon, DaemonClient, Response), String> {
    let d = Daemon::start(DaemonConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let mut c = DaemonClient::connect_tcp(d.local_addr()).map_err(|e| e.to_string())?;
    c.open("perfbench", 3, text).map_err(|e| e.to_string())?;
    let r = c.decompile().map_err(|e| e.to_string())?;
    Ok((d, c, r))
}

fn stop_session(d: Daemon, mut c: DaemonClient) -> Result<(), String> {
    c.close().map_err(|e| e.to_string())?;
    drop(c);
    if d.drain() {
        Ok(())
    } else {
        Err("daemon did not drain cleanly".into())
    }
}

/// Decompile context variants of `text` on the session until its
/// function cache is full, then return the session to `text`.
fn fill(c: &mut DaemonClient, text: &str, seed: u64) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let rounds = DaemonConfig::default()
        .serve
        .cache_capacity
        .div_ceil(EDIT_FUNCTIONS);
    for i in 0..rounds {
        let v = variant(text, &format!("fill{seed}_{i}"));
        c.update(&v).map_err(io)?;
        match c.decompile().map_err(io)? {
            Response::Result {
                functions: 16,
                cached: 0,
                degraded: 0,
                ..
            } => {}
            other => return Err(format!("fill DECOMPILE: {other:?}")),
        }
    }
    c.update(text).map_err(io)?;
    match c.decompile().map_err(io)? {
        Response::Result {
            functions: 16,
            degraded: 0,
            ..
        } => Ok(()),
        other => Err(format!("DECOMPILE after the fill: {other:?}")),
    }
}

pub fn run(args: &Args, dir: &Path, rep: &mut Report) -> Result<(), String> {
    rep.quiet_share = QUIET_SHARE;
    let mut ed = Editor::new()?;
    let mut rng = Rng::new(args.seed);
    // The run's session, started and filled before timing: neither is
    // timed nor part of set-up.
    let (daemon, mut client, _) = start_session(&dir.join("cache"), &ed.text)?;
    fill(&mut client, &ed.text, args.seed)?;
    rep.workers = daemon.serve_stats().workers;

    // A traced run keeps its traced edits for a replay through core, the
    // codec and a store of its own, from the text the timed part began on.
    let mut replay_ed = ed.clone();
    let mut tracer = Tracer::default();
    let mut ops = Vec::new();
    let mut edits = Vec::new();
    let (mut cached, mut functions, mut degraded, mut wire_s) = (0u64, 0u64, 0u64, 0.0);
    let mut n = 0u64;
    let end = Instant::now() + crate::timed(args);
    while Instant::now() < end {
        let setup_dir = dir.join(format!("setup-{}", rep.windows.len()));
        let (d, c, first) = rep.setup(|| start_session(&setup_dir, &ed.text))?;
        match first {
            Response::Result {
                functions: 16,
                cached: 0,
                degraded: 0,
                ..
            } => {}
            other => return Err(format!("first DECOMPILE: {other:?}")),
        }
        stop_session(d, c)?;
        let _ = std::fs::remove_dir_all(&setup_dir);

        let mut order: Vec<usize> = (0..WINDOW_OPS).map(|i| i % EDIT_FUNCTIONS).collect();
        rng.shuffle(&mut order);
        for f in order {
            if Instant::now() >= end {
                break;
            }
            n += 1;
            ed.edit(f);
            edits.push(f);
            let sample = rng.below(SAMPLE_ONE_IN) == 0;
            if !crate::traced(args, n) {
                match round_trip(&mut client, &ed.text, None) {
                    Ok(r) => {
                        let check = check_round(&r).and_then(|()| {
                            if sample {
                                cross_check(&ed.text, &r.source)
                            } else {
                                Ok(())
                            }
                        });
                        if args.trace {
                            rep.untraced_ms.push(r.elapsed.as_secs_f64() * 1e3);
                        }
                        rep.op(r.elapsed, 1, check);
                    }
                    Err(e) => rep.op(Duration::ZERO, 1, Err(e)),
                }
                continue;
            }
            let cpu = env::cpu_ns();
            let r = tracer.span("op", Kind::Frame, n, |tr| {
                round_trip(&mut client, &ed.text, Some((tr, n)))
            });
            let cpu_ms = env::cpu_ns().saturating_sub(cpu) as f64 / 1e6;
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    rep.op(Duration::ZERO, 1, Err(e));
                    continue;
                }
            };
            rep.op(r.elapsed, 1, check_round(&r));
            let wall_ms = r.elapsed.as_secs_f64() * 1e3;
            cached += u64::from(r.cached);
            functions += u64::from(r.functions);
            degraded += u64::from(r.degraded);
            wire_s += r.decompile_rtt.as_secs_f64() - r.server_micros as f64 / 1e6;
            ops.push((
                TracedOp {
                    id: n,
                    base_ms: wall_ms,
                    cpu_ms,
                    wall_ms,
                },
                fnv64(canonical(&r.source).as_bytes()),
            ));
        }
    }
    stop_session(daemon, client)?;
    if !args.trace {
        return Ok(());
    }

    // The replay follows every edit, untraced ones too, so that its
    // session state matches the daemon's; only traced edits are spanned.
    let mut replay = Replay::new(&replay_ed.text, &dir.join("replay-store"))?;
    let mut scratch = Tracer::default();
    let mut want = ops.iter().map(|(o, h)| (o.id, *h)).peekable();
    for (i, f) in edits.iter().enumerate() {
        let id = i as u64 + 1;
        replay_ed.edit(*f);
        match want.next_if(|&(o, _)| o == id) {
            Some((_, hash)) => {
                let got = tracer.span("replay", Kind::Frame, id, |tr| {
                    replay.op(tr, id, &replay_ed.text)
                })?;
                if fnv64(canonical(&got).as_bytes()) != hash {
                    return Err(format!("replayed op {id} differs from the daemon's RESULT"));
                }
            }
            None => {
                replay.op(&mut scratch, id, &replay_ed.text)?;
                scratch = Tracer::default();
            }
        }
    }
    let ops: Vec<TracedOp> = ops.into_iter().map(|(o, _)| o).collect();
    let n = ops.len().max(1) as f64;
    let extras = vec![
        ("serve.functions_from_cache", cached as f64 / n),
        (
            "serve.functions_decompiled",
            (functions - cached) as f64 / n,
        ),
        (
            "serve.lru_hit_ratio",
            if functions > 0 {
                cached as f64 / functions as f64
            } else {
                0.0
            },
        ),
        ("daemon.wire_ms", wire_s * 1e3 / n),
        (
            "core.degraded_functions",
            (degraded + replay.degraded) as f64,
        ),
    ];
    rep.layers = layers::summarize(&tracer, &ops, &extras, &rep.untraced_ms);
    rep.tracer = Some(tracer);
    Ok(())
}

/// The session's DECOMPILE, restated through the public layer calls: span
/// fingerprints, a mini-module `reprepare`, function cache keys, one
/// decompile plus its record encode and store write, and assembly.
struct Replay {
    opts: SplendidOptions,
    spans: ModuleSpans,
    fps: SpanFingerprints,
    scratch_spans: ModuleSpans,
    scratch_fps: SpanFingerprints,
    prepared: PreparedModule,
    /// Per function name: its cache key and output.
    outputs: HashMap<String, (u64, FunctionOutput)>,
    store: CacheStore,
    degraded: u64,
}

impl Replay {
    fn new(text: &str, store: &Path) -> Result<Replay, String> {
        let opts = SplendidOptions::default();
        let module = parse_module(text).map_err(|e| e.to_string())?;
        let prepared = prepare_module(&module, &opts, &mut StageTimings::default())
            .map_err(|e| e.to_string())?;
        let mut outputs = HashMap::new();
        for fid in prepared.module.func_ids() {
            let out = decompile_function(&prepared, fid, &opts, &mut StageTimings::default())
                .map_err(|e| e.to_string())?;
            let name = prepared
                .module
                .name_of(prepared.module.func(fid).name)
                .to_string();
            outputs.insert(name, (function_cache_key(&prepared, fid, &opts), out));
        }
        let mut r = Replay {
            opts,
            spans: ModuleSpans::default(),
            fps: SpanFingerprints::default(),
            scratch_spans: ModuleSpans::default(),
            scratch_fps: SpanFingerprints::default(),
            prepared,
            outputs,
            store: CacheStore::open(store, StoreConfig::default()).map_err(|e| e.to_string())?,
            degraded: 0,
        };
        span_fingerprints_into(text, &mut r.spans, &mut r.fps);
        Ok(r)
    }

    /// Replay one op on the edited `text`; returns the assembled C.
    fn op(&mut self, tr: &mut Tracer, id: u64, text: &str) -> Result<String, String> {
        let (spans, fps) = (&mut self.scratch_spans, &mut self.scratch_fps);
        tr.call("core.span_fingerprint", id, || {
            span_fingerprints_into(text, spans, fps)
        });
        let mut dirty = BTreeSet::new();
        for (i, f) in self.scratch_fps.funcs.iter().enumerate() {
            let same = self
                .fps
                .position_of(f.name_hash)
                .is_some_and(|j| self.fps.funcs[j].body_hash == f.body_hash);
            if !same {
                dirty.insert(root_of(self.scratch_spans.funcs[i].name_str(text)).to_string());
            }
        }
        std::mem::swap(&mut self.spans, &mut self.scratch_spans);
        std::mem::swap(&mut self.fps, &mut self.scratch_fps);
        let mut mini = String::new();
        for &(a, b) in &self.spans.preamble {
            mini.push_str(&text[a..b]);
        }
        for f in &self.spans.funcs {
            if dirty.contains(root_of(f.name_str(text))) {
                mini.push_str(f.body_str(text));
            }
        }
        let roots: Vec<&str> = dirty.iter().map(String::as_str).collect();
        let mut timings = StageTimings::default();
        let prepared = tr
            .call("core.reprepare", id, || {
                reprepare(&self.prepared, &mini, &roots, &self.opts, &mut timings)
            })
            .map_err(|e| format!("replay reprepare: {e}"))?;
        tr.call("core.fingerprint", id, || {
            std::hint::black_box(prepared.digests());
        });
        let mut outs = Vec::new();
        for fid in prepared.module.func_ids() {
            let name = prepared
                .module
                .name_of(prepared.module.func(fid).name)
                .to_string();
            let key = function_cache_key(&prepared, fid, &self.opts);
            match self.outputs.get(&name) {
                Some((k, out)) if *k == key => outs.push(out.clone()),
                _ => {
                    let out = tr
                        .call("core.function", id, || {
                            decompile_function(&prepared, fid, &self.opts, &mut timings)
                        })
                        .map_err(|e| format!("replay decompile: {e}"))?;
                    self.degraded += u64::from(out.tier > FidelityTier::Natural);
                    let blob = tr.call("serve.codec_encode", id, || encode_function_record(&out));
                    let store = &mut self.store;
                    tr.span("cachestore.put", Kind::Async, id, |_| store.put(key, &blob))
                        .map_err(|e| format!("replay put: {e}"))?;
                    self.outputs.insert(name, (key, out.clone()));
                    outs.push(out);
                }
            }
        }
        let source = tr.call("core.assemble", id, || {
            assemble_output(&prepared, outs, &mut timings).source
        });
        self.prepared = prepared;
        Ok(source)
    }
}
