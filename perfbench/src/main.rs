//! SPLENDID end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-decompile --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Four closed-loop workloads, one client thread and one op in flight,
//! against the in-process public APIs (`splendid_serve::Scheduler`,
//! `DiskTier`, `splendid_daemon::Daemon` + `DaemonClient`). Every op's
//! output is checked. A run is a sequence of windows, each a set-up and
//! then a block of ops. With `--trace 0` the last stdout line carries the
//! end-to-end metrics, taken over the run's quietest windows; with
//! `--trace 1` it carries the per-layer metrics of a traced replay (see
//! `layers.rs`) and the spans are written to
//! `.bench_out/trace-<workload>-<seed>.json`. See README.md.

mod batch;
mod edit;
mod env;
mod inputs;
mod layers;
mod stats;
mod trace;
mod validate;
mod warm;

use stats::Window;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// How long a run measures: the whole `--seconds` untraced. A traced run
/// measures for half of them, alternating traced and untraced ops, and
/// then replays its traced ops layer by layer.
pub fn timed(args: &Args) -> Duration {
    let total = Duration::from_secs_f64(args.seconds);
    if args.trace {
        total / 2
    } else {
        total
    }
}

/// Whether op number `n` of a run is traced: every other op of a traced
/// run, so traced and untraced ops share the machine's drift.
pub fn traced(args: &Args, n: u64) -> bool {
    args.trace && n.is_multiple_of(2)
}

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for stderr.
    pub failures: Vec<String>,
    /// The run's windows, in order; each opens with a set-up.
    pub windows: Vec<Window>,
    /// Share of windows, the quietest, the end-to-end metrics come from.
    pub quiet_share: f64,
    pub workers: usize,
    /// Latencies in ms of the untraced ops a traced run alternates with
    /// its traced ones.
    pub untraced_ms: Vec<f64>,
    /// Per-layer metrics `(name, value, unit)` of a traced run.
    pub layers: Vec<(String, f64, &'static str)>,
    /// The spans of a traced run.
    pub tracer: Option<trace::Tracer>,
}

impl Report {
    /// Record one op of the current window: its latency, the units it
    /// served, and its check. A failed op's latency is `INFINITY`, so it
    /// misses every latency limit.
    pub fn op(&mut self, elapsed: Duration, units: u64, check: Result<(), String>) {
        self.attempted += 1;
        let w = self.windows.last_mut().expect("an op before any set-up");
        w.busy_s += elapsed.as_secs_f64();
        match check {
            Ok(()) => {
                w.units += units;
                w.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
            }
            Err(e) => {
                self.failed += 1;
                w.latencies_ms.push(f64::INFINITY);
                if self.failures.len() < 5 {
                    self.failures.push(e);
                }
            }
        }
    }

    /// Run `f` as one set-up, timed, and open a new window with it.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.windows.push(Window {
            setup_s: t.elapsed().as_secs_f64(),
            ..Window::default()
        });
        out
    }
}

/// Scratch directory for this run (stores, traces), inside the checkout.
pub fn out_dir(args: &Args) -> PathBuf {
    PathBuf::from(".bench_out").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ))
}

/// A finite number for the JSON output (a failed op's latency is
/// infinite; such a run is reported as incorrect anyway).
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        1e12
    }
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
        finite(value)
    )
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let stamp = env::Stamp::start();
    let dir = out_dir(&args);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut rep = Report {
        quiet_share: 1.0,
        ..Report::default()
    };
    let result = match args.workload.as_str() {
        "batch-decompile" => batch::run(&args, &mut rep),
        "edit-loop" => edit::run(&args, &dir, &mut rep),
        "validate-cold" => validate::run(&args, &mut rep),
        "warm-restart" => warm::run(&args, &dir, &mut rep),
        other => Err(format!(
            "unknown workload {other:?} (batch-decompile, edit-loop, validate-cold, warm-restart)"
        )),
    };
    let peak_rss = env::peak_rss_mb();
    if let Some(tracer) = &rep.tracer {
        let path =
            PathBuf::from(".bench_out").join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, tracer.chrome_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    result?;
    if rep.attempted == 0 {
        return Err("no op completed within the run".into());
    }
    for f in &rep.failures {
        eprintln!("perfbench: failed op: {f}");
    }

    let quiet = stats::quiet(&rep.windows, rep.quiet_share);
    let latencies: Vec<f64> = quiet
        .iter()
        .flat_map(|w| w.latencies_ms.iter().copied())
        .collect();
    let (units, busy_s) = quiet
        .iter()
        .fold((0, 0.0), |(u, b), w| (u + w.units, b + w.busy_s));
    let setups: Vec<f64> = quiet.iter().map(|w| w.setup_s).collect();
    let (tail_p, tail_ms) = stats::tail(&latencies);
    let p50 = stats::median(&latencies);
    println!("env: {}", stamp.finish(rep.workers, args.seed));
    println!(
        "ops: {} attempted, {} failed; {} of {} windows kept; p50 {:.4} ms; tail = p{} over {} samples = {:.4} ms; setup_s samples {:.4?}",
        rep.attempted,
        rep.failed,
        quiet.len(),
        rep.windows.len(),
        p50,
        tail_p,
        latencies.len(),
        tail_ms,
        &setups[..setups.len().min(12)]
    );
    let mut all: Vec<f64> = rep
        .windows
        .iter()
        .flat_map(|w| w.latencies_ms.iter().copied())
        .collect();
    all.sort_by(f64::total_cmp);
    let pct = |p: f64| all[stats::rank_index(p, all.len())];
    println!(
        "latency ms over all {} ops: p50 {:.4}, p90 {:.4}, p95 {:.4}, p99 {:.4}, max {:.4}",
        all.len(),
        pct(50.0),
        pct(90.0),
        pct(95.0),
        pct(99.0),
        pct(100.0)
    );
    let metrics: Vec<String> = if args.trace {
        rep.layers
            .iter()
            .map(|(name, value, unit)| metric(name, *value, unit))
            .collect()
    } else {
        vec![
            metric("requests_per_s", units as f64 / busy_s, "1/s"),
            metric("p50_ms", p50, "ms"),
            metric("tail_ms", tail_ms, "ms"),
            metric("setup_s", stats::median(&setups), "s"),
            metric("peak_rss_mb", peak_rss, "MB"),
        ]
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.failed == 0,
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
