//! The daemon's two wall-clock gates: UPDATE latency and behaviour at 4×
//! overload. Both time real work, so they are ignored by default and run
//! in release, one at a time so neither times the other's load:
//!
//! `cargo test --release -p splendid-daemon --test gates -- --ignored --test-threads=1`

use splendid_daemon::bench::synthetic_module_tagged;
use splendid_daemon::{Daemon, DaemonClient, DaemonConfig, Response};
use std::ops::Range;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

/// Connect, open a module of `functions` kernels tagged with `id` (its own
/// module context, so no client's edit hits another's cache entry),
/// decompile it once, and build every round's edit up front: the
/// C pipeline behind each edit is client work, not load on the daemon.
fn setup(
    addr: &str,
    id: usize,
    functions: usize,
    rounds: usize,
) -> Result<(DaemonClient, Vec<String>), String> {
    let tag = format!("t{id}_");
    let mut consts: Vec<f64> = (0..functions)
        .map(|f| 3.0 + id as f64 * 0.001 + f as f64 * 0.1)
        .collect();
    let mut client = DaemonClient::connect_tcp(addr).map_err(|e| e.to_string())?;
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    client
        .open(
            &format!("c{id}"),
            3,
            &synthetic_module_tagged(&tag, &consts)?,
        )
        .map_err(|e| e.to_string())?;
    decompile_until_admitted(&mut client, 0)?;
    let texts = (1..=rounds)
        .map(|round| {
            consts[0] += 0.01 * round as f64;
            synthetic_module_tagged(&tag, &consts)
        })
        .collect::<Result<_, _>>()?;
    Ok((client, texts))
}

/// DECOMPILE, retrying after each BUSY as the server's hint says (capped
/// at 20 ms, to keep the pressure on) until a RESULT lands.
fn decompile_until_admitted(client: &mut DaemonClient, budget_ms: u32) -> Result<(), String> {
    for _ in 0..1000 {
        match client
            .decompile_with_budget(budget_ms)
            .map_err(|e| e.to_string())?
        {
            Response::Result { .. } => return Ok(()),
            Response::Busy { retry_after_ms } => {
                thread::sleep(Duration::from_millis(u64::from(retry_after_ms).min(20)))
            }
            other => return Err(format!("expected RESULT or BUSY, got {other:?}")),
        }
    }
    Err("shed 1000 times in a row".into())
}

/// UPDATE to `text`, recording the round trip in `updates`.
fn timed_update(
    client: &mut DaemonClient,
    text: &str,
    updates: &mut Vec<Duration>,
) -> Result<(), String> {
    let t = Instant::now();
    let resp = client.update(text).map_err(|e| e.to_string())?;
    updates.push(t.elapsed());
    match resp {
        Response::Updated { .. } => Ok(()),
        other => Err(format!("expected UPDATED, got {other:?}")),
    }
}

/// One client's rounds: at each round it meets the other clients at the
/// barrier, sends its edit, meets them again, and sends DECOMPILE (with
/// `budget_ms`) until it completes. Returns every UPDATE's round trip. A
/// client that fails keeps meeting the barriers, so the others finish
/// and the error is reported instead of a hang.
fn run_client(
    addr: &str,
    id: usize,
    functions: usize,
    rounds: usize,
    budget_ms: u32,
    barrier: &Barrier,
) -> Result<Vec<Duration>, String> {
    let mut state = setup(addr, id, functions, rounds);
    let mut updates = Vec::with_capacity(rounds);
    for round in 0..rounds {
        barrier.wait();
        let updated = match &mut state {
            Ok((client, texts)) => timed_update(client, &texts[round], &mut updates),
            Err(_) => Ok(()),
        };
        barrier.wait();
        let done = match (&mut state, updated) {
            (_, Err(e)) => Err(e),
            (Ok((client, _)), Ok(())) => decompile_until_admitted(client, budget_ms),
            (Err(_), Ok(())) => continue,
        };
        if let Err(e) = done {
            state = Err(e);
        }
    }
    let (mut client, _) = state?;
    client.close().map_err(|e| e.to_string())?;
    Ok(updates)
}

/// Run one client per id in `ids` in lockstep. Returns every UPDATE's
/// round trip and the wall time from the first connect to the last
/// client's end.
fn lockstep(
    addr: &str,
    ids: Range<usize>,
    functions: usize,
    rounds: usize,
    budget_ms: u32,
) -> (Vec<Duration>, Duration) {
    let started = Instant::now();
    let barrier = Barrier::new(ids.len());
    let updates = thread::scope(|scope| {
        let handles: Vec<_> = ids
            .map(|id| {
                let barrier = &barrier;
                scope.spawn(move || run_client(addr, id, functions, rounds, budget_ms, barrier))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .expect("client thread")
                    .unwrap_or_else(|e| panic!("{e}"))
            })
            .collect()
    });
    (updates, started.elapsed())
}

/// An UPDATE of one constant in a 16-kernel module answers in at most
/// 5 ms at the median, with four editors updating at once.
#[test]
#[ignore = "wall-clock gate: the CI overload job runs it in release"]
fn update_p50_is_at_most_5ms() {
    let mut config = DaemonConfig::default();
    config.serve.workers = 4;
    let daemon = Daemon::start(config).expect("daemon binds");
    let (mut updates, _) = lockstep(&daemon.local_addr().to_string(), 0..4, 16, 16, 0);
    updates.sort();
    let p50 = updates[updates.len().div_ceil(2) - 1];
    eprintln!("UPDATE p50 {p50:?} over {} samples", updates.len());
    assert!(
        p50 <= Duration::from_millis(5),
        "UPDATE p50 {p50:?} over {} samples exceeds 5 ms",
        updates.len()
    );
    assert!(daemon.drain());
}

/// Four times as many clients as workers, against a small admission
/// queue: goodput stays within 20% of the un-overloaded baseline,
/// admission sheds the excess, no admitted request runs out its budget,
/// and the wire protocol stays in sync throughout.
#[test]
#[ignore = "wall-clock gate: the CI overload job runs it in release"]
fn overload_sheds_and_keeps_goodput() {
    const WORKERS: usize = 2;
    let mut config = DaemonConfig {
        max_connections: WORKERS * 4 + 2,
        ..DaemonConfig::default()
    };
    config.serve.workers = WORKERS;
    config.serve.max_pending_jobs = WORKERS * 2;
    config.serve.degrade_pending_jobs = WORKERS;
    let daemon = Daemon::start(config).expect("daemon binds");
    let addr = daemon.local_addr().to_string();
    const ROUNDS: usize = 8;
    let goodput = |ids: Range<usize>, budget_ms: u32| {
        let clients = ids.len();
        let (_, wall) = lockstep(&addr, ids, 8, ROUNDS, budget_ms);
        (clients * ROUNDS) as f64 / wall.as_secs_f64()
    };

    // Fresh ids for the overload clients: their modules must miss the
    // cache the baseline filled.
    let baseline = goodput(0..WORKERS, 0);
    let overload = goodput(1000..1000 + WORKERS * 4, 10_000);
    eprintln!("goodput {baseline:.1}/s baseline, {overload:.1}/s at 4x load");
    assert!(
        overload >= 0.8 * baseline,
        "goodput at 4x load {overload:.1}/s is below 0.8x the baseline {baseline:.1}/s"
    );
    let serve = daemon.serve_stats();
    assert_eq!(serve.jobs_timed_out, 0, "an admitted request timed out");
    assert!(serve.jobs_shed() > 0, "admission shed nothing at 4x load");
    let stats = daemon.stats();
    assert!(stats.requests_shed.load(Relaxed) > 0, "no BUSY was sent");
    assert_eq!(stats.desyncs.load(Relaxed), 0, "overload desynced a stream");
    assert_eq!(stats.oversized_frames.load(Relaxed), 0, "oversized frames");
    assert!(daemon.drain());
}
