//! End-to-end daemon tests over real sockets: incremental sessions,
//! one-edit-one-decompile accounting, stats frames, drain semantics, disconnect hygiene, the connection
//! cap, idle eviction, and the Unix-socket listener.

mod common;

use common::{connect, module_text};
use splendid_daemon::bench::{synthetic_module, synthetic_module_tagged};
use splendid_daemon::protocol::{frame_bytes, kind};
use splendid_daemon::{Daemon, DaemonClient, DaemonConfig, ErrorCode, Request, Response};
use splendid_serve::ServeConfig;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn start(config: DaemonConfig) -> Daemon {
    Daemon::start(config).expect("daemon binds on a loopback port")
}

/// Fire a DECOMPILE frame without waiting for its response.
fn send_decompile(client: &mut DaemonClient) -> std::io::Result<()> {
    client.send_raw(&frame_bytes(kind::DECOMPILE, &[]))
}

#[test]
fn incremental_session_over_tcp() {
    let daemon = start(DaemonConfig::default());
    let mut client = connect(&daemon);
    client.ping().unwrap();

    let base = module_text(&[0.25, 0.5, 0.75]);
    let (session, functions) = client.open("itest", 3, &base).unwrap();
    assert!(session > 0);
    assert_eq!(functions, 3);

    let first = client.decompile().unwrap();
    let Response::Result {
        functions,
        dirty,
        fast_path,
        source: first_source,
        ..
    } = first
    else {
        panic!("expected RESULT");
    };
    assert_eq!((functions, dirty, fast_path), (3, 3, false));

    // Edit exactly one kernel: one dirty, the rest served from cache.
    let edited = module_text(&[0.25, 0.625, 0.75]);
    let Response::Updated { dirty, total, .. } = client.update(&edited).unwrap() else {
        panic!("expected UPDATED");
    };
    assert_eq!((dirty, total), (1, 3));
    let Response::Result {
        cached,
        dirty,
        fast_path,
        source: second_source,
        ..
    } = client.decompile().unwrap()
    else {
        panic!("expected RESULT");
    };
    assert_eq!((cached, dirty, fast_path), (2, 1, false));
    assert_ne!(first_source, second_source);

    // Nothing dirty: the session answers without the scheduler.
    let Response::Result {
        fast_path, source, ..
    } = client.decompile().unwrap()
    else {
        panic!("expected RESULT");
    };
    assert!(fast_path);
    assert_eq!(source, second_source);

    // Stats surfaces: session-scoped and daemon-wide.
    let session_stats = client.stats(false).unwrap();
    assert!(session_stats.contains("session"), "{session_stats}");
    assert!(session_stats.contains("decompile"), "{session_stats}");
    let daemon_stats = client.stats(true).unwrap();
    assert!(daemon_stats.contains("daemon stats"), "{daemon_stats}");
    assert!(daemon_stats.contains("sessions"), "{daemon_stats}");

    client.close().unwrap();
    assert_eq!(daemon.open_sessions(), 0);
    client.ping().unwrap(); // connection outlives the session
    assert!(daemon.drain());
}

/// Editing one constant of a 16-kernel module costs one function's
/// decompile: UPDATE marks 1 of 16 dirty without submitting a job, and
/// DECOMPILE answers the other 15 from the cache.
#[test]
fn one_constant_edit_redecompiles_exactly_one_function() {
    const FUNCTIONS: usize = 16;
    let daemon = start(DaemonConfig::default());
    let mut client = connect(&daemon);
    let mut consts: Vec<f64> = (0..FUNCTIONS).map(|f| 1.0 + f as f64 * 0.1).collect();
    let (_, total) = client
        .open("edit", 3, &synthetic_module(&consts).unwrap())
        .unwrap();
    assert_eq!(total as usize, FUNCTIONS);
    let Response::Result { dirty, .. } = client.decompile().unwrap() else {
        panic!("expected RESULT");
    };
    assert_eq!(dirty as usize, FUNCTIONS, "first decompile is cold");

    for round in 0..8 {
        consts[round * 5 % FUNCTIONS] += 0.5;
        let text = synthetic_module(&consts).unwrap();
        let before = daemon.serve_stats();
        let Response::Updated { dirty, total, .. } = client.update(&text).unwrap() else {
            panic!("round {round}: expected UPDATED");
        };
        assert_eq!((dirty, total as usize), (1, FUNCTIONS), "round {round}");
        let updated = daemon.serve_stats();
        assert_eq!(
            updated.jobs_submitted, before.jobs_submitted,
            "round {round}: UPDATE must not submit a scheduler job"
        );
        let Response::Result {
            functions, cached, ..
        } = client.decompile().unwrap()
        else {
            panic!("round {round}: expected RESULT");
        };
        assert_eq!(
            (functions as usize, cached as usize),
            (FUNCTIONS, FUNCTIONS - 1),
            "round {round}"
        );
        assert_eq!(
            daemon.serve_stats().functions_decompiled,
            before.functions_decompiled + 1,
            "round {round}: exactly the edited function re-decompiles"
        );
    }
    client.close().unwrap();
    assert!(daemon.drain());
}

#[test]
fn drain_completes_inflight_decompile() {
    // One worker so a queued decompile is reliably still in flight when
    // the drain starts.
    let daemon = start(DaemonConfig {
        serve: ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        ..DaemonConfig::default()
    });
    let addr = daemon.local_addr();

    let module = module_text(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    let mut front = DaemonClient::connect_tcp(addr).unwrap();
    front
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    front.open("front", 3, &module).unwrap();
    let mut back = DaemonClient::connect_tcp(addr).unwrap();
    back.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    back.open("back", 3, &module_text(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]))
        .unwrap();

    // Fire both DECOMPILEs without waiting; `back` queues behind `front`
    // on the single worker, so it is mid-request when the drain begins.
    send_decompile(&mut front).unwrap();
    send_decompile(&mut back).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let drainer = std::thread::spawn(move || daemon.drain());

    // Both in-flight requests complete with real results.
    for client in [&mut front, &mut back] {
        match client.read_response().unwrap() {
            Response::Result { functions, .. } => assert_eq!(functions, 6),
            other => panic!("in-flight decompile should finish during drain, got {other:?}"),
        }
    }
    assert!(drainer.join().unwrap(), "drain wound down cleanly");
}

#[test]
fn mid_request_disconnect_leaves_daemon_healthy() {
    let daemon = start(DaemonConfig::default());
    let module = module_text(&[0.1, 0.2, 0.3]);

    {
        let mut client = connect(&daemon);
        client.open("gone", 3, &module).unwrap();
        // Fire a DECOMPILE and hang up before the response arrives.
        send_decompile(&mut client).unwrap();
    } // drop = close

    // The handler notices the dead client when its send fails and
    // unregisters the session.
    let mut waited = 0;
    while daemon.open_sessions() > 0 && waited < 100 {
        std::thread::sleep(Duration::from_millis(50));
        waited += 1;
    }
    assert_eq!(daemon.open_sessions(), 0, "no leaked sessions");

    // And the daemon still serves new work.
    let mut client = connect(&daemon);
    client.ping().unwrap();
    let (_, functions) = client.open("after", 3, &module).unwrap();
    assert_eq!(functions, 3);
    client.close().unwrap();
    assert!(daemon.drain());
}

#[test]
fn connection_cap_applies_backpressure() {
    let daemon = start(DaemonConfig {
        max_connections: 1,
        ..DaemonConfig::default()
    });
    let addr = daemon.local_addr();

    let mut first = DaemonClient::connect_tcp(addr).unwrap();
    first
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    first.ping().unwrap();

    // Second connection sits in the OS accept backlog: the TCP connect
    // succeeds but no handler answers while the cap is occupied.
    let mut second = DaemonClient::connect_tcp(addr).unwrap();
    second
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    assert!(
        second.ping().is_err(),
        "capped connection must not be served"
    );

    // Freeing the slot lets the queued connection through; the PING it
    // already sent is answered once accepted.
    drop(first);
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match second.read_response().unwrap() {
        Response::Pong => {}
        other => panic!("expected the queued PING's PONG, got {other:?}"),
    }
    drop(second);
    assert!(daemon.drain());
}

#[test]
fn idle_sessions_are_evicted() {
    let daemon = start(DaemonConfig {
        idle_timeout: Some(Duration::from_millis(200)),
        ..DaemonConfig::default()
    });
    let mut client = connect(&daemon);
    client.open("idle", 3, &module_text(&[0.5])).unwrap();
    assert_eq!(daemon.open_sessions(), 1);

    // Sit past the idle timeout: the daemon sends a typed error and
    // evicts the session.
    std::thread::sleep(Duration::from_millis(600));
    match client.read_response() {
        Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::IdleTimeout),
        Ok(other) => panic!("expected idle-timeout ERROR, got {other:?}"),
        Err(e) => panic!("expected idle-timeout ERROR before close: {e}"),
    }
    let mut waited = 0;
    while daemon.open_sessions() > 0 && waited < 100 {
        std::thread::sleep(Duration::from_millis(20));
        waited += 1;
    }
    assert_eq!(daemon.open_sessions(), 0);
    assert_eq!(
        daemon
            .stats()
            .sessions_evicted
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert!(daemon.drain());
}

#[cfg(unix)]
#[test]
fn unix_socket_roundtrip() {
    let path =
        std::env::temp_dir().join(format!("splendid-daemon-test-{}.sock", std::process::id()));
    let daemon = start(DaemonConfig {
        unix_path: Some(path.clone()),
        ..DaemonConfig::default()
    });
    let mut client = DaemonClient::connect_unix(&path).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client.ping().unwrap();
    let (_, functions) = client.open("unix", 3, &module_text(&[0.5, 0.75])).unwrap();
    assert_eq!(functions, 2);
    match client.decompile().unwrap() {
        Response::Result { functions, .. } => assert_eq!(functions, 2),
        other => panic!("expected RESULT, got {other:?}"),
    }
    client.close().unwrap();
    drop(client);
    assert!(daemon.drain());
    assert!(!path.exists(), "drain removes the socket file");
}

/// How long the blocker's VALIDATE is sized to keep a one-worker daemon
/// busy: past the idle window and the shed checks below, with room to
/// spare.
const BLOCKER_TARGET: Duration = Duration::from_millis(600);

/// A daemon config with one worker: the blocker's kernels run one after
/// another.
fn one_worker() -> DaemonConfig {
    DaemonConfig {
        serve: ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        ..DaemonConfig::default()
    }
}

/// The text of a synthetic module whose VALIDATE on a one-worker daemon
/// takes at least about [`BLOCKER_TARGET`] on this build and machine.
/// Validation runs each kernel's loop nests in the interpreter, so a few
/// kernels are enough and the module is cheap to build. A timed
/// calibration VALIDATE of a one-kernel module, on a daemon of its own,
/// measures what one kernel costs. Built once per test process; every
/// test's daemon is fresh, so no verdict of the blocker is cached there.
fn blocker_module() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let daemon = start(one_worker());
        let mut probe = connect(&daemon);
        let probe_text = synthetic_module_tagged("probe_", &[0.5]).unwrap();
        let t = Instant::now();
        match probe.validate("calibrate", 3, &probe_text).unwrap() {
            Response::Validated { functions: 1, .. } => {}
            other => panic!("expected VALIDATED for one kernel, got {other:?}"),
        }
        let per_kernel = t.elapsed();
        drop(probe);
        assert!(daemon.drain());
        let kernels = BLOCKER_TARGET.as_nanos() / per_kernel.as_nanos().max(1) + 1;
        let consts: Vec<f64> = (0..kernels.min(64))
            .map(|k| 2.0 + k as f64 * 0.25)
            .collect();
        synthetic_module_tagged("blocker_", &consts).unwrap()
    })
}

/// The blocker's VALIDATE request.
fn blocker_request() -> Request {
    Request::Validate {
        name: "blocker".into(),
        variant: 3,
        module_text: blocker_module().into(),
    }
}

/// DaemonConfig with one worker and a one-slot admission queue: with the
/// blocker's VALIDATE in flight, the daemon is saturated.
fn saturated_config() -> DaemonConfig {
    let mut config = one_worker();
    config.serve.max_pending_jobs = 1;
    config
}

/// Send the blocker's VALIDATE on a connection of its own, admitted and
/// in flight when this returns; the caller reads its answer with
/// [`finish_blocker`].
fn start_blocker(daemon: &Daemon) -> DaemonClient {
    let request = blocker_request();
    let mut blocker = connect(daemon);
    blocker
        .send_raw(&frame_bytes(request.kind(), &request.encode_payload()))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // admitted, in flight
    blocker
}

/// Read the blocker's VALIDATED answer, and check the premise the test
/// stood on: the daemon spent longer on it than [`start_blocker`] waited.
fn finish_blocker(blocker: &mut DaemonClient) {
    let wall = match blocker.read_response().unwrap() {
        Response::Validated { wall_micros, .. } => Duration::from_micros(wall_micros),
        other => panic!("the blocker's admitted job must complete, got {other:?}"),
    };
    assert!(
        wall >= BLOCKER_TARGET / 4,
        "premise: the blocker must hold the worker for at least {:?} (took {wall:?})",
        BLOCKER_TARGET / 4
    );
}

#[test]
fn slow_request_does_not_count_as_idle() {
    // Regression test: a request whose *service time* exceeds the idle
    // timeout must not get its session evicted the moment the response
    // goes out. The blocker's VALIDATE is sized past the idle window on
    // whatever build and machine runs the test.
    let request = blocker_request();
    let daemon = start(DaemonConfig {
        idle_timeout: Some(Duration::from_millis(250)),
        ..one_worker()
    });
    let mut client = connect(&daemon);
    client.open("slow", 3, &module_text(&[0.1, 0.2])).unwrap();
    assert!(matches!(
        client.decompile().unwrap(),
        Response::Result { .. }
    ));

    let t = Instant::now();
    match client.roundtrip(&request).unwrap() {
        Response::Validated { .. } => {}
        other => panic!("expected VALIDATED, got {other:?}"),
    }
    assert!(
        t.elapsed() >= Duration::from_millis(250),
        "premise: the blocker must stretch this request past the idle \
         window (took {:?})",
        t.elapsed()
    );

    // Sit out one idle-check tick (100ms) but stay inside the idle
    // window as measured from the *end* of the slow request. Before the
    // fix, `last_activity` still pointed at the request's arrival, so
    // the first tick after the response evicted the session.
    std::thread::sleep(Duration::from_millis(150));
    client.ping().unwrap();
    match client.decompile().unwrap() {
        Response::Result { fast_path, .. } => assert!(fast_path, "session state survived"),
        other => panic!("expected RESULT, got {other:?}"),
    }
    assert_eq!(
        daemon
            .stats()
            .sessions_evicted
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "service time must not be billed as idleness"
    );
    client.close().unwrap();
    assert!(daemon.drain());
}

#[test]
fn saturated_daemon_sheds_busy_and_recovers() {
    let daemon = start(saturated_config());

    // Blocker occupies the single worker with a long VALIDATE and holds
    // the one admission slot.
    let mut blocker = start_blocker(&daemon);

    // A second session's DECOMPILE finds the queue full: typed BUSY
    // with a retry hint, not an error, and the connection survives.
    let mut shed = connect(&daemon);
    shed.open("shed", 3, &module_text(&[4.0])).unwrap();
    let retry_after_ms = match shed.decompile_with_budget(0).unwrap() {
        Response::Busy { retry_after_ms } => retry_after_ms,
        other => panic!("premise: expected BUSY from a saturated daemon, got {other:?}"),
    };
    assert!(retry_after_ms > 0, "BUSY must carry a retry hint");

    // Honouring the hint eventually lands the request once the blocker
    // completes — BUSY is backpressure, not rejection.
    let mut attempts = 0;
    loop {
        match shed.decompile_with_budget(0).unwrap() {
            Response::Result { functions, .. } => {
                assert_eq!(functions, 1);
                break;
            }
            Response::Busy { retry_after_ms } => {
                attempts += 1;
                assert!(attempts < 200, "still BUSY after 200 retries");
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms).min(50)));
            }
            other => panic!("expected RESULT or BUSY, got {other:?}"),
        }
    }
    finish_blocker(&mut blocker);

    // Both ledgers saw the shed: the scheduler's queue-full counter and
    // the daemon's BUSY-responses counter.
    assert!(daemon.serve_stats().jobs_shed_queue >= 1);
    assert!(
        daemon
            .stats()
            .requests_shed
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    let stats_text = shed.stats(true).unwrap();
    assert!(stats_text.contains("shed busy"), "{stats_text}");
    assert!(daemon.drain());
}

#[test]
fn drain_under_saturation_completes_admitted_work() {
    let daemon = start(saturated_config());
    let mut blocker = start_blocker(&daemon);

    // Saturation is real before the drain starts: a second session is
    // shed with BUSY.
    let mut late = connect(&daemon);
    late.open("late", 3, &module_text(&[8.0])).unwrap();
    match late.decompile_with_budget(0).unwrap() {
        Response::Busy { .. } => {}
        other => panic!("premise: expected BUSY before drain, got {other:?}"),
    }
    assert!(
        daemon
            .stats()
            .requests_shed
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    let drainer = std::thread::spawn(move || daemon.drain());

    // The admitted in-flight job completes with a real result even
    // though the drain began mid-request.
    finish_blocker(&mut blocker);

    // Work arriving after the drain began is refused — either with the
    // typed DRAINING error or, if the handler already observed the drain
    // on an idle tick, by winding the connection down.
    match late.roundtrip(&Request::Decompile { budget_ms: 0 }) {
        Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Draining),
        Ok(other) => panic!("draining daemon must refuse new work, got {other:?}"),
        Err(_) => {} // connection already closed by the drain: also a refusal
    }

    assert!(drainer.join().unwrap(), "drain wound down cleanly");
}

#[test]
fn validate_request_is_stateless_and_annotates() {
    let daemon = start(DaemonConfig::default());
    let mut client = connect(&daemon);

    // No OPEN needed: VALIDATE carries the module with it.
    let text = module_text(&[0.5]);
    let resp = client.validate("vtest", 3, &text).unwrap();
    let Response::Validated {
        functions,
        verified,
        unverified,
        source,
        ..
    } = resp
    else {
        panic!("expected VALIDATED");
    };
    assert_eq!(functions, 1);
    assert_eq!(
        verified + unverified,
        functions,
        "every function gets a verdict"
    );
    assert_eq!(verified, 1, "the stencil kernel verifies");
    assert!(source.contains("splendid: verified"), "{source}");

    // Garbage module text is a typed error, not a dropped connection.
    match client
        .roundtrip(&Request::Validate {
            name: "g".into(),
            variant: 3,
            module_text: "not ir at all".into(),
        })
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::ModuleParse),
        other => panic!("expected ERROR, got {other:?}"),
    }
    // A bad variant byte is BadPayload, and the connection stays usable.
    match client
        .roundtrip(&Request::Validate {
            name: "g".into(),
            variant: 9,
            module_text: text.clone(),
        })
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadPayload),
        other => panic!("expected ERROR, got {other:?}"),
    }
    client.ping().unwrap();
    drop(client);
    assert!(daemon.drain());
}

/// A function whose only act is to call itself.
const DOWN: &str = r#"module "down"

func @down($0:x i64) -> i64 {
bb0 entry:
  %0 = call i64 @down($0)
  ret %0
}
"#;

#[test]
fn validating_unbounded_ir_recursion_leaves_the_daemon_up() {
    let daemon = start(DaemonConfig::default());
    let mut client = connect(&daemon);
    let Response::Validated {
        functions,
        verified,
        unverified,
        source,
        ..
    } = client.validate("down", 3, DOWN).unwrap()
    else {
        panic!("expected VALIDATED");
    };
    assert_eq!((functions, verified, unverified), (1, 0, 1));
    assert!(
        source.contains("execution error: stack overflow"),
        "{source}"
    );
    client.ping().unwrap();
    drop(client);
    assert!(daemon.drain());
}
