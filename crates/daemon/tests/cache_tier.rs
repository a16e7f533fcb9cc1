//! End-to-end tests for the persistent cache tier over the wire: daemon
//! warm restart from its own disk store, peer feeding between two
//! daemons via CACHE_GET, and the CACHE_GET/CACHE_PUT request surface
//! (validation, NoCache on tier-less daemons, byte fidelity).

mod common;

use common::{connect, module_text, test_module};
use splendid_core::{decompile, SplendidOptions};
use splendid_daemon::{Daemon, DaemonClient, DaemonConfig, ErrorCode, Request, Response};
use splendid_serve::codec;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "splendid-daemon-cache-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Start a daemon, retrying briefly: a just-drained predecessor may
/// still hold the store's advisory lock for a few milliseconds while
/// its last handler thread unwinds.
fn start_with_retry(config: DaemonConfig) -> Daemon {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match Daemon::start(config.clone()) {
            Ok(d) => return d,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("daemon failed to start: {e}"),
        }
    }
}

fn decompile_counts(client: &mut DaemonClient) -> (u32, u32) {
    match client.decompile().unwrap() {
        Response::Result {
            functions, cached, ..
        } => (functions, cached),
        other => panic!("expected RESULT, got {other:?}"),
    }
}

#[test]
fn cache_frames_without_cache_dir_are_no_cache_errors() {
    let daemon = Daemon::start(DaemonConfig::default()).unwrap();
    let mut client = connect(&daemon);
    for req in [
        Request::CacheGet { key: 1 },
        Request::CachePut {
            key: 1,
            blob: vec![0u8; 16],
        },
    ] {
        match client.roundtrip(&req).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::NoCache),
            other => panic!("expected NoCache error, got {other:?}"),
        }
    }
    client.ping().unwrap();
    assert!(daemon.drain());
}

#[test]
fn cache_put_validates_and_serves_bytes_back() {
    let dir = temp_dir("wire");
    let daemon = Daemon::start(DaemonConfig {
        cache_dir: Some(dir),
        ..Default::default()
    })
    .unwrap();
    let mut client = connect(&daemon);

    // Garbage is rejected politely; nothing is stored under the key.
    assert!(!client.cache_put(7, b"not a record").unwrap());
    assert_eq!(client.cache_get(7).unwrap(), None);

    // A real encoded module record is accepted and comes back
    // byte-for-byte (the write-behind makes the readback eventual).
    let module = test_module(&[0.25, 0.5]);
    let output = decompile(&module, &SplendidOptions::default()).unwrap();
    let blob = codec::encode_module_record(&output, &codec::ModuleCounts::default());
    assert!(client.cache_put(99, &blob).unwrap());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.cache_get(99).unwrap() {
            Some(back) => {
                assert_eq!(back, blob, "stored record must round-trip unchanged");
                break;
            }
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            None => panic!("stored record never became visible"),
        }
    }
    assert!(daemon.drain());
}

#[test]
fn daemon_warm_restarts_and_feeds_a_peer() {
    let dir_a = temp_dir("peer-a");
    let dir_b = temp_dir("peer-b");
    let text = module_text(&[0.125, 0.375, 0.875]);

    // Cold daemon: decompiles for real, persists, drains (drain flushes
    // the store so the next open is a clean warm start).
    {
        let daemon = Daemon::start(DaemonConfig {
            cache_dir: Some(dir_a.clone()),
            ..Default::default()
        })
        .unwrap();
        let mut client = connect(&daemon);
        client.open("peer-test", 3, &text).unwrap();
        let (functions, cached) = decompile_counts(&mut client);
        assert_eq!(functions, 3);
        assert_eq!(cached, 0, "cold daemon must decompile from scratch");
        assert!(daemon.drain());
    }

    // Warm restart over the same store: every function answers from the
    // disk tier (sessions are new, so the in-memory LRU starts empty).
    let warm = start_with_retry(DaemonConfig {
        cache_dir: Some(dir_a.clone()),
        ..Default::default()
    });
    {
        let mut client = connect(&warm);
        client.open("peer-test", 3, &text).unwrap();
        let (functions, cached) = decompile_counts(&mut client);
        assert_eq!(
            cached, functions,
            "warm restart must serve every function from disk"
        );
        let stats = client.stats(true).unwrap();
        assert!(
            stats.contains("tier:disk"),
            "daemon-wide stats must attribute the disk tier:\n{stats}"
        );
    }

    // Peer feeding: a fresh daemon with an empty store of its own, but
    // pointed at the warm daemon, fills over the wire instead of
    // decompiling.
    let fed = Daemon::start(DaemonConfig {
        cache_dir: Some(dir_b),
        peer: Some(warm.local_addr().to_string()),
        ..Default::default()
    })
    .unwrap();
    {
        let mut client = connect(&fed);
        client.open("peer-test", 3, &text).unwrap();
        let (functions, cached) = decompile_counts(&mut client);
        assert_eq!(
            cached, functions,
            "peer-fed daemon must answer every function from its peer"
        );
        let stats = client.stats(true).unwrap();
        assert!(stats.contains("tier:disk"), "{stats}");
        assert!(stats.contains("tier:peer"), "{stats}");
    }

    assert!(fed.drain());
    assert!(warm.drain());
    let _ = std::fs::remove_dir_all(&dir_a);
}
