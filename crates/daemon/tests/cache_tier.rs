//! End-to-end test for the persistent cache tier over the wire: a daemon
//! warm-restarts from its own disk store.

mod common;

use common::{connect, module_text};
use splendid_daemon::{Daemon, DaemonClient, DaemonConfig, Response};
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
fn daemon_warm_restarts_from_its_disk_store() {
    let dir = temp_dir("warm");
    let text = module_text(&[0.125, 0.375, 0.875]);

    // Cold daemon: decompiles for real, persists, drains (drain flushes
    // the store so the next open is a clean warm start).
    {
        let daemon = Daemon::start(DaemonConfig {
            cache_dir: Some(dir.clone()),
            ..Default::default()
        })
        .unwrap();
        let mut client = connect(&daemon);
        client.open("warm-test", 3, &text).unwrap();
        let (functions, cached) = decompile_counts(&mut client);
        assert_eq!(functions, 3);
        assert_eq!(cached, 0, "cold daemon must decompile from scratch");
        assert!(daemon.drain());
    }

    // Warm restart over the same store: every function answers from the
    // disk tier (sessions are new, so the in-memory LRU starts empty).
    let warm = start_with_retry(DaemonConfig {
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });
    {
        let mut client = connect(&warm);
        client.open("warm-test", 3, &text).unwrap();
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

    assert!(warm.drain());
    let _ = std::fs::remove_dir_all(&dir);
}
