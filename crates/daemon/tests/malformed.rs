//! Replay the malformed-frame corpus (`tests/malformed/*.hex`) against a
//! live daemon. The contract under test: malformed input yields typed
//! ERROR frames (or silence, for truncations) — it never kills the
//! daemon, and never leaks a session.
//!
//! Corpus format (shared with `splendid connect --malformed`):
//! whitespace-separated hex bytes, `#` comments to end of line.

use splendid_daemon::{Daemon, DaemonClient, DaemonConfig, ErrorCode, Response};
use std::path::Path;
use std::time::Duration;

fn parse_hex(text: &str) -> Vec<u8> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or(""))
        .flat_map(str::split_whitespace)
        .map(|tok| u8::from_str_radix(tok, 16).expect("corpus tokens are hex bytes"))
        .collect()
}

/// Responses the daemon produced for one corpus file, drained until the
/// short read timeout.
fn replay(daemon: &Daemon, bytes: &[u8]) -> Vec<Response> {
    let mut client = DaemonClient::connect_tcp(daemon.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_millis(400)))
        .unwrap();
    client.send_raw(bytes).unwrap();
    let mut responses = Vec::new();
    while let Ok(resp) = client.read_response() {
        responses.push(resp);
        if responses.len() > 64 {
            break; // runaway guard; the corpus earns a handful at most
        }
    }
    responses
}

fn error_codes(responses: &[Response]) -> Vec<ErrorCode> {
    responses
        .iter()
        .filter_map(|r| match r {
            Response::Error { code, .. } => Some(*code),
            _ => None,
        })
        .collect()
}

#[test]
fn corpus_never_kills_the_daemon() {
    let daemon = Daemon::start(DaemonConfig::default()).unwrap();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/malformed");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "hex"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 16, "corpus went missing: {entries:?}");

    for path in &entries {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let bytes = parse_hex(&std::fs::read_to_string(path).unwrap());
        let responses = replay(&daemon, &bytes);
        let codes = error_codes(&responses);

        match name.as_str() {
            "ping" => assert!(
                responses.iter().any(|r| matches!(r, Response::Pong)),
                "{name}: valid PING must be answered"
            ),
            "bad-magic" | "garbage" => assert_eq!(
                codes,
                vec![ErrorCode::Desync],
                "{name}: one desync per garbage run"
            ),
            "bad-version" => assert_eq!(codes, vec![ErrorCode::BadVersion], "{name}"),
            "unknown-kind" => assert_eq!(codes, vec![ErrorCode::UnknownKind], "{name}"),
            "oversized-len" => assert_eq!(codes, vec![ErrorCode::Oversized], "{name}"),
            "bad-payload-open" => assert_eq!(codes, vec![ErrorCode::BadPayload], "{name}"),
            "update-no-session" => assert_eq!(codes, vec![ErrorCode::NoSession], "{name}"),
            "busy-kind-request" => assert_eq!(
                codes,
                vec![ErrorCode::UnknownKind],
                "{name}: BUSY is a response kind, never a request"
            ),
            "decompile-truncated-budget" => {
                assert_eq!(codes, vec![ErrorCode::BadPayload], "{name}")
            }
            "decompile-budget-no-session" => {
                assert_eq!(codes, vec![ErrorCode::NoSession], "{name}")
            }
            // The retired cache kinds get what any unknown kind gets.
            "cache-get-no-cache" | "cache-put-truncated-blob" => assert_eq!(
                codes,
                vec![ErrorCode::UnknownKind],
                "{name}: a retired kind is an unknown kind"
            ),
            "cache-put-oversized" => assert_eq!(codes, vec![ErrorCode::Oversized], "{name}"),
            // Truncations produce no response at all: the assembler is
            // still waiting for the rest of the frame.
            "truncated-header" | "truncated-payload" => {
                assert!(responses.is_empty(), "{name}: got {responses:?}")
            }
            other => panic!("corpus file {other}.hex has no expectation recorded here"),
        }

        // Liveness after every file, on a fresh connection: the daemon
        // survived whatever the corpus threw at it.
        let mut probe = DaemonClient::connect_tcp(daemon.local_addr()).unwrap();
        probe
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        probe.ping().unwrap_or_else(|e| {
            panic!("daemon unresponsive after replaying {name}: {e}");
        });
    }

    assert_eq!(daemon.open_sessions(), 0, "corpus must not leak sessions");
    assert!(daemon.drain());
}
