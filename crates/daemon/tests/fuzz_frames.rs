//! Seeded frame fuzzing from the workspace's one seeded generator
//! ([`splendid_ir::rng::Rng`], one stream per seed): the
//! assembler must recover every well-formed frame embedded in garbage,
//! and a live daemon must answer a valid PING after arbitrary noise.

use splendid_daemon::protocol::{frame_bytes, kind, FrameAssembler, FrameEvent, MAGIC, VERSION};
use splendid_daemon::{Daemon, DaemonClient, DaemonConfig, Response};
use splendid_ir::rng::Rng;
use std::time::Duration;

/// Garbage that can never alias a frame boundary: scrub the magic's
/// first byte so an embedded `b"SPLD"` cannot appear by chance (which
/// would make the assembler legitimately swallow a following frame as
/// that ghost frame's payload).
fn garbage(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            let b = (rng.next_u64() & 0xFF) as u8;
            if b == MAGIC[0] {
                0x00
            } else {
                b
            }
        })
        .collect()
}

#[test]
fn assembler_recovers_every_valid_frame_from_noise() {
    for seed in 0..64u64 {
        let mut rng = Rng::for_case(seed, 0);
        let mut stream = Vec::new();
        let mut pings = 0u32;
        for _ in 0..32 {
            match rng.below(4) {
                0 => {
                    stream.extend_from_slice(&frame_bytes(kind::PING, &[]));
                    pings += 1;
                }
                1 => {
                    let len = 1 + rng.below(63) as usize;
                    stream.extend_from_slice(&garbage(&mut rng, len));
                }
                2 => {
                    // Well-framed but wrong protocol version: still a
                    // clean Frame event, never a desync.
                    let mut f = frame_bytes(kind::PING, &[]);
                    f[4] = 9;
                    stream.extend_from_slice(&f);
                }
                _ => {
                    // Well-framed unknown kind with a small payload.
                    stream.extend_from_slice(&frame_bytes(0x7F, &[1, 2, 3]));
                }
            }
        }

        // Feed in rng-sized chunks; drain events after every push.
        let mut assembler = FrameAssembler::new();
        let mut recovered = 0u32;
        let mut offset = 0;
        while offset < stream.len() {
            let step = (1 + rng.below(97) as usize).min(stream.len() - offset);
            assembler.push(&stream[offset..offset + step]);
            offset += step;
            while let Some(event) = assembler.next_event() {
                if let FrameEvent::Frame {
                    version,
                    kind: frame_kind,
                    ..
                } = event
                {
                    if version == VERSION && frame_kind == kind::PING {
                        recovered += 1;
                    }
                }
            }
        }
        assert_eq!(
            recovered, pings,
            "seed {seed}: every injected PING must survive the noise"
        );
    }
}

/// Seeded fuzz over the DECOMPILE-budget and BUSY surfaces: random
/// budgets on sessionless DECOMPILEs (decode fine, then NoSession),
/// truncated budget payloads (BadPayload), and BUSY frames sent *to*
/// the daemon (UnknownKind — BUSY is strictly a response). Every frame
/// earns exactly one typed answer and the connection survives all of it.
#[test]
fn budget_and_busy_frames_earn_typed_answers_under_fuzz() {
    let daemon = Daemon::start(DaemonConfig::default()).unwrap();
    for seed in 400..416u64 {
        let mut rng = Rng::for_case(seed, 0);
        let mut client = DaemonClient::connect_tcp(daemon.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for round in 0..16 {
            let ctx = format!("seed {seed} round {round}");
            let want = match rng.below(3) {
                0 => {
                    // Sessionless DECOMPILE with an arbitrary budget —
                    // including 0, which travels as the back-compat
                    // empty payload, and u32::MAX.
                    let budget = (rng.next_u64() & 0xFFFF_FFFF) as u32;
                    let payload = if budget == 0 {
                        Vec::new()
                    } else {
                        budget.to_le_bytes().to_vec()
                    };
                    client
                        .send_raw(&frame_bytes(kind::DECOMPILE, &payload))
                        .unwrap();
                    splendid_daemon::ErrorCode::NoSession
                }
                1 => {
                    // A budget that is neither absent nor a whole u32.
                    let cut = 1 + rng.below(3) as usize;
                    client
                        .send_raw(&frame_bytes(kind::DECOMPILE, &vec![0xEE; cut]))
                        .unwrap();
                    splendid_daemon::ErrorCode::BadPayload
                }
                _ => {
                    // A response kind aimed at the daemon.
                    let hint = ((rng.next_u64() & 0xFFFF_FFFF) as u32).to_le_bytes();
                    client.send_raw(&frame_bytes(kind::BUSY, &hint)).unwrap();
                    splendid_daemon::ErrorCode::UnknownKind
                }
            };
            match client.read_response().unwrap() {
                Response::Error { code, .. } => assert_eq!(code, want, "{ctx}"),
                other => panic!("{ctx}: expected ERROR [{want}], got {other:?}"),
            }
        }
        // The connection survived all of it.
        client.ping().unwrap();
    }
    assert_eq!(daemon.open_sessions(), 0);
    assert!(daemon.drain());
}

#[test]
fn daemon_answers_ping_after_socket_noise() {
    let daemon = Daemon::start(DaemonConfig::default()).unwrap();
    for seed in 100..108u64 {
        let mut rng = Rng::for_case(seed, 0);
        let mut client = DaemonClient::connect_tcp(daemon.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // A few bursts of garbage interleaved with framed junk...
        for _ in 0..4 {
            let len = 1 + rng.below(200) as usize;
            client.send_raw(&garbage(&mut rng, len)).unwrap();
            client.send_raw(&frame_bytes(0x44, &[0xAA; 8])).unwrap();
        }
        // ...then a valid PING: the daemon must still answer it, after
        // however many typed ERROR frames the noise earned.
        client.send_raw(&frame_bytes(kind::PING, &[])).unwrap();
        let mut got_pong = false;
        for _ in 0..64 {
            match client.read_response() {
                Ok(Response::Pong) => {
                    got_pong = true;
                    break;
                }
                Ok(_) => {}
                Err(e) => panic!("seed {seed}: connection died on noise: {e}"),
            }
        }
        assert!(got_pong, "seed {seed}: PING after noise must be answered");
    }
    assert_eq!(daemon.open_sessions(), 0);
    assert!(daemon.drain());
}
