#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! `splendid-daemon`: interactive decompilation sessions over the wire.
//!
//! The serve layer answers one-shot batch requests; this crate keeps a
//! decompiler *resident* so an editing loop (decompile → read → tweak →
//! decompile) pays only for what changed:
//!
//! * [`protocol`] — the hand-rolled, zero-dependency length-prefixed
//!   frame protocol (OPEN/UPDATE/DECOMPILE/STATS/CLOSE/PING, versioned
//!   header, typed error codes) and the malformed-input-proof
//!   [`protocol::FrameAssembler`];
//! * [`session`] — per-client sessions holding a parsed module and its
//!   per-function FNV-64 content fingerprints; UPDATE dirty-diffs the
//!   edited module so DECOMPILE re-runs only changed functions (the
//!   rest answer from the shared serve cache, or — when nothing is
//!   dirty — from the session's retained result without touching the
//!   scheduler at all);
//! * [`server`] — the daemon: TCP + Unix-socket accept loops over one
//!   shared [`splendid_serve::Scheduler`], connection capping with
//!   accept-queue backpressure, per-request deadlines via the serve
//!   scheduler, idle-session eviction, and graceful drain;
//! * [`client`] — the blocking client used by `splendid connect`,
//!   `splendid validate --addr`, and the tests;
//! * [`mod@bench`] — synthetic inputs shared with perfbench and the tests.

pub mod bench;
pub mod client;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::DaemonClient;
pub use protocol::{ErrorCode, FrameAssembler, FrameEvent, Request, Response};
pub use server::{cache_tiers, Daemon, DaemonConfig, DaemonStats};
pub use session::{DecompileReply, Session, SessionError};
