//! The daemon server: accept loops (TCP, and a Unix socket on Unix),
//! per-connection handler threads, the session registry, connection
//! capping with accept-queue backpressure, idle-session eviction, and
//! graceful drain.
//!
//! Concurrency model: one OS thread per connection (connections are
//! capped, so this is bounded), all decompilation work funneled through
//! one shared [`Scheduler`] so every session competes for the same
//! worker pool and shares the same content-addressed function cache.
//! While the configured cap is reached the accept loops simply stop
//! accepting — pending connections queue in the OS accept backlog, which
//! is the backpressure: clients block in `connect`/first read instead of
//! being torn down.

use crate::peer::{PeerTier, DEFAULT_PEER_TIMEOUT};
use crate::protocol::{self, kind, ErrorCode, FrameAssembler, FrameEvent, Request, Response};
use crate::session::{variant_from_wire, Session, SessionError};
use splendid_cachestore::StoreConfig;
use splendid_serve::{
    codec, BlobTiers, CacheTier, DiskTier, JobError, JobRequest, Scheduler, ServeConfig,
    StatsSnapshot,
};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// TCP listen address, e.g. `127.0.0.1:7777` (port 0 picks one).
    pub addr: String,
    /// Optional Unix-socket path to also listen on (Unix targets only;
    /// ignored with a warning elsewhere).
    pub unix_path: Option<PathBuf>,
    /// Concurrent-connection cap; further connections wait in the OS
    /// accept backlog.
    pub max_connections: usize,
    /// Evict sessions (and their connections) idle longer than this.
    pub idle_timeout: Option<Duration>,
    /// How long [`Daemon::drain`] waits for in-flight work.
    pub drain_timeout: Duration,
    /// Scheduler configuration (workers, cache, per-request deadline —
    /// `job_timeout` is the per-request deadline, enforced by the
    /// scheduler's deadline checks).
    pub serve: ServeConfig,
    /// Directory for the persistent on-disk cache tier. `None` runs
    /// memory-only, exactly as before the tier existed.
    pub cache_dir: Option<PathBuf>,
    /// Size budget for the disk tier in bytes (default 256 MiB).
    pub cache_budget_bytes: Option<u64>,
    /// TCP address of a peer daemon whose persistent tier is consulted
    /// (via `CACHE_GET`) behind the local tiers.
    pub peer: Option<String>,
    /// Per-operation socket timeout for the peer tier (connect, send,
    /// receive each get this budget). The circuit breaker keys off
    /// operations that exhaust it.
    pub peer_timeout: Duration,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            unix_path: None,
            max_connections: 32,
            idle_timeout: Some(Duration::from_secs(300)),
            drain_timeout: Duration::from_secs(30),
            serve: ServeConfig::default(),
            cache_dir: None,
            cache_budget_bytes: None,
            peer: None,
            peer_timeout: DEFAULT_PEER_TIMEOUT,
        }
    }
}

/// The blob-tier chain under the serve LRU: the disk store at `cache_dir`
/// (budgeted to `budget_bytes`, default 256 MiB), then the peer daemon at
/// `peer`, each only when given. Opening the disk store is the one step
/// that can fail; the peer tier dials lazily and degrades to misses.
pub fn cache_tiers(
    cache_dir: Option<&Path>,
    budget_bytes: Option<u64>,
    peer: Option<&str>,
    peer_timeout: Duration,
) -> std::io::Result<BlobTiers> {
    let mut tiers: Vec<Arc<dyn CacheTier>> = Vec::new();
    if let Some(dir) = cache_dir {
        let mut store = StoreConfig::default();
        if let Some(budget) = budget_bytes {
            store.budget_bytes = budget;
        }
        tiers.push(Arc::new(DiskTier::open(dir, store)?));
    }
    if let Some(peer) = peer {
        tiers.push(Arc::new(PeerTier::with_timeout(peer, peer_timeout)));
    }
    Ok(BlobTiers::new(tiers))
}

/// Daemon-wide counters (relaxed atomics; diagnostic, not transactional).
#[derive(Debug, Default)]
pub struct DaemonStats {
    /// Connections accepted (TCP + Unix).
    pub connections_accepted: AtomicU64,
    /// Connections fully torn down.
    pub connections_closed: AtomicU64,
    /// Sessions opened.
    pub sessions_opened: AtomicU64,
    /// Sessions closed by a CLOSE request.
    pub sessions_closed: AtomicU64,
    /// Sessions evicted for sitting idle past the timeout.
    pub sessions_evicted: AtomicU64,
    /// Well-framed request frames received.
    pub frames_received: AtomicU64,
    /// Response frames sent.
    pub frames_sent: AtomicU64,
    /// Stream desyncs survived (bad magic runs).
    pub desyncs: AtomicU64,
    /// Oversized frames skipped.
    pub oversized_frames: AtomicU64,
    /// ERROR responses sent, all causes.
    pub errors_sent: AtomicU64,
    /// Requests refused because the daemon was draining.
    pub rejected_draining: AtomicU64,
    /// Requests answered with BUSY by admission control.
    pub requests_shed: AtomicU64,
}

/// State shared between accept loops, connection handlers, and the
/// [`Daemon`] front object.
struct Shared {
    config: DaemonConfig,
    scheduler: Scheduler,
    stats: DaemonStats,
    draining: AtomicBool,
    /// Live connection-handler threads (the cap gauge).
    active: AtomicUsize,
    next_session: AtomicU32,
    /// Open sessions, for the daemon-wide stats dump.
    sessions: Mutex<HashMap<u32, Arc<Mutex<Session>>>>,
}

impl Shared {
    fn register(&self, session: &Arc<Mutex<Session>>, id: u32) {
        if let Ok(mut map) = self.sessions.lock() {
            map.insert(id, Arc::clone(session));
        }
    }

    fn unregister(&self, id: u32) {
        if let Ok(mut map) = self.sessions.lock() {
            map.remove(&id);
        }
    }

    /// Stable, line-oriented daemon-wide stats dump.
    fn stats_text(&self) -> String {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let s = &self.stats;
        let mut out = String::new();
        out.push_str("daemon stats\n");
        out.push_str(&format!(
            "  connections  {} accepted / {} closed / {} active (cap {})\n",
            get(&s.connections_accepted),
            get(&s.connections_closed),
            self.active.load(Ordering::Relaxed),
            self.config.max_connections
        ));
        out.push_str(&format!(
            "  sessions     {} opened / {} closed / {} evicted idle\n",
            get(&s.sessions_opened),
            get(&s.sessions_closed),
            get(&s.sessions_evicted)
        ));
        out.push_str(&format!(
            "  frames       {} received / {} sent / {} errors sent\n",
            get(&s.frames_received),
            get(&s.frames_sent),
            get(&s.errors_sent)
        ));
        out.push_str(&format!(
            "  protocol     {} desyncs survived / {} oversized skipped / {} refused draining / {} shed busy\n",
            get(&s.desyncs),
            get(&s.oversized_frames),
            get(&s.rejected_draining),
            get(&s.requests_shed)
        ));
        out.push_str(&self.scheduler.stats().to_string());
        let sessions = match self.sessions.lock() {
            Ok(map) => {
                let mut v: Vec<_> = map.iter().map(|(id, s)| (*id, Arc::clone(s))).collect();
                v.sort_by_key(|(id, _)| *id);
                v
            }
            Err(_) => Vec::new(),
        };
        for (_, session) in sessions {
            if let Ok(session) = session.lock() {
                out.push_str(&session.stats_text());
            }
        }
        out
    }
}

/// A running daemon. Dropping it does NOT stop the accept loops — call
/// [`Daemon::drain`] for an orderly shutdown.
pub struct Daemon {
    shared: Arc<Shared>,
    tcp_addr: SocketAddr,
    accept_threads: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Bind the listeners and start the accept loops.
    pub fn start(config: DaemonConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let tcp_addr = listener.local_addr()?;

        #[cfg(unix)]
        let unix_listener = match &config.unix_path {
            Some(path) => {
                // A dead daemon leaves its socket file behind; rebinding
                // over it is the expected restart path.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };

        let tiers = cache_tiers(
            config.cache_dir.as_deref(),
            config.cache_budget_bytes,
            config.peer.as_deref(),
            config.peer_timeout,
        )?;
        let shared = Arc::new(Shared {
            scheduler: Scheduler::new_with_tiers(config.serve.clone(), tiers),
            config,
            stats: DaemonStats::default(),
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            next_session: AtomicU32::new(1),
            sessions: Mutex::new(HashMap::new()),
        });

        let mut accept_threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            accept_threads.push(thread::spawn(move || accept_loop_tcp(listener, shared)));
        }
        #[cfg(unix)]
        if let Some(l) = unix_listener {
            let shared = Arc::clone(&shared);
            accept_threads.push(thread::spawn(move || accept_loop_unix(l, shared)));
        }

        Ok(Daemon {
            shared,
            tcp_addr,
            accept_threads,
        })
    }

    /// The bound TCP address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// Shared daemon counters.
    pub fn stats(&self) -> &DaemonStats {
        &self.shared.stats
    }

    /// Live connection count.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Open session count (leak check for tests).
    pub fn open_sessions(&self) -> usize {
        self.shared.sessions.lock().map(|m| m.len()).unwrap_or(0)
    }

    /// The daemon-wide stats dump, as served to STATS requests.
    pub fn stats_text(&self) -> String {
        self.shared.stats_text()
    }

    /// Snapshot of the shared scheduler's serve-layer counters (shed /
    /// degraded / timed-out breakdown for the overload bench and tests).
    pub fn serve_stats(&self) -> StatsSnapshot {
        self.shared.scheduler.stats()
    }

    /// Graceful drain: stop accepting, let in-flight requests complete,
    /// then join the accept loops. Returns `true` when every connection
    /// wound down within the configured drain timeout.
    pub fn drain(mut self) -> bool {
        self.shared.draining.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        while self.shared.active.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        let clean = self.shared.active.load(Ordering::Relaxed) == 0;
        // Make the persistent tier durable (and its index clean) so the
        // next process warm-starts without a segment rescan.
        self.shared.scheduler.flush_cache();
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
        #[cfg(unix)]
        if let Some(path) = &self.shared.config.unix_path {
            let _ = std::fs::remove_file(path);
        }
        clean
    }
}

/// Poll-accept loop over the TCP listener. Nonblocking + sleep so the
/// loop can observe drain; stops accepting (leaving connections in the
/// OS backlog) while the connection cap is reached.
fn accept_loop_tcp(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::Relaxed) {
            return;
        }
        if shared.active.load(Ordering::Relaxed) >= shared.config.max_connections {
            thread::sleep(Duration::from_millis(5));
            continue;
        }
        match listener.accept() {
            Ok((stream, _)) => spawn_handler(Conn::Tcp(stream), &shared),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[cfg(unix)]
fn accept_loop_unix(listener: UnixListener, shared: Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::Relaxed) {
            return;
        }
        if shared.active.load(Ordering::Relaxed) >= shared.config.max_connections {
            thread::sleep(Duration::from_millis(5));
            continue;
        }
        match listener.accept() {
            Ok((stream, _)) => spawn_handler(Conn::Unix(stream), &shared),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// A connection of either flavor; both are `Read + Write` byte streams
/// with a read timeout.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, d: Duration) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(d)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(Some(d)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

fn spawn_handler(conn: Conn, shared: &Arc<Shared>) {
    shared.active.fetch_add(1, Ordering::SeqCst);
    shared
        .stats
        .connections_accepted
        .fetch_add(1, Ordering::Relaxed);
    let shared = Arc::clone(shared);
    thread::spawn(move || {
        handle_connection(conn, &shared);
        shared.active.fetch_sub(1, Ordering::SeqCst);
        shared
            .stats
            .connections_closed
            .fetch_add(1, Ordering::Relaxed);
    });
}

/// Per-connection state threaded through the dispatcher.
struct ConnState {
    session: Option<Arc<Mutex<Session>>>,
    session_id: u32,
    last_activity: Instant,
}

/// Send one response frame, folding the bookkeeping.
fn send(conn: &mut Conn, shared: &Shared, resp: &Response) -> std::io::Result<()> {
    shared.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
    if matches!(resp, Response::Error { .. }) {
        shared.stats.errors_sent.fetch_add(1, Ordering::Relaxed);
    }
    protocol::write_frame(conn, resp.kind(), &resp.encode_payload())
}

fn error(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

/// The connection loop: 100ms read ticks (so drain and idle eviction are
/// observed promptly), a [`FrameAssembler`] for robust framing, and a
/// strictly 1:1 request→response dispatch.
fn handle_connection(mut conn: Conn, shared: &Arc<Shared>) {
    if conn.set_read_timeout(Duration::from_millis(100)).is_err() {
        return;
    }
    let mut assembler = FrameAssembler::new();
    let mut buf = [0u8; 64 * 1024];
    let mut state = ConnState {
        session: None,
        session_id: 0,
        last_activity: Instant::now(),
    };

    'conn: loop {
        match conn.read(&mut buf) {
            Ok(0) => break 'conn, // peer hung up
            Ok(n) => {
                state.last_activity = Instant::now();
                assembler.push(&buf[..n]);
                while let Some(event) = assembler.next_event() {
                    if !handle_event(&mut conn, shared, &mut state, event) {
                        break 'conn;
                    }
                }
                // Refresh again after dispatch: a request that takes
                // longer than the idle timeout to serve must not count
                // its own service time as idleness (the session would
                // be evicted the instant its response went out).
                state.last_activity = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Idle tick: observe drain and the idle timeout.
                if shared.draining.load(Ordering::Relaxed) {
                    break 'conn;
                }
                if let Some(idle) = shared.config.idle_timeout {
                    if state.last_activity.elapsed() >= idle {
                        let _ = send(
                            &mut conn,
                            shared,
                            &error(
                                ErrorCode::IdleTimeout,
                                format!("session idle for {:?}, evicting", idle),
                            ),
                        );
                        if state.session.take().is_some() {
                            shared.unregister(state.session_id);
                            shared
                                .stats
                                .sessions_evicted
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        break 'conn;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break 'conn,
        }
    }

    if state.session.take().is_some() {
        shared.unregister(state.session_id);
    }
}

/// Handle one assembler event. Returns `false` when the connection
/// should wind down (drain).
fn handle_event(
    conn: &mut Conn,
    shared: &Arc<Shared>,
    state: &mut ConnState,
    event: FrameEvent,
) -> bool {
    let resp = match event {
        FrameEvent::Desync => {
            shared.stats.desyncs.fetch_add(1, Ordering::Relaxed);
            error(
                ErrorCode::Desync,
                "bad frame magic; scanning for next frame boundary",
            )
        }
        FrameEvent::Oversized { declared } => {
            shared
                .stats
                .oversized_frames
                .fetch_add(1, Ordering::Relaxed);
            error(
                ErrorCode::Oversized,
                format!(
                    "declared payload of {declared} bytes exceeds the {} byte cap; skipped",
                    protocol::MAX_PAYLOAD
                ),
            )
        }
        FrameEvent::Frame {
            version,
            kind: kind_byte,
            payload,
        } => {
            shared.stats.frames_received.fetch_add(1, Ordering::Relaxed);
            if version != protocol::VERSION {
                error(
                    ErrorCode::BadVersion,
                    format!(
                        "protocol version {version} not supported (this daemon speaks {})",
                        protocol::VERSION
                    ),
                )
            } else {
                match Request::decode(kind_byte, &payload) {
                    None => error(
                        ErrorCode::UnknownKind,
                        format!("0x{kind_byte:02x} is not a request kind"),
                    ),
                    Some(Err(e)) => error(
                        ErrorCode::BadPayload,
                        format!("{} frame: {e}", kind_label(kind_byte)),
                    ),
                    Some(Ok(req)) => dispatch(shared, state, req),
                }
            }
        }
    };
    if send(conn, shared, &resp).is_err() {
        return false;
    }
    // After answering, a draining daemon winds the connection down.
    !shared.draining.load(Ordering::Relaxed)
}

fn kind_label(kind_byte: u8) -> &'static str {
    match kind_byte {
        kind::OPEN => "OPEN",
        kind::UPDATE => "UPDATE",
        kind::DECOMPILE => "DECOMPILE",
        kind::STATS => "STATS",
        kind::CLOSE => "CLOSE",
        kind::PING => "PING",
        kind::CACHE_GET => "CACHE_GET",
        kind::CACHE_PUT => "CACHE_PUT",
        kind::VALIDATE => "VALIDATE",
        _ => "unknown",
    }
}

/// Dispatch one decoded request to exactly one response.
fn dispatch(shared: &Arc<Shared>, state: &mut ConnState, req: Request) -> Response {
    let draining = shared.draining.load(Ordering::Relaxed);
    match req {
        Request::Ping => Response::Pong,
        // Cache-tier wire service. GETs answer exclusively from the
        // *disk* tier (never this daemon's own peer tier — two daemons
        // pointed at each other must not loop). PUTs validate the record
        // envelope before anything touches the store; a bad record is a
        // polite `stored: false`, not a wire error, because the sender
        // may simply be newer than us.
        Request::CacheGet { key } => {
            if shared.scheduler.tiers().disk().is_none() {
                return error(
                    ErrorCode::NoCache,
                    "this daemon has no persistent cache tier (start it with --cache-dir)",
                );
            }
            Response::CacheValue {
                blob: shared.scheduler.cache_blob_get(key),
            }
        }
        Request::CachePut { key, blob } => {
            if shared.scheduler.tiers().disk().is_none() {
                return error(
                    ErrorCode::NoCache,
                    "this daemon has no persistent cache tier (start it with --cache-dir)",
                );
            }
            let stored = codec::validate_record(&blob).is_ok()
                && shared.scheduler.cache_blob_put(key, &blob);
            Response::CacheStored { stored }
        }
        Request::Stats { daemon_wide: true } => Response::StatsText {
            text: shared.stats_text(),
        },
        Request::Stats { daemon_wide: false } => match &state.session {
            Some(session) => match session.lock() {
                Ok(session) => Response::StatsText {
                    text: session.stats_text(),
                },
                Err(_) => error(ErrorCode::DecompileFailed, "session poisoned"),
            },
            None => error(ErrorCode::NoSession, "no open session; send OPEN first"),
        },
        Request::Close => {
            if state.session.take().is_some() {
                shared.unregister(state.session_id);
                shared.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
                Response::Closed
            } else {
                error(ErrorCode::NoSession, "no open session to close")
            }
        }
        Request::Open {
            name,
            variant,
            module_text,
        } => {
            if draining {
                shared
                    .stats
                    .rejected_draining
                    .fetch_add(1, Ordering::Relaxed);
                return error(ErrorCode::Draining, "daemon is draining; not opening");
            }
            let Some(variant) = variant_from_wire(variant) else {
                return error(
                    ErrorCode::BadPayload,
                    format!("variant byte {variant} (want 1=v1, 2=portable, 3=full)"),
                );
            };
            match Session::open(
                shared.next_session.fetch_add(1, Ordering::Relaxed),
                name,
                variant,
                &module_text,
            ) {
                Ok(session) => {
                    // Re-OPEN replaces the previous session on this
                    // connection.
                    if state.session.take().is_some() {
                        shared.unregister(state.session_id);
                        shared.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
                    }
                    let functions = session.functions();
                    state.session_id = session.id;
                    let session = Arc::new(Mutex::new(session));
                    shared.register(&session, state.session_id);
                    shared.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
                    state.session = Some(session);
                    Response::Opened {
                        session: state.session_id,
                        functions,
                    }
                }
                Err(e) => error(ErrorCode::ModuleParse, e),
            }
        }
        Request::Update { module_text } => match &state.session {
            Some(session) => match session.lock() {
                Ok(mut session) => {
                    // UPDATE never parses (and so never fails): it hashes
                    // function spans and diffs. A syntax error in the new
                    // text surfaces at the next DECOMPILE.
                    let u = session.update(&module_text);
                    Response::Updated {
                        dirty: u.dirty,
                        total: u.total,
                        fingerprint_nanos: u.fingerprint_nanos,
                        bookkeeping_nanos: u.bookkeeping_nanos,
                    }
                }
                Err(_) => error(ErrorCode::DecompileFailed, "session poisoned"),
            },
            None => error(ErrorCode::NoSession, "no open session; send OPEN first"),
        },
        Request::Decompile { budget_ms } => {
            if draining {
                shared
                    .stats
                    .rejected_draining
                    .fetch_add(1, Ordering::Relaxed);
                return error(ErrorCode::Draining, "daemon is draining; not decompiling");
            }
            match &state.session {
                Some(session) => match session.lock() {
                    Ok(mut session) => {
                        let started = Instant::now();
                        // The wire carries a *relative* budget (immune to
                        // clock skew); it becomes an absolute deadline the
                        // moment we pick the request up, so queueing time
                        // counts against it too.
                        let deadline = (budget_ms > 0)
                            .then(|| started + Duration::from_millis(u64::from(budget_ms)));
                        match session.decompile_with(&shared.scheduler, deadline) {
                            Ok(reply) => Response::Result {
                                functions: reply.functions,
                                cached: reply.cached,
                                degraded: reply.degraded,
                                dirty: reply.dirty,
                                wall_micros: u64::try_from(started.elapsed().as_micros())
                                    .unwrap_or(u64::MAX),
                                fast_path: reply.fast_path,
                                source: reply.source,
                            },
                            Err(SessionError::Busy(busy)) => {
                                shared.stats.requests_shed.fetch_add(1, Ordering::Relaxed);
                                Response::Busy {
                                    retry_after_ms: u32::try_from(busy.retry_after_ms)
                                        .unwrap_or(u32::MAX),
                                }
                            }
                            Err(SessionError::Job(JobError::TimedOut { stage })) => error(
                                ErrorCode::Deadline,
                                format!("request deadline expired during {stage}"),
                            ),
                            Err(SessionError::Job(e)) => {
                                error(ErrorCode::DecompileFailed, format!("{e}"))
                            }
                        }
                    }
                    Err(_) => error(ErrorCode::DecompileFailed, "session poisoned"),
                },
                None => error(ErrorCode::NoSession, "no open session; send OPEN first"),
            }
        }
        Request::Validate {
            name,
            variant,
            module_text,
        } => {
            if draining {
                shared
                    .stats
                    .rejected_draining
                    .fetch_add(1, Ordering::Relaxed);
                return error(ErrorCode::Draining, "daemon is draining; not validating");
            }
            let Some(variant) = variant_from_wire(variant) else {
                return error(
                    ErrorCode::BadPayload,
                    format!("variant byte {variant} (want 1=v1, 2=portable, 3=full)"),
                );
            };
            let mut request = JobRequest::from_text(&name, &module_text);
            request.options = splendid_core::SplendidOptions {
                variant,
                validate: true,
                ..Default::default()
            };
            // VALIDATE is stateless (no session, no tenant fingerprint
            // yet) but still holds a worker, so it goes through the same
            // admission gate as DECOMPILE.
            let ticket = match shared.scheduler.admit(None, None) {
                Ok(t) => t,
                Err(busy) => {
                    shared.stats.requests_shed.fetch_add(1, Ordering::Relaxed);
                    return Response::Busy {
                        retry_after_ms: u32::try_from(busy.retry_after_ms).unwrap_or(u32::MAX),
                    };
                }
            };
            let started = Instant::now();
            match shared
                .scheduler
                .submit_ticketed(ticket, request, None)
                .wait()
            {
                Ok(result) => Response::Validated {
                    functions: result.functions as u32,
                    verified: result.verified_functions as u32,
                    unverified: result.unverified_functions as u32,
                    wall_micros: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
                    source: result.output.source,
                },
                Err(JobError::Parse(e)) => error(ErrorCode::ModuleParse, e),
                Err(JobError::TimedOut { stage }) => error(
                    ErrorCode::Deadline,
                    format!("request deadline expired during {stage}"),
                ),
                Err(e) => error(ErrorCode::DecompileFailed, format!("{e}")),
            }
        }
    }
}
