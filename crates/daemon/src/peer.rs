//! The peer cache tier: a [`splendid_serve::CacheTier`] that speaks
//! `CACHE_GET`/`CACHE_PUT` to another daemon's persistent store.
//!
//! A daemon started with `--peer host:port` chains this tier *behind*
//! its own disk tier, so a cold process next to a warm one fills from
//! the warm process's store over the wire instead of decompiling from
//! scratch (the read-through then promotes the record into the local
//! disk and memory tiers).
//!
//! Failure policy: a cache tier must never take the service down. Every
//! I/O error drops the connection (the next call reconnects), counts as
//! a tier error, and reads as a miss. The peer answers `CACHE_GET`
//! exclusively from its *disk* tier — never from its own peer — so two
//! daemons pointed at each other cannot loop.
//!
//! Overload hardening (see DESIGN.md, "Overload protection &
//! backpressure"): a *dead* peer must cost nanoseconds per miss, not a
//! full network timeout. A half-open circuit breaker trips after
//! `BREAKER_TRIP_AFTER` (3) consecutive failures; while open, every
//! operation fast-fails without touching the socket. When the backoff
//! window (exponential, jittered, capped) elapses, exactly one probe
//! operation goes through half-open: success closes the breaker and
//! resets the backoff, failure re-opens it with the window doubled.
//! Breaker state is surfaced through [`TierCounters`] into
//! `ServeStats`/STATS_TEXT, and [`PeerTier::cost_hint`] reports a
//! near-zero cost while open so deadline-aware tier reads skip the peer
//! entirely.

use crate::client::DaemonClient;
use splendid_core::FaultRng;
use splendid_ir::hash::fnv64;
use splendid_serve::{CacheTier, TierCounters};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default for how long one peer round-trip may block a cache lookup
/// (overridable per daemon via `--peer-timeout-ms`).
pub const DEFAULT_PEER_TIMEOUT: Duration = Duration::from_secs(2);

/// Consecutive failures before the breaker opens.
const BREAKER_TRIP_AFTER: u32 = 3;
/// First open window; doubles on every consecutive re-open.
const BREAKER_BACKOFF_BASE: Duration = Duration::from_millis(200);
/// Backoff ceiling.
const BREAKER_BACKOFF_MAX: Duration = Duration::from_secs(30);

enum BreakerState {
    /// Peer believed healthy; operations flow.
    Closed,
    /// Tripped: fast-fail everything until `until`.
    Open { until: Instant },
    /// One probe operation is in flight; everyone else fast-fails.
    HalfOpen,
}

/// The breaker state machine. Lock-cheap: the hot path (open, not yet
/// expired) is one lock + one `Instant` comparison.
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    /// Next open window duration (before jitter).
    backoff: Duration,
    /// Deterministic jitter source, seeded from the peer address so two
    /// daemons pointed at the same dead peer don't probe in lockstep
    /// forever while staying reproducible per process configuration.
    rng: FaultRng,
}

impl Breaker {
    fn new(addr: &str) -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            backoff: BREAKER_BACKOFF_BASE,
            rng: FaultRng::new(fnv64(addr.as_bytes())),
        }
    }

    /// May an operation proceed right now? Transitions Open → HalfOpen
    /// when the window has elapsed (the caller becomes the probe).
    fn allows(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open { until } => {
                if Instant::now() >= until {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
            // A probe is already in flight; don't pile on.
            BreakerState::HalfOpen => false,
        }
    }

    /// Successful operation: close and reset.
    fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.backoff = BREAKER_BACKOFF_BASE;
    }

    /// Failed operation. Returns true when this failure *trips* the
    /// breaker (for the trip counter).
    fn on_failure(&mut self) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            // A failed half-open probe re-opens with a doubled window.
            BreakerState::HalfOpen => {
                self.trip();
                true
            }
            BreakerState::Closed if self.consecutive_failures >= BREAKER_TRIP_AFTER => {
                self.trip();
                true
            }
            _ => false,
        }
    }

    /// Open for one jittered backoff window, then double the next one.
    fn trip(&mut self) {
        // ±25% jitter: window ∈ [0.75, 1.25) × backoff.
        let nanos = u64::try_from(self.backoff.as_nanos()).unwrap_or(u64::MAX);
        let jittered = nanos * 3 / 4 + self.rng.below(nanos / 2 + 1);
        self.state = BreakerState::Open {
            until: Instant::now() + Duration::from_nanos(jittered),
        };
        self.backoff = (self.backoff * 2).min(BREAKER_BACKOFF_MAX);
    }

    fn is_open(&self) -> bool {
        matches!(
            self.state,
            BreakerState::Open { .. } | BreakerState::HalfOpen
        )
    }
}

/// A lazily-connected, auto-reconnecting peer tier with a circuit
/// breaker.
pub struct PeerTier {
    addr: String,
    timeout: Duration,
    conn: Mutex<Option<DaemonClient>>,
    breaker: Mutex<Breaker>,
    hits: AtomicU64,
    misses: AtomicU64,
    fills: AtomicU64,
    errors: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_fast_fails: AtomicU64,
}

impl PeerTier {
    /// Tier over a peer daemon's TCP address with the default 2 s
    /// round-trip timeout. Does not connect yet — the first lookup
    /// does, so a daemon may start before its peer.
    pub fn new(addr: impl Into<String>) -> PeerTier {
        PeerTier::with_timeout(addr, DEFAULT_PEER_TIMEOUT)
    }

    /// [`PeerTier::new`] with an explicit round-trip timeout (the
    /// daemon's `--peer-timeout-ms` flag).
    pub fn with_timeout(addr: impl Into<String>, timeout: Duration) -> PeerTier {
        let addr = addr.into();
        let breaker = Breaker::new(&addr);
        PeerTier {
            addr,
            timeout,
            conn: Mutex::new(None),
            breaker: Mutex::new(breaker),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fills: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            breaker_fast_fails: AtomicU64::new(0),
        }
    }

    /// Run `op` on the live connection, dialing if necessary, under the
    /// breaker. Any error tears the connection down for the next call
    /// to retry fresh and counts against the breaker; while the breaker
    /// is open the socket is never touched.
    fn with_conn<T>(&self, op: impl FnOnce(&mut DaemonClient) -> std::io::Result<T>) -> Option<T> {
        {
            let mut breaker = match self.breaker.lock() {
                Ok(b) => b,
                Err(e) => e.into_inner(),
            };
            if !breaker.allows() {
                self.breaker_fast_fails.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        let result = self.try_op(op);
        let mut breaker = match self.breaker.lock() {
            Ok(b) => b,
            Err(e) => e.into_inner(),
        };
        match &result {
            Some(_) => breaker.on_success(),
            None => {
                if breaker.on_failure() {
                    self.breaker_trips.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        result
    }

    /// One connect-if-needed + operation attempt, breaker-blind.
    fn try_op<T>(&self, op: impl FnOnce(&mut DaemonClient) -> std::io::Result<T>) -> Option<T> {
        let mut guard = match self.conn.lock() {
            Ok(g) => g,
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        if guard.is_none() {
            match DaemonClient::connect_tcp(&self.addr) {
                Ok(client) => {
                    let _ = client.set_read_timeout(Some(self.timeout));
                    *guard = Some(client);
                }
                Err(_) => {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        }
        let client = guard.as_mut()?;
        match op(client) {
            Ok(v) => Some(v),
            Err(_) => {
                *guard = None;
                self.errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn breaker_open(&self) -> bool {
        match self.breaker.lock() {
            Ok(b) => b.is_open(),
            Err(e) => e.into_inner().is_open(),
        }
    }
}

impl CacheTier for PeerTier {
    fn name(&self) -> &'static str {
        "peer"
    }

    fn get(&self, key: u64) -> Option<Vec<u8>> {
        let found = self.with_conn(|c| c.cache_get(key))?;
        match found {
            Some(blob) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(blob)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, key: u64, blob: &[u8]) {
        if self.with_conn(|c| c.cache_put(key, blob)) == Some(true) {
            self.fills.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn counters(&self) -> TierCounters {
        TierCounters {
            name: self.name().to_string(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fills: self.fills.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_fast_fails: self.breaker_fast_fails.load(Ordering::Relaxed),
            breaker_open: self.breaker_open(),
        }
    }

    /// Worst case for one lookup: a full round-trip timeout when the
    /// breaker is closed (the peer may be slow-dead), effectively free
    /// while it is open (we fast-fail without touching the socket).
    fn cost_hint(&self) -> Duration {
        if self.breaker_open() {
            Duration::ZERO
        } else {
            self.timeout
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// A listener that accepts connections and never answers: the
    /// "slow-dead" peer every timeout-driven test needs.
    fn blackhole() -> (String, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind blackhole");
        let addr = listener.local_addr().expect("blackhole addr").to_string();
        listener.set_nonblocking(true).expect("nonblocking");
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut held = Vec::new();
            while !thread_stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((sock, _)) => held.push(sock),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        });
        (addr, stop, handle)
    }

    #[test]
    fn breaker_trips_after_consecutive_timeouts_then_fast_fails() {
        let (addr, stop, handle) = blackhole();
        let tier = PeerTier::with_timeout(&addr, Duration::from_millis(50));
        // Slow failures until the breaker trips.
        for _ in 0..BREAKER_TRIP_AFTER {
            assert!(tier.get(1).is_none());
        }
        let k = tier.counters();
        assert_eq!(k.breaker_trips, 1, "tripped exactly once: {k:?}");
        assert!(k.breaker_open);
        assert_eq!(k.errors, u64::from(BREAKER_TRIP_AFTER));
        // While open, operations are refused in nanoseconds — well under
        // the 50 ms timeout, and without touching the socket.
        let start = Instant::now();
        for _ in 0..100 {
            assert!(tier.get(2).is_none());
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(50),
            "100 fast-fails took {elapsed:?}; breaker is not fast-failing"
        );
        let k = tier.counters();
        assert_eq!(k.breaker_fast_fails, 100);
        assert_eq!(
            k.errors,
            u64::from(BREAKER_TRIP_AFTER),
            "open breaker must not touch the socket"
        );
        // Open breaker advertises ~zero cost so deadline-aware readers
        // skip nothing by asking.
        assert_eq!(tier.cost_hint(), Duration::ZERO);
        stop.store(true, Ordering::SeqCst);
        handle.join().expect("blackhole thread");
    }

    #[test]
    fn half_open_probe_failure_reopens_with_longer_window() {
        let (addr, stop, handle) = blackhole();
        let tier = PeerTier::with_timeout(&addr, Duration::from_millis(30));
        for _ in 0..BREAKER_TRIP_AFTER {
            assert!(tier.get(1).is_none());
        }
        assert_eq!(tier.counters().breaker_trips, 1);
        // Wait out the first window (base 200 ms, +25% jitter ceiling).
        std::thread::sleep(BREAKER_BACKOFF_BASE * 5 / 4 + Duration::from_millis(10));
        // The next operation is the half-open probe; it times out again
        // and re-trips the breaker.
        assert!(tier.get(1).is_none());
        let k = tier.counters();
        assert_eq!(k.breaker_trips, 2, "failed probe must re-open: {k:?}");
        assert!(k.breaker_open);
        stop.store(true, Ordering::SeqCst);
        handle.join().expect("blackhole thread");
    }

    #[test]
    fn unreachable_peer_trips_breaker_on_connect_failures() {
        // Reserve a port and close it so nothing is listening.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind probe");
            l.local_addr().expect("probe addr").port()
        };
        let tier = PeerTier::with_timeout(format!("127.0.0.1:{port}"), Duration::from_millis(50));
        for _ in 0..BREAKER_TRIP_AFTER {
            assert!(tier.get(1).is_none());
        }
        let k = tier.counters();
        assert_eq!(k.breaker_trips, 1, "{k:?}");
        assert!(tier.get(2).is_none());
        assert_eq!(tier.counters().breaker_fast_fails, 1);
    }
}
