//! Content-addressed in-memory caches and the blob tiers beneath them.
//!
//! Keys are stable 64-bit FNV-1a digests of `(module context fingerprint,
//! canonically printed function IR, options fingerprint)` — see
//! [`crate::scheduler`] for the exact key construction. One bounded LRU
//! type, [`LruCache`], holds both kinds of value: the decompiled
//! [`FunctionOutput`]s — printed C plus per-function stats —
//! ([`FunctionCache`], shared via `Arc` so the lock is held for one
//! pointer clone, never a copy of the text) and the validation
//! [`Certificate`](crate::validate::Certificate)s.
//!
//! The LRU is an intrusive doubly-linked list threaded through a slab of
//! nodes, plus a key → slot index map. Everything sits behind one
//! `Mutex`; the critical sections are a handful of pointer updates, so
//! contention stays negligible next to decompilation work.
//!
//! Below the LRU sits a chain of *blob tiers* (see [`CacheTier`]); the
//! daemon's is the persistent disk store from `splendid-cachestore`.
//! Lookups read through the chain (a hit in a lower tier back-fills the
//! tiers above it); fills write through to every tier, with the disk
//! write happening *behind* the request on a dedicated thread so a cold
//! decompile never waits on `fsync`.

use crate::{codec, lock};
use splendid_cachestore::{CacheStore, StoreConfig};
use splendid_core::FunctionOutput;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

const NIL: usize = usize::MAX;

struct Node<V> {
    key: u64,
    value: V,
    prev: usize,
    next: usize,
}

struct Lru<V> {
    map: HashMap<u64, usize>,
    nodes: Vec<Node<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<V> Lru<V> {
    fn new() -> Lru<V> {
        Lru {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.nodes[h].prev = idx,
        }
        self.head = idx;
    }
}

/// Aggregate cache counters, snapshotted for the stats surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries ever inserted.
    pub insertions: u64,
    /// Entries resident right now.
    pub entries: usize,
    /// Configured capacity.
    pub capacity: usize,
}

/// Hits over lookups, in [0, 1]; 0 when nothing was looked up.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    match hits + misses {
        0 => 0.0,
        lookups => hits as f64 / lookups as f64,
    }
}

impl CacheCounters {
    /// [`hit_rate`] of this cache.
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.hits, self.misses)
    }
}

/// Bounded, thread-safe, content-addressed LRU.
pub struct LruCache<V> {
    inner: Mutex<Lru<V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

/// The per-function result cache.
pub type FunctionCache = LruCache<Arc<FunctionOutput>>;

impl<V: Clone> LruCache<V> {
    /// Cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> LruCache<V> {
        LruCache {
            inner: Mutex::new(Lru::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    /// Look up a key, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: u64) -> Option<V> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut lru = lock(&self.inner);
        match lru.map.get(&key).copied() {
            Some(idx) => {
                lru.unlink(idx);
                lru.push_front(idx);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(lru.nodes[idx].value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// [`LruCache::get`], falling back to `fetch` (a read through the blob
    /// tiers) on a miss; a fetched value is promoted into the LRU so the
    /// next lookup is in-memory.
    pub fn read_through(&self, key: u64, fetch: impl FnOnce() -> Option<V>) -> Option<V> {
        if let Some(hit) = self.get(key) {
            return Some(hit);
        }
        let fetched = fetch()?;
        self.insert(key, fetched.clone());
        Some(fetched)
    }

    /// Insert (or refresh) an entry, evicting from the LRU tail past
    /// capacity.
    pub fn insert(&self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        let mut lru = lock(&self.inner);
        if let Some(idx) = lru.map.get(&key).copied() {
            lru.nodes[idx].value = value;
            lru.unlink(idx);
            lru.push_front(idx);
            return;
        }
        while lru.map.len() >= self.capacity {
            let victim = lru.tail;
            lru.unlink(victim);
            let old_key = lru.nodes[victim].key;
            lru.map.remove(&old_key);
            lru.free.push(victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let idx = match lru.free.pop() {
            Some(i) => {
                lru.nodes[i] = Node {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                lru.nodes.push(Node {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                lru.nodes.len() - 1
            }
        };
        lru.map.insert(key, idx);
        lru.push_front(idx);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
        }
    }
}

/// Per-tier hit/miss/fill counters, snapshotted into the stats surface.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Tier label (`"disk"`, ...).
    pub name: String,
    /// Lookups answered by this tier.
    pub hits: u64,
    /// Lookups this tier could not answer.
    pub misses: u64,
    /// Records written into this tier (including back-fills from lower
    /// tiers).
    pub fills: u64,
    /// Operations that failed (I/O errors, undecodable blobs, dropped
    /// write-behind messages). Errors degrade to misses, never to
    /// request failures.
    pub errors: u64,
}

impl TierCounters {
    /// [`hit_rate`] of this tier.
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.hits, self.misses)
    }
}

/// One level of the cache hierarchy below the in-memory LRU.
///
/// Tiers speak *encoded blobs* (see [`crate::codec`]), not decoded
/// values, so the same chain carries function, module and certificate
/// records. Implementations must be infallible at the signature level:
/// errors are counted and reported as misses.
pub trait CacheTier: Send + Sync {
    /// Tier label for stats attribution.
    fn name(&self) -> &'static str;
    /// Fetch the blob stored under `key`, if any.
    fn get(&self, key: u64) -> Option<Vec<u8>>;
    /// Persist `blob` under `key` (may complete asynchronously).
    fn put(&self, key: u64, blob: &[u8]);
    /// Snapshot this tier's counters.
    fn counters(&self) -> TierCounters;
    /// Block until queued writes are durable. Default: nothing queued.
    fn flush(&self) {}
}

/// Write-behind queue depth for the disk tier. Deep enough that a burst
/// of fills (a cold PolyBench batch) never blocks a worker; if the
/// writer thread cannot keep up, further puts are *dropped* (counted as
/// errors) rather than applying backpressure to decompilation.
const WRITE_BEHIND_DEPTH: usize = 1024;

enum DiskMsg {
    Put(u64, Vec<u8>),
    Shutdown,
}

/// The persistent disk tier: a [`CacheStore`] with reads on the calling
/// thread and writes applied behind a bounded channel by one writer
/// thread.
pub struct DiskTier {
    store: Arc<Mutex<CacheStore>>,
    tx: mpsc::SyncSender<DiskMsg>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Writes accepted but not yet applied by the writer thread.
    pending: Arc<AtomicU64>,
    hits: AtomicU64,
    misses: AtomicU64,
    fills: AtomicU64,
    errors: AtomicU64,
}

impl DiskTier {
    /// Open (or create) the store at `dir` and start the writer thread.
    pub fn open(dir: &Path, config: StoreConfig) -> std::io::Result<DiskTier> {
        let store = Arc::new(Mutex::new(CacheStore::open(dir, config)?));
        let (tx, rx) = mpsc::sync_channel::<DiskMsg>(WRITE_BEHIND_DEPTH);
        let pending = Arc::new(AtomicU64::new(0));
        let writer_store = Arc::clone(&store);
        let writer_pending = Arc::clone(&pending);
        let writer = std::thread::Builder::new()
            .name("splendid-cache-writer".into())
            .spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        DiskMsg::Put(key, blob) => {
                            let _ = lock(&writer_store).put(key, &blob);
                            writer_pending.fetch_sub(1, Ordering::SeqCst);
                        }
                        DiskMsg::Shutdown => break,
                    }
                }
            })
            .ok();
        Ok(DiskTier {
            store,
            tx,
            writer: Mutex::new(writer),
            pending,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fills: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }

    /// Store-level counters (rebuilds, torn bytes, CRC drops) for the
    /// CLI's `cache stat` view.
    pub fn store_counters(&self) -> splendid_cachestore::StoreCounters {
        lock(&self.store).counters()
    }
}

impl CacheTier for DiskTier {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn get(&self, key: u64) -> Option<Vec<u8>> {
        match lock(&self.store).get(key) {
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
        self.pending.fetch_add(1, Ordering::SeqCst);
        match self.tx.try_send(DiskMsg::Put(key, blob.to_vec())) {
            Ok(()) => {
                self.fills.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // Queue full (or writer gone): drop the write. The cache
                // stays correct — this record just won't be warm.
                self.pending.fetch_sub(1, Ordering::SeqCst);
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn counters(&self) -> TierCounters {
        TierCounters {
            name: "disk".into(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fills: self.fills.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    fn flush(&self) {
        // Drain the write-behind queue, then make the store durable and
        // mark its index clean (that's what buys the O(1) warm reopen).
        while self.pending.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        if lock(&self.store).flush().is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for DiskTier {
    fn drop(&mut self) {
        self.flush();
        let _ = self.tx.send(DiskMsg::Shutdown);
        if let Some(h) = lock(&self.writer).take() {
            let _ = h.join();
        }
    }
}

/// The blob-tier chain under the LRU: read-through with promotion,
/// write-through to every tier.
#[derive(Default)]
pub struct BlobTiers {
    tiers: Vec<Arc<dyn CacheTier>>,
}

impl BlobTiers {
    /// A chain over the given tiers, ordered nearest first.
    pub fn new(tiers: Vec<Arc<dyn CacheTier>>) -> BlobTiers {
        BlobTiers { tiers }
    }

    /// True when no tier is configured (pure in-memory operation).
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Read through the chain. A hit in tier N back-fills tiers 0..N so
    /// the next lookup stops sooner.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        for (i, tier) in self.tiers.iter().enumerate() {
            if let Some(blob) = tier.get(key) {
                for nearer in &self.tiers[..i] {
                    nearer.put(key, &blob);
                }
                return Some(blob);
            }
        }
        None
    }

    /// Write `blob` through to every tier.
    pub fn put(&self, key: u64, blob: &[u8]) {
        for tier in &self.tiers {
            tier.put(key, blob);
        }
    }

    /// Fetch and decode a function record. Undecodable blobs count as
    /// tier errors-as-misses by contract.
    pub fn get_function(&self, key: u64) -> Option<FunctionOutput> {
        codec::decode_function_record(&self.get(key)?).ok()
    }

    /// Encode and write through a function record.
    pub fn put_function(&self, key: u64, out: &FunctionOutput) {
        if !self.is_empty() {
            self.put(key, &codec::encode_function_record(out));
        }
    }

    /// Flush every tier.
    pub fn flush(&self) {
        for tier in &self.tiers {
            tier.flush();
        }
    }

    /// Snapshot every tier's counters, nearest first.
    pub fn counters(&self) -> Vec<TierCounters> {
        self.tiers.iter().map(|t| t.counters()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splendid_core::{FidelityTier, NamingStats};

    fn out(tag: usize) -> Arc<FunctionOutput> {
        Arc::new(FunctionOutput {
            text: format!("void f{tag}() {{\n}}\n"),
            naming: NamingStats {
                total_vars: tag,
                restored_vars: 0,
            },
            gotos: 0,
            tier: FidelityTier::Natural,
        })
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = FunctionCache::new(2);
        c.insert(1, out(1));
        c.insert(2, out(2));
        assert!(c.get(1).is_some()); // promote 1; victim becomes 2
        c.insert(3, out(3));
        assert!(c.get(2).is_none(), "2 was LRU and must be evicted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        let k = c.counters();
        assert_eq!(k.evictions, 1);
        assert_eq!(k.entries, 2);
        assert_eq!(k.insertions, 3);
    }

    #[test]
    fn zero_capacity_disables() {
        let c = FunctionCache::new(0);
        c.insert(1, out(1));
        assert!(c.get(1).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn hit_rate_counts() {
        let c = FunctionCache::new(8);
        c.insert(7, out(7));
        assert!(c.get(7).is_some());
        assert!(c.get(8).is_none());
        let k = c.counters();
        assert_eq!((k.hits, k.misses), (1, 1));
        assert!((k.hit_rate() - 0.5).abs() < 1e-12);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "splendid-tier-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// In-memory mock of a remote tier, for chain-behavior tests.
    struct MockTier {
        name: &'static str,
        map: Mutex<HashMap<u64, Vec<u8>>>,
        hits: AtomicU64,
        misses: AtomicU64,
        fills: AtomicU64,
    }

    impl MockTier {
        fn new(name: &'static str) -> MockTier {
            MockTier {
                name,
                map: Mutex::new(HashMap::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                fills: AtomicU64::new(0),
            }
        }
    }

    impl CacheTier for MockTier {
        fn name(&self) -> &'static str {
            self.name
        }
        fn get(&self, key: u64) -> Option<Vec<u8>> {
            let got = self.map.lock().unwrap().get(&key).cloned();
            match &got {
                Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
                None => self.misses.fetch_add(1, Ordering::Relaxed),
            };
            got
        }
        fn put(&self, key: u64, blob: &[u8]) {
            self.fills.fetch_add(1, Ordering::Relaxed);
            self.map.lock().unwrap().insert(key, blob.to_vec());
        }
        fn counters(&self) -> TierCounters {
            TierCounters {
                name: self.name.into(),
                hits: self.hits.load(Ordering::Relaxed),
                misses: self.misses.load(Ordering::Relaxed),
                fills: self.fills.load(Ordering::Relaxed),
                ..TierCounters::default()
            }
        }
    }

    #[test]
    fn disk_tier_write_behind_roundtrip() {
        let dir = temp_dir("disk");
        let tier = DiskTier::open(&dir, StoreConfig::default()).unwrap();
        tier.put(0xBEEF, b"blob-bytes");
        tier.flush(); // drain the write-behind queue
        assert_eq!(tier.get(0xBEEF).as_deref(), Some(&b"blob-bytes"[..]));
        let k = tier.counters();
        assert_eq!((k.hits, k.fills, k.errors), (1, 1, 0));
        drop(tier);
        // Warm reopen sees the record.
        let tier = DiskTier::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(tier.get(0xBEEF).as_deref(), Some(&b"blob-bytes"[..]));
        assert_eq!(tier.store_counters().rebuilds, 0);
        drop(tier);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chain_promotes_hits_toward_the_front() {
        let near = Arc::new(MockTier::new("near"));
        let far = Arc::new(MockTier::new("far"));
        far.put(42, b"from-afar");
        far.fills.store(0, Ordering::Relaxed); // reset test setup noise
        let chain = BlobTiers::new(vec![
            Arc::clone(&near) as Arc<dyn CacheTier>,
            Arc::clone(&far) as Arc<dyn CacheTier>,
        ]);
        assert_eq!(chain.get(42).as_deref(), Some(&b"from-afar"[..]));
        // The hit was promoted into the near tier...
        assert_eq!(near.counters().fills, 1);
        // ...so the next lookup stops there.
        assert_eq!(chain.get(42).as_deref(), Some(&b"from-afar"[..]));
        assert_eq!(far.counters().hits, 1, "far tier must not be asked again");
    }

    #[test]
    fn chain_writes_through_every_tier() {
        let a = Arc::new(MockTier::new("near"));
        let b = Arc::new(MockTier::new("far"));
        let chain = BlobTiers::new(vec![
            Arc::clone(&a) as Arc<dyn CacheTier>,
            Arc::clone(&b) as Arc<dyn CacheTier>,
        ]);
        chain.put(7, b"x");
        assert_eq!(a.counters().fills, 1);
        assert_eq!(b.counters().fills, 1);
    }

    #[test]
    fn undecodable_blob_is_a_miss_not_an_error() {
        let tier = Arc::new(MockTier::new("disk"));
        tier.put(5, b"garbage, not a record");
        let chain = BlobTiers::new(vec![tier as Arc<dyn CacheTier>]);
        assert!(chain.get_function(5).is_none());
    }
}
