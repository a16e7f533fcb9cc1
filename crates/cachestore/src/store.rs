//! The persistent content-addressed cache store.
//!
//! A store is a directory: numbered append-only segment files
//! (`seg-*.spc`), one memory-mapped index (`index.spx`), and a `lock`
//! file held with `flock` so two processes never write the same store.
//!
//! Durability contract:
//! * `put` appends one CRC-framed record to the active segment and
//!   updates the mmap index. A crash tears at most the record being
//!   appended.
//! * The index is disposable. At open, a dirty flag (set while any
//!   writer is live) or a `seg_state` mismatch (FNV-64 over the sorted
//!   `(segment id, file length)` list) forces a rebuild by rescanning
//!   every segment — the same walk that truncates torn tails.
//! * Rotation caps segment size; when the directory exceeds its byte
//!   budget the oldest segments are dropped whole (their index entries
//!   tombstoned), and `compact` rewrites the live set into fresh
//!   segments to reclaim superseded records, collapsing byte-identical
//!   payloads stored under several keys into one shared record.

use crate::index::Index;
use crate::segment::{parse_segment_file_name, read_record, RecordRef, Segment, REC_HEADER_LEN};
use splendid_ir::hash::Fnv64;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};

#[cfg(unix)]
mod sys {
    pub const LOCK_EX: i32 = 2;
    pub const LOCK_NB: i32 = 4;
    extern "C" {
        pub fn flock(fd: i32, operation: i32) -> i32;
    }
}

/// Tuning knobs for a store.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Total on-disk byte budget across all segments. Oldest segments
    /// are dropped whole once the budget is exceeded.
    pub budget_bytes: u64,
    /// Rotation threshold for the active segment.
    pub segment_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            budget_bytes: 256 * 1024 * 1024,
            segment_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Operation counters, snapshot via [`CacheStore::counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// `get` calls that returned a payload.
    pub hits: u64,
    /// `get` calls that found nothing.
    pub misses: u64,
    /// Records appended by `put`.
    pub fills: u64,
    /// Records dropped by budget eviction or compaction.
    pub evicted: u64,
    /// Index entries dropped because the record failed its CRC at read.
    pub crc_drops: u64,
    /// Index rebuilds performed at open (0 on a clean warm start).
    pub rebuilds: u64,
    /// Torn-tail bytes truncated during recovery.
    pub torn_bytes: u64,
}

/// Point-in-time shape of the store, for `splendid cache stat`.
#[derive(Debug, Clone, Copy)]
pub struct StoreStats {
    /// Number of segment files.
    pub segments: u64,
    /// Live (indexed) records.
    pub live_records: u64,
    /// Sum of all segment file lengths.
    pub total_bytes: u64,
    /// Bytes owned by live records (header + payload).
    pub live_bytes: u64,
    /// Configured byte budget.
    pub budget_bytes: u64,
    /// Index slot count.
    pub index_slots: u64,
}

/// Result of a full-store verification pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyReport {
    /// Segments walked.
    pub segments: u64,
    /// CRC-intact records found on disk (including superseded copies).
    pub disk_records: u64,
    /// Torn/corrupt tail bytes encountered (not yet truncated).
    pub torn_bytes: u64,
    /// Live index entries checked.
    pub index_entries: u64,
    /// Index entries that did not resolve to an intact on-disk record.
    pub index_dangling: u64,
}

impl VerifyReport {
    /// True when the store is fully self-consistent.
    pub fn ok(&self) -> bool {
        self.torn_bytes == 0 && self.index_dangling == 0
    }
}

/// Result of a compaction pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactStats {
    /// Records carried into the fresh segments (including aliases).
    pub kept_records: u64,
    /// Superseded/dead records dropped.
    pub dropped_records: u64,
    /// Kept records that were collapsed onto an identical, already
    /// rewritten payload (content-level dedup): their index entries
    /// alias the shared record instead of owning a copy.
    pub deduped_records: u64,
    /// Bytes the dedup aliases avoided writing (header + payload).
    pub deduped_bytes: u64,
    /// Bytes before compaction.
    pub bytes_before: u64,
    /// Bytes after compaction.
    pub bytes_after: u64,
}

/// A writable handle on a store directory. One per process per
/// directory; the `flock`-held lock file enforces exclusivity on unix.
pub struct CacheStore {
    dir: PathBuf,
    config: StoreConfig,
    index: Index,
    active: Segment,
    readers: HashMap<u64, File>,
    /// Lock file held for the lifetime of the store (flock releases on
    /// close or process death, so a crash never wedges the directory).
    _lock: File,
    counters: StoreCounters,
    /// True once a mutation happened after the last flush.
    unflushed: bool,
}

impl CacheStore {
    /// Open (creating if needed) the store at `dir`.
    pub fn open(dir: &Path, config: StoreConfig) -> io::Result<CacheStore> {
        std::fs::create_dir_all(dir)?;
        let lock = acquire_dir_lock(dir)?;
        let mut counters = StoreCounters::default();

        let mut seg_ids = list_segment_ids(dir)?;
        if seg_ids.is_empty() {
            let active = Segment::create(dir, 0)?;
            seg_ids.push(0);
            let mut index = Index::create(dir, 64)?;
            index.set_seg_state(seg_state_of(dir, &seg_ids)?);
            index.sync()?;
            return Ok(CacheStore {
                dir: dir.to_path_buf(),
                config,
                index,
                active,
                readers: HashMap::new(),
                _lock: lock,
                counters,
                unflushed: false,
            });
        }

        // Decide whether the existing index can be trusted.
        let disk_state = seg_state_of(dir, &seg_ids)?;
        let trusted = match Index::open(dir) {
            Ok(idx) if !idx.dirty() && idx.seg_state() == disk_state => Some(idx),
            _ => None,
        };

        let (index, active, readers) = match trusted {
            Some(index) => {
                // Clean shutdown: segments are exactly as fingerprinted,
                // so reopen without a full rescan.
                let active_id = *seg_ids.last().unwrap_or(&0);
                let (active, scan) = Segment::open(dir, active_id)?;
                if scan.torn_bytes != 0 {
                    // seg_state matched yet the tail is torn — do not
                    // trust anything, rebuild from scratch.
                    counters.rebuilds += 1;
                    counters.torn_bytes += scan.torn_bytes;
                    rebuild(dir, &seg_ids, &mut counters)?
                } else {
                    let mut readers = HashMap::new();
                    for &id in &seg_ids {
                        if id != active_id {
                            readers.insert(id, open_reader(dir, id)?);
                        }
                    }
                    (index, active, readers)
                }
            }
            None => {
                counters.rebuilds += 1;
                rebuild(dir, &seg_ids, &mut counters)?
            }
        };

        Ok(CacheStore {
            dir: dir.to_path_buf(),
            config,
            index,
            active,
            readers,
            _lock: lock,
            counters,
            unflushed: false,
        })
    }

    /// Store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Fetch a payload by content key.
    pub fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        let Some(rec) = self.index.get(key) else {
            self.counters.misses += 1;
            return None;
        };
        let read = if rec.segment == self.active.id() {
            self.active.read(rec)
        } else {
            match self.readers.get_mut(&rec.segment) {
                Some(file) => read_record(file, rec),
                None => Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "record points at a dropped segment",
                )),
            }
        };
        match read {
            Ok(payload) => {
                self.counters.hits += 1;
                Some(payload)
            }
            Err(_) => {
                // Bit rot or a stale entry: drop it so we never return
                // corrupt bytes, and treat the call as a miss.
                self.index.remove(key);
                self.counters.crc_drops += 1;
                self.counters.misses += 1;
                None
            }
        }
    }

    /// True if `key` is present without touching hit/miss counters.
    pub fn contains(&self, key: u64) -> bool {
        self.index.get(key).is_some()
    }

    /// Persist a payload under `key`, superseding any previous value.
    pub fn put(&mut self, key: u64, payload: &[u8]) -> io::Result<()> {
        self.mark_unflushed()?;
        let needed = REC_HEADER_LEN + payload.len() as u64;
        if self.active.len() + needed > self.config.segment_bytes && !self.active.is_empty() {
            self.rotate()?;
        }
        let rec = self.active.append(key, payload)?;
        self.index.insert(rec)?;
        self.counters.fills += 1;
        Ok(())
    }

    /// Flush segment data and index to stable storage and mark the
    /// index clean so the next open skips the rescan.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.unflushed {
            return Ok(());
        }
        self.active.sync()?;
        let seg_ids = self.segment_ids();
        let state = seg_state_of(&self.dir, &seg_ids)?;
        self.index.set_seg_state(state);
        self.index.set_dirty(false)?;
        self.unflushed = false;
        Ok(())
    }

    /// Operation counters so far.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// Current shape of the store.
    pub fn stat(&self) -> io::Result<StoreStats> {
        let seg_ids = self.segment_ids();
        let mut total = 0u64;
        for &id in &seg_ids {
            total += std::fs::metadata(self.dir.join(crate::segment::segment_file_name(id)))?.len();
        }
        let mut live_bytes = 0u64;
        self.index
            .for_each(|rec| live_bytes += REC_HEADER_LEN + u64::from(rec.len));
        Ok(StoreStats {
            segments: seg_ids.len() as u64,
            live_records: self.index.live(),
            total_bytes: total,
            live_bytes,
            budget_bytes: self.config.budget_bytes,
            index_slots: self.index.slots(),
        })
    }

    /// Walk every segment and every index entry, verifying CRCs and
    /// cross-checking the index against disk. Read-only.
    pub fn verify(&mut self) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        for &id in &self.segment_ids() {
            let mut file = open_reader(&self.dir, id)?;
            let scan = crate::segment::scan_records(&mut file, id)?;
            report.segments += 1;
            report.disk_records += scan.records.len() as u64;
            report.torn_bytes += scan.torn_bytes;
        }
        let mut entries = Vec::with_capacity(self.index.live() as usize);
        self.index.for_each(|rec| entries.push(rec));
        for rec in entries {
            report.index_entries += 1;
            let ok = if rec.segment == self.active.id() {
                self.active.read(rec).is_ok()
            } else {
                match self.readers.get_mut(&rec.segment) {
                    Some(file) => read_record(file, rec).is_ok(),
                    None => false,
                }
            };
            if !ok {
                report.index_dangling += 1;
            }
        }
        Ok(report)
    }

    /// Rewrite every live record into fresh segments and drop the old
    /// files, reclaiming superseded and evicted space.
    ///
    /// Identical payloads stored under several keys are collapsed to a
    /// single physical record: the first copy is written, later copies
    /// only alias it in the index (byte-compared first, so an FNV
    /// digest collision can never merge distinct blobs). Aliases are an
    /// index-only construct — a post-crash index rebuild rescans the
    /// segments and maps each record to its *stored* key, so aliased
    /// keys degrade to cache misses (and re-fill), never to wrong data.
    pub fn compact(&mut self) -> io::Result<CompactStats> {
        let mut stats = CompactStats {
            bytes_before: self.stat()?.total_bytes,
            ..CompactStats::default()
        };
        let old_ids = self.segment_ids();
        let mut live: Vec<RecordRef> = Vec::with_capacity(self.index.live() as usize);
        self.index.for_each(|rec| live.push(rec));
        // Oldest-first so compaction preserves relative age across
        // future budget evictions.
        live.sort_by_key(|r| (r.segment, r.offset));

        let mut disk_records = 0u64;
        for &id in &old_ids {
            let mut file = open_reader(&self.dir, id)?;
            disk_records += crate::segment::scan_records(&mut file, id)?.records.len() as u64;
        }

        self.mark_unflushed()?;
        let next_id = old_ids.iter().max().map_or(0, |m| m + 1);
        let mut fresh = Segment::create(&self.dir, next_id)?;
        let mut fresh_readers = HashMap::new();
        let mut moved: Vec<RecordRef> = Vec::with_capacity(live.len());
        // Content digest of every record already rewritten, for the
        // CAS-level dedup: digest -> its fresh location.
        let mut written: HashMap<u64, RecordRef> = HashMap::new();
        for rec in live {
            let payload = if rec.segment == self.active.id() {
                self.active.read(rec)
            } else {
                match self.readers.get_mut(&rec.segment) {
                    Some(file) => read_record(file, rec),
                    None => continue,
                }
            };
            let Ok(payload) = payload else {
                self.counters.crc_drops += 1;
                continue;
            };
            let mut digest = Fnv64::new();
            digest.write(&payload);
            let digest = digest.finish();
            if let Some(&shared) = written.get(&digest) {
                // Byte-compare before aliasing: a digest collision must
                // fall through to a normal append, never merge.
                let shared_payload = if shared.segment == fresh.id() {
                    fresh.read(shared).ok()
                } else {
                    fresh_readers
                        .get_mut(&shared.segment)
                        .and_then(|f| read_record(f, shared).ok())
                };
                if shared_payload.as_deref() == Some(&payload[..]) {
                    moved.push(RecordRef {
                        key: rec.key,
                        ..shared
                    });
                    stats.kept_records += 1;
                    stats.deduped_records += 1;
                    stats.deduped_bytes += REC_HEADER_LEN + payload.len() as u64;
                    continue;
                }
            }
            if fresh.len() + REC_HEADER_LEN + payload.len() as u64 > self.config.segment_bytes
                && !fresh.is_empty()
            {
                fresh.sync()?;
                fresh_readers.insert(fresh.id(), open_reader(&self.dir, fresh.id())?);
                let id = fresh.id() + 1;
                fresh = Segment::create(&self.dir, id)?;
            }
            let new_rec = fresh.append(rec.key, &payload)?;
            written.entry(digest).or_insert(new_rec);
            moved.push(new_rec);
            stats.kept_records += 1;
        }
        fresh.sync()?;
        stats.dropped_records = disk_records - stats.kept_records;
        self.counters.evicted += stats.dropped_records;

        // Point the index at the fresh copies, then drop the old files.
        for rec in moved {
            self.index.insert(rec)?;
        }
        self.readers = fresh_readers;
        self.active = fresh;
        for &id in &old_ids {
            let _ = std::fs::remove_file(self.dir.join(crate::segment::segment_file_name(id)));
        }
        self.flush()?;
        stats.bytes_after = self.stat()?.total_bytes;
        Ok(stats)
    }

    /// Segment ids currently part of the store, ascending.
    fn segment_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.readers.keys().copied().collect();
        ids.push(self.active.id());
        ids.sort_unstable();
        ids
    }

    /// Seal the active segment, open a successor, and enforce budget.
    fn rotate(&mut self) -> io::Result<()> {
        self.active.sync()?;
        let old_id = self.active.id();
        let new_id = old_id + 1;
        self.readers.insert(old_id, open_reader(&self.dir, old_id)?);
        self.active = Segment::create(&self.dir, new_id)?;
        self.enforce_budget()?;
        Ok(())
    }

    /// Drop oldest sealed segments until the store fits its budget.
    fn enforce_budget(&mut self) -> io::Result<()> {
        loop {
            let ids = self.segment_ids();
            let mut total = 0u64;
            for &id in &ids {
                total +=
                    std::fs::metadata(self.dir.join(crate::segment::segment_file_name(id)))?.len();
            }
            if total <= self.config.budget_bytes || ids.len() <= 1 {
                return Ok(());
            }
            let oldest = ids[0];
            if oldest == self.active.id() {
                return Ok(());
            }
            // Tombstone every index entry that lives in the segment.
            let mut doomed = Vec::new();
            self.index.for_each(|rec| {
                if rec.segment == oldest {
                    doomed.push(rec.key);
                }
            });
            for key in doomed {
                self.index.remove(key);
                self.counters.evicted += 1;
            }
            self.readers.remove(&oldest);
            std::fs::remove_file(self.dir.join(crate::segment::segment_file_name(oldest)))?;
        }
    }

    fn mark_unflushed(&mut self) -> io::Result<()> {
        if !self.unflushed {
            self.index.set_dirty(true)?;
            self.unflushed = true;
        }
        Ok(())
    }

    /// Drop the store *without* the clean flush, leaving the on-disk
    /// dirty flag set — exactly the state a killed process leaves
    /// behind. For crash-recovery testing; the directory lock is still
    /// released so the store can be reopened.
    pub fn abandon(mut self) {
        self.unflushed = false;
    }
}

impl Drop for CacheStore {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// FNV-64 fingerprint of the segment set: sorted (id, file length)
/// pairs. Any append, rotation, eviction, or torn tail changes it.
fn seg_state_of(dir: &Path, seg_ids: &[u64]) -> io::Result<u64> {
    let mut h = Fnv64::new();
    for &id in seg_ids {
        let len = std::fs::metadata(dir.join(crate::segment::segment_file_name(id)))?.len();
        h.write_u64(id);
        h.write_u64(len);
    }
    Ok(h.finish())
}

/// Enumerate segment ids in `dir`, ascending.
fn list_segment_ids(dir: &Path) -> io::Result<Vec<u64>> {
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(id) = parse_segment_file_name(name) {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

fn open_reader(dir: &Path, id: u64) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.join(crate::segment::segment_file_name(id)))
}

/// Full rebuild: scan every segment (truncating torn tails), then
/// construct a fresh index over the surviving records. Later records
/// supersede earlier ones for the same key, matching append order.
#[allow(clippy::type_complexity)]
fn rebuild(
    dir: &Path,
    seg_ids: &[u64],
    counters: &mut StoreCounters,
) -> io::Result<(Index, Segment, HashMap<u64, File>)> {
    let mut all: Vec<RecordRef> = Vec::new();
    let active_id = *seg_ids.last().unwrap_or(&0);
    let mut active = None;
    let mut readers = HashMap::new();
    for &id in seg_ids {
        let (seg, scan) = Segment::open(dir, id)?;
        counters.torn_bytes += scan.torn_bytes;
        all.extend(scan.records);
        if id == active_id {
            active = Some(seg);
        } else {
            drop(seg);
            readers.insert(id, open_reader(dir, id)?);
        }
    }
    let active = active
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "store has no active segment"))?;
    let mut index = Index::create(dir, (all.len() as u64).saturating_mul(2).max(64))?;
    for rec in all {
        index.insert(rec)?;
    }
    index.set_seg_state(seg_state_of(dir, seg_ids)?);
    index.set_dirty(false)?;
    index.sync()?;
    Ok((index, active, readers))
}

/// Take the directory's advisory lock, failing fast if another process
/// holds it. The lock releases automatically when the process dies.
fn acquire_dir_lock(dir: &Path) -> io::Result<File> {
    let lock = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(dir.join("lock"))?;
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        // SAFETY: plain syscall on an fd we own.
        let rc = unsafe { sys::flock(lock.as_raw_fd(), sys::LOCK_EX | sys::LOCK_NB) };
        if rc != 0 {
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                format!(
                    "cache store at {} is locked by another process",
                    dir.display()
                ),
            ));
        }
    }
    Ok(lock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir;

    fn small_config() -> StoreConfig {
        StoreConfig {
            budget_bytes: 4096,
            segment_bytes: 512,
        }
    }

    #[test]
    fn put_get_roundtrip_and_counters() {
        let dir = temp_dir("rt");
        let mut store = CacheStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.get(1), None);
        store.put(1, b"hello").unwrap();
        store.put(2, b"world").unwrap();
        assert_eq!(store.get(1).as_deref(), Some(&b"hello"[..]));
        assert_eq!(store.get(2).as_deref(), Some(&b"world"[..]));
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.fills), (2, 1, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_reopen_without_rebuild() {
        let dir = temp_dir("warm");
        {
            let mut store = CacheStore::open(&dir, StoreConfig::default()).unwrap();
            for k in 0..50u64 {
                store.put(k, format!("payload-{k}").as_bytes()).unwrap();
            }
            store.flush().unwrap();
        }
        let mut store = CacheStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(
            store.counters().rebuilds,
            0,
            "clean reopen must trust the index"
        );
        for k in 0..50u64 {
            assert_eq!(store.get(k), Some(format!("payload-{k}").into_bytes()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dirty_index_forces_rebuild_and_recovers_everything() {
        let dir = temp_dir("dirty");
        {
            let mut store = CacheStore::open(&dir, StoreConfig::default()).unwrap();
            for k in 0..20u64 {
                store.put(k, b"v").unwrap();
            }
            store.active.sync().unwrap();
            store.abandon(); // crash: dirty flag stays set on disk
        }
        let mut store = CacheStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.counters().rebuilds, 1);
        for k in 0..20u64 {
            assert_eq!(store.get(k).as_deref(), Some(&b"v"[..]));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newer_put_supersedes_older() {
        let dir = temp_dir("supersede");
        let mut store = CacheStore::open(&dir, StoreConfig::default()).unwrap();
        store.put(9, b"old").unwrap();
        store.put(9, b"new").unwrap();
        assert_eq!(store.get(9).as_deref(), Some(&b"new"[..]));
        // Still true after a rebuild (append order must win).
        store.active.sync().unwrap();
        store.abandon();
        let mut store = CacheStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.get(9).as_deref(), Some(&b"new"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_budget_evict_oldest() {
        let dir = temp_dir("budget");
        let mut store = CacheStore::open(&dir, small_config()).unwrap();
        let blob = vec![0xAAu8; 100];
        for k in 0..200u64 {
            store.put(k, &blob).unwrap();
        }
        let stat = store.stat().unwrap();
        assert!(
            stat.total_bytes <= small_config().budget_bytes + small_config().segment_bytes,
            "budget not enforced: {} bytes on disk",
            stat.total_bytes
        );
        assert!(store.counters().evicted > 0);
        // Newest keys survive; oldest were dropped with their segments.
        assert!(store.get(199).is_some());
        assert!(store.get(0).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_clean_store() {
        let dir = temp_dir("verify");
        let mut store = CacheStore::open(&dir, StoreConfig::default()).unwrap();
        for k in 0..10u64 {
            store.put(k, b"payload").unwrap();
        }
        store.flush().unwrap();
        let report = store.verify().unwrap();
        assert!(report.ok(), "{report:?}");
        assert_eq!(report.index_entries, 10);
        assert_eq!(report.disk_records, 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_reclaims_superseded_space() {
        let dir = temp_dir("compact");
        let mut store = CacheStore::open(&dir, StoreConfig::default()).unwrap();
        for _ in 0..20 {
            store.put(1, &[0xBB; 200]).unwrap();
        }
        store.put(2, b"keep-me").unwrap();
        store.flush().unwrap();
        let before = store.stat().unwrap().total_bytes;
        let stats = store.compact().unwrap();
        assert_eq!(stats.kept_records, 2);
        assert!(stats.dropped_records >= 19);
        assert!(stats.bytes_after < before);
        assert_eq!(store.get(1).as_deref(), Some(&vec![0xBB; 200][..]));
        assert_eq!(store.get(2).as_deref(), Some(&b"keep-me"[..]));
        assert!(store.verify().unwrap().ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_deduplicates_identical_payloads() {
        let dir = temp_dir("dedup");
        let blob = vec![0xCD; 300];
        {
            let mut store = CacheStore::open(&dir, StoreConfig::default()).unwrap();
            for k in 0..10u64 {
                store.put(k, &blob).unwrap();
            }
            store.put(99, b"unique").unwrap();
            store.flush().unwrap();
            let before = store.stat().unwrap().total_bytes;

            let stats = store.compact().unwrap();
            assert_eq!(stats.kept_records, 11, "{stats:?}");
            assert_eq!(
                stats.deduped_records, 9,
                "ten identical blobs collapse onto one record: {stats:?}"
            );
            assert!(stats.deduped_bytes >= 9 * 300, "{stats:?}");
            assert!(
                stats.bytes_after + stats.deduped_bytes <= before,
                "dedup must actually save bytes: {stats:?}"
            );

            // Every key still resolves to its exact payload.
            for k in 0..10u64 {
                assert_eq!(store.get(k).as_deref(), Some(&blob[..]));
            }
            assert_eq!(store.get(99).as_deref(), Some(&b"unique"[..]));
            assert!(store.verify().unwrap().ok());
            store.flush().unwrap();
        }

        // Aliases live in the index: a clean reopen (trusted index)
        // keeps serving every key.
        let mut store = CacheStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.counters().rebuilds, 0);
        for k in 0..10u64 {
            assert_eq!(store.get(k).as_deref(), Some(&blob[..]));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuild_after_dedup_degrades_aliases_to_misses_not_corruption() {
        // A post-crash rescan maps each physical record to its stored
        // key: the canonical key survives, aliased keys miss (and would
        // simply re-fill). Nothing may ever resolve to wrong bytes.
        let dir = temp_dir("dedup-rebuild");
        let mut store = CacheStore::open(&dir, StoreConfig::default()).unwrap();
        store.put(1, b"shared-bytes").unwrap();
        store.put(2, b"shared-bytes").unwrap();
        store.flush().unwrap();
        let stats = store.compact().unwrap();
        assert_eq!(stats.deduped_records, 1);
        // Compaction flushes clean; dirty the store again so the next
        // open must rebuild, then "crash" without flushing.
        store.put(3, b"other").unwrap();
        store.active.sync().unwrap();
        store.abandon();

        let mut store = CacheStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.counters().rebuilds, 1);
        // Key 1 owns the physical record; key 2 was an alias and is now
        // a plain miss.
        assert_eq!(store.get(1).as_deref(), Some(&b"shared-bytes"[..]));
        assert_eq!(store.get(2), None);
        // Re-filling the lost alias works as usual.
        store.put(2, b"shared-bytes").unwrap();
        assert_eq!(store.get(2).as_deref(), Some(&b"shared-bytes"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn second_writer_is_locked_out() {
        let dir = temp_dir("lock");
        let store = CacheStore::open(&dir, StoreConfig::default()).unwrap();
        let second = CacheStore::open(&dir, StoreConfig::default());
        assert!(second.is_err(), "flock must reject a concurrent writer");
        drop(store);
        assert!(CacheStore::open(&dir, StoreConfig::default()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_payload_is_rejected_not_written() {
        let dir = temp_dir("oversize");
        let mut store = CacheStore::open(&dir, StoreConfig::default()).unwrap();
        let too_big = vec![0u8; crate::segment::MAX_PAYLOAD as usize + 1];
        assert!(store.put(7, &too_big).is_err());
        assert_eq!(store.get(7), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
