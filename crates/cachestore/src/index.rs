//! Memory-mapped open-addressing index: FNV-64 key → record location.
//!
//! The index is a linear-probing hash table persisted in a single file
//! (`index.spx`) and accessed through [`MmapFile`], so lookups after a
//! warm open touch no heap and deserialize nothing. It is a *cache* of
//! the segments' contents, never the source of truth: a `dirty` flag is
//! set while the store holds it open for writing and cleared on clean
//! flush, and a `seg_state` hash fingerprints the segment set it was
//! built from. If either check fails at open, the store throws the
//! index away and rebuilds it by rescanning segments — which is also
//! the crash-recovery path, so torn index writes can never serve stale
//! or corrupt locations.
//!
//! Layout (little-endian):
//!
//! ```text
//! header (64 bytes):
//!   0  magic "SIDX"      4  version u32      8  slot count u64
//!   16 live count u64    24 used count u64   32 dirty u32
//!   40 seg_state u64     48 reserved
//! slot i at 64 + 32*i (32 bytes):
//!   0  state u32 (0 empty · 1 live · 2 tombstone)
//!   4  segment u32       8  key u64          16 offset u64
//!   24 payload len u32   28 reserved
//! ```

use crate::mmap::MmapFile;
use crate::segment::RecordRef;
use std::fs::OpenOptions;
use std::io;
use std::path::{Path, PathBuf};

const IDX_MAGIC: [u8; 4] = *b"SIDX";
const IDX_VERSION: u32 = 1;
const HEADER_LEN: usize = 64;
const SLOT_LEN: usize = 32;
/// Smallest table we ever allocate.
const MIN_SLOTS: u64 = 64;

const OFF_SLOTS: usize = 8;
const OFF_LIVE: usize = 16;
const OFF_USED: usize = 24;
const OFF_DIRTY: usize = 32;
const OFF_SEG_STATE: usize = 40;

const STATE_EMPTY: u32 = 0;
const STATE_LIVE: u32 = 1;
const STATE_TOMB: u32 = 2;

/// File name of the index within a store directory.
pub const INDEX_FILE: &str = "index.spx";

/// The persistent hash table.
pub struct Index {
    map: MmapFile,
    path: PathBuf,
    slots: u64,
    mask: u64,
}

/// Fibonacci-mix the (already FNV-hashed) key so sequential-ish keys
/// still spread across the table.
fn spread(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Index {
    /// Create a fresh, empty index sized for at least `min_slots`
    /// entries, replacing any existing file atomically.
    pub fn create(dir: &Path, min_slots: u64) -> io::Result<Index> {
        let slots = min_slots.max(MIN_SLOTS).next_power_of_two();
        let path = dir.join(INDEX_FILE);
        let tmp = dir.join(format!("{INDEX_FILE}.tmp"));
        let size = HEADER_LEN as u64 + slots * SLOT_LEN as u64;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.set_len(size)?;
        let mut map = MmapFile::map(file, size as usize)?;
        map.bytes_mut()[0..4].copy_from_slice(&IDX_MAGIC);
        map.write_u32(4, IDX_VERSION);
        map.write_u64(OFF_SLOTS, slots);
        map.write_u64(OFF_LIVE, 0);
        map.write_u64(OFF_USED, 0);
        map.write_u32(OFF_DIRTY, 0);
        map.write_u64(OFF_SEG_STATE, 0);
        map.sync()?;
        drop(map);
        std::fs::rename(&tmp, &path)?;
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let map = MmapFile::map(file, size as usize)?;
        Ok(Index {
            map,
            path,
            slots,
            mask: slots - 1,
        })
    }

    /// Map an existing index file, validating its shape. Returns an
    /// error for any structural problem (missing, bad magic, size
    /// mismatch) — the caller treats every error as "rebuild".
    pub fn open(dir: &Path) -> io::Result<Index> {
        let path = dir.join(INDEX_FILE);
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN as u64 {
            return Err(bad("index file shorter than its header"));
        }
        let map = MmapFile::map(file, file_len as usize)?;
        if map.bytes()[0..4] != IDX_MAGIC {
            return Err(bad("index magic mismatch"));
        }
        if map.read_u32(4) != IDX_VERSION {
            return Err(bad("unsupported index format version"));
        }
        let slots = map.read_u64(OFF_SLOTS);
        if slots < MIN_SLOTS || !slots.is_power_of_two() {
            return Err(bad("implausible index slot count"));
        }
        let want = HEADER_LEN as u64 + slots * SLOT_LEN as u64;
        if file_len != want {
            return Err(bad("index size does not match its slot count"));
        }
        Ok(Index {
            map,
            path,
            slots,
            mask: slots - 1,
        })
    }

    /// True if the last writer did not flush cleanly (crash evidence).
    pub fn dirty(&self) -> bool {
        self.map.read_u32(OFF_DIRTY) != 0
    }

    /// Mark the index open-for-write (`true`) or cleanly flushed
    /// (`false`), persisting the flag immediately.
    pub fn set_dirty(&mut self, dirty: bool) -> io::Result<()> {
        self.map.write_u32(OFF_DIRTY, u32::from(dirty));
        self.map.sync()
    }

    /// Fingerprint of the segment set this index was built against.
    pub fn seg_state(&self) -> u64 {
        self.map.read_u64(OFF_SEG_STATE)
    }

    /// Record the segment-set fingerprint.
    pub fn set_seg_state(&mut self, state: u64) {
        self.map.write_u64(OFF_SEG_STATE, state);
    }

    /// Number of live entries.
    pub fn live(&self) -> u64 {
        self.map.read_u64(OFF_LIVE)
    }

    /// Total slot count.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    fn slot_base(&self, i: u64) -> usize {
        HEADER_LEN + (i as usize) * SLOT_LEN
    }

    /// Look up a key.
    pub fn get(&self, key: u64) -> Option<RecordRef> {
        let mut i = spread(key) & self.mask;
        for _ in 0..self.slots {
            let base = self.slot_base(i);
            match self.map.read_u32(base) {
                STATE_EMPTY => return None,
                STATE_LIVE if self.map.read_u64(base + 8) == key => {
                    return Some(RecordRef {
                        key,
                        segment: u64::from(self.map.read_u32(base + 4)),
                        offset: self.map.read_u64(base + 16),
                        len: self.map.read_u32(base + 24),
                    });
                }
                _ => i = (i + 1) & self.mask,
            }
        }
        None
    }

    /// Insert or update a key's location. Grows (rehash into a doubled
    /// table) when live + tombstone occupancy would pass 3/4.
    pub fn insert(&mut self, rec: RecordRef) -> io::Result<()> {
        let used = self.map.read_u64(OFF_USED);
        if (used + 1) * 4 >= self.slots * 3 {
            self.grow()?;
        }
        let mut i = spread(rec.key) & self.mask;
        let mut reuse: Option<u64> = None;
        for _ in 0..self.slots {
            let base = self.slot_base(i);
            match self.map.read_u32(base) {
                STATE_EMPTY => {
                    let target = reuse.unwrap_or(i);
                    let fresh = reuse.is_none();
                    self.write_slot(target, rec);
                    self.map
                        .write_u64(OFF_LIVE, self.map.read_u64(OFF_LIVE) + 1);
                    if fresh {
                        self.map
                            .write_u64(OFF_USED, self.map.read_u64(OFF_USED) + 1);
                    }
                    return Ok(());
                }
                STATE_TOMB => {
                    if reuse.is_none() {
                        reuse = Some(i);
                    }
                    i = (i + 1) & self.mask;
                }
                _ if self.map.read_u64(base + 8) == rec.key => {
                    self.write_slot(i, rec); // in-place update
                    return Ok(());
                }
                _ => i = (i + 1) & self.mask,
            }
        }
        Err(bad("index full despite load-factor guard"))
    }

    /// Tombstone a key. Returns true if it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let mut i = spread(key) & self.mask;
        for _ in 0..self.slots {
            let base = self.slot_base(i);
            match self.map.read_u32(base) {
                STATE_EMPTY => return false,
                STATE_LIVE if self.map.read_u64(base + 8) == key => {
                    self.map.write_u32(base, STATE_TOMB);
                    self.map
                        .write_u64(OFF_LIVE, self.map.read_u64(OFF_LIVE).saturating_sub(1));
                    return true;
                }
                _ => i = (i + 1) & self.mask,
            }
        }
        false
    }

    /// Visit every live entry.
    pub fn for_each(&self, mut f: impl FnMut(RecordRef)) {
        for i in 0..self.slots {
            let base = self.slot_base(i);
            if self.map.read_u32(base) == STATE_LIVE {
                f(RecordRef {
                    key: self.map.read_u64(base + 8),
                    segment: u64::from(self.map.read_u32(base + 4)),
                    offset: self.map.read_u64(base + 16),
                    len: self.map.read_u32(base + 24),
                });
            }
        }
    }

    /// Flush the table to disk.
    pub fn sync(&mut self) -> io::Result<()> {
        self.map.sync()
    }

    fn write_slot(&mut self, i: u64, rec: RecordRef) {
        let base = self.slot_base(i);
        self.map.write_u32(base, STATE_LIVE);
        self.map.write_u32(base + 4, rec.segment as u32);
        self.map.write_u64(base + 8, rec.key);
        self.map.write_u64(base + 16, rec.offset);
        self.map.write_u32(base + 24, rec.len);
    }

    /// Rehash into a doubled table (dropping tombstones), atomically
    /// replacing the on-disk file.
    fn grow(&mut self) -> io::Result<()> {
        let dir = self
            .path
            .parent()
            .ok_or_else(|| bad("index path has no parent"))?
            .to_path_buf();
        let mut entries = Vec::with_capacity(self.live() as usize);
        self.for_each(|rec| entries.push(rec));
        let seg_state = self.seg_state();
        let dirty = self.dirty();
        let mut bigger = Index::create(&dir, self.slots * 2)?;
        for rec in entries {
            bigger.insert(rec)?;
        }
        bigger.set_seg_state(seg_state);
        if dirty {
            bigger.set_dirty(true)?;
        }
        *self = bigger;
        Ok(())
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cachestore: {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir;

    fn rec(key: u64, seg: u64, offset: u64, len: u32) -> RecordRef {
        RecordRef {
            key,
            segment: seg,
            offset,
            len,
        }
    }

    #[test]
    fn insert_get_update_remove() {
        let dir = temp_dir("basic");
        let mut idx = Index::create(&dir, 64).unwrap();
        assert_eq!(idx.get(42), None);
        idx.insert(rec(42, 1, 16, 100)).unwrap();
        assert_eq!(idx.get(42), Some(rec(42, 1, 16, 100)));
        idx.insert(rec(42, 2, 32, 200)).unwrap(); // newer copy wins
        assert_eq!(idx.get(42), Some(rec(42, 2, 32, 200)));
        assert_eq!(idx.live(), 1);
        assert!(idx.remove(42));
        assert!(!idx.remove(42));
        assert_eq!(idx.get(42), None);
        assert_eq!(idx.live(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let mut idx = Index::create(&dir, 64).unwrap();
            for k in 0..40u64 {
                idx.insert(rec(k * 7919, k, k * 16, k as u32)).unwrap();
            }
            idx.set_seg_state(0xABCD);
            idx.set_dirty(false).unwrap();
            idx.sync().unwrap();
        }
        let idx = Index::open(&dir).unwrap();
        assert!(!idx.dirty());
        assert_eq!(idx.seg_state(), 0xABCD);
        assert_eq!(idx.live(), 40);
        for k in 0..40u64 {
            assert_eq!(idx.get(k * 7919), Some(rec(k * 7919, k, k * 16, k as u32)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let dir = temp_dir("grow");
        let mut idx = Index::create(&dir, 64).unwrap();
        let n = 500u64;
        for k in 0..n {
            idx.insert(rec(k.wrapping_mul(0x1234_5678_9ABC), k, k, 1))
                .unwrap();
        }
        assert_eq!(idx.live(), n);
        assert!(idx.slots() >= n);
        for k in 0..n {
            let key = k.wrapping_mul(0x1234_5678_9ABC);
            assert_eq!(idx.get(key).map(|r| r.segment), Some(k));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstones_keep_probe_chains_intact() {
        let dir = temp_dir("tomb");
        let mut idx = Index::create(&dir, 64).unwrap();
        // Insert colliding-ish keys, remove one in the middle of the
        // chain, and confirm later keys are still reachable.
        let keys: Vec<u64> = (0..20).map(|k| k * 64 + 5).collect();
        for &k in &keys {
            idx.insert(rec(k, 0, k, 1)).unwrap();
        }
        idx.remove(keys[3]);
        for &k in &keys {
            if k == keys[3] {
                assert_eq!(idx.get(k), None);
            } else {
                assert!(idx.get(k).is_some(), "key {k} lost after tombstone");
            }
        }
        // A reinsert reuses the tombstone.
        idx.insert(rec(keys[3], 1, 99, 2)).unwrap();
        assert_eq!(idx.get(keys[3]).map(|r| r.offset), Some(99));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dirty_flag_roundtrips() {
        let dir = temp_dir("dirty");
        {
            let mut idx = Index::create(&dir, 64).unwrap();
            idx.set_dirty(true).unwrap();
        }
        let idx = Index::open(&dir).unwrap();
        assert!(idx.dirty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let dir = temp_dir("trunc");
        {
            let _ = Index::create(&dir, 64).unwrap();
        }
        let path = dir.join(INDEX_FILE);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(100).unwrap();
        drop(f);
        assert!(Index::open(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
