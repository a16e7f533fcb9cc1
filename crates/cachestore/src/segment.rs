//! Append-only segment files.
//!
//! A segment is the store's unit of durability and rotation. On-disk
//! layout (all integers little-endian):
//!
//! ```text
//! file header  (16 bytes): magic "SSEG" · format version u32 · segment id u64
//! record       (20 + len): magic "SREC" · key u64 · len u32 · crc u32 · payload
//! ```
//!
//! The CRC-32 covers `key || len || payload`, so a torn header is caught
//! as reliably as a torn payload. Records are only ever appended; a
//! crash mid-append leaves a torn tail that [`Segment::scan`] detects
//! and reports so the store can truncate it — everything before the tear
//! is intact by construction.

use crate::crc::Crc32;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Segment file magic, first 4 bytes of every segment.
pub const SEG_MAGIC: [u8; 4] = *b"SSEG";
/// Record magic, first 4 bytes of every record.
pub const REC_MAGIC: [u8; 4] = *b"SREC";
/// On-disk format version.
pub const SEG_VERSION: u32 = 1;
/// Segment file header size in bytes.
pub const SEG_HEADER_LEN: u64 = 16;
/// Record header size in bytes (magic + key + len + crc).
pub const REC_HEADER_LEN: u64 = 20;
/// Hard cap on a single record payload (matches the wire protocol's
/// 16 MiB frame limit so any cacheable blob is also storable).
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// File name for segment `id`.
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:012}.spc")
}

/// Parse a segment id back out of a file name, if it is one of ours.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".spc")?;
    if rest.len() != 12 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Location of one live record inside a segment, as discovered by scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef {
    /// Content key of the record.
    pub key: u64,
    /// Segment the record lives in.
    pub segment: u64,
    /// Byte offset of the record header within the segment file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
}

/// Outcome of scanning a segment from disk.
#[derive(Debug)]
pub struct ScanResult {
    /// Every intact record, in append order.
    pub records: Vec<RecordRef>,
    /// Offset of the first byte past the last intact record. Anything
    /// beyond this is a torn tail.
    pub clean_len: u64,
    /// Bytes of torn tail discarded (0 when the segment is clean).
    pub torn_bytes: u64,
}

/// An open segment file. Writers append; readers fetch by offset.
pub struct Segment {
    id: u64,
    path: PathBuf,
    file: File,
    /// Current append offset == logical length of intact data.
    len: u64,
}

impl Segment {
    /// Create a fresh segment file, failing if it already exists.
    pub fn create(dir: &Path, id: u64) -> io::Result<Segment> {
        let path = dir.join(segment_file_name(id));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        let mut header = [0u8; SEG_HEADER_LEN as usize];
        header[0..4].copy_from_slice(&SEG_MAGIC);
        header[4..8].copy_from_slice(&SEG_VERSION.to_le_bytes());
        header[8..16].copy_from_slice(&id.to_le_bytes());
        file.write_all(&header)?;
        file.sync_data()?;
        Ok(Segment {
            id,
            path,
            file,
            len: SEG_HEADER_LEN,
        })
    }

    /// Open an existing segment, scan it for intact records, and
    /// truncate any torn tail so subsequent appends are clean.
    pub fn open(dir: &Path, id: u64) -> io::Result<(Segment, ScanResult)> {
        let path = dir.join(segment_file_name(id));
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let scan = scan_records(&mut file, id)?;
        if scan.torn_bytes > 0 {
            file.set_len(scan.clean_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(scan.clean_len))?;
        Ok((
            Segment {
                id,
                path,
                file,
                len: scan.clean_len,
            },
            scan,
        ))
    }

    /// Segment id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Logical length in bytes (header + intact records).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.len <= SEG_HEADER_LEN
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record; returns its location. The write is buffered
    /// into one `write_all` so a crash tears at most this record.
    pub fn append(&mut self, key: u64, payload: &[u8]) -> io::Result<RecordRef> {
        if payload.len() > MAX_PAYLOAD as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("payload of {} bytes exceeds record cap", payload.len()),
            ));
        }
        let len = payload.len() as u32;
        let mut crc = Crc32::new();
        crc.update(&key.to_le_bytes())
            .update(&len.to_le_bytes())
            .update(payload);
        let mut buf = Vec::with_capacity(REC_HEADER_LEN as usize + payload.len());
        buf.extend_from_slice(&REC_MAGIC);
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&crc.finish().to_le_bytes());
        buf.extend_from_slice(payload);
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(&buf)?;
        let offset = self.len;
        self.len += buf.len() as u64;
        Ok(RecordRef {
            key,
            segment: self.id,
            offset,
            len,
        })
    }

    /// Read back the payload of a record previously located by scan or
    /// append, re-verifying its CRC.
    pub fn read(&mut self, rec: RecordRef) -> io::Result<Vec<u8>> {
        read_record(&mut self.file, rec)
    }

    /// Flush appended records to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Read and CRC-verify one record from an open segment file.
///
/// The CRC is computed over the key *stored in the record header*, not
/// `rec.key`: compaction deduplicates identical payloads by aliasing
/// several index keys to one physical record, so the index key and the
/// stored key may legitimately differ. Only the payload length must
/// agree with the index entry.
pub fn read_record(file: &mut File, rec: RecordRef) -> io::Result<Vec<u8>> {
    let mut header = [0u8; REC_HEADER_LEN as usize];
    file.seek(SeekFrom::Start(rec.offset))?;
    file.read_exact(&mut header)?;
    if header[0..4] != REC_MAGIC {
        return Err(corrupt("record magic mismatch"));
    }
    let key = u64::from_le_bytes(header[4..12].try_into().unwrap_or_default());
    let len = u32::from_le_bytes(header[12..16].try_into().unwrap_or_default());
    let want_crc = u32::from_le_bytes(header[16..20].try_into().unwrap_or_default());
    if len != rec.len {
        return Err(corrupt("record length does not match index entry"));
    }
    let mut payload = vec![0u8; len as usize];
    file.read_exact(&mut payload)?;
    let mut crc = Crc32::new();
    crc.update(&key.to_le_bytes())
        .update(&len.to_le_bytes())
        .update(&payload);
    if crc.finish() != want_crc {
        return Err(corrupt("record CRC mismatch"));
    }
    Ok(payload)
}

/// Scan a segment file from the start, validating the header and every
/// record CRC. Stops at the first torn or corrupt record; everything
/// before it is reported intact.
pub fn scan_records(file: &mut File, expect_id: u64) -> io::Result<ScanResult> {
    let file_len = file.metadata()?.len();
    file.seek(SeekFrom::Start(0))?;
    let mut reader = BufReader::new(&mut *file);

    let mut header = [0u8; SEG_HEADER_LEN as usize];
    if file_len < SEG_HEADER_LEN {
        return Err(corrupt("segment shorter than its header"));
    }
    reader.read_exact(&mut header)?;
    if header[0..4] != SEG_MAGIC {
        return Err(corrupt("segment magic mismatch"));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap_or_default());
    if version != SEG_VERSION {
        return Err(corrupt("unsupported segment format version"));
    }
    let id = u64::from_le_bytes(header[8..16].try_into().unwrap_or_default());
    if id != expect_id {
        return Err(corrupt("segment id does not match file name"));
    }

    let mut records = Vec::new();
    let mut offset = SEG_HEADER_LEN;
    let mut payload = Vec::new();
    loop {
        if offset == file_len {
            break;
        }
        if file_len - offset < REC_HEADER_LEN {
            break; // torn header
        }
        let mut rec_header = [0u8; REC_HEADER_LEN as usize];
        reader.read_exact(&mut rec_header)?;
        if rec_header[0..4] != REC_MAGIC {
            break; // corrupt or torn magic
        }
        let key = u64::from_le_bytes(rec_header[4..12].try_into().unwrap_or_default());
        let len = u32::from_le_bytes(rec_header[12..16].try_into().unwrap_or_default());
        let want_crc = u32::from_le_bytes(rec_header[16..20].try_into().unwrap_or_default());
        if len > MAX_PAYLOAD || u64::from(len) > file_len - offset - REC_HEADER_LEN {
            break; // implausible or torn length
        }
        payload.clear();
        payload.resize(len as usize, 0);
        reader.read_exact(&mut payload)?;
        let mut crc = Crc32::new();
        crc.update(&key.to_le_bytes())
            .update(&len.to_le_bytes())
            .update(&payload);
        if crc.finish() != want_crc {
            break; // bit rot or torn payload
        }
        records.push(RecordRef {
            key,
            segment: expect_id,
            offset,
            len,
        });
        offset += REC_HEADER_LEN + u64::from(len);
    }
    Ok(ScanResult {
        records,
        clean_len: offset,
        torn_bytes: file_len - offset,
    })
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cachestore: {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir;

    #[test]
    fn append_read_roundtrip() {
        let dir = temp_dir("rt");
        let mut seg = Segment::create(&dir, 7).unwrap();
        let a = seg.append(11, b"alpha").unwrap();
        let b = seg.append(22, b"beta-beta").unwrap();
        assert_eq!(seg.read(a).unwrap(), b"alpha");
        assert_eq!(seg.read(b).unwrap(), b"beta-beta");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_recovers_all_clean_records() {
        let dir = temp_dir("reopen");
        {
            let mut seg = Segment::create(&dir, 3).unwrap();
            seg.append(1, b"one").unwrap();
            seg.append(2, b"two").unwrap();
            seg.sync().unwrap();
        }
        let (mut seg, scan) = Segment::open(&dir, 3).unwrap();
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(seg.read(scan.records[1]).unwrap(), b"two");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let dir = temp_dir("torn");
        let path;
        {
            let mut seg = Segment::create(&dir, 1).unwrap();
            seg.append(1, b"intact-record").unwrap();
            seg.append(2, b"doomed-record").unwrap();
            seg.sync().unwrap();
            path = seg.path().to_path_buf();
        }
        // Tear the last record mid-payload, as a crash during append would.
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);

        let (mut seg, scan) = Segment::open(&dir, 1).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_bytes > 0);
        assert_eq!(seg.read(scan.records[0]).unwrap(), b"intact-record");
        // The file itself was truncated back to the clean prefix.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), scan.clean_len);
        // And appends after recovery work.
        let r = seg.append(3, b"post-recovery").unwrap();
        assert_eq!(seg.read(r).unwrap(), b"post-recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_payload_drops_only_the_tail() {
        let dir = temp_dir("flip");
        let path;
        let second_offset;
        {
            let mut seg = Segment::create(&dir, 9).unwrap();
            seg.append(1, b"first").unwrap();
            second_offset = seg.len();
            seg.append(2, b"second").unwrap();
            seg.sync().unwrap();
            path = seg.path().to_path_buf();
        }
        // Flip one payload byte in the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = (second_offset + REC_HEADER_LEN) as usize;
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let (_seg, scan) = Segment::open(&dir, 9).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].key, 1);
        assert!(scan.torn_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_name_roundtrip() {
        assert_eq!(segment_file_name(42), "seg-000000000042.spc");
        assert_eq!(parse_segment_file_name("seg-000000000042.spc"), Some(42));
        assert_eq!(parse_segment_file_name("seg-xyz.spc"), None);
        assert_eq!(parse_segment_file_name("index.spx"), None);
    }
}
