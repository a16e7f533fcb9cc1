//! # splendid-cachestore
//!
//! Persistent content-addressed cache store for the SPLENDID
//! reproduction: the disk tier under the serve layer's in-memory LRU.
//!
//! The store maps 64-bit content keys (the serve layer's FNV-64
//! `(fingerprint, options)` hashes) to opaque byte payloads. It knows
//! nothing about decompilation — encoding of `FunctionOutput` /
//! `DecompileOutput` blobs lives in `splendid-serve` — which keeps this
//! crate std-only. Its one dependency is `splendid-ir`, for the shared
//! FNV-64 hash ([`splendid_ir::hash`]).
//!
//! Architecture (see DESIGN.md "Persistent cache & tiering"):
//!
//! * [`segment`] — append-only record files with per-record CRC-32
//!   framing; a crash tears at most the record being appended, and a
//!   scan finds the torn tail deterministically.
//! * [`index`] — a linear-probing hash table memory-mapped from disk
//!   (direct `libc` `mmap` FFI on unix, heap fallback elsewhere). The
//!   index is disposable: a dirty flag plus a segment-set fingerprint
//!   decide at open whether it can be trusted or must be rebuilt by
//!   rescanning segments.
//! * [`store`] — ties the two together with a `flock`-guarded store
//!   directory, size-budgeted segment rotation and oldest-first
//!   eviction, full-store `verify`, and `compact`.
//!
//! ```no_run
//! use splendid_cachestore::{CacheStore, StoreConfig};
//! # fn main() -> std::io::Result<()> {
//! let mut store = CacheStore::open(std::path::Path::new("/tmp/cache"), StoreConfig::default())?;
//! store.put(0xF00D, b"decompiled artifact")?;
//! assert_eq!(store.get(0xF00D).as_deref(), Some(&b"decompiled artifact"[..]));
//! store.flush()?; // mark the index clean for an O(1) warm reopen
//! # Ok(()) }
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod crc;
pub mod index;
pub mod mmap;
pub mod segment;
pub mod store;

pub use crc::crc32;
pub use store::{CacheStore, CompactStats, StoreConfig, StoreCounters, StoreStats, VerifyReport};

/// A fresh, empty directory unique to this test process and call.
#[cfg(test)]
pub(crate) fn temp_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("splendid-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
