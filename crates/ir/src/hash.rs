//! FNV-1a 64: the one stable content hash of the workspace.
//!
//! `std::collections::hash_map::DefaultHasher` is explicitly unstable
//! across releases, and these digests must not be: they are the symbol
//! table's index hash, the function and module fingerprints, the serve
//! and disk cache keys, the segment-set digest of the cache store, and
//! the seed material of the difftest and validation generators. Every
//! one of them is defined by this module, so a cache directory written
//! by one build warm-restarts under the next.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64 hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    /// Hasher whose state starts at the offset basis XOR `seed`: a keyed
    /// stream (`seeded(0)` is [`Fnv64::new`]).
    pub fn seeded(seed: u64) -> Fnv64 {
        Fnv64(FNV_OFFSET ^ seed)
    }

    /// Absorb raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) -> &mut Fnv64 {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorb a `u64` as its little-endian bytes, e.g. a sub-fingerprint.
    #[inline]
    pub fn write_u64(&mut self, v: u64) -> &mut Fnv64 {
        self.write(&v.to_le_bytes())
    }

    /// Final digest.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a 64 of a byte string.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    Fnv64::new().write(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv64::new();
        h.write(b"foo").write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
        assert_eq!(Fnv64::seeded(0).write(b"foobar").finish(), fnv64(b"foobar"));
    }
}
