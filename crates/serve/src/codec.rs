//! Binary codec for persisted cache records.
//!
//! The disk cache tier carries opaque byte blobs; this module
//! defines what's inside them. Three record kinds share a 6-byte header
//! (`magic "SPCV" · format version · kind`):
//!
//! * **function records** — one [`FunctionOutput`]: the function's
//!   printed C, its naming stats, `goto` count and fidelity tier, keyed
//!   by [`crate::scheduler::function_cache_key`];
//! * **module records** — a whole job's answer: the printed translation
//!   unit, naming stats, region reports, `goto` count and the
//!   [`ModuleCounts`] the job reported, keyed by
//!   [`crate::scheduler::module_cache_key`]. These are what make warm
//!   restarts fast: a hit answers a `Text` job before the module is even
//!   parsed, skipping parse + detransform entirely;
//! * **certificate records** — one validation
//!   [`Certificate`](crate::validate::Certificate), keyed by
//!   [`crate::validate::cert_cache_key`].
//!
//! Records hold the C as text, never as a syntax tree: text is what every
//! reader serves, so decoding is a bounds check and a UTF-8 check.
//!
//! The encoding is hand-rolled little-endian (the workspace is
//! dependency-free by design) and *versioned*: any header mismatch, or
//! any structural surprise while decoding, yields `Err` — which every
//! caller treats as a cache miss, never an error. Blobs written by
//! another format version simply miss and are rewritten. Every length is
//! checked against the bytes actually left before anything is allocated,
//! every discriminant is checked, and text must be valid UTF-8, so a
//! corrupted blob cannot decode into out-of-range values.

use splendid_core::detransform::RegionReport;
use splendid_core::{DecompileOutput, FidelityTier, FunctionOutput, NamingStats};

/// Record header magic.
pub const CODEC_MAGIC: [u8; 4] = *b"SPCV";
/// Encoding version; bump on any layout change.
/// v2: `OmpClauses.reduction` pairs + the `OmpSimd` statement tag.
/// v3: functions and modules carry printed C instead of a C AST; module
/// records carry their job's counts.
pub const CODEC_VERSION: u8 = 3;
/// Header kind byte for a function record.
pub const KIND_FUNCTION: u8 = 0x01;
/// Header kind byte for a module record.
pub const KIND_MODULE: u8 = 0x02;
/// Header kind byte for a validation-certificate record.
pub const KIND_CERT: u8 = 0x03;
/// Header length (magic + version + kind).
pub const CODEC_HEADER_LEN: usize = 6;

/// Why a blob failed to decode. Callers treat any value as a miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cache record decode failed: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

type R<T> = Result<T, CodecError>;

fn err<T>(what: &'static str) -> R<T> {
    Err(CodecError(what))
}

/// What a job reported about its functions, stored in its module record
/// so a warm hit reports the same counts as the run that wrote it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleCounts {
    /// Functions in the module.
    pub functions: usize,
    /// Of those, how many were emitted below the requested tier.
    pub degraded: usize,
    /// Functions stamped verified.
    pub verified: usize,
    /// Functions stamped unverified.
    pub unverified: usize,
}

// ---------------------------------------------------------------- writer

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn with_header(kind: u8, text_len: usize) -> Enc {
        let mut buf = Vec::with_capacity(CODEC_HEADER_LEN + text_len + 64);
        buf.extend_from_slice(&CODEC_MAGIC);
        buf.push(CODEC_VERSION);
        buf.push(kind);
        Enc { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.buf.extend_from_slice(&(v as u64).to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn naming(&mut self, n: &NamingStats) {
        self.usize(n.total_vars);
        self.usize(n.restored_vars);
    }

    fn tier(&mut self, t: FidelityTier) {
        self.u8(match t {
            FidelityTier::Natural => 0,
            FidelityTier::Structured => 1,
            FidelityTier::Literal => 2,
            // 3 extends the historical encoding: records written before
            // the Quick tier existed keep decoding unchanged.
            FidelityTier::Quick => 3,
        });
    }
}

// ---------------------------------------------------------------- reader

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn expect_header(buf: &'a [u8], kind: u8) -> R<Dec<'a>> {
        if buf.len() < CODEC_HEADER_LEN {
            return err("blob shorter than header");
        }
        if buf[0..4] != CODEC_MAGIC {
            return err("bad magic");
        }
        if buf[4] != CODEC_VERSION {
            return err("unknown codec version");
        }
        if buf[5] != kind {
            return err("record kind mismatch");
        }
        Ok(Dec {
            buf,
            pos: CODEC_HEADER_LEN,
        })
    }

    /// The next `n` bytes, borrowed: a length larger than what is left
    /// fails here, before any caller allocates for it.
    fn take(&mut self, n: usize) -> R<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return err("truncated blob");
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> R<u8> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> R<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => err("invalid bool"),
        }
    }

    fn u32(&mut self) -> R<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn usize(&mut self) -> R<usize> {
        let b = self.take(8)?;
        let v = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        usize::try_from(v).or(err("usize overflow"))
    }

    fn str(&mut self) -> R<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .or(err("invalid UTF-8"))
    }

    /// A sequence length, bounded by the bytes left (every element
    /// takes at least one).
    fn seq_len(&mut self) -> R<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return err("implausible sequence length");
        }
        Ok(n)
    }

    fn naming(&mut self) -> R<NamingStats> {
        Ok(NamingStats {
            total_vars: self.usize()?,
            restored_vars: self.usize()?,
        })
    }

    fn tier(&mut self) -> R<FidelityTier> {
        Ok(match self.u8()? {
            0 => FidelityTier::Natural,
            1 => FidelityTier::Structured,
            2 => FidelityTier::Literal,
            3 => FidelityTier::Quick,
            _ => return err("invalid fidelity tier"),
        })
    }

    fn finished(&self) -> R<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            err("trailing bytes after record")
        }
    }
}

// ------------------------------------------------------------- records

/// Encode a [`FunctionOutput`] as a function record blob.
pub fn encode_function_record(out: &FunctionOutput) -> Vec<u8> {
    let mut e = Enc::with_header(KIND_FUNCTION, out.text.len());
    e.str(&out.text);
    e.naming(&out.naming);
    e.usize(out.gotos);
    e.tier(out.tier);
    e.buf
}

/// Decode a function record blob. Any failure means "cache miss".
pub fn decode_function_record(blob: &[u8]) -> R<FunctionOutput> {
    let mut d = Dec::expect_header(blob, KIND_FUNCTION)?;
    let out = FunctionOutput {
        text: d.str()?,
        naming: d.naming()?,
        gotos: d.usize()?,
        tier: d.tier()?,
    };
    d.finished()?;
    Ok(out)
}

/// Encode a whole job's [`DecompileOutput`] and counts as a module record
/// blob.
pub fn encode_module_record(out: &DecompileOutput, counts: &ModuleCounts) -> Vec<u8> {
    let mut e = Enc::with_header(KIND_MODULE, out.source.len());
    e.str(&out.source);
    e.naming(&out.naming);
    e.u32(out.regions.len() as u32);
    for r in &out.regions {
        e.str(&r.region_name);
        e.str(&r.caller_name);
        e.usize(r.setup_removed);
    }
    e.usize(out.gotos);
    for n in [
        counts.functions,
        counts.degraded,
        counts.verified,
        counts.unverified,
    ] {
        e.usize(n);
    }
    e.buf
}

/// Decode a module record blob, counts included. Any failure means
/// "cache miss".
pub fn decode_module_record_with_counts(blob: &[u8]) -> R<(DecompileOutput, ModuleCounts)> {
    let mut d = Dec::expect_header(blob, KIND_MODULE)?;
    let source = d.str()?;
    let naming = d.naming()?;
    let n = d.seq_len()?;
    let mut regions = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        regions.push(RegionReport {
            region_name: d.str()?,
            caller_name: d.str()?,
            setup_removed: d.usize()?,
        });
    }
    let output = DecompileOutput {
        source,
        naming,
        regions,
        gotos: d.usize()?,
    };
    let counts = ModuleCounts {
        functions: d.usize()?,
        degraded: d.usize()?,
        verified: d.usize()?,
        unverified: d.usize()?,
    };
    d.finished()?;
    Ok((output, counts))
}

/// Decode a module record blob's output. Any failure means "cache miss".
pub fn decode_module_record(blob: &[u8]) -> R<DecompileOutput> {
    decode_module_record_with_counts(blob).map(|(output, _)| output)
}

/// Encode a validation [`Certificate`](crate::validate::Certificate) as
/// a cert record blob. Certificates are tiny (a few tens of bytes), so
/// they ride the same tiered store as function records and amortize the
/// same way: a warm restart answers `verified` tags from disk without
/// re-running the checker.
pub fn encode_cert_record(cert: &crate::validate::Certificate) -> Vec<u8> {
    let mut e = Enc::with_header(KIND_CERT, cert.reason.len());
    e.u8(u8::from(cert.verified));
    e.tier(cert.tier);
    e.u8(u8::from(cert.mismatch));
    e.str(&cert.reason);
    e.buf
}

/// Decode a cert record blob. Any failure means "cache miss".
pub fn decode_cert_record(blob: &[u8]) -> R<crate::validate::Certificate> {
    let mut d = Dec::expect_header(blob, KIND_CERT)?;
    let cert = crate::validate::Certificate {
        verified: d.bool()?,
        tier: d.tier()?,
        mismatch: d.bool()?,
        reason: d.str()?,
    };
    d.finished()?;
    Ok(cert)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::Certificate;
    use splendid_ir::rng::Rng;

    fn sample_output() -> FunctionOutput {
        FunctionOutput {
            text: "void kernel_2mm(double A[16][18], double alpha) {\n  \
                   /* splendid: degraded to structured tier: x */\n  \
                   A[0][0] = alpha * 0.5;\n}\n"
                .into(),
            naming: NamingStats {
                total_vars: 7,
                restored_vars: 5,
            },
            gotos: 1,
            tier: FidelityTier::Structured,
        }
    }

    fn sample_module() -> (DecompileOutput, ModuleCounts) {
        let out = DecompileOutput {
            source: "double A[4000];\n\nvoid kernel_2mm() {\n  /* splendid: verified */\n}\n"
                .into(),
            naming: NamingStats {
                total_vars: 9,
                restored_vars: 9,
            },
            regions: vec![RegionReport {
                region_name: "region_0".into(),
                caller_name: "kernel_2mm".into(),
                setup_removed: 12,
            }],
            gotos: 0,
        };
        let counts = ModuleCounts {
            functions: 3,
            degraded: 1,
            verified: 2,
            unverified: 1,
        };
        (out, counts)
    }

    fn sample_cert() -> Certificate {
        Certificate {
            verified: false,
            tier: FidelityTier::Structured,
            mismatch: true,
            reason: "probe 1: global A[3]: source 1.0 vs re-lowered 2.0".into(),
        }
    }

    type Decode = fn(&[u8]) -> R<()>;

    /// One blob of every kind, each with the decoder of its own kind.
    fn every_kind() -> Vec<(Vec<u8>, Decode)> {
        let (module, counts) = sample_module();
        vec![
            (encode_function_record(&sample_output()), |b| {
                decode_function_record(b).map(|_| ())
            }),
            (encode_module_record(&module, &counts), |b| {
                decode_module_record_with_counts(b).map(|_| ())
            }),
            (encode_cert_record(&sample_cert()), |b| {
                decode_cert_record(b).map(|_| ())
            }),
        ]
    }

    #[test]
    fn records_roundtrip() {
        let out = sample_output();
        assert_eq!(
            decode_function_record(&encode_function_record(&out)),
            Ok(out)
        );
        let (module, counts) = sample_module();
        let blob = encode_module_record(&module, &counts);
        assert_eq!(decode_module_record(&blob), Ok(module.clone()));
        assert_eq!(
            decode_module_record_with_counts(&blob),
            Ok((module, counts))
        );
        let cert = sample_cert();
        assert_eq!(decode_cert_record(&encode_cert_record(&cert)), Ok(cert));
    }

    #[test]
    fn kind_confusion_is_rejected() {
        let blobs = every_kind();
        for (i, (blob, _)) in blobs.iter().enumerate() {
            for (j, (_, decode)) in blobs.iter().enumerate() {
                assert_eq!(decode(blob).is_ok(), i == j, "blob {i} decoder {j}");
            }
        }
    }

    #[test]
    fn truncated_blobs_are_rejected_at_every_length() {
        for (blob, decode) in every_kind() {
            for n in 0..blob.len() {
                assert!(
                    decode(&blob[..n]).is_err(),
                    "prefix of {n} bytes must not decode"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        for (mut blob, decode) in every_kind() {
            blob.push(0);
            assert!(decode(&blob).is_err());
        }
    }

    #[test]
    fn foreign_version_is_rejected() {
        for (mut blob, decode) in every_kind() {
            // CODEC_VERSION - 1 is what the previous release wrote.
            for version in [CODEC_VERSION - 1, CODEC_VERSION + 1] {
                blob[4] = version;
                assert!(decode(&blob).is_err());
            }
        }
    }

    #[test]
    fn invalid_utf8_text_is_rejected() {
        let mut blob = encode_function_record(&sample_output());
        // The text's first byte follows the header and its u32 length.
        blob[CODEC_HEADER_LEN + 4] = 0xFF;
        assert_eq!(
            decode_function_record(&blob).unwrap_err().0,
            "invalid UTF-8"
        );
    }

    #[test]
    fn mutated_discriminants_never_panic() {
        // Every kind: first every byte set to an implausible value one at
        // a time, then seeded runs of 1–4 random byte overwrites. The
        // decoder must return Err (or a different valid value), never
        // panic or loop.
        for (kind, (blob, decode)) in every_kind().into_iter().enumerate() {
            for i in 0..blob.len() {
                let mut m = blob.clone();
                m[i] = 0xFF;
                let _ = decode(&m);
            }
            let mut rng = Rng::for_case(0xC0DEC, kind as u64);
            for _ in 0..2000 {
                let mut m = blob.clone();
                for _ in 0..1 + rng.below(4) {
                    let at = rng.below(m.len() as u64) as usize;
                    m[at] = rng.next_u64() as u8;
                }
                let _ = decode(&m);
            }
        }
    }
}
