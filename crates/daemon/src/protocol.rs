//! The hand-rolled, zero-dependency wire protocol.
//!
//! Every message is one **frame**:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"SPLD"
//!      4     1  protocol version (currently 1)
//!      5     1  frame kind
//!      6     4  payload length, little-endian
//!     10     n  payload
//! ```
//!
//! Integers inside payloads are little-endian; strings are a `u32` byte
//! length followed by UTF-8 bytes. Requests and responses are strictly
//! 1:1 — every request frame produces exactly one response frame (a
//! typed [`Response::Error`] when anything goes wrong).
//!
//! Robustness contract (exercised by the frame-fuzz tests): malformed
//! input NEVER kills the connection or the daemon. The server-side
//! [`FrameAssembler`] is a pull parser over a byte buffer that
//!
//! * **resyncs** after garbage: on a bad magic it reports one desync
//!   event, then scans forward byte-by-byte for the next `b"SPLD"`;
//! * **skips** oversized payloads: a frame declaring more than
//!   [`MAX_PAYLOAD`] bytes is reported and its payload bytes are
//!   discarded as they arrive, without ever buffering them;
//! * treats a bad version or unknown kind as a per-frame error while
//!   keeping the frame boundary intact.

use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SPLD";
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 10;
/// Largest payload a peer may declare (16 MiB). Larger frames are
/// skipped with [`ErrorCode::Oversized`].
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Frame kinds. Requests have the high bit clear, responses set.
pub mod kind {
    /// Open a session: parse a module, fingerprint its functions.
    pub const OPEN: u8 = 0x01;
    /// Replace the session module; dirty-diff against the previous one.
    pub const UPDATE: u8 = 0x02;
    /// Decompile the session module incrementally.
    pub const DECOMPILE: u8 = 0x03;
    /// Request the session-scoped or daemon-wide stats dump.
    pub const STATS: u8 = 0x04;
    /// Close the session (the connection stays usable).
    pub const CLOSE: u8 = 0x05;
    /// Liveness probe.
    pub const PING: u8 = 0x06;
    /// Look up a blob in the daemon's persistent cache tier (peer
    /// tiering: another daemon asks before decompiling itself).
    pub const CACHE_GET: u8 = 0x07;
    /// Offer a blob to the daemon's persistent cache tier.
    pub const CACHE_PUT: u8 = 0x08;
    /// Stateless validated decompilation: decompile the supplied module
    /// with translation validation on, returning per-function verdicts.
    pub const VALIDATE: u8 = 0x09;

    /// Session opened.
    pub const OPENED: u8 = 0x81;
    /// Module replaced; reports the dirty count.
    pub const UPDATED: u8 = 0x82;
    /// Decompilation result.
    pub const RESULT: u8 = 0x83;
    /// Stats dump text.
    pub const STATS_TEXT: u8 = 0x84;
    /// Session closed.
    pub const CLOSED: u8 = 0x85;
    /// Liveness reply.
    pub const PONG: u8 = 0x86;
    /// Cache lookup answer (found flag + blob).
    pub const CACHE_VALUE: u8 = 0x87;
    /// Cache offer answer (stored flag).
    pub const CACHE_STORED: u8 = 0x88;
    /// Validated decompilation result (verdict tallies + source).
    pub const VALIDATED: u8 = 0x89;
    /// The daemon shed the request at admission (overloaded or over
    /// quota); carries a `retry_after_ms` hint. Not an error — the
    /// connection and session both survive.
    pub const BUSY: u8 = 0x8A;
    /// Typed error.
    pub const ERROR: u8 = 0xEE;
}

/// Typed wire error codes carried by ERROR frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Stream desynchronized (bad magic); the server is scanning for the
    /// next frame boundary.
    Desync = 1,
    /// Frame declared an unsupported protocol version.
    BadVersion = 2,
    /// Frame kind is not a known request.
    UnknownKind = 3,
    /// Declared payload length exceeds [`MAX_PAYLOAD`]; payload skipped.
    Oversized = 4,
    /// Payload bytes did not decode as the kind's message shape.
    BadPayload = 5,
    /// UPDATE/DECOMPILE/session-STATS before a successful OPEN.
    NoSession = 6,
    /// Module text did not parse as SPLENDID IR.
    ModuleParse = 7,
    /// The decompilation job failed (the message carries the job error).
    DecompileFailed = 8,
    /// The per-request deadline expired (the pipeline stage it expired in
    /// is named in the message).
    Deadline = 9,
    /// The daemon is draining and refuses new work.
    Draining = 10,
    /// The session sat idle past the eviction timeout.
    IdleTimeout = 11,
    /// CACHE_GET/CACHE_PUT on a daemon that has no persistent cache
    /// tier configured (`--cache-dir`).
    NoCache = 12,
}

impl ErrorCode {
    /// Decode a wire value; unknown values map to `BadPayload`.
    pub fn from_u16(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::Desync,
            2 => ErrorCode::BadVersion,
            3 => ErrorCode::UnknownKind,
            4 => ErrorCode::Oversized,
            6 => ErrorCode::NoSession,
            7 => ErrorCode::ModuleParse,
            8 => ErrorCode::DecompileFailed,
            9 => ErrorCode::Deadline,
            10 => ErrorCode::Draining,
            11 => ErrorCode::IdleTimeout,
            12 => ErrorCode::NoCache,
            _ => ErrorCode::BadPayload,
        }
    }

    /// Stable lowercase label used in stats and logs.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::Desync => "desync",
            ErrorCode::BadVersion => "bad-version",
            ErrorCode::UnknownKind => "unknown-kind",
            ErrorCode::Oversized => "oversized",
            ErrorCode::BadPayload => "bad-payload",
            ErrorCode::NoSession => "no-session",
            ErrorCode::ModuleParse => "module-parse",
            ErrorCode::DecompileFailed => "decompile-failed",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Draining => "draining",
            ErrorCode::IdleTimeout => "idle-timeout",
            ErrorCode::NoCache => "no-cache",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A client request, decoded from a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open (or replace) this connection's session.
    Open {
        /// Caller-chosen module label.
        name: String,
        /// Variant selector: 1 = v1, 2 = portable, 3 = full.
        variant: u8,
        /// Textual SPLENDID IR.
        module_text: String,
    },
    /// Replace the session module.
    Update {
        /// Textual SPLENDID IR of the edited module.
        module_text: String,
    },
    /// Decompile the session module.
    Decompile {
        /// Client budget for this request in milliseconds; 0 means no
        /// budget. Relative rather than absolute so clock skew between
        /// client and daemon cannot distort it; the daemon converts it
        /// to an absolute deadline on arrival and propagates it through
        /// admission, the scheduler, and the cache tiers.
        budget_ms: u32,
    },
    /// Stats dump; `daemon_wide` selects scope.
    Stats {
        /// `true` for the daemon-wide dump, `false` for this session.
        daemon_wide: bool,
    },
    /// Close the session.
    Close,
    /// Liveness probe.
    Ping,
    /// Look up a blob in the persistent cache tier by content key.
    CacheGet {
        /// Content-addressed FNV-64 key.
        key: u64,
    },
    /// Offer an encoded result record to the persistent cache tier.
    CachePut {
        /// Content-addressed FNV-64 key.
        key: u64,
        /// Versioned record bytes (see `splendid_serve::codec`).
        blob: Vec<u8>,
    },
    /// Stateless validated decompilation: no session required, the
    /// module travels with the request.
    Validate {
        /// Caller-chosen module label.
        name: String,
        /// Variant selector: 1 = v1, 2 = portable, 3 = full.
        variant: u8,
        /// Textual SPLENDID IR.
        module_text: String,
    },
}

/// A daemon response, decoded from a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Session opened.
    Opened {
        /// Daemon-wide session id.
        session: u32,
        /// Functions in the parsed module.
        functions: u32,
    },
    /// Module replaced.
    Updated {
        /// Root functions whose span fingerprint changed (or everything,
        /// after a structural change).
        dirty: u32,
        /// Total root functions in the new module text.
        total: u32,
        /// Server time spent span-scanning and hashing the new text.
        fingerprint_nanos: u64,
        /// Server time spent diffing fingerprints and updating session
        /// bookkeeping.
        bookkeeping_nanos: u64,
    },
    /// Decompilation result.
    Result {
        /// Functions in the module.
        functions: u32,
        /// Functions answered from the shared serve cache.
        cached: u32,
        /// Functions emitted below the `Natural` fidelity tier.
        degraded: u32,
        /// Functions that were dirty and re-ran `decompile_function`.
        dirty: u32,
        /// Server-side wall time for this request, microseconds.
        wall_micros: u64,
        /// `true` when the whole request was answered from the session's
        /// last result without touching the scheduler (nothing dirty).
        fast_path: bool,
        /// The decompiled C translation unit.
        source: String,
    },
    /// Stats dump.
    StatsText {
        /// Stable, line-oriented stats text.
        text: String,
    },
    /// Session closed.
    Closed,
    /// Liveness reply.
    Pong,
    /// Cache lookup answer.
    CacheValue {
        /// The record bytes, when the key was present.
        blob: Option<Vec<u8>>,
    },
    /// Cache offer answer.
    CacheStored {
        /// `false` when the daemon rejected the record (e.g. it failed
        /// validation) without treating it as a wire error.
        stored: bool,
    },
    /// The request was shed at admission; the caller should back off.
    Busy {
        /// Suggested backoff before retrying, milliseconds.
        retry_after_ms: u32,
    },
    /// Validated decompilation result.
    Validated {
        /// Functions in the module.
        functions: u32,
        /// Functions whose certificate says `Verified`.
        verified: u32,
        /// Functions whose certificate says `Unverified`.
        unverified: u32,
        /// Server-side wall time for this request, microseconds.
        wall_micros: u64,
        /// The decompiled C translation unit with verdict annotations.
        source: String,
    },
    /// Typed error; the connection survives.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Payload decode failure (maps to [`ErrorCode::BadPayload`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "payload decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian payload writer.
#[derive(Default)]
pub struct Enc(Vec<u8>);

impl Enc {
    /// Fresh empty payload.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Append a `u8`.
    pub fn u8(mut self, v: u8) -> Enc {
        self.0.push(v);
        self
    }

    /// Append a little-endian `u16`.
    pub fn u16(mut self, v: u16) -> Enc {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u32`.
    pub fn u32(mut self, v: u32) -> Enc {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u64`.
    pub fn u64(mut self, v: u64) -> Enc {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(mut self, s: &str) -> Enc {
        self.0.extend_from_slice(&(s.len() as u32).to_le_bytes());
        self.0.extend_from_slice(s.as_bytes());
        self
    }

    /// Append a length-prefixed byte blob (cache records are binary, not
    /// UTF-8).
    pub fn bytes(mut self, b: &[u8]) -> Enc {
        self.0.extend_from_slice(&(b.len() as u32).to_le_bytes());
        self.0.extend_from_slice(b);
        self
    }

    /// Final payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.0
    }
}

/// Little-endian payload reader.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Reader over a payload.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeError(format!(
                "need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| DecodeError(format!("invalid UTF-8: {e}")))
    }

    /// Read a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Fail unless every payload byte was consumed (catches frames that
    /// smuggle trailing garbage past a lenient decoder).
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError(format!(
                "{} trailing byte(s) after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

impl Request {
    /// Frame kind this request travels as.
    pub fn kind(&self) -> u8 {
        match self {
            Request::Open { .. } => kind::OPEN,
            Request::Update { .. } => kind::UPDATE,
            Request::Decompile { .. } => kind::DECOMPILE,
            Request::Stats { .. } => kind::STATS,
            Request::Close => kind::CLOSE,
            Request::Ping => kind::PING,
            Request::CacheGet { .. } => kind::CACHE_GET,
            Request::CachePut { .. } => kind::CACHE_PUT,
            Request::Validate { .. } => kind::VALIDATE,
        }
    }

    /// Encode the payload (header excluded).
    pub fn encode_payload(&self) -> Vec<u8> {
        match self {
            Request::Open {
                name,
                variant,
                module_text,
            } => Enc::new().u8(*variant).str(name).str(module_text).finish(),
            Request::Update { module_text } => Enc::new().str(module_text).finish(),
            // Back-compat: a budget-less DECOMPILE stays the empty
            // payload older daemons already understand.
            Request::Decompile { budget_ms: 0 } => Vec::new(),
            Request::Decompile { budget_ms } => Enc::new().u32(*budget_ms).finish(),
            Request::Close | Request::Ping => Vec::new(),
            Request::Stats { daemon_wide } => Enc::new().u8(u8::from(*daemon_wide)).finish(),
            Request::CacheGet { key } => Enc::new().u64(*key).finish(),
            Request::CachePut { key, blob } => Enc::new().u64(*key).bytes(blob).finish(),
            Request::Validate {
                name,
                variant,
                module_text,
            } => Enc::new().u8(*variant).str(name).str(module_text).finish(),
        }
    }

    /// Decode a request payload for a known request kind. `None` means
    /// the kind is not a request.
    pub fn decode(kind_byte: u8, payload: &[u8]) -> Option<Result<Request, DecodeError>> {
        let mut d = Dec::new(payload);
        let req = match kind_byte {
            kind::OPEN => (|| {
                let variant = d.u8()?;
                let name = d.str()?;
                let module_text = d.str()?;
                d.expect_end()?;
                Ok(Request::Open {
                    name,
                    variant,
                    module_text,
                })
            })(),
            kind::UPDATE => (|| {
                let module_text = d.str()?;
                d.expect_end()?;
                Ok(Request::Update { module_text })
            })(),
            // Empty payload = no budget (frames from pre-budget clients);
            // otherwise exactly one u32.
            kind::DECOMPILE => (|| {
                let budget_ms = if payload.is_empty() { 0 } else { d.u32()? };
                d.expect_end()?;
                Ok(Request::Decompile { budget_ms })
            })(),
            kind::STATS => (|| {
                let scope = d.u8()?;
                d.expect_end()?;
                Ok(Request::Stats {
                    daemon_wide: scope != 0,
                })
            })(),
            kind::CLOSE => d.expect_end().map(|()| Request::Close),
            kind::PING => d.expect_end().map(|()| Request::Ping),
            kind::CACHE_GET => (|| {
                let key = d.u64()?;
                d.expect_end()?;
                Ok(Request::CacheGet { key })
            })(),
            kind::CACHE_PUT => (|| {
                let key = d.u64()?;
                let blob = d.bytes()?;
                d.expect_end()?;
                Ok(Request::CachePut { key, blob })
            })(),
            kind::VALIDATE => (|| {
                let variant = d.u8()?;
                let name = d.str()?;
                let module_text = d.str()?;
                d.expect_end()?;
                Ok(Request::Validate {
                    name,
                    variant,
                    module_text,
                })
            })(),
            _ => return None,
        };
        Some(req)
    }
}

impl Response {
    /// Frame kind this response travels as.
    pub fn kind(&self) -> u8 {
        match self {
            Response::Opened { .. } => kind::OPENED,
            Response::Updated { .. } => kind::UPDATED,
            Response::Result { .. } => kind::RESULT,
            Response::StatsText { .. } => kind::STATS_TEXT,
            Response::Closed => kind::CLOSED,
            Response::Pong => kind::PONG,
            Response::CacheValue { .. } => kind::CACHE_VALUE,
            Response::CacheStored { .. } => kind::CACHE_STORED,
            Response::Busy { .. } => kind::BUSY,
            Response::Validated { .. } => kind::VALIDATED,
            Response::Error { .. } => kind::ERROR,
        }
    }

    /// Encode the payload (header excluded).
    pub fn encode_payload(&self) -> Vec<u8> {
        match self {
            Response::Opened { session, functions } => {
                Enc::new().u32(*session).u32(*functions).finish()
            }
            Response::Updated {
                dirty,
                total,
                fingerprint_nanos,
                bookkeeping_nanos,
            } => Enc::new()
                .u32(*dirty)
                .u32(*total)
                .u64(*fingerprint_nanos)
                .u64(*bookkeeping_nanos)
                .finish(),
            Response::Result {
                functions,
                cached,
                degraded,
                dirty,
                wall_micros,
                fast_path,
                source,
            } => Enc::new()
                .u32(*functions)
                .u32(*cached)
                .u32(*degraded)
                .u32(*dirty)
                .u64(*wall_micros)
                .u8(u8::from(*fast_path))
                .str(source)
                .finish(),
            Response::StatsText { text } => Enc::new().str(text).finish(),
            Response::Closed | Response::Pong => Vec::new(),
            Response::CacheValue { blob } => match blob {
                Some(b) => Enc::new().u8(1).bytes(b).finish(),
                None => Enc::new().u8(0).finish(),
            },
            Response::CacheStored { stored } => Enc::new().u8(u8::from(*stored)).finish(),
            Response::Busy { retry_after_ms } => Enc::new().u32(*retry_after_ms).finish(),
            Response::Validated {
                functions,
                verified,
                unverified,
                wall_micros,
                source,
            } => Enc::new()
                .u32(*functions)
                .u32(*verified)
                .u32(*unverified)
                .u64(*wall_micros)
                .str(source)
                .finish(),
            Response::Error { code, message } => Enc::new().u16(*code as u16).str(message).finish(),
        }
    }

    /// Decode a response payload for a known response kind. `None` means
    /// the kind is not a response.
    pub fn decode(kind_byte: u8, payload: &[u8]) -> Option<Result<Response, DecodeError>> {
        let mut d = Dec::new(payload);
        let resp = match kind_byte {
            kind::OPENED => (|| {
                let session = d.u32()?;
                let functions = d.u32()?;
                d.expect_end()?;
                Ok(Response::Opened { session, functions })
            })(),
            kind::UPDATED => (|| {
                let dirty = d.u32()?;
                let total = d.u32()?;
                let fingerprint_nanos = d.u64()?;
                let bookkeeping_nanos = d.u64()?;
                d.expect_end()?;
                Ok(Response::Updated {
                    dirty,
                    total,
                    fingerprint_nanos,
                    bookkeeping_nanos,
                })
            })(),
            kind::RESULT => (|| {
                let functions = d.u32()?;
                let cached = d.u32()?;
                let degraded = d.u32()?;
                let dirty = d.u32()?;
                let wall_micros = d.u64()?;
                let fast_path = d.u8()? != 0;
                let source = d.str()?;
                d.expect_end()?;
                Ok(Response::Result {
                    functions,
                    cached,
                    degraded,
                    dirty,
                    wall_micros,
                    fast_path,
                    source,
                })
            })(),
            kind::STATS_TEXT => (|| {
                let text = d.str()?;
                d.expect_end()?;
                Ok(Response::StatsText { text })
            })(),
            kind::CLOSED => d.expect_end().map(|()| Response::Closed),
            kind::PONG => d.expect_end().map(|()| Response::Pong),
            kind::CACHE_VALUE => (|| {
                let found = d.u8()?;
                let blob = if found != 0 { Some(d.bytes()?) } else { None };
                d.expect_end()?;
                Ok(Response::CacheValue { blob })
            })(),
            kind::CACHE_STORED => (|| {
                let stored = d.u8()? != 0;
                d.expect_end()?;
                Ok(Response::CacheStored { stored })
            })(),
            kind::BUSY => (|| {
                let retry_after_ms = d.u32()?;
                d.expect_end()?;
                Ok(Response::Busy { retry_after_ms })
            })(),
            kind::VALIDATED => (|| {
                let functions = d.u32()?;
                let verified = d.u32()?;
                let unverified = d.u32()?;
                let wall_micros = d.u64()?;
                let source = d.str()?;
                d.expect_end()?;
                Ok(Response::Validated {
                    functions,
                    verified,
                    unverified,
                    wall_micros,
                    source,
                })
            })(),
            kind::ERROR => (|| {
                let code = ErrorCode::from_u16(d.u16()?);
                let message = d.str()?;
                d.expect_end()?;
                Ok(Response::Error { code, message })
            })(),
            _ => return None,
        };
        Some(resp)
    }
}

/// Serialize one frame (header + payload) into a byte vector.
pub fn frame_bytes(kind_byte: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind_byte);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Write one frame to a stream.
pub fn write_frame(w: &mut impl Write, kind_byte: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_bytes(kind_byte, payload))?;
    w.flush()
}

/// Blocking client-side frame read: returns `(version, kind, payload)`.
/// Clients trust the daemon to frame correctly; any desync is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, u8, Vec<u8>)> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if header[0..4] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad frame magic from daemon",
        ));
    }
    let version = header[4];
    let kind_byte = header[5];
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("oversized frame from daemon: {len} bytes"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok((version, kind_byte, payload))
}

/// Events pulled out of a [`FrameAssembler`].
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete, well-framed message (kind may still be unknown to the
    /// dispatcher, and the payload may still fail to decode).
    Frame {
        /// Protocol version from the header.
        version: u8,
        /// Frame kind byte.
        kind: u8,
        /// Payload bytes.
        payload: Vec<u8>,
    },
    /// Bad magic: the stream desynchronized. Reported once per garbage
    /// run; the assembler scans forward for the next magic.
    Desync,
    /// A frame declared a payload above [`MAX_PAYLOAD`]; its bytes are
    /// being discarded.
    Oversized {
        /// The declared payload length.
        declared: u64,
    },
}

/// Incremental server-side frame parser: feed it raw bytes as they
/// arrive, pull [`FrameEvent`]s. Never panics, never gives up on the
/// stream — garbage is scanned past, oversized payloads are discarded
/// without buffering.
#[derive(Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Payload bytes of an oversized frame still to discard.
    skip: u64,
    /// True while scanning garbage, so one desync run reports one event.
    desynced: bool,
}

impl FrameAssembler {
    /// Fresh assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Append raw bytes received from the peer.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.skip > 0 {
            let eat = (self.skip).min(bytes.len() as u64) as usize;
            self.skip -= eat as u64;
            self.buf.extend_from_slice(&bytes[eat..]);
        } else {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes buffered but not yet parsed (diagnostic).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pull the next event, or `None` when more bytes are needed.
    pub fn next_event(&mut self) -> Option<FrameEvent> {
        loop {
            // Resync: drop bytes until the buffer starts with as much of
            // MAGIC as it contains.
            let misaligned = !self
                .buf
                .starts_with(&MAGIC[..MAGIC.len().min(self.buf.len())]);
            if misaligned {
                let first_desync = !self.desynced;
                self.desynced = true;
                // Scan for the next candidate magic start past offset 0.
                match self.buf[1..].iter().position(|&b| b == MAGIC[0]) {
                    Some(p) => {
                        self.buf.drain(..p + 1);
                    }
                    None => self.buf.clear(),
                }
                if first_desync {
                    return Some(FrameEvent::Desync);
                }
                continue;
            }
            if self.buf.len() < HEADER_LEN {
                return None; // incomplete (possibly partial-magic) header
            }
            self.desynced = false;
            let version = self.buf[4];
            let kind_byte = self.buf[5];
            let len = u32::from_le_bytes([self.buf[6], self.buf[7], self.buf[8], self.buf[9]]);
            if len > MAX_PAYLOAD {
                // Consume the header, discard the payload as it arrives.
                let have = self.buf.len() - HEADER_LEN;
                let eat = (len as usize).min(have);
                self.buf.drain(..HEADER_LEN + eat);
                self.skip = u64::from(len) - eat as u64;
                return Some(FrameEvent::Oversized {
                    declared: u64::from(len),
                });
            }
            if self.buf.len() < HEADER_LEN + len as usize {
                return None; // payload still in flight
            }
            let payload = self.buf[HEADER_LEN..HEADER_LEN + len as usize].to_vec();
            self.buf.drain(..HEADER_LEN + len as usize);
            return Some(FrameEvent::Frame {
                version,
                kind: kind_byte,
                payload,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(assembler: &mut FrameAssembler, bytes: &[u8], chunk: usize) -> Vec<FrameEvent> {
        let mut events = Vec::new();
        for c in bytes.chunks(chunk.max(1)) {
            assembler.push(c);
            while let Some(e) = assembler.next_event() {
                events.push(e);
            }
        }
        events
    }

    #[test]
    fn roundtrip_request_encodings() {
        let reqs = [
            Request::Open {
                name: "jacobi".into(),
                variant: 3,
                module_text: "module text".into(),
            },
            Request::Update {
                module_text: "new text".into(),
            },
            Request::Decompile { budget_ms: 0 },
            Request::Decompile { budget_ms: 250 },
            Request::Stats { daemon_wide: true },
            Request::Close,
            Request::Ping,
            Request::CacheGet {
                key: 0xDEAD_BEEF_CAFE_F00D,
            },
            Request::CachePut {
                key: 42,
                blob: vec![0x00, 0xFF, 0x7F, 0x80],
            },
            Request::Validate {
                name: "gemm".into(),
                variant: 1,
                module_text: "module text".into(),
            },
        ];
        for req in reqs {
            let payload = req.encode_payload();
            let back = Request::decode(req.kind(), &payload).unwrap().unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn roundtrip_response_encodings() {
        let resps = [
            Response::Opened {
                session: 7,
                functions: 16,
            },
            Response::Updated {
                dirty: 1,
                total: 16,
                fingerprint_nanos: 812_345,
                bookkeeping_nanos: 21_000,
            },
            Response::Result {
                functions: 16,
                cached: 15,
                degraded: 0,
                dirty: 1,
                wall_micros: 1234,
                fast_path: false,
                source: "int main() {}\n".into(),
            },
            Response::StatsText {
                text: "daemon stats\n".into(),
            },
            Response::Closed,
            Response::Pong,
            Response::CacheValue {
                blob: Some(vec![1, 2, 3, 0, 255]),
            },
            Response::CacheValue { blob: None },
            Response::CacheStored { stored: true },
            Response::CacheStored { stored: false },
            Response::Busy {
                retry_after_ms: 750,
            },
            Response::Validated {
                functions: 3,
                verified: 2,
                unverified: 1,
                wall_micros: 5678,
                source: "/* splendid: verified */\n".into(),
            },
            Response::Error {
                code: ErrorCode::NoSession,
                message: "open first".into(),
            },
        ];
        for resp in resps {
            let payload = resp.encode_payload();
            let back = Response::decode(resp.kind(), &payload).unwrap().unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn decompile_budget_wire_compat() {
        // A budget of 0 must encode as the legacy empty payload...
        assert!(Request::Decompile { budget_ms: 0 }
            .encode_payload()
            .is_empty());
        // ...and the legacy empty payload must decode as budget 0.
        assert_eq!(
            Request::decode(kind::DECOMPILE, &[]).unwrap().unwrap(),
            Request::Decompile { budget_ms: 0 }
        );
        // Truncated and over-long budget payloads are BadPayload, not
        // lenient decodes.
        assert!(Request::decode(kind::DECOMPILE, &[0x01, 0x02])
            .unwrap()
            .is_err());
        assert!(
            Request::decode(kind::DECOMPILE, &[0x01, 0x02, 0x03, 0x04, 0x05])
                .unwrap()
                .is_err()
        );
    }

    #[test]
    fn assembler_reads_frames_at_any_chunking() {
        let mut bytes = frame_bytes(kind::PING, &[]);
        bytes.extend(frame_bytes(kind::UPDATE, &Enc::new().str("abc").finish()));
        for chunk in [1, 2, 3, 7, 64] {
            let mut a = FrameAssembler::new();
            let events = feed(&mut a, &bytes, chunk);
            assert_eq!(events.len(), 2, "chunk={chunk}");
            assert!(matches!(
                events[0],
                FrameEvent::Frame {
                    kind: kind::PING,
                    ..
                }
            ));
        }
    }

    #[test]
    fn assembler_resyncs_after_garbage() {
        let mut bytes = b"this is not a frame at all SPL but almost".to_vec();
        bytes.extend(frame_bytes(kind::PING, &[]));
        let mut a = FrameAssembler::new();
        let events = feed(&mut a, &bytes, 5);
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, FrameEvent::Desync))
                .count(),
            1,
            "one desync run reports one event: {events:?}"
        );
        assert!(
            matches!(
                events.last(),
                Some(FrameEvent::Frame {
                    kind: kind::PING,
                    ..
                })
            ),
            "{events:?}"
        );
    }

    #[test]
    fn assembler_skips_oversized_payloads_without_buffering() {
        let declared = MAX_PAYLOAD as u64 + 10;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(kind::UPDATE);
        bytes.extend_from_slice(&(declared as u32).to_le_bytes());
        bytes.extend(std::iter::repeat_n(0xAB, declared as usize));
        bytes.extend(frame_bytes(kind::PING, &[]));
        let mut a = FrameAssembler::new();
        let events = feed(&mut a, &bytes, 4096);
        assert!(
            matches!(events[0], FrameEvent::Oversized { declared: d } if d == declared),
            "{events:?}"
        );
        assert!(matches!(
            events.last(),
            Some(FrameEvent::Frame {
                kind: kind::PING,
                ..
            })
        ));
        assert!(a.buffered() < HEADER_LEN + 16, "payload must not buffer");
    }

    #[test]
    fn truncated_frame_yields_no_event_and_no_panic() {
        let full = frame_bytes(kind::UPDATE, &Enc::new().str("abcdef").finish());
        for cut in 0..full.len() {
            let mut a = FrameAssembler::new();
            a.push(&full[..cut]);
            assert!(a.next_event().is_none(), "cut={cut}");
        }
    }
}
