//! Blocking daemon client used by `splendid connect`, `splendid validate
//! --addr`, perfbench, and the integration tests.
//!
//! The client side of the protocol is strict: it trusts the daemon to
//! frame correctly, so a desync from the server is an I/O error rather
//! than something to survive. (The lenient direction — surviving garbage
//! from clients — lives in the server's
//! [`FrameAssembler`](crate::protocol::FrameAssembler).)

use crate::protocol::{self, DecodeError, Request, Response};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// The client's transport, either flavor.
enum Transport {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Transport::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Transport::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Transport::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Transport::Unix(s) => s.flush(),
        }
    }
}

/// A blocking connection to a running daemon.
pub struct DaemonClient {
    transport: Transport,
}

impl DaemonClient {
    /// Connect over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<DaemonClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(DaemonClient {
            transport: Transport::Tcp(stream),
        })
    }

    /// Connect over a Unix socket.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<DaemonClient> {
        Ok(DaemonClient {
            transport: Transport::Unix(UnixStream::connect(path)?),
        })
    }

    /// Cap how long a single response read may block.
    pub fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match &self.transport {
            Transport::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Transport::Unix(s) => s.set_read_timeout(d),
        }
    }

    /// Send raw bytes as-is — the fuzz tests' hatch for malformed input.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.transport.write_all(bytes)?;
        self.transport.flush()
    }

    /// Read the next response frame.
    pub fn read_response(&mut self) -> io::Result<Response> {
        let (_, kind_byte, payload) = protocol::read_frame(&mut self.transport)?;
        match Response::decode(kind_byte, &payload) {
            Some(Ok(resp)) => Ok(resp),
            Some(Err(DecodeError(e))) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response payload from daemon: {e}"),
            )),
            None => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown response kind 0x{kind_byte:02x} from daemon"),
            )),
        }
    }

    /// Send one request and read its (1:1) response.
    pub fn roundtrip(&mut self, req: &Request) -> io::Result<Response> {
        protocol::write_frame(&mut self.transport, req.kind(), &req.encode_payload())?;
        self.read_response()
    }

    /// OPEN a session; returns `(session id, function count)`.
    pub fn open(&mut self, name: &str, variant: u8, module_text: &str) -> io::Result<(u32, u32)> {
        match self.roundtrip(&Request::Open {
            name: name.into(),
            variant,
            module_text: module_text.into(),
        })? {
            Response::Opened { session, functions } => Ok((session, functions)),
            other => Err(unexpected("OPENED", &other)),
        }
    }

    /// UPDATE the session module; returns the full UPDATED response
    /// (dirty/total counts plus the server's fingerprint-vs-bookkeeping
    /// timing split).
    pub fn update(&mut self, module_text: &str) -> io::Result<Response> {
        match self.roundtrip(&Request::Update {
            module_text: module_text.into(),
        })? {
            r @ Response::Updated { .. } => Ok(r),
            other => Err(unexpected("UPDATED", &other)),
        }
    }

    /// DECOMPILE the session module; returns the full RESULT response.
    pub fn decompile(&mut self) -> io::Result<Response> {
        match self.roundtrip(&Request::Decompile { budget_ms: 0 })? {
            r @ Response::Result { .. } => Ok(r),
            other => Err(unexpected("RESULT", &other)),
        }
    }

    /// DECOMPILE with a client budget. Unlike [`DaemonClient::decompile`]
    /// this surfaces admission refusals: the result is either the RESULT
    /// response or a BUSY response (anything else, including daemon
    /// errors, is an I/O error). Callers under load inspect
    /// [`Response::Busy`] for the `retry_after_ms` hint.
    pub fn decompile_with_budget(&mut self, budget_ms: u32) -> io::Result<Response> {
        match self.roundtrip(&Request::Decompile { budget_ms })? {
            r @ (Response::Result { .. } | Response::Busy { .. }) => Ok(r),
            other => Err(unexpected("RESULT or BUSY", &other)),
        }
    }

    /// Fetch the stats text (session-scoped or daemon-wide).
    pub fn stats(&mut self, daemon_wide: bool) -> io::Result<String> {
        match self.roundtrip(&Request::Stats { daemon_wide })? {
            Response::StatsText { text } => Ok(text),
            other => Err(unexpected("STATS_TEXT", &other)),
        }
    }

    /// CLOSE the session (the connection stays usable).
    pub fn close(&mut self) -> io::Result<()> {
        match self.roundtrip(&Request::Close)? {
            Response::Closed => Ok(()),
            other => Err(unexpected("CLOSED", &other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("PONG", &other)),
        }
    }

    /// VALIDATE: stateless validated decompilation of the supplied
    /// module; returns the full VALIDATED response.
    pub fn validate(&mut self, name: &str, variant: u8, module_text: &str) -> io::Result<Response> {
        match self.roundtrip(&Request::Validate {
            name: name.into(),
            variant,
            module_text: module_text.into(),
        })? {
            r @ Response::Validated { .. } => Ok(r),
            other => Err(unexpected("VALIDATED", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> io::Error {
    let detail = match got {
        Response::Error { code, message } => format!("daemon error [{code}]: {message}"),
        Response::Busy { retry_after_ms } => {
            format!("daemon busy: retry in {retry_after_ms} ms")
        }
        other => format!("expected {wanted}, got {other:?}"),
    };
    io::Error::other(detail)
}
