//! The versioned binary wire protocol.
//!
//! Every message travels as one **frame**: a little-endian `u32` payload
//! length followed by the payload. Payloads share a fixed header —
//! `[version: u8][kind: u8][request id: u64]` — and a kind-specific body
//! encoded with [`rtpl_sparse::wire`] (so floating-point data is bit-exact
//! and corrupt bodies decode to typed errors, never panics).
//!
//! | kind | direction | message | body |
//! |-----:|-----------|---------|------|
//! | 1 | → | [`Request::Solve`] | CSR `L`, CSR `U`, rhs `b` |
//! | 2 | → | [`Request::WarmCheck`] | pattern fingerprint |
//! | 3 | → | [`Request::SolveByFingerprint`] | fingerprint, rhs `b` |
//! | 4 | → | [`Request::Stats`] | — |
//! | 5 | → | [`Request::Shutdown`] | — |
//! | 128 | ← | [`Response::Solved`] | cached flag, policy tag, `x` |
//! | 129 | ← | [`Response::WarmStatus`] | [`WarmLevel`] byte |
//! | 130 | ← | [`Response::RetryAfter`] | delay ms, [`RetryReason`] |
//! | 131 | ← | [`Response::Error`] | code, message |
//! | 132 | ← | [`Response::StatsText`] | metrics text |
//! | 133 | ← | [`Response::ShutdownAck`] | — |
//!
//! The request id is an opaque `u64` the server echoes verbatim, so a
//! client may pipeline many requests on one connection and match answers
//! by id. Solve-class responses preserve submission order per connection;
//! immediate responses (`WarmCheck`, `Stats`, rejections) may interleave
//! ahead of queued solves.

use rtpl_sparse::wire::{WireError, WireReader, WireWriter};
use rtpl_sparse::{Csr, PatternFingerprint};
use std::io::{self, Read, Write};

/// Protocol version carried by every frame; mismatches are rejected with
/// [`ProtoError::Version`] before any body byte is interpreted.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on a frame's payload size. Larger length prefixes are
/// rejected at read time — a corrupt or hostile prefix must not trigger a
/// giant allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Error codes carried by [`Response::Error`].
pub mod err_code {
    /// The runtime failed the solve (zero pivot, malformed structure, …).
    pub const RUNTIME: u8 = 1;
    /// `SolveByFingerprint` named a pattern this server has never seen.
    pub const UNKNOWN_PATTERN: u8 = 2;
    /// The request is self-inconsistent (e.g. rhs length ≠ matrix order).
    pub const BAD_REQUEST: u8 = 3;
    /// A wire [`Request::Shutdown`](super::Request::Shutdown) reached a
    /// server that has not opted in (`ServerConfig::allow_remote_shutdown`
    /// is off by default — the request is unauthenticated and a drain is
    /// irreversible).
    pub const SHUTDOWN_DISABLED: u8 = 4;
    /// The job's deadline expired (or it was cancelled) before or during
    /// execution. The request may simply be retried; nothing about the
    /// pattern is wrong.
    pub const DEADLINE_EXCEEDED: u8 = 5;
    /// The loop body panicked while executing this job. The failure was
    /// contained to the job: the worker pool was recovered (or replaced)
    /// and the server keeps serving.
    pub const BODY_PANICKED: u8 = 6;
    /// The pattern's circuit breaker is open after repeated failures; the
    /// job was rejected without running. Retry after a cooldown.
    pub const CIRCUIT_OPEN: u8 = 7;
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Full solve: ship the `(L, U)` factors and a right-hand side. The
    /// server registers the factors under their fingerprint so later
    /// requests can go by [`Request::SolveByFingerprint`].
    Solve { l: Csr, u: Csr, b: Vec<f64> },
    /// "Is this pattern's plan warm?" — lets a client decide whether the
    /// pattern needs shipping at all.
    WarmCheck { key: PatternFingerprint },
    /// Rhs-only solve against server-held factors (the warm path: no
    /// pattern, no values on the wire).
    SolveByFingerprint {
        key: PatternFingerprint,
        b: Vec<f64>,
    },
    /// Fetch the plaintext metrics.
    Stats,
    /// Drain gracefully: stop accepting, answer everything already
    /// accepted, then acknowledge. The server must opt in
    /// (`ServerConfig::allow_remote_shutdown`, off by default); otherwise
    /// it answers [`err_code::SHUTDOWN_DISABLED`] and keeps serving.
    Shutdown,
}

impl Request {
    fn kind_byte(&self) -> u8 {
        match self {
            Request::Solve { .. } => 1,
            Request::WarmCheck { .. } => 2,
            Request::SolveByFingerprint { .. } => 3,
            Request::Stats => 4,
            Request::Shutdown => 5,
        }
    }

    /// Dense index for per-kind metrics arrays (see [`REQUEST_KINDS`]).
    pub fn kind_index(&self) -> usize {
        self.kind_byte() as usize - 1
    }
}

/// Human-readable names of the request kinds, indexed as
/// [`Request::kind_index`].
pub const REQUEST_KINDS: [&str; 5] = [
    "solve",
    "warm_check",
    "solve_by_fingerprint",
    "stats",
    "shutdown",
];

/// How warm a pattern is on the server — the answer to
/// [`Request::WarmCheck`], mirroring the runtime's memory → disk → cold
/// lookup ladder. A client uses it to decide what to ship: `Memory` means
/// an rhs-only [`Request::SolveByFingerprint`] runs immediately; `Disk`
/// means the plan exists persistently and the first solve pays only a
/// decode, not an inspection; `Cold` means the pattern (and its factors)
/// must be shipped in full.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WarmLevel {
    /// Never seen (or the persisted record is gone): a solve pays the full
    /// cold inspection.
    Cold,
    /// Present in the persistent plan store only: a solve decodes the
    /// stored artifact instead of inspecting.
    Disk,
    /// Compiled and resident in the memory cache: a solve runs at once.
    Memory,
}

impl WarmLevel {
    fn to_byte(self) -> u8 {
        match self {
            WarmLevel::Cold => 0,
            WarmLevel::Disk => 1,
            WarmLevel::Memory => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtoError> {
        Ok(match b {
            0 => WarmLevel::Cold,
            1 => WarmLevel::Disk,
            2 => WarmLevel::Memory,
            other => return Err(ProtoError::UnknownKind(other)),
        })
    }
}

/// Why a request was rejected instead of queued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryReason {
    /// The bounded job queue is at depth.
    QueueFull,
    /// This connection already has its quota of solves in flight.
    QuotaExceeded,
    /// The server is draining and accepts no new work.
    Draining,
}

impl RetryReason {
    fn to_byte(self) -> u8 {
        match self {
            RetryReason::QueueFull => 0,
            RetryReason::QuotaExceeded => 1,
            RetryReason::Draining => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtoError> {
        Ok(match b {
            0 => RetryReason::QueueFull,
            1 => RetryReason::QuotaExceeded,
            2 => RetryReason::Draining,
            other => return Err(ProtoError::UnknownKind(other)),
        })
    }
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The solution vector, with provenance: whether the plan was cached
    /// and which executor ran the solve — its `ExecutorKind` tag
    /// (`kind as u8`; `ExecutorKind::from_tag` reads it back).
    Solved {
        cached: bool,
        policy: u8,
        x: Vec<f64>,
    },
    /// Answer to [`Request::WarmCheck`].
    WarmStatus { level: WarmLevel },
    /// Typed backpressure: retry after the suggested delay.
    RetryAfter { retry_ms: u32, reason: RetryReason },
    /// The request was accepted but could not be served (see [`err_code`]).
    Error { code: u8, message: String },
    /// Answer to [`Request::Stats`].
    StatsText { text: String },
    /// The drain completed; the connection will close.
    ShutdownAck,
}

impl Response {
    fn kind_byte(&self) -> u8 {
        match self {
            Response::Solved { .. } => 128,
            Response::WarmStatus { .. } => 129,
            Response::RetryAfter { .. } => 130,
            Response::Error { .. } => 131,
            Response::StatsText { .. } => 132,
            Response::ShutdownAck => 133,
        }
    }
}

/// Errors from decoding a payload (framing I/O errors stay `io::Error`).
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The body failed to decode (truncated or corrupt bytes).
    Wire(WireError),
    /// The frame speaks a different protocol version.
    Version { expected: u8, found: u8 },
    /// The kind byte (or an enum tag inside the body) is unknown.
    UnknownKind(u8),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Wire(e) => write!(f, "wire error: {e}"),
            ProtoError::Version { expected, found } => {
                write!(
                    f,
                    "protocol version mismatch: expected {expected}, found {found}"
                )
            }
            ProtoError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        ProtoError::Wire(e)
    }
}

fn header(kind: u8, id: u64) -> WireWriter {
    let mut w = WireWriter::new();
    w.put_u8(WIRE_VERSION);
    w.put_u8(kind);
    w.put_u64(id);
    w
}

/// Encodes a request payload (no length prefix; see [`write_frame`]).
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut w = header(req.kind_byte(), id);
    match req {
        Request::Solve { l, u, b } => {
            w.put_csr(l);
            w.put_csr(u);
            w.put_f64s(b);
        }
        Request::WarmCheck { key } => w.put_fingerprint(*key),
        Request::SolveByFingerprint { key, b } => {
            w.put_fingerprint(*key);
            w.put_f64s(b);
        }
        Request::Stats | Request::Shutdown => {}
    }
    w.into_bytes()
}

/// Encodes a response payload (no length prefix; see [`write_frame`]).
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let mut w = header(resp.kind_byte(), id);
    match resp {
        Response::Solved { cached, policy, x } => {
            w.put_u8(*cached as u8);
            w.put_u8(*policy);
            w.put_f64s(x);
        }
        Response::WarmStatus { level } => w.put_u8(level.to_byte()),
        Response::RetryAfter { retry_ms, reason } => {
            w.put_u32(*retry_ms);
            w.put_u8(reason.to_byte());
        }
        Response::Error { code, message } => {
            w.put_u8(*code);
            w.put_str(message);
        }
        Response::StatsText { text } => w.put_str(text),
        Response::ShutdownAck => {}
    }
    w.into_bytes()
}

fn decode_header(payload: &[u8]) -> Result<(WireReader<'_>, u8, u64), ProtoError> {
    let mut r = WireReader::new(payload);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(ProtoError::Version {
            expected: WIRE_VERSION,
            found: version,
        });
    }
    let kind = r.u8()?;
    let id = r.u64()?;
    Ok((r, kind, id))
}

/// Decodes a request payload produced by [`encode_request`].
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), ProtoError> {
    let (mut r, kind, id) = decode_header(payload)?;
    let req = match kind {
        1 => {
            let l = r.csr()?;
            let u = r.csr()?;
            let b = r.f64s()?;
            Request::Solve { l, u, b }
        }
        2 => Request::WarmCheck {
            key: r.fingerprint()?,
        },
        3 => {
            let key = r.fingerprint()?;
            let b = r.f64s()?;
            Request::SolveByFingerprint { key, b }
        }
        4 => Request::Stats,
        5 => Request::Shutdown,
        other => return Err(ProtoError::UnknownKind(other)),
    };
    r.finish()?;
    Ok((id, req))
}

/// Decodes a response payload produced by [`encode_response`].
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), ProtoError> {
    let (mut r, kind, id) = decode_header(payload)?;
    let resp = match kind {
        128 => {
            let cached = r.u8()? != 0;
            let policy = r.u8()?;
            let x = r.f64s()?;
            Response::Solved { cached, policy, x }
        }
        129 => Response::WarmStatus {
            level: WarmLevel::from_byte(r.u8()?)?,
        },
        130 => {
            let retry_ms = r.u32()?;
            let reason = RetryReason::from_byte(r.u8()?)?;
            Response::RetryAfter { retry_ms, reason }
        }
        131 => {
            let code = r.u8()?;
            let message = r.str()?;
            Response::Error { code, message }
        }
        132 => Response::StatsText { text: r.str()? },
        133 => Response::ShutdownAck,
        other => return Err(ProtoError::UnknownKind(other)),
    };
    r.finish()?;
    Ok((id, resp))
}

/// Writes one frame: `u32` length prefix, then the payload, in one
/// `write_all`. On an unbuffered socket two writes would go out as two
/// segments (Nagle is off), and a peer woken by the first would have to
/// sleep and wake again for the second.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame's payload. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed); length prefixes above [`MAX_FRAME`] are
/// rejected as `InvalidData` without allocating.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpl_sparse::gen::laplacian_5pt;
    use rtpl_sparse::ilu0;

    fn sample_requests() -> Vec<Request> {
        let f = ilu0(&laplacian_5pt(4, 3)).unwrap();
        let key = f.l.pattern_fingerprint();
        vec![
            Request::Solve {
                l: f.l.clone(),
                u: f.u.clone(),
                b: [1.0, -0.0, 2.5e-310, 4.0].repeat(3),
            },
            Request::WarmCheck { key },
            Request::SolveByFingerprint {
                key,
                b: vec![0.25; 12],
            },
            Request::Stats,
            Request::Shutdown,
        ]
    }

    #[test]
    fn requests_roundtrip_with_ids() {
        for (i, req) in sample_requests().into_iter().enumerate() {
            let id = 0x1000 + i as u64;
            let payload = encode_request(id, &req);
            let (got_id, got) = decode_request(&payload).unwrap();
            assert_eq!(got_id, id);
            assert_eq!(got, req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let samples = vec![
            Response::Solved {
                cached: true,
                policy: 0,
                x: vec![1.5, -0.0, f64::MIN_POSITIVE],
            },
            Response::WarmStatus {
                level: WarmLevel::Disk,
            },
            Response::RetryAfter {
                retry_ms: 7,
                reason: RetryReason::QuotaExceeded,
            },
            Response::Error {
                code: err_code::UNKNOWN_PATTERN,
                message: "no such pattern".into(),
            },
            Response::StatsText {
                text: "rtpl_batches 3\n".into(),
            },
            Response::ShutdownAck,
        ];
        for resp in samples {
            let payload = encode_response(9, &resp);
            let (id, got) = decode_response(&payload).unwrap();
            assert_eq!(id, 9);
            assert_eq!(got, resp);
        }
    }

    #[test]
    fn warm_levels_roundtrip_and_an_unknown_level_is_rejected() {
        for level in [WarmLevel::Cold, WarmLevel::Disk, WarmLevel::Memory] {
            let payload = encode_response(3, &Response::WarmStatus { level });
            assert_eq!(
                decode_response(&payload).unwrap(),
                (3, Response::WarmStatus { level })
            );
        }
        // The ladder is ordered: a client may compare levels directly.
        assert!(WarmLevel::Memory > WarmLevel::Disk);
        assert!(WarmLevel::Disk > WarmLevel::Cold);
        let mut payload = encode_response(
            3,
            &Response::WarmStatus {
                level: WarmLevel::Cold,
            },
        );
        *payload.last_mut().unwrap() = 9;
        assert_eq!(decode_response(&payload), Err(ProtoError::UnknownKind(9)));
    }

    #[test]
    fn failure_error_codes_are_distinct_and_roundtrip() {
        let codes = [
            err_code::RUNTIME,
            err_code::UNKNOWN_PATTERN,
            err_code::BAD_REQUEST,
            err_code::SHUTDOWN_DISABLED,
            err_code::DEADLINE_EXCEEDED,
            err_code::BODY_PANICKED,
            err_code::CIRCUIT_OPEN,
        ];
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b, "error codes must stay distinct on the wire");
            }
        }
        for &code in &codes {
            let resp = Response::Error {
                code,
                message: format!("code {code}"),
            };
            let payload = encode_response(u64::from(code), &resp);
            assert_eq!(decode_response(&payload).unwrap(), (u64::from(code), resp));
        }
    }

    #[test]
    fn version_mismatch_is_rejected_before_the_body() {
        let mut payload = encode_request(1, &Request::Stats);
        payload[0] = WIRE_VERSION + 1;
        assert_eq!(
            decode_request(&payload),
            Err(ProtoError::Version {
                expected: WIRE_VERSION,
                found: WIRE_VERSION + 1,
            })
        );
    }

    #[test]
    fn unknown_kinds_and_truncation_are_typed_errors() {
        let mut payload = encode_request(1, &Request::Stats);
        payload[1] = 200;
        assert_eq!(decode_request(&payload), Err(ProtoError::UnknownKind(200)));
        let full = encode_request(3, &sample_requests().into_iter().next().unwrap());
        for cut in 0..full.len() {
            match decode_request(&full[..cut]) {
                Err(ProtoError::Wire(_)) => {}
                other => panic!("cut {cut}: {other:?}"),
            }
        }
        // Trailing garbage is rejected too.
        let mut long = encode_request(1, &Request::Stats);
        long.push(0);
        assert!(matches!(decode_request(&long), Err(ProtoError::Wire(_))));
    }

    #[test]
    fn frames_roundtrip_and_oversize_is_rejected() {
        let payload = encode_request(5, &Request::Stats);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), payload);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), payload);
        assert!(read_frame(&mut cursor).unwrap().is_none());
        // A hostile length prefix fails without allocating.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut cursor = io::Cursor::new(huge.to_vec());
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        /// Records the length of every `write` call.
        struct Writes(Vec<usize>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let payload = encode_request(5, &Request::Stats);
        let mut w = Writes(Vec::new());
        write_frame(&mut w, &payload).unwrap();
        assert_eq!(w.0, [4 + payload.len()]);
    }
}
