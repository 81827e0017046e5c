//! The wire protocol: a length-prefixed, versioned binary framing over
//! any byte stream, with pure encode/decode functions.
//!
//! Every frame on the wire is
//!
//! ```text
//! ┌────────────┬─────────────────────────────────────────┐
//! │ len: u32LE │ payload (len bytes, <= MAX_FRAME_LEN)   │
//! └────────────┴─────────────────────────────────────────┘
//! payload := version: u8 (= PROTOCOL_VERSION)
//!            opcode:  u8
//!            body     (opcode-specific, fixed field order, LE)
//! ```
//!
//! The codec is **pure** — [`decode_request`] / [`decode_response`] are
//! total functions from byte slices to typed frames or typed
//! [`WireError`]s, and never panic on hostile input. That is what the
//! mutated-frame corpus in `tests/protocol.rs` exercises: truncations,
//! oversizes, bad versions, unknown opcodes, and random byte flips all
//! come back as errors, not as worker panics.
//!
//! Tensors travel as raw IEEE-754 bit patterns (`f32::to_bits`, LE), so
//! a round trip through the socket is `to_bits`-identical by
//! construction — the transport can never perturb the serving layer's
//! bitwise contracts.

use std::io::{ErrorKind, Read};
use std::time::{Duration, Instant};

use gqa_served::{Rejected, ServedError};
use gqa_tensor::Tensor;

/// The protocol version this build speaks. A frame carrying any other
/// version byte is rejected with [`WireError::BadVersion`] before its
/// body is looked at.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on one frame's payload length. A `len` prefix past this
/// is [`WireError::Oversized`] — the connection handler drops the peer
/// instead of allocating attacker-controlled gigabytes.
pub const MAX_FRAME_LEN: usize = 1 << 24; // 16 MiB

/// Upper bound on a wire tensor's rank.
pub const MAX_TENSOR_DIMS: usize = 8;

/// How long [`read_frame`] waits for the rest of a frame once its first
/// byte has arrived. A socket read timeout (the server's idle poll)
/// only bounds the wait for that first byte; a peer that pauses
/// mid-frame is waited for up to this deadline, then dropped.
pub const FRAME_DEADLINE: Duration = Duration::from_secs(5);

/// Request opcodes (client → server).
mod op {
    pub const HELLO: u8 = 0x01;
    pub const INFER: u8 = 0x02;
    pub const DECODE_OPEN: u8 = 0x03;
    pub const DECODE_STEP: u8 = 0x04;
    pub const STATS: u8 = 0x05;
    pub const HELLO_OK: u8 = 0x81;
    pub const OUTPUT: u8 = 0x82;
    pub const DECODE_OPENED: u8 = 0x83;
    pub const STATS_TEXT: u8 = 0x84;
    pub const ERROR: u8 = 0xFF;
}

/// Error codes inside an `Error` response frame.
mod ec {
    pub const REJECTED: u8 = 1;
    pub const UNKNOWN_MODEL: u8 = 2;
    pub const UNKNOWN_TENANT: u8 = 3;
    pub const BAD_SHAPE: u8 = 4;
    pub const DECODE_UNSUPPORTED: u8 = 5;
    pub const STEP_PENDING: u8 = 6;
    pub const SHUTTING_DOWN: u8 = 7;
    pub const QUOTA_EXCEEDED: u8 = 8;
    pub const UNKNOWN_SESSION: u8 = 9;
    pub const PROTOCOL: u8 = 10;
    pub const INVALID_STEP: u8 = 11;
}

/// A malformed or unspeakable frame, detected by the pure codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a field it promised.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The advertised payload length.
        len: usize,
        /// The configured bound.
        max: usize,
    },
    /// The frame speaks a protocol version this build does not.
    BadVersion(u8),
    /// The opcode byte names no known frame type.
    BadOpcode(u8),
    /// A structurally invalid field (context in the message).
    Malformed(&'static str),
    /// Well-formed fields followed by unconsumed bytes — a framing bug
    /// on the peer, rejected rather than silently ignored.
    TrailingBytes {
        /// Unconsumed byte count.
        extra: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: field needs {needed} bytes, {got} left")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes > max {max}")
            }
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (speaking {PROTOCOL_VERSION})"
                )
            }
            WireError::BadOpcode(o) => write!(f, "unknown opcode {o:#04x}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame body")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A typed server-side failure carried in an `Error` response frame —
/// the wire mirror of [`ServedError`] plus the session- and
/// protocol-level failures only the network layer can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// Shared-queue backpressure (mirrors [`ServedError::Rejected`]).
    Rejected {
        /// Requests queued at rejection.
        depth: u64,
        /// The configured queue bound.
        capacity: u64,
    },
    /// No such model index.
    UnknownModel(u64),
    /// No such tenant index.
    UnknownTenant(u64),
    /// Input shape does not match the model's row shape.
    BadShape {
        /// The model whose contract was violated.
        model: u64,
        /// The model's declared per-request shape.
        expected: Vec<u64>,
        /// The shape actually submitted.
        got: Vec<u64>,
    },
    /// The model has no incremental-decode entry point.
    DecodeUnsupported(u64),
    /// A decode step is already in flight for the session.
    StepPending,
    /// The model refused a decode step it cannot run (mirrors
    /// [`ServedError::InvalidStep`]); the session is unchanged.
    InvalidStep(String),
    /// The server is shutting down.
    ShuttingDown,
    /// Per-tenant admission quota exhausted (mirrors
    /// [`ServedError::QuotaExceeded`]) — distinct from shared-queue
    /// [`RemoteError::Rejected`].
    QuotaExceeded {
        /// Requests this tenant has queued.
        queued: u64,
        /// The tenant's configured quota.
        quota: u64,
    },
    /// A `DecodeStep` named a session id this connection never opened.
    UnknownSession(u64),
    /// The server could not parse the request frame; the message echoes
    /// the [`WireError`] and the connection closes after this reply.
    Protocol(String),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Rejected { depth, capacity } => {
                write!(f, "rejected: admission queue full ({depth}/{capacity})")
            }
            RemoteError::UnknownModel(m) => write!(f, "unknown model id {m}"),
            RemoteError::UnknownTenant(t) => write!(f, "unknown tenant id {t}"),
            RemoteError::BadShape {
                model,
                expected,
                got,
            } => write!(
                f,
                "model {model} expects per-request shape {expected:?}, got {got:?}"
            ),
            RemoteError::DecodeUnsupported(m) => {
                write!(f, "model {m} does not support incremental decode")
            }
            RemoteError::StepPending => write!(f, "a decode step is already in flight"),
            RemoteError::InvalidStep(reason) => write!(f, "invalid decode step: {reason}"),
            RemoteError::ShuttingDown => write!(f, "server is shutting down"),
            RemoteError::QuotaExceeded { queued, quota } => {
                write!(f, "tenant admission quota exhausted ({queued}/{quota})")
            }
            RemoteError::UnknownSession(s) => write!(f, "unknown decode session {s}"),
            RemoteError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<&ServedError> for RemoteError {
    fn from(e: &ServedError) -> Self {
        match e {
            ServedError::Rejected(Rejected { depth, capacity }) => RemoteError::Rejected {
                depth: *depth as u64,
                capacity: *capacity as u64,
            },
            ServedError::QuotaExceeded { queued, quota } => RemoteError::QuotaExceeded {
                queued: *queued as u64,
                quota: *quota as u64,
            },
            ServedError::UnknownModel(m) => RemoteError::UnknownModel(*m as u64),
            ServedError::UnknownTenant(t) => RemoteError::UnknownTenant(*t as u64),
            ServedError::BadShape {
                model,
                expected,
                got,
            } => RemoteError::BadShape {
                model: *model as u64,
                expected: expected.iter().map(|&d| d as u64).collect(),
                got: got.iter().map(|&d| d as u64).collect(),
            },
            ServedError::DecodeUnsupported(m) => RemoteError::DecodeUnsupported(*m as u64),
            ServedError::StepPending => RemoteError::StepPending,
            ServedError::InvalidStep(reason) => RemoteError::InvalidStep(reason.clone()),
            ServedError::ShuttingDown => RemoteError::ShuttingDown,
        }
    }
}

/// A client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestFrame {
    /// Version/feature handshake; must be the first frame on a
    /// connection.
    Hello {
        /// Free-form client identification (logs only).
        client: String,
    },
    /// One inference request: forward `input` through `model` as
    /// `tenant`.
    Infer {
        /// Submitting tenant.
        tenant: u64,
        /// Target model.
        model: u64,
        /// The per-request input row.
        input: Tensor,
    },
    /// Opens a KV-cached decode session.
    DecodeOpen {
        /// Owning tenant.
        tenant: u64,
        /// Decoding model.
        model: u64,
    },
    /// One decode step in a previously opened session.
    DecodeStep {
        /// Connection-scoped session id from `DecodeOpened`.
        session: u64,
        /// The step's input row.
        input: Tensor,
    },
    /// Requests a Prometheus-text metrics snapshot.
    Stats,
}

/// A server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseFrame {
    /// Handshake accepted.
    HelloOk {
        /// The server's protocol version.
        version: u8,
        /// Registered model count.
        models: u64,
        /// Configured tenant-space size.
        tenants: u64,
    },
    /// The forward's (or decode step's) output row.
    Output {
        /// The response tensor, bit-exact.
        output: Tensor,
    },
    /// A decode session is open.
    DecodeOpened {
        /// Connection-scoped session id for `DecodeStep`.
        session: u64,
    },
    /// The Prometheus text export.
    StatsText {
        /// UTF-8 metrics body.
        text: String,
    },
    /// A typed failure.
    Error(RemoteError),
}

// ---------------------------------------------------------------------
// Primitive readers/writers
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                got: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn string(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed(what))
    }

    /// Rejects unconsumed bytes — every decoder's final step.
    fn done(&self) -> Result<(), WireError> {
        if self.remaining() > 0 {
            Err(WireError::TrailingBytes {
                extra: self.remaining(),
            })
        } else {
            Ok(())
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    put_u16(out, len as u16);
    out.extend_from_slice(&bytes[..len]);
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    out.push(t.shape.len() as u8);
    for &d in &t.shape {
        put_u32(out, d as u32);
    }
    for &v in &t.data {
        put_u32(out, v.to_bits());
    }
}

fn read_tensor(r: &mut Reader<'_>) -> Result<Tensor, WireError> {
    let ndim = r.u8()? as usize;
    if ndim == 0 || ndim > MAX_TENSOR_DIMS {
        return Err(WireError::Malformed("tensor rank out of range"));
    }
    let mut shape = Vec::with_capacity(ndim);
    let mut len = 1usize;
    for _ in 0..ndim {
        let d = r.u32()? as usize;
        if d == 0 {
            return Err(WireError::Malformed("zero tensor dimension"));
        }
        len = len
            .checked_mul(d)
            .filter(|&n| n <= MAX_FRAME_LEN / 4)
            .ok_or(WireError::Malformed("tensor element count overflows frame"))?;
        shape.push(d);
    }
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        data.push(f32::from_bits(r.u32()?));
    }
    Ok(Tensor::from_vec(data, &shape))
}

fn read_shape_u64(r: &mut Reader<'_>) -> Result<Vec<u64>, WireError> {
    let ndim = r.u8()? as usize;
    if ndim > MAX_TENSOR_DIMS {
        return Err(WireError::Malformed("shape rank out of range"));
    }
    (0..ndim).map(|_| r.u64()).collect()
}

fn put_shape_u64(out: &mut Vec<u8>, shape: &[u64]) {
    out.push(shape.len().min(MAX_TENSOR_DIMS) as u8);
    for &d in shape.iter().take(MAX_TENSOR_DIMS) {
        put_u64(out, d);
    }
}

fn header(opcode: u8) -> Vec<u8> {
    vec![PROTOCOL_VERSION, opcode]
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

/// Encodes a request frame payload (version + opcode + body, no length
/// prefix — [`write_frame`] adds it).
#[must_use]
pub fn encode_request(frame: &RequestFrame) -> Vec<u8> {
    match frame {
        RequestFrame::Hello { client } => {
            let mut out = header(op::HELLO);
            put_string(&mut out, client);
            out
        }
        RequestFrame::Infer {
            tenant,
            model,
            input,
        } => {
            let mut out = header(op::INFER);
            put_u64(&mut out, *tenant);
            put_u64(&mut out, *model);
            put_tensor(&mut out, input);
            out
        }
        RequestFrame::DecodeOpen { tenant, model } => {
            let mut out = header(op::DECODE_OPEN);
            put_u64(&mut out, *tenant);
            put_u64(&mut out, *model);
            out
        }
        RequestFrame::DecodeStep { session, input } => {
            let mut out = header(op::DECODE_STEP);
            put_u64(&mut out, *session);
            put_tensor(&mut out, input);
            out
        }
        RequestFrame::Stats => header(op::STATS),
    }
}

/// Decodes a request frame payload.
///
/// # Errors
///
/// Any [`WireError`]: version/opcode checks happen before the body is
/// parsed; the body parse is total (no panics on hostile bytes) and
/// rejects trailing garbage.
pub fn decode_request(payload: &[u8]) -> Result<RequestFrame, WireError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let opcode = r.u8()?;
    let frame = match opcode {
        op::HELLO => RequestFrame::Hello {
            client: r.string("hello client name not utf-8")?,
        },
        op::INFER => RequestFrame::Infer {
            tenant: r.u64()?,
            model: r.u64()?,
            input: read_tensor(&mut r)?,
        },
        op::DECODE_OPEN => RequestFrame::DecodeOpen {
            tenant: r.u64()?,
            model: r.u64()?,
        },
        op::DECODE_STEP => RequestFrame::DecodeStep {
            session: r.u64()?,
            input: read_tensor(&mut r)?,
        },
        op::STATS => RequestFrame::Stats,
        other => return Err(WireError::BadOpcode(other)),
    };
    r.done()?;
    Ok(frame)
}

/// Encodes a response frame payload.
#[must_use]
pub fn encode_response(frame: &ResponseFrame) -> Vec<u8> {
    match frame {
        ResponseFrame::HelloOk {
            version,
            models,
            tenants,
        } => {
            let mut out = header(op::HELLO_OK);
            out.push(*version);
            put_u64(&mut out, *models);
            put_u64(&mut out, *tenants);
            out
        }
        ResponseFrame::Output { output } => {
            let mut out = header(op::OUTPUT);
            put_tensor(&mut out, output);
            out
        }
        ResponseFrame::DecodeOpened { session } => {
            let mut out = header(op::DECODE_OPENED);
            put_u64(&mut out, *session);
            out
        }
        ResponseFrame::StatsText { text } => {
            let mut out = header(op::STATS_TEXT);
            let bytes = text.as_bytes();
            let len = bytes.len().min(MAX_FRAME_LEN - 8) as u32;
            put_u32(&mut out, len);
            out.extend_from_slice(&bytes[..len as usize]);
            out
        }
        ResponseFrame::Error(e) => {
            let mut out = header(op::ERROR);
            match e {
                RemoteError::Rejected { depth, capacity } => {
                    out.push(ec::REJECTED);
                    put_u64(&mut out, *depth);
                    put_u64(&mut out, *capacity);
                }
                RemoteError::UnknownModel(m) => {
                    out.push(ec::UNKNOWN_MODEL);
                    put_u64(&mut out, *m);
                }
                RemoteError::UnknownTenant(t) => {
                    out.push(ec::UNKNOWN_TENANT);
                    put_u64(&mut out, *t);
                }
                RemoteError::BadShape {
                    model,
                    expected,
                    got,
                } => {
                    out.push(ec::BAD_SHAPE);
                    put_u64(&mut out, *model);
                    put_shape_u64(&mut out, expected);
                    put_shape_u64(&mut out, got);
                }
                RemoteError::DecodeUnsupported(m) => {
                    out.push(ec::DECODE_UNSUPPORTED);
                    put_u64(&mut out, *m);
                }
                RemoteError::StepPending => out.push(ec::STEP_PENDING),
                RemoteError::InvalidStep(reason) => {
                    out.push(ec::INVALID_STEP);
                    put_string(&mut out, reason);
                }
                RemoteError::ShuttingDown => out.push(ec::SHUTTING_DOWN),
                RemoteError::QuotaExceeded { queued, quota } => {
                    out.push(ec::QUOTA_EXCEEDED);
                    put_u64(&mut out, *queued);
                    put_u64(&mut out, *quota);
                }
                RemoteError::UnknownSession(s) => {
                    out.push(ec::UNKNOWN_SESSION);
                    put_u64(&mut out, *s);
                }
                RemoteError::Protocol(msg) => {
                    out.push(ec::PROTOCOL);
                    put_string(&mut out, msg);
                }
            }
            out
        }
    }
}

/// Decodes a response frame payload.
///
/// # Errors
///
/// Any [`WireError`] — same totality guarantees as [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<ResponseFrame, WireError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let opcode = r.u8()?;
    let frame = match opcode {
        op::HELLO_OK => ResponseFrame::HelloOk {
            version: r.u8()?,
            models: r.u64()?,
            tenants: r.u64()?,
        },
        op::OUTPUT => ResponseFrame::Output {
            output: read_tensor(&mut r)?,
        },
        op::DECODE_OPENED => ResponseFrame::DecodeOpened { session: r.u64()? },
        op::STATS_TEXT => {
            let len = r.u32()? as usize;
            let bytes = r.bytes(len)?;
            ResponseFrame::StatsText {
                text: String::from_utf8(bytes.to_vec())
                    .map_err(|_| WireError::Malformed("stats text not utf-8"))?,
            }
        }
        op::ERROR => {
            let code = r.u8()?;
            let e = match code {
                ec::REJECTED => RemoteError::Rejected {
                    depth: r.u64()?,
                    capacity: r.u64()?,
                },
                ec::UNKNOWN_MODEL => RemoteError::UnknownModel(r.u64()?),
                ec::UNKNOWN_TENANT => RemoteError::UnknownTenant(r.u64()?),
                ec::BAD_SHAPE => RemoteError::BadShape {
                    model: r.u64()?,
                    expected: read_shape_u64(&mut r)?,
                    got: read_shape_u64(&mut r)?,
                },
                ec::DECODE_UNSUPPORTED => RemoteError::DecodeUnsupported(r.u64()?),
                ec::STEP_PENDING => RemoteError::StepPending,
                ec::SHUTTING_DOWN => RemoteError::ShuttingDown,
                ec::QUOTA_EXCEEDED => RemoteError::QuotaExceeded {
                    queued: r.u64()?,
                    quota: r.u64()?,
                },
                ec::UNKNOWN_SESSION => RemoteError::UnknownSession(r.u64()?),
                ec::PROTOCOL => RemoteError::Protocol(r.string("protocol message not utf-8")?),
                ec::INVALID_STEP => {
                    RemoteError::InvalidStep(r.string("invalid-step reason not utf-8")?)
                }
                _ => return Err(WireError::Malformed("unknown error code")),
            };
            ResponseFrame::Error(e)
        }
        other => return Err(WireError::BadOpcode(other)),
    };
    r.done()?;
    Ok(frame)
}

// ---------------------------------------------------------------------
// Framed stream I/O
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates the underlying `io::Error`; callers treat a failed write
/// as a dead peer.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — encoders never
/// produce such payloads, so this is a programming error, not a runtime
/// state.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "frame payload {} exceeds MAX_FRAME_LEN",
        payload.len()
    );
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Outcome of [`read_frame`].
#[derive(Debug)]
pub enum FrameRead {
    /// A complete payload.
    Frame(Vec<u8>),
    /// Clean EOF **at a frame boundary** — the peer hung up politely.
    Eof,
    /// The length prefix violated [`MAX_FRAME_LEN`]; nothing was
    /// consumed past it, and the stream is unsynchronized — close it.
    Oversized(WireError),
}

/// Reads one length-prefixed frame.
///
/// EOF in the **middle** of a frame (after a partial length prefix or a
/// partial payload) is an `UnexpectedEof` I/O error — the abrupt-
/// disconnect case, distinct from [`FrameRead::Eof`]. Once the first
/// byte is in, read timeouts are retried until [`FRAME_DEADLINE`], so a
/// slow peer's frame survives a socket timeout shorter than its pauses.
///
/// # Errors
///
/// Propagates the underlying `io::Error`: a read timeout on the first
/// byte (the server's idle poll, `WouldBlock`/`TimedOut`), or one past
/// the frame deadline.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<FrameRead> {
    let mut len_buf = [0u8; 4];
    // A clean EOF on the FIRST byte of the prefix is a polite hangup.
    if r.read(&mut len_buf[..1])? == 0 {
        return Ok(FrameRead::Eof);
    }
    let deadline = Instant::now() + FRAME_DEADLINE;
    read_until(r, &mut len_buf[1..], deadline)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Ok(FrameRead::Oversized(WireError::Oversized {
            len,
            max: MAX_FRAME_LEN,
        }));
    }
    let mut payload = vec![0u8; len];
    read_until(r, &mut payload, deadline)?;
    Ok(FrameRead::Frame(payload))
}

/// Fills `buf`, retrying timed-out and interrupted reads until
/// `deadline`. The offset is tracked by hand because after a timeout
/// `read_exact` leaves the number of bytes it consumed unspecified.
fn read_until(r: &mut impl Read, buf: &mut [u8], deadline: Instant) -> std::io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                    && Instant::now() < deadline => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(v: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), shape)
    }

    #[test]
    fn request_frames_round_trip() {
        let frames = [
            RequestFrame::Hello {
                client: "bench-client/1".into(),
            },
            RequestFrame::Infer {
                tenant: 3,
                model: 1,
                input: tensor(&[1.0, -0.0, f32::NAN.copysign(1.0), 2.5e-40], &[2, 2]),
            },
            RequestFrame::DecodeOpen {
                tenant: 0,
                model: 2,
            },
            RequestFrame::DecodeStep {
                session: 7,
                input: tensor(&[0.25; 6], &[6]),
            },
            RequestFrame::Stats,
        ];
        for f in &frames {
            let enc = encode_request(f);
            let dec = decode_request(&enc).expect("round trip");
            // Tensors compare by bits, not PartialEq (NaN payloads).
            match (&dec, f) {
                (RequestFrame::Infer { input: a, .. }, RequestFrame::Infer { input: b, .. })
                | (
                    RequestFrame::DecodeStep { input: a, .. },
                    RequestFrame::DecodeStep { input: b, .. },
                ) => {
                    assert_eq!(a.shape, b.shape);
                    let bits = |t: &Tensor| t.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b), "tensor bits must survive the wire");
                }
                _ => assert_eq!(&dec, f),
            }
        }
    }

    #[test]
    fn response_frames_round_trip() {
        let frames = [
            ResponseFrame::HelloOk {
                version: PROTOCOL_VERSION,
                models: 2,
                tenants: 8,
            },
            ResponseFrame::Output {
                output: tensor(&[9.75, -3.5], &[2]),
            },
            ResponseFrame::DecodeOpened { session: 42 },
            ResponseFrame::StatsText {
                text: "a_count 3\n".into(),
            },
            ResponseFrame::Error(RemoteError::Rejected {
                depth: 128,
                capacity: 128,
            }),
            ResponseFrame::Error(RemoteError::BadShape {
                model: 1,
                expected: vec![4, 4],
                got: vec![16],
            }),
            ResponseFrame::Error(RemoteError::QuotaExceeded {
                queued: 32,
                quota: 32,
            }),
            ResponseFrame::Error(RemoteError::Protocol("trailing bytes".into())),
            ResponseFrame::Error(RemoteError::InvalidStep("token 17 is not an id".into())),
        ];
        for f in &frames {
            assert_eq!(&decode_response(&encode_request_like(f)).unwrap(), f);
        }
    }

    // encode_response, named so the borrow in the loop reads naturally.
    fn encode_request_like(f: &ResponseFrame) -> Vec<u8> {
        encode_response(f)
    }

    #[test]
    fn bad_version_and_opcode_are_typed() {
        let mut enc = encode_request(&RequestFrame::Stats);
        enc[0] = 9;
        assert_eq!(decode_request(&enc), Err(WireError::BadVersion(9)));
        let mut enc = encode_request(&RequestFrame::Stats);
        enc[1] = 0x77;
        assert_eq!(decode_request(&enc), Err(WireError::BadOpcode(0x77)));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let full = encode_request(&RequestFrame::Infer {
            tenant: 1,
            model: 0,
            input: tensor(&[1.0, 2.0, 3.0, 4.0], &[4]),
        });
        for cut in 0..full.len() {
            let err = decode_request(&full[..cut]).expect_err("truncation must fail");
            assert!(
                matches!(err, WireError::Truncated { .. } | WireError::Malformed(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut enc = encode_request(&RequestFrame::Stats);
        enc.push(0);
        assert_eq!(
            decode_request(&enc),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn framed_io_round_trips_and_detects_abrupt_eof() {
        let payload = encode_request(&RequestFrame::Hello { client: "c".into() });
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf.clone());
        match read_frame(&mut cursor).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, payload),
            other => panic!("expected frame, got {other:?}"),
        }
        // Clean EOF at the boundary.
        assert!(matches!(read_frame(&mut cursor).unwrap(), FrameRead::Eof));
        // EOF mid-frame is an io error, not a silent drop.
        let mut cut = std::io::Cursor::new(buf[..buf.len() - 1].to_vec());
        assert!(read_frame(&mut cut).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_flagged_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor).unwrap(),
            FrameRead::Oversized(WireError::Oversized { .. })
        ));
    }
}
