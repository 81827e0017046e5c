//! `gqa-net`: the network front door for the `gqa-served` serving
//! front-end — a socket transport and wire protocol.
//!
//! The serving stack below this crate is process-local: tenants hold a
//! [`gqa_served::Served`] handle and submit through it. This crate puts
//! that behind a TCP socket without weakening any of its contracts:
//!
//! - **[`wire`]** — a length-prefixed, versioned binary protocol.
//!   Requests (`Hello`, `Infer`, `DecodeOpen`, `DecodeStep`, `Stats`)
//!   and responses are pure-function encode/decode over byte buffers;
//!   tensors travel as raw `f32` bit patterns, so the transport cannot
//!   perturb a single mantissa bit. Every decoder is total: malformed
//!   bytes come back as typed [`WireError`]s, never panics.
//! - **[`server`]** — [`NetServer`]: a blocking accept loop (no async
//!   runtime) and thread-per-connection frame handlers that call
//!   `Served::submit` directly. Admission — per-tenant quotas, fair
//!   round-robin lanes, the batching deadline — is the fronted server's
//!   [`gqa_served::Coalescer`], the same for socket, in-process and
//!   decode traffic.
//! - **[`client`]** — [`NetClient`]: a blocking lockstep client used by
//!   the equivalence suites, the `gqa-soak` binary, and examples.
//!
//! The load-bearing contract is inherited, not invented here: a
//! response read off the socket is `to_bits`-identical to the same
//! request served in-process, including across mid-traffic engine
//! swaps and refreshes — the wire layer moves bits, fair admission only
//! reorders requests, and the coalescing-invisibility contract does the
//! rest.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{NetClient, NetError, ServerInfo};
pub use server::{NetConfig, NetServer, NetStats};
pub use wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    FrameRead, RemoteError, RequestFrame, ResponseFrame, WireError, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
