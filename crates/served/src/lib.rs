//! # gqa-served — the multi-tenant serving front-end
//!
//! The layer above [`gqa_serve`]: the engine answers "forward this tensor
//! through this backend"; this crate answers "many tenants are submitting
//! requests concurrently — admit, batch, and answer them" without giving
//! up a single bit of the workspace's determinism contracts.
//!
//! ```text
//!   tenants ──▶ Served::submit(Request)        admission control:
//!                 │                            bounded queue, per-tenant
//!                 │  Coalescer (pure state     quota, typed Rejected /
//!                 │  machine, tick-driven,     QuotaExceeded backpressure
//!                 │  per-tenant fair lanes)
//!                 ▼
//!            same-model batch ──▶ dispatch_batch: ONE pooled inference
//!                 │               forward over the stacked [batch, ...]
//!                 │               tensor through a shared Session
//!                 ▼
//!            per-request rows ──▶ Ticket::wait() + per-tenant
//!                                 LatencyHistogram (lock-free)
//! ```
//!
//! The load-bearing property is **coalescing invisibility**: each
//! request's response is `to_bits`-identical to what a batch-of-one
//! forward on the same engine state would return. Batching is purely a
//! throughput decision — it can never change an answer — because every
//! graph op treats leading-dimension rows independently with pinned
//! per-element reduction order, and the LUT sweeps are element-wise.
//! `tests/coalesce.rs` enforces the property over scripted arrival
//! schedules on a **virtual clock** (no sleeps, no wall-time flakes), and
//! `tests/concurrency.rs` keeps it intact while
//! [`Engine::swap`](gqa_serve::Engine::swap) and
//! [`Engine::refresh`](gqa_serve::Engine::refresh) race live traffic.
//!
//! * [`Coalescer`] — all batching and admission policy (flush-by-size,
//!   flush-by-deadline, model segregation, bounded admission, per-tenant
//!   quotas, round-robin fair lanes) as a pure, explicitly-ticked state
//!   machine — the single admission point for in-process callers, decode
//!   steps and the `gqa-net` socket layer alike. `tests/fairness.rs`
//!   pins its starvation bound: an item at lane depth `p` among `T`
//!   tenants leaves within `(p + 1) · T` flushed items.
//! * [`Served`] / [`ServedBuilder`] — the threaded shell: worker pool,
//!   condvar rendezvous [`Ticket`]s, wall or virtual clock, graceful
//!   drain on drop.
//! * [`ModelForward`] / [`ModelDecode`] — what a servable model is: a
//!   named batched-forward entry point (closures implement it via a
//!   blanket impl), optionally advertising a KV-cached incremental
//!   decode entry point. Both are defined in [`gqa_serve`] and
//!   re-exported here; [`ModelSpec`] registers one under a name and row
//!   shape. `gqa_models::ServedDecoder` is the `TinyDecoder` adapter.
//! * [`DecodeSession`] ([`Served::open_decode`]) — per-sequence decode
//!   handle: one token-step at a time, steps coalesced across sessions,
//!   each step `to_bits`-identical to the corresponding row of the
//!   model's full-prefix causal forward (prefix equivalence, pinned by
//!   `tests/decode.rs` including mid-decode engine swaps). A step the
//!   model's [`ModelDecode::check_step`] refuses (a token outside the
//!   vocabulary, a full context) fails with [`ServedError::InvalidStep`]
//!   before it is queued.
//! * [`dispatch_batch`] — the single execution path (stack → one pooled
//!   forward → slice) shared by the workers, the tests, and the benches.
//! * [`LatencyHistogram`] — log-bucketed lock-free latency recording,
//!   with honest interval quantiles ([`HistogramSnapshot`]); per tenant
//!   for service latency ([`Served::tenant_latency`]) and queue wait
//!   ([`Served::queue_wait`]).
//! * [`generate_trace`] — seeded Zipfian load (golden-trace pinned) for
//!   reproducible serving benchmarks.
//!
//! ## Example
//!
//! ```
//! use gqa_served::{ModelSpec, Request, ServedBuilder};
//! use gqa_serve::{EngineBuilder, OperatorPlan};
//! use gqa_tensor::Tensor;
//!
//! let engine = EngineBuilder::new(OperatorPlan::new()).build().unwrap();
//! let served = ServedBuilder::new(engine)
//!     .with_model(ModelSpec::new("double", &[2], |g, x| g.scale(x, 2.0)))
//!     .build();
//! let out = served
//!     .serve(Request {
//!         tenant: 0,
//!         model: 0,
//!         input: Tensor::from_vec(vec![1.0, -3.0], &[2]),
//!     })
//!     .unwrap();
//! assert_eq!(out.data, vec![2.0, -6.0]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod batcher;
mod histogram;
mod loadgen;
mod model;
mod request;
mod server;

pub use batcher::{Batch, BatchConfig, Coalescer};
pub use gqa_serve::{DecodeState, ModelDecode, ModelForward};
pub use histogram::{bucket_bounds, bucket_of, HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use loadgen::{generate_trace, request_input, trace_fingerprint, LoadGenConfig, TraceEntry};
pub use model::ModelSpec;
pub use request::{ModelId, Rejected, Request, ServedError, TenantId};
pub use server::{
    dispatch_batch, DecodeSession, Served, ServedBuilder, ServedConfig, ServedStats, Ticket,
};
