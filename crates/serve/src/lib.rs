//! # gqa-serve — the unified serving engine
//!
//! One typed surface for "serve this model with this op→method/precision
//! plan", as a single data flow:
//!
//! ```text
//!   OperatorPlan ──▶ EngineBuilder::build()
//!   (op → method,      │  resolves every planned artifact through an
//!    entries, bits,    │  OWNED LutRegistry (warm-started from the
//!    seed, budget,     │  per-operator snapshot shards, if configured)
//!    input scale)      ▼
//!                    Engine ── session() ──▶ Session (cheap Clone,
//!                      │                      impl UnaryBackend — what
//!                      │                      the model graphs consume)
//!                      ├─ swap(op, plan)      retune ONE operator across
//!                      │                      every live session
//!                      ├─ refresh()           reload rebuilt artifacts
//!                      │                      from shards (mtime-based)
//!                      └─ save_shards() / plan() / stats()
//! ```
//!
//! * [`OperatorPlan`] / [`OpPlan`] — the typed request: which
//!   [`NonLinearOp`]s are LUT-served and, per operator, the construction
//!   [`Method`], entry count, serving integer precision, RNG seed, search
//!   budget, and power-of-two input scale.
//! * [`Engine`] — owns its [`LutRegistry`] (or shares one passed to
//!   [`EngineBuilder::with_registry`]), wires one
//!   [`HotSwapBackend`](gqa_registry::HotSwapBackend) per planned
//!   operator, and is the control plane: [`Engine::swap`] retunes a
//!   single operator under every live session, [`Engine::refresh`]
//!   picks up artifacts rebuilt by other processes without a restart.
//! * [`Session`] — a cheap cloneable serving handle implementing
//!   [`UnaryBackend`](gqa_tensor::UnaryBackend); hand `&session` to
//!   `Graph::new` / the fine-tune harness exactly where an
//!   `ExactBackend` would go. Sessions share the engine's swap cells, so
//!   they observe retunes immediately — while the hot-swap contract
//!   keeps every in-flight tensor on a single datapath.
//! * **Sharded persistence** — [`EngineBuilder::with_snapshot_dir`]
//!   points the engine at a directory of per-operator snapshot files
//!   (`lut-<op>.json`); builds warm-start from them, [`Engine::save_shards`]
//!   writes them, and [`Engine::refresh`] reloads exactly the shards whose
//!   file metadata (mtime/length) changed.
//! * [`ModelForward`] / [`ModelDecode`] — what a servable model is: a
//!   batched-forward entry point (closures implement it via a blanket
//!   impl), optionally advertising a KV-cached incremental decode entry
//!   point whose [`ModelDecode::check_step`] refuses a step it cannot
//!   run. `gqa-models` implements them for its decoder and `gqa-served`
//!   drives (and re-exports) them.
//!
//! ## Example
//!
//! ```
//! use gqa_serve::{EngineBuilder, OperatorPlan, OpPlan};
//! use gqa_registry::Method;
//! use gqa_funcs::NonLinearOp;
//! use gqa_tensor::{UnaryBackend, UnaryKind};
//!
//! let plan = OperatorPlan::new()
//!     .with(NonLinearOp::Gelu, OpPlan::new(Method::GqaRm).with_seed(7).with_budget(0.05));
//! let engine = EngineBuilder::new(plan).build().unwrap();
//! let session = engine.session();
//! // GELU is served through the INT8 LUT datapath; unplanned operators
//! // fall through to exact math.
//! let y = session.eval(UnaryKind::Gelu, 1.0);
//! assert!((y - 0.841).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod calibrate;
mod datapath;
mod engine;
mod model;
mod plan;
mod session;
mod store;

pub use calibrate::CalibrationRecorder;
pub use datapath::{build_datapath, OpDatapath};
pub use engine::{Engine, EngineBuilder, EngineError, EngineStats};
pub use model::{DecodeState, ModelDecode, ModelForward};
pub use plan::{serve_kind, OpPlan, OperatorPlan};
pub use session::Session;
pub use store::shard_file_name;

// The vocabulary types callers need alongside the engine.
pub use gqa_funcs::NonLinearOp;
pub use gqa_registry::{LutBuildError, LutRegistry, LutSpec, Method, SnapshotError};
