//! # gqa — GQA-LUT reproduction façade
//!
//! This crate re-exports the whole GQA-LUT workspace behind one name so the
//! examples and integration tests can write `use gqa::pwl::Pwl;` etc.
//!
//! The workspace reproduces *Genetic Quantization-Aware Approximation for
//! Non-Linear Operations in Transformers* (DAC 2024):
//!
//! * [`fxp`] — fixed-point values, power-of-two scales, the Eq. (2) quantizer.
//! * [`funcs`] — reference non-linear functions (GELU, HSWISH, EXP, DIV, RSQRT, …).
//! * [`simd`] — wide-lane (AVX2) kernels for the batch hot paths, with
//!   bit-exact scalar fallbacks.
//! * [`pwl`] — piece-wise linear LUT approximation and its quantized execution.
//! * [`genetic`] — the GQA-LUT genetic search with Rounding Mutation.
//! * [`nnlut`] — the NN-LUT baseline (neural pwl extraction).
//! * [`registry`] — the content-addressed LUT artifact registry (cached,
//!   deduplicated compilation; JSON snapshots; hot-swappable backends).
//! * [`serve`] — the serving engine: typed [`serve::OperatorPlan`]s
//!   resolved into per-operator hot-swap datapaths behind cloneable
//!   [`serve::Session`] handles, with an operator-level control plane
//!   (`swap`/`refresh`/`stats`) and per-operator snapshot shards.
//! * [`served`] — the multi-tenant serving front-end above the engine:
//!   bounded admission with per-tenant quotas and round-robin fair
//!   lanes, per-model request coalescing into single batched forwards
//!   (bit-invisible to callers), per-tenant lock-free latency and
//!   queue-wait histograms, and deterministic Zipfian load generation.
//! * [`net`] — the network front door above the front-end: a
//!   length-prefixed binary wire protocol over blocking TCP sockets
//!   (thread-per-connection, no async runtime) submitting straight into
//!   [`served`], a blocking [`net::NetClient`], and the `gqa-soak` load
//!   binary with Prometheus-text metric export.
//! * [`quant`] — the model harness's min-max power-of-two INT8 weight snap.
//! * [`tensor`] — minimal CPU tensor library with reverse-mode autodiff.
//! * [`data`] — SynthScapes synthetic segmentation dataset + mIoU metrics.
//! * [`models`] — SegformerLite / EfficientVitLite with pluggable non-linear backends.
//! * [`hardware`] — TSMC-28nm-calibrated area/power model of the LUT pwl units.
//!
//! ## Cargo features
//!
//! * `simd` (default) — forwards the runtime-detected AVX2 kernel paths
//!   through every workspace crate; results are bit-identical with it
//!   off (CI's scalar matrix leg builds the whole workspace with
//!   `--no-default-features` to prove it). It is the only feature.
//!
//! Genetic population scoring and large matmuls always use more than one
//! thread when the work is large enough and more than one CPU is
//! available, and fall back to the serial sweep otherwise. Results are
//! bit-identical either way.
//!
//! ## Quickstart: serve a model through the engine
//!
//! The single typed surface for "serve this model with this
//! op→method/precision plan" is the [`serve`] engine: plan the
//! operators, build the engine (it owns its artifact registry), and hand
//! out sessions — each one a `UnaryBackend` the model graphs consume.
//!
//! ```
//! use gqa::serve::{EngineBuilder, OperatorPlan, OpPlan};
//! use gqa::registry::Method;
//! use gqa::funcs::NonLinearOp;
//! use gqa::tensor::{UnaryBackend, UnaryKind};
//!
//! // Small budget for the doctest; production plans use budget 1.0
//! // (the paper's T = 500 generations).
//! let base = OpPlan::new(Method::GqaRm).with_seed(7).with_budget(0.05);
//! let plan = OperatorPlan::new()
//!     .with(NonLinearOp::Gelu, base)
//!     .with(NonLinearOp::Div, base);
//! let engine = EngineBuilder::new(plan).build().unwrap();
//!
//! // Sessions are cheap clones; `Graph::new(&session)` serves a model.
//! let session = engine.session();
//! assert!((session.eval(UnaryKind::Gelu, 1.0) - 0.841).abs() < 0.1);
//!
//! // The control plane retunes one operator across every live session.
//! let retuned = base.with_seed(8);
//! engine.swap(NonLinearOp::Gelu, retuned).unwrap();
//! assert_eq!(engine.plan().get(NonLinearOp::Gelu).unwrap().seed, 8);
//! assert_eq!(engine.stats().swaps, 1);
//! ```
//!
//! The underlying layers remain directly usable — e.g. running the
//! genetic search by hand:
//!
//! ```
//! use gqa::genetic::{GeneticSearch, SearchConfig};
//! use gqa::funcs::NonLinearOp;
//!
//! let cfg = SearchConfig::for_op(NonLinearOp::Gelu)
//!     .with_generations(20)
//!     .with_population(16)
//!     .with_seed(7);
//! let lut = GeneticSearch::new(cfg).run();
//! assert_eq!(lut.pwl().num_entries(), 8);
//! ```

pub use gqa_data as data;
pub use gqa_funcs as funcs;
pub use gqa_fxp as fxp;
pub use gqa_genetic as genetic;
pub use gqa_hardware as hardware;
pub use gqa_models as models;
pub use gqa_net as net;
pub use gqa_nnlut as nnlut;
pub use gqa_pwl as pwl;
pub use gqa_quant as quant;
pub use gqa_registry as registry;
pub use gqa_serve as serve;
pub use gqa_served as served;
pub use gqa_simd as simd;
pub use gqa_tensor as tensor;
