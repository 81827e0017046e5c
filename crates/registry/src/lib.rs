//! # gqa-registry — the LUT artifact registry
//!
//! LUT compilation as a first-class, cached pipeline. A cold build runs
//! the full genetic search (or NN-LUT training); the registry makes
//! artifacts **content-addressed** and turns repeat builds into cache
//! hits:
//!
//! ```text
//!   LutSpec ── key() ──▶ LutKey ── LutRegistry::get_or_build ─▶ Arc<QuantAwareLut>
//!   (method, op,         content      │ hit: return cached artifact
//!    entries, seed,      address      │ miss: single-flight cold compile
//!    budget)                          ▼        (genetic search /
//!                                  stats        NN-LUT training)
//! ```
//!
//! * [`LutSpec`] / [`LutKey`] — the request and its content address. The
//!   key folds in a fingerprint of the fully derived search/training
//!   configuration, so config changes change artifact identity.
//! * [`LutRegistry`] — interior-mutable cache: single-flight build
//!   deduplication (concurrent requests for one key run one build), LRU
//!   capacity bounds, and hit/miss/build-time [`RegistryStats`]. This
//!   crate keeps no process-wide instance: each owner (an engine, a
//!   bench binary) creates its own and shares it behind an `Arc`.
//! * [`LutBuildError`] — typed validation failure (zero/out-of-domain
//!   budget, unsupported entry count) instead of a panic deep in the
//!   search.
//! * JSON snapshots ([`LutRegistry::save_snapshot`] /
//!   [`LutRegistry::load_snapshot`], plus the in-memory
//!   [`LutRegistry::snapshot_json`] / [`LutRegistry::load_snapshot_json`]
//!   pair and the per-key-filtered
//!   [`LutRegistry::snapshot_json_where`]) with bit-exact f64
//!   round-tripping, so bench binaries warm-start from a saved file and
//!   the serving engine shards its store per operator.
//! * [`HotSwapBackend`] — an atomically replaceable serving backend, so a
//!   live model graph hops between exact math and freshly compiled LUT
//!   datapaths without rebuilding the graph.
//!
//! ## Example
//!
//! ```
//! use gqa_registry::{LutRegistry, LutSpec, Method};
//! use gqa_funcs::NonLinearOp;
//!
//! let registry = LutRegistry::new();
//! let spec = LutSpec::new(Method::GqaRm, NonLinearOp::Gelu, 8, 42).with_budget(0.05);
//! let cold = registry.get_or_build(&spec).unwrap();
//! let warm = registry.get_or_build(&spec).unwrap();   // cache hit, no search
//! assert!(std::sync::Arc::ptr_eq(&cold, &warm));
//! assert_eq!(registry.stats().hits, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod method;
mod registry;
mod snapshot;
mod spec;
mod swap;

pub use method::Method;
pub use registry::{LutRegistry, RegistryStats};
pub use snapshot::{fnv1a_64, snapshot_content_hash, SnapshotError, SNAPSHOT_VERSION};
pub use spec::{LutBuildError, LutKey, LutSpec, PIPELINE_VERSION};
pub use swap::HotSwapBackend;
