//! # gqa-genetic — the GQA-LUT genetic search (Algorithms 1 and 2)
//!
//! This crate is the paper's primary contribution: a genetic algorithm that
//! evolves pwl *breakpoint sets* with quantization awareness.
//!
//! * [`SearchConfig`] — all hyper-parameters, with [`SearchConfig::for_op`]
//!   reproducing Table 1 exactly (`N_b = 7`, `N_p = 50`, `θ_c = 0.7`,
//!   `θ_m = 0.2`, `T = 500`, `λ = 5`, per-op ranges and RM settings).
//! * [`GeneticSearch`] — Algorithm 1: population init, λ-aware grid-MSE
//!   fitness (step 0.01), segment-swap crossover, mutation, 3-way
//!   tournament selection, and the final FXP conversion of
//!   slopes/intercepts. Population scoring shards across a persistent
//!   worker pool when there is enough work and more than one CPU; the
//!   scores, and so every result bit, match the serial sweep.
//! * [`mutation`] — both mutation operators: the baseline Gaussian noise
//!   ("GQA-LUT w/o RM") and the Rounding Mutation of Algorithm 2
//!   ("GQA-LUT w/ RM"), which *images FXP conversion as mutation* so the
//!   population internalizes breakpoint-deviation error.
//!
//! ## Example
//!
//! ```
//! use gqa_genetic::{GeneticSearch, SearchConfig, MutationKind};
//! use gqa_funcs::NonLinearOp;
//!
//! // Paper defaults, shrunk for the doctest.
//! let cfg = SearchConfig::for_op(NonLinearOp::Exp)
//!     .with_generations(30)
//!     .with_population(20)
//!     .with_seed(42);
//! let result = GeneticSearch::new(cfg).run();
//! assert_eq!(result.pwl().num_entries(), 8);
//! assert!(result.best_mse() < 1e-2);
//! ```

//!
//! ## The `simd` feature (default-on)
//!
//! Forwarded to `gqa-pwl`: fitness scoring sweeps the sorted grid
//! through the wide-lane segment kernels. Search results are identical
//! bit for bit with the feature on or off — the golden tests in
//! `tests/golden.rs` are run both ways in CI, and again on one CPU
//! (`taskset -c 0`), which forces the serial scoring sweep.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
mod fitness;
pub mod mutation;
mod pool;
mod search;
mod selection;

pub use config::{FitnessMode, MutationKind, SearchConfig};
pub use fitness::FitnessEvaluator;
pub use search::{GeneticSearch, SearchResult};
pub use selection::tournament_select;
