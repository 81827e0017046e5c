//! # gqa-bench — the experiment harness
//!
//! Shared machinery for the `table*` / `figure*` binaries that regenerate
//! every table and figure of the paper. Each binary prints the same rows /
//! series the paper reports.
//!
//! The harness is deterministic: every search/training run is seeded, so
//! two invocations print identical numbers.
//!
//! Every LUT a binary builds resolves through one [`registry`] per
//! process. Set `GQA_LUT_SNAPSHOT=<path>` to warm-start it from a saved
//! registry snapshot (`table3_operator_mse` also writes the file back).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Arc, OnceLock};

use gqa_registry::LutRegistry;

pub mod methods;
pub mod table;

pub use methods::{
    build_lut, build_lut_budgeted, mse_per_scale, mse_scale_average, wide_range_mse, Method,
};

/// The process's artifact registry, shared by [`build_lut`] and every
/// per-row serving engine. On first use it warm-starts from the JSON
/// snapshot named by `GQA_LUT_SNAPSHOT`, when that is set and readable.
#[must_use]
pub fn registry() -> Arc<LutRegistry> {
    static SHARED: OnceLock<Arc<LutRegistry>> = OnceLock::new();
    Arc::clone(SHARED.get_or_init(|| {
        let registry = LutRegistry::new();
        if let Ok(path) = std::env::var("GQA_LUT_SNAPSHOT") {
            // A missing/stale/corrupt snapshot must never poison startup.
            let _ = registry.load_snapshot(&path);
        }
        Arc::new(registry)
    }))
}
