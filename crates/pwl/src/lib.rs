//! # gqa-pwl — piece-wise linear LUT approximation core
//!
//! Implements the paper's Eq. (1) approximation object and both LUT storage
//! / execution patterns of Figure 1:
//!
//! * [`Pwl`] — the floating-point piece-wise linear function
//!   `pwl(x) = k_i·x + b_i` with breakpoints `p_0 < … < p_{N−2}`
//!   (Figure 1a, the FP/INT32 pattern used by NN-LUT / RI-LUT).
//! * [`QuantAwareLut`] — the paper's INT8/16 pattern (Figure 1b): slopes and
//!   intercepts stored as λ-fractional-bit fixed point, breakpoints
//!   quantized per scale `S` via Eq. (3), intercepts rescaled by a shifter
//!   at run time, and the whole evaluation performed in integer arithmetic.
//! * [`MultiRangeScaling`] — the Multi-Range Input Scaling strategy
//!   (§3.1, Table 2) for the wide-range DIV / RSQRT operators.
//! * [`fit`] — derivation of slopes/intercepts from a breakpoint set
//!   (Algorithm 1 line 21, "K*, B* ← Derived from P*"), by segment-endpoint
//!   interpolation or per-segment least squares.
//! * [`eval`] — the MSE evaluators: the uniform-grid fitness of Algorithm 1
//!   (line 6, step 0.01) and the dequantized-grid operator-level evaluation
//!   of §4.1 (`x ∈ [Qn·S, Qp·S]` stepping by `S`).
//!
//! ## Example: approximate GELU and run it through the INT8 path
//!
//! ```
//! use gqa_pwl::{fit, Pwl, QuantAwareLut, SegmentFit};
//! use gqa_funcs::NonLinearOp;
//! use gqa_fxp::{IntRange, PowerOfTwoScale};
//!
//! let op = NonLinearOp::Gelu;
//! let (rn, rp) = op.default_range();
//! // Hand-picked breakpoints (the genetic crate finds better ones).
//! let bps = vec![-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0];
//! let pwl = fit::fit_pwl(&|x| op.eval(x), (rn, rp), &bps, SegmentFit::LeastSquares)?;
//! let lut = QuantAwareLut::new(pwl, 5)?; // λ = 5 fractional bits
//!
//! let scale = PowerOfTwoScale::new(-4);
//! let inst = lut.instantiate(scale, IntRange::signed(8));
//! let y = inst.eval_dequantized(inst.quantize_input(1.0));
//! assert!((y - op.eval(1.0)).abs() < 0.1);
//! # Ok::<(), gqa_pwl::PwlError>(())
//! ```

//!
//! ## The `simd` feature (default-on)
//!
//! The batch hot paths — segment sweeps and the MSE accumulators — run
//! on the wide-lane kernels of [`gqa_simd`](https://docs.rs/gqa-simd)
//! (AVX2, runtime-detected).
//! Disabling the feature compiles the scalar fallbacks instead; results
//! are identical bit for bit either way (property-tested in
//! `tests/batch_equivalence.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod fit;
mod multirange;
mod pwl_fn;
mod quantized;
mod storage;
mod table;

pub use fit::SegmentFit;
pub use multirange::{MultiRangeLut, MultiRangeScaling, RescaleKind, SubRange};
pub use pwl_fn::{Pwl, PwlError};
pub use quantized::{FxpPwl, IntLutInstance, QuantAwareLut};
pub use storage::{LutFormat, LutStorage};
pub use table::CodeTable;
