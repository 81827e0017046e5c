//! MSE evaluators: the fitness of Algorithm 1 and the quantization-aware
//! operator-level evaluation protocol of §4.1.
//!
//! The uniform-grid fitness is *batched*: the sample grid is materialized
//! once into a reusable buffer ([`MseGrid`]) and every approximant is
//! evaluated over it through [`BatchEval`], so the per-candidate cost is
//! two buffer sweeps with no per-element virtual dispatch. The closure
//! entry points [`mse_grid`] and [`mse_grid_fn`] are thin wrappers over
//! it. [`mse_dequantized`] is the §4.1 protocol on integer codes, with the
//! datapath passed as a closure; the quant-aware search runs the same
//! protocol on `IntLutInstance::fill_codes` over each scale's span of
//! codes.

use gqa_funcs::{fill_grid, BatchEval, FnEval};
use gqa_fxp::{IntRange, PowerOfTwoScale};

use crate::pwl_fn::Pwl;

/// A reusable uniform evaluation grid with the reference values
/// precomputed: build once per `(f, range, step)`, score many
/// approximants.
///
/// # Example
///
/// ```
/// use gqa_pwl::{eval::MseGrid, fit, SegmentFit};
/// use gqa_funcs::NonLinearOp;
///
/// let grid = MseGrid::new(&NonLinearOp::Gelu, (-4.0, 4.0), 0.01);
/// assert_eq!(grid.len(), 800); // Table 1's "0.8K" data size
/// let p = fit::fit_pwl(&|x| NonLinearOp::Gelu.eval(x), (-4.0, 4.0),
///     &[-2.0, -1.0, 0.0, 1.0, 2.0], SegmentFit::LeastSquares).unwrap();
/// let mut scratch = Vec::new();
/// assert!(grid.mse_of(&p, &mut scratch) < 1e-2);
/// ```
#[derive(Debug, Clone)]
pub struct MseGrid {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl MseGrid {
    /// Samples `f` once over the Algorithm-1 grid `x = rn, rn+step, …`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive or the range is empty (the grid
    /// length rule lives in [`gqa_funcs::grid_len`]).
    #[must_use]
    pub fn new(f: &dyn BatchEval, range: (f64, f64), step: f64) -> Self {
        let mut xs = Vec::new();
        fill_grid(range, step, &mut xs);
        let mut ys = vec![0.0; xs.len()];
        f.eval_batch(&xs, &mut ys);
        Self { xs, ys }
    }

    /// Number of grid points (the paper's "Data Size").
    #[must_use]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the grid is empty (never true for validated construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The sample points.
    #[must_use]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The reference values `f(x)`.
    #[must_use]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Mean squared error of `approx` against the precomputed reference,
    /// evaluated batch-wise. `scratch` is resized as needed and reused
    /// across calls so steady-state scoring allocates nothing.
    ///
    /// The squared-error accumulation runs through
    /// [`gqa_simd::sum_sq_diff`], whose four-lane reduction order is
    /// pinned (and replayed exactly by its scalar fallback), so the value
    /// is identical with the `simd` feature on or off.
    #[must_use]
    pub fn mse_of(&self, approx: &dyn BatchEval, scratch: &mut Vec<f64>) -> f64 {
        scratch.resize(self.xs.len(), 0.0);
        approx.eval_batch(&self.xs, scratch);
        gqa_simd::sum_sq_diff(scratch, &self.ys) / self.xs.len() as f64
    }
}

/// Uniform-grid MSE (Algorithm 1, lines 6–8):
/// `E = Σ (pwl(x) − f(x))² / N` for `x = Rn, Rn+step, …` (`N` samples,
/// counted by [`gqa_funcs::grid_len`]).
///
/// This is the genetic fitness function; the paper uses `step = 0.01`,
/// which also produces the "Data Size" row of Table 1 (0.8K points for
/// GELU's `(−4, 4)` range).
///
/// # Panics
///
/// Panics if `step` is not positive or the range is inverted.
#[must_use]
pub fn mse_grid(pwl: &Pwl, f: &dyn Fn(f64) -> f64, range: (f64, f64), step: f64) -> f64 {
    let grid = MseGrid::new(&FnEval(f), range, step);
    grid.mse_of(pwl, &mut Vec::new())
}

/// [`mse_grid`] generalized to any approximant closure (used to score the
/// NN-LUT network before pwl extraction, and quantized evaluators).
///
/// Prefer building an [`MseGrid`] once when scoring many approximants
/// against the same reference.
///
/// # Panics
///
/// Panics if `step` is not positive or the range is inverted.
#[must_use]
pub fn mse_grid_fn(
    approx: &dyn Fn(f64) -> f64,
    f: &dyn Fn(f64) -> f64,
    range: (f64, f64),
    step: f64,
) -> f64 {
    let grid = MseGrid::new(&FnEval(f), range, step);
    grid.mse_of(&FnEval(approx), &mut Vec::new())
}

/// Dequantized-grid MSE (§4.1): inputs are sampled "orderly from the
/// dequantized range `[Qn·S, Qp·S]` with an incremental step size of S" —
/// i.e. exactly the values an INT8 tensor can take at scale `S`.
///
/// `eval_q` receives the *integer* code `q` and must return the approximant
/// output on the real axis (already multiplied by S), mirroring the
/// integer datapath of Figure 1(b). Codes whose dequantized value falls
/// outside `clip_range` (when given) are skipped, which confines the
/// comparison to the operator's meaningful domain (e.g. EXP's `(−8, 0]`).
///
/// Returns `0.0` — a defined value, never NaN — when every code is
/// clipped (`n == 0`). The error accumulates through the pinned-order
/// reduction of [`gqa_simd::sum_sq_diff`]. For an
/// [`IntLutInstance`](crate::IntLutInstance), pass
/// `|q| inst.eval_dequantized(q)`.
#[must_use]
pub fn mse_dequantized(
    eval_q: &dyn Fn(i64) -> f64,
    f: &dyn Fn(f64) -> f64,
    scale: PowerOfTwoScale,
    range: IntRange,
    clip_range: Option<(f64, f64)>,
) -> f64 {
    let s = scale.to_f64();
    let n_codes = (range.qp() - range.qn() + 1) as usize;
    let mut approx = Vec::with_capacity(n_codes);
    let mut reference = Vec::with_capacity(n_codes);
    for q in range.iter() {
        let x = q as f64 * s;
        if let Some((lo, hi)) = clip_range {
            if x < lo || x > hi {
                continue;
            }
        }
        approx.push(eval_q(q));
        reference.push(f(x));
    }
    if approx.is_empty() {
        0.0
    } else {
        gqa_simd::sum_sq_diff(&approx, &reference) / approx.len() as f64
    }
}

/// The scale sweep used in Figures 2(a) and 3: `S ∈ {2^0, 2^-1, …, 2^-6}`.
#[must_use]
pub fn paper_scale_sweep() -> Vec<PowerOfTwoScale> {
    (-6..=0).rev().map(PowerOfTwoScale::new).collect()
}

/// Normalizes a series to its maximum (the y-axis convention of the
/// paper's figures). Returns all zeros if the max is 0.
#[must_use]
pub fn normalize_to_max(series: &[f64]) -> Vec<f64> {
    let max = series.iter().copied().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return vec![0.0; series.len()];
    }
    series.iter().map(|&v| v / max).collect()
}

/// The paper's Figure 2(a) log-compression: `log10(2e4 · mse)`, then
/// normalized to the series max. Provided so the figure harness matches the
/// y-axis label exactly.
#[must_use]
pub fn log_compress_mse(series: &[f64]) -> Vec<f64> {
    series
        .iter()
        .map(|&m| (2.0e4 * m).max(1e-30).log10())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{fit_pwl, SegmentFit};
    use gqa_funcs::NonLinearOp;

    #[test]
    fn zero_error_for_exact_fit() {
        let f = |x: f64| 2.0 * x + 1.0;
        let p = fit_pwl(&f, (-1.0, 1.0), &[0.0], SegmentFit::Interpolate).unwrap();
        assert!(mse_grid(&p, &f, (-1.0, 1.0), 0.01) < 1e-24);
    }

    #[test]
    fn grid_size_matches_table1_data_size() {
        // GELU: (-4, 4) / 0.01 = 800 points = "0.8K" in Table 1.
        let g = MseGrid::new(&NonLinearOp::Gelu, (-4.0, 4.0), 0.01);
        assert_eq!(g.len(), 800);
        // DIV: (0.5, 4) -> 350 = "0.35K".
        let g = MseGrid::new(&NonLinearOp::Div, (0.5, 4.0), 0.01);
        assert_eq!(g.len(), 350);
        // RSQRT: (0.25, 4) -> 375 ≈ "0.36K".
        let g = MseGrid::new(&NonLinearOp::Rsqrt, (0.25, 4.0), 0.01);
        assert_eq!(g.len(), 375);
    }

    #[test]
    fn non_dyadic_step_counts_all_samples() {
        // (0, 1) stepping 0.3 holds samples {0, 0.3, 0.6, 0.9}: a naive
        // ((rp-rn)/step).round() would count 3 and drop x = 0.9.
        let g = MseGrid::new(&FnEval(|x: f64| x), (0.0, 1.0), 0.3);
        assert_eq!(g.len(), 4);
        assert!((g.xs()[3] - 0.9).abs() < 1e-12);
        // And never sample at/past the open upper edge.
        assert!(g.xs().iter().all(|&x| x < 1.0));
    }

    #[test]
    fn mse_grid_fn_matches_batched_grid() {
        let f = |x: f64| NonLinearOp::Gelu.eval(x);
        let p = fit_pwl(&f, (-4.0, 4.0), &[-1.0, 0.0, 1.0], SegmentFit::LeastSquares).unwrap();
        let legacy = mse_grid_fn(&|x| p.eval(x), &f, (-4.0, 4.0), 0.01);
        let grid = MseGrid::new(&NonLinearOp::Gelu, (-4.0, 4.0), 0.01);
        let batched = grid.mse_of(&p, &mut Vec::new());
        assert_eq!(legacy, batched);
    }

    #[test]
    fn dequantized_grid_visits_all_codes() {
        let seen = std::cell::RefCell::new(Vec::new());
        let f = |_: f64| 0.0;
        let eval_q = |q: i64| {
            seen.borrow_mut().push(q);
            0.0
        };
        let _ = mse_dequantized(
            &eval_q,
            &f,
            PowerOfTwoScale::new(-2),
            IntRange::signed(4),
            None,
        );
        let v = seen.borrow();
        assert_eq!(v.len(), 16);
        assert_eq!((v[0], *v.last().unwrap()), (-8, 7));
    }

    #[test]
    fn clip_range_restricts_domain() {
        let f = |x: f64| x;
        let count = std::cell::Cell::new(0usize);
        let eval_q = |q: i64| {
            count.set(count.get() + 1);
            q as f64 * 0.5
        };
        let mse = mse_dequantized(
            &eval_q,
            &f,
            PowerOfTwoScale::new(-1),
            IntRange::signed(8),
            Some((-2.0, 0.0)),
        );
        assert_eq!(mse, 0.0);
        assert_eq!(count.get(), 5); // q in {-4,-3,-2,-1,0}
    }

    #[test]
    fn fully_clipped_grid_is_zero_not_nan() {
        let f = |x: f64| x;
        let eval_q = |q: i64| q as f64;
        // Clip range far outside anything INT8 × 2^-1 can represent.
        let mse = mse_dequantized(
            &eval_q,
            &f,
            PowerOfTwoScale::new(-1),
            IntRange::signed(8),
            Some((1e6, 2e6)),
        );
        assert_eq!(mse, 0.0);
        assert!(!mse.is_nan());
    }

    #[test]
    fn sweep_is_seven_scales_descending() {
        let sweep = paper_scale_sweep();
        assert_eq!(sweep.len(), 7);
        assert_eq!(sweep[0].exponent(), 0);
        assert_eq!(sweep[6].exponent(), -6);
    }

    #[test]
    fn normalization() {
        assert_eq!(normalize_to_max(&[1.0, 2.0, 4.0]), vec![0.25, 0.5, 1.0]);
        assert_eq!(normalize_to_max(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn bad_step_panics() {
        let f = |x: f64| x;
        let p = fit_pwl(&f, (-1.0, 1.0), &[0.0], SegmentFit::Interpolate).unwrap();
        let _ = mse_grid(&p, &f, (-1.0, 1.0), 0.0);
    }
}
