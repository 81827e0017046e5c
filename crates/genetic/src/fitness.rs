//! The fitness evaluator: Algorithm 1's grid MSE, computed efficiently.
//!
//! Algorithm 1 evaluates every individual by (a) deriving segment lines
//! from its breakpoints and (b) accumulating squared error over the
//! `step = 0.01` grid. A naive implementation re-samples `f` per individual;
//! since the grid is fixed per search, this evaluator precomputes
//! `f` on the grid once plus prefix sums of `x, y, x², xy`, making the
//! per-segment least-squares fit O(log n) and the MSE pass O(n) with no
//! further calls to `f`.

use std::sync::Arc;

use gqa_pwl::{Pwl, SegmentFit};

/// Shared, reusable fitness machinery for one `(f, range, step)` triple.
pub struct FitnessEvaluator {
    f: Arc<dyn Fn(f64) -> f64 + Send + Sync>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    // Prefix sums (length n+1): p*[i] = Σ_{j<i} …
    px: Vec<f64>,
    py: Vec<f64>,
    pxx: Vec<f64>,
    pxy: Vec<f64>,
    range: (f64, f64),
    segment_fit: SegmentFit,
}

impl std::fmt::Debug for FitnessEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FitnessEvaluator")
            .field("grid_points", &self.xs.len())
            .field("range", &self.range)
            .field("segment_fit", &self.segment_fit)
            .finish()
    }
}

impl FitnessEvaluator {
    /// Builds the evaluator, sampling `f` once on the Algorithm-1 grid
    /// `x = Rn, Rn+step, …` (the paper's "Data Size" points).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, `step` is non-positive, or `f`
    /// returns a non-finite value on the grid.
    #[must_use]
    pub fn new(
        f: Arc<dyn Fn(f64) -> f64 + Send + Sync>,
        range: (f64, f64),
        step: f64,
        segment_fit: SegmentFit,
    ) -> Self {
        // Shared grid rule (gqa_funcs::grid_len): exact for Table-1 sizes,
        // correct for non-dyadic steps.
        let mut xs = Vec::new();
        gqa_funcs::fill_grid(range, step, &mut xs);
        let n = xs.len();
        assert!(n >= 2, "grid too coarse");
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                let y = f(x);
                assert!(y.is_finite(), "f({x}) is not finite");
                y
            })
            .collect();
        let mut px = Vec::with_capacity(n + 1);
        let mut py = Vec::with_capacity(n + 1);
        let mut pxx = Vec::with_capacity(n + 1);
        let mut pxy = Vec::with_capacity(n + 1);
        let (mut ax, mut ay, mut axx, mut axy) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        px.push(0.0);
        py.push(0.0);
        pxx.push(0.0);
        pxy.push(0.0);
        for i in 0..n {
            ax += xs[i];
            ay += ys[i];
            axx += xs[i] * xs[i];
            axy += xs[i] * ys[i];
            px.push(ax);
            py.push(ay);
            pxx.push(axx);
            pxy.push(axy);
        }
        Self {
            f,
            xs,
            ys,
            px,
            py,
            pxx,
            pxy,
            range,
            segment_fit,
        }
    }

    /// Number of grid points (the paper's "Data Size").
    #[must_use]
    pub fn data_size(&self) -> usize {
        self.xs.len()
    }

    /// The search range.
    #[must_use]
    pub fn range(&self) -> (f64, f64) {
        self.range
    }

    /// Derives the pwl for a breakpoint set
    /// (Algorithm 1 line 21: "K*, B* ← Derived from P*").
    ///
    /// Breakpoints are clamped into the range and sorted. Least-squares
    /// segments are fitted over the grid points they cover (via prefix
    /// sums); segments covering fewer than two grid points fall back to
    /// endpoint interpolation.
    ///
    /// # Panics
    ///
    /// Panics if `breakpoints` is empty.
    #[must_use]
    pub fn derive_pwl(&self, breakpoints: &[f64]) -> Pwl {
        assert!(!breakpoints.is_empty(), "need at least one breakpoint");
        let (rn, rp) = self.range;
        let mut bps: Vec<f64> = breakpoints.iter().map(|&p| p.clamp(rn, rp)).collect();
        bps.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));

        let mut knots = Vec::with_capacity(bps.len() + 2);
        knots.push(rn);
        knots.extend_from_slice(&bps);
        knots.push(rp);

        let n = bps.len() + 1;
        let mut slopes = Vec::with_capacity(n);
        let mut intercepts = Vec::with_capacity(n);
        for s in 0..n {
            let (lo, hi) = (knots[s], knots[s + 1]);
            let (k, b) = match self.segment_fit {
                SegmentFit::Interpolate => self.interpolate_segment(lo, hi),
                SegmentFit::LeastSquares => self.least_squares_segment(lo, hi),
            };
            slopes.push(k);
            intercepts.push(b);
        }
        Pwl::new(slopes, intercepts, bps).expect("validated construction")
    }

    fn interpolate_segment(&self, lo: f64, hi: f64) -> (f64, f64) {
        if hi - lo < 1e-12 {
            // Degenerate segment: local secant instead of a constant (see
            // gqa_pwl::fit for why a constant is dangerous under clipped
            // breakpoint quantization).
            let h = 1e-3;
            let f = &self.f;
            let k = (f(hi + h) - f(lo - h)) / (2.0 * h + (hi - lo));
            return (k, f(lo) - k * lo);
        }
        let (ylo, yhi) = ((self.f)(lo), (self.f)(hi));
        let k = (yhi - ylo) / (hi - lo);
        (k, ylo - k * lo)
    }

    fn least_squares_segment(&self, lo: f64, hi: f64) -> (f64, f64) {
        // Grid points with lo <= x < hi (last segment also takes x = hi via
        // the grid simply not containing rp).
        let i0 = self.xs.partition_point(|&x| x < lo);
        let i1 = self.xs.partition_point(|&x| x < hi);
        let m = i1.saturating_sub(i0);
        if m < 2 {
            return self.interpolate_segment(lo, hi);
        }
        let nf = m as f64;
        let sx = self.px[i1] - self.px[i0];
        let sy = self.py[i1] - self.py[i0];
        let sxx = self.pxx[i1] - self.pxx[i0];
        let sxy = self.pxy[i1] - self.pxy[i0];
        let denom = sxx - sx * sx / nf;
        if denom.abs() < 1e-12 {
            return self.interpolate_segment(lo, hi);
        }
        let k = (sxy - sx * sy / nf) / denom;
        let b = (sy - k * sx) / nf;
        (k, b)
    }

    /// Grid MSE of a pwl against the precomputed reference
    /// (Algorithm 1 lines 6–8).
    ///
    /// The sorted grid is swept in fixed-size chunks (stack-resident, so
    /// the call allocates nothing) directly through
    /// [`Pwl::eval_sorted_batch`] — the grid is ascending by
    /// construction, so the sortedness scan of the generic
    /// [`BatchEval`](gqa_funcs::BatchEval) entry point is skipped and
    /// each chunk goes straight to the
    /// wide-lane segment kernel.
    ///
    /// The squared-error accumulation is deliberately the *sequential*
    /// sum, not the SIMD reduction used by `gqa_pwl::eval::MseGrid`: the
    /// golden tests (`tests/golden.rs`) pin `best_mse` bit patterns
    /// captured from the first engine, and those depend on this exact
    /// summation order. Do not "vectorize" this loop.
    #[must_use]
    pub fn mse(&self, pwl: &Pwl) -> f64 {
        const CHUNK: usize = 256;
        let mut buf = [0.0f64; CHUNK];
        let mut acc = 0.0f64;
        for (xc, yc) in self.xs.chunks(CHUNK).zip(self.ys.chunks(CHUNK)) {
            let out = &mut buf[..xc.len()];
            pwl.eval_sorted_batch(xc, out);
            for (&y_hat, &y) in out.iter().zip(yc) {
                let d = y_hat - y;
                acc += d * d;
            }
        }
        acc / self.xs.len() as f64
    }

    /// Derives the pwl and scores it in one call.
    #[must_use]
    pub fn fitness(&self, breakpoints: &[f64]) -> (Pwl, f64) {
        let pwl = self.derive_pwl(breakpoints);
        let mse = self.mse(&pwl);
        (pwl, mse)
    }

    /// Quantization-aware fitness: derives the pwl, rounds its slopes and
    /// intercepts onto the λ-fractional-bit grid (the storage format of
    /// Algorithm 1 line 22), and scores the *rounded* approximant. This
    /// lets the evolution select breakpoints whose optimal line parameters
    /// are FXP-friendly, which is what makes the search quantization-aware
    /// beyond breakpoints alone.
    #[must_use]
    pub fn fitness_fxp(&self, breakpoints: &[f64], lambda: u32) -> (Pwl, f64) {
        let pwl = self.derive_pwl(breakpoints);
        let rounded = pwl
            .map_params(
                |k| gqa_fxp::round_to_fraction_bits(k, lambda as i32),
                |b| gqa_fxp::round_to_fraction_bits(b, lambda as i32),
                |p| p,
            )
            .expect("rounding finite parameters");
        let mse = self.mse(&rounded);
        (rounded, mse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqa_funcs::NonLinearOp;

    fn gelu_eval(fit: SegmentFit) -> FitnessEvaluator {
        FitnessEvaluator::new(
            Arc::new(|x| NonLinearOp::Gelu.eval(x)),
            (-4.0, 4.0),
            0.01,
            fit,
        )
    }

    #[test]
    fn data_size_matches_paper() {
        assert_eq!(gelu_eval(SegmentFit::LeastSquares).data_size(), 800);
    }

    #[test]
    fn prefix_sum_ls_matches_direct_fit() {
        // The evaluator's grid-based LS must agree closely with the pwl
        // crate's dense-sample LS.
        let ev = gelu_eval(SegmentFit::LeastSquares);
        let bps = [-2.5, -1.5, -0.8, -0.3, 0.3, 0.9, 2.0];
        let fast = ev.derive_pwl(&bps);
        let slow = gqa_pwl::fit::fit_pwl(
            &|x| NonLinearOp::Gelu.eval(x),
            (-4.0, 4.0),
            &bps,
            SegmentFit::LeastSquares,
        )
        .unwrap();
        for (kf, ks) in fast.slopes().iter().zip(slow.slopes()) {
            assert!((kf - ks).abs() < 0.02, "slope {kf} vs {ks}");
        }
        let m_fast = ev.mse(&fast);
        let m_slow = ev.mse(&slow);
        assert!((m_fast - m_slow).abs() < 1e-5, "{m_fast} vs {m_slow}");
    }

    #[test]
    fn interpolation_mode_is_exact_at_knots() {
        let ev = gelu_eval(SegmentFit::Interpolate);
        let bps = [-2.0, 0.0, 2.0];
        let pwl = ev.derive_pwl(&bps);
        for &p in &bps {
            assert!((pwl.eval(p) - NonLinearOp::Gelu.eval(p)).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_segments_fall_back() {
        let ev = gelu_eval(SegmentFit::LeastSquares);
        // Two nearly identical breakpoints create a < 2-point segment.
        let pwl = ev.derive_pwl(&[0.5, 0.500001, 1.0]);
        assert_eq!(pwl.num_entries(), 4);
        assert!(ev.mse(&pwl).is_finite());
    }

    #[test]
    fn mse_decreases_with_more_breakpoints() {
        let ev = gelu_eval(SegmentFit::LeastSquares);
        let uniform = |n: usize| -> Vec<f64> {
            (1..=n)
                .map(|i| -4.0 + 8.0 * i as f64 / (n + 1) as f64)
                .collect()
        };
        let (_, m3) = ev.fitness(&uniform(3));
        let (_, m7) = ev.fitness(&uniform(7));
        let (_, m15) = ev.fitness(&uniform(15));
        assert!(m7 < m3);
        assert!(m15 < m7);
    }

    #[test]
    fn breakpoints_outside_range_clamped() {
        let ev = gelu_eval(SegmentFit::LeastSquares);
        let pwl = ev.derive_pwl(&[-100.0, 0.0, 100.0]);
        assert!(pwl.breakpoints().iter().all(|&p| (-4.0..=4.0).contains(&p)));
    }
}
