//! Multi-Range Input Scaling (§3.1, Table 2).
//!
//! DIV and RSQRT consume fixed-point intermediates (Softmax's denominator,
//! LayerNorm's variance) whose dynamic range far exceeds the breakpoint
//! interval `IR = [Rn, Rp]`. The paper splits the out-of-range axis into
//! sub-ranges `SR_i`, each with a manually chosen power-of-two factor
//! `S'_i` that maps it *into* `IR`; the pwl output is then rescaled by
//! `S'_i` (DIV, since `1/x = S'·(1/(S'·x))`) or `√S'_i` (RSQRT, since
//! `1/√x = √S'·(1/√(S'·x))`).

use std::fmt;

use gqa_fxp::PowerOfTwoScale;

use crate::quantized::FxpPwl;
use crate::table::CodeTable;

/// How the pwl output is rescaled after multi-range input scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RescaleKind {
    /// Output multiplied by `S'` — correct for `f(x) = 1/x` (DIV).
    Linear,
    /// Output multiplied by `√S'` — correct for `f(x) = 1/√x` (RSQRT).
    /// Requires every `S'` to have an even exponent so the square root is
    /// itself a power of two (true for Table 2's RSQRT setup).
    Sqrt,
}

impl RescaleKind {
    /// The output multiplier for a given input scaling factor.
    ///
    /// # Panics
    ///
    /// Panics for [`RescaleKind::Sqrt`] if `s` has an odd exponent (√S'
    /// would not be a power of two, which the shift-only hardware cannot
    /// realize).
    #[must_use]
    pub fn output_factor(self, s: PowerOfTwoScale) -> PowerOfTwoScale {
        match self {
            RescaleKind::Linear => s,
            RescaleKind::Sqrt => s
                .sqrt_exact()
                .expect("RSQRT multi-range scale must have an even exponent"),
        }
    }
}

/// One sub-range `SR_i = [lo, hi)` with its input scaling factor `S'_i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubRange {
    /// Inclusive lower edge `SRn_i`.
    pub lo: f64,
    /// Exclusive upper edge `SRp_i`, or `f64::INFINITY` for an unbounded
    /// last range, which then holds +∞ as well.
    pub hi: f64,
    /// The power-of-two input scaling factor `S'_i`.
    pub scale: PowerOfTwoScale,
}

/// The multi-range input scaling configuration for one operator.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRangeScaling {
    ir: (f64, f64),
    sub_ranges: Vec<SubRange>,
    rescale: RescaleKind,
}

impl MultiRangeScaling {
    /// Builds a configuration, validating that the sub-ranges are ordered,
    /// contiguous from `IR`'s upper edge, and that each maps into `IR`.
    ///
    /// # Panics
    ///
    /// Panics if the sub-ranges are out of order, leave gaps, or scale
    /// outside `IR` (these are static configuration errors, caught at
    /// construction like any builder misuse).
    #[must_use]
    pub fn new(ir: (f64, f64), sub_ranges: Vec<SubRange>, rescale: RescaleKind) -> Self {
        assert!(ir.0 < ir.1, "empty breakpoint interval");
        let mut expect_lo = ir.1;
        for (i, sr) in sub_ranges.iter().enumerate() {
            assert!(
                (sr.lo - expect_lo).abs() < 1e-9,
                "sub-range {i} starts at {} but previous range ends at {expect_lo}",
                sr.lo
            );
            assert!(sr.lo < sr.hi, "sub-range {i} is empty");
            let mapped_lo = sr.lo * sr.scale.to_f64();
            assert!(
                mapped_lo >= ir.0 - 1e-9 && mapped_lo <= ir.1 + 1e-9,
                "sub-range {i} lower edge maps to {mapped_lo}, outside IR {ir:?}"
            );
            if sr.hi.is_finite() {
                let mapped_hi = sr.hi * sr.scale.to_f64();
                assert!(
                    mapped_hi <= ir.1 + 1e-9,
                    "sub-range {i} upper edge maps to {mapped_hi}, outside IR {ir:?}"
                );
                expect_lo = sr.hi;
            } else {
                assert_eq!(
                    i,
                    sub_ranges.len() - 1,
                    "only the last sub-range may be unbounded"
                );
            }
            if rescale == RescaleKind::Sqrt {
                assert!(
                    sr.scale.exponent() % 2 == 0,
                    "sub-range {i}: RSQRT rescale needs even exponents, got {}",
                    sr.scale
                );
            }
        }
        Self {
            ir,
            sub_ranges,
            rescale,
        }
    }

    /// Table 2's DIV setup: `IR = (0.5, 4)`,
    /// `SR = [4,32)/2^−3, [32,256)/2^−6, [256,∞)/2^−6`.
    #[must_use]
    pub fn div_paper() -> Self {
        Self::new(
            (0.5, 4.0),
            vec![
                SubRange {
                    lo: 4.0,
                    hi: 32.0,
                    scale: PowerOfTwoScale::new(-3),
                },
                SubRange {
                    lo: 32.0,
                    hi: 256.0,
                    scale: PowerOfTwoScale::new(-6),
                },
                SubRange {
                    lo: 256.0,
                    hi: f64::INFINITY,
                    scale: PowerOfTwoScale::new(-6),
                },
            ],
            RescaleKind::Linear,
        )
    }

    /// Table 2's RSQRT setup: `IR = (0.25, 4)`,
    /// `SR = [4,64)/2^−4, [64,1024)/2^−8, [1024,∞)/2^−12`.
    #[must_use]
    pub fn rsqrt_paper() -> Self {
        Self::new(
            (0.25, 4.0),
            vec![
                SubRange {
                    lo: 4.0,
                    hi: 64.0,
                    scale: PowerOfTwoScale::new(-4),
                },
                SubRange {
                    lo: 64.0,
                    hi: 1024.0,
                    scale: PowerOfTwoScale::new(-8),
                },
                SubRange {
                    lo: 1024.0,
                    hi: f64::INFINITY,
                    scale: PowerOfTwoScale::new(-12),
                },
            ],
            RescaleKind::Sqrt,
        )
    }

    /// The breakpoint interval `IR = [Rn, Rp]`.
    #[must_use]
    pub fn ir(&self) -> (f64, f64) {
        self.ir
    }

    /// The configured sub-ranges.
    #[must_use]
    pub fn sub_ranges(&self) -> &[SubRange] {
        &self.sub_ranges
    }

    /// The output rescale rule.
    #[must_use]
    pub fn rescale(&self) -> RescaleKind {
        self.rescale
    }

    /// Finds the applicable input scaling: `Some(S')` if a sub-range
    /// covers `x`, `None` otherwise (no scaling).
    ///
    /// An unbounded last sub-range `[lo, ∞)` covers +∞ too, so +∞ is
    /// scaled like the largest finite input and saturates the same way.
    /// Inputs inside or below `IR`, NaN, and inputs above a bounded last
    /// sub-range are not scaled: the core's input word saturates them and
    /// the pwl's edge entries extend, as the comparator bank does.
    #[must_use]
    pub fn scaling_for(&self, x: f64) -> Option<PowerOfTwoScale> {
        if x < self.ir.1 {
            return None;
        }
        self.sub_ranges
            .iter()
            .find(|sr| x >= sr.lo && (x < sr.hi || sr.hi == f64::INFINITY))
            .map(|sr| sr.scale)
    }
}

impl fmt::Display for MultiRangeScaling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IR [{}, {})", self.ir.0, self.ir.1)?;
        for sr in &self.sub_ranges {
            write!(f, "  [{}, {})/{}", sr.lo, sr.hi, sr.scale)?;
        }
        Ok(())
    }
}

/// A wide-range fixed-point LUT operator: an [`FxpPwl`] core plus
/// [`MultiRangeScaling`] front/back ends. This is the complete DIV / RSQRT
/// hardware behaviour.
///
/// The core is served from its table on the input word
/// ([`FxpPwl::tabulate`]), so each element is a pre-scale, one quantize
/// and gather, and a rescale, with the bits of the core's
/// [`FxpPwl::eval_f64`].
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRangeLut {
    table: CodeTable,
    scaling: MultiRangeScaling,
}

impl MultiRangeLut {
    /// Assembles the operator from its pwl core, tabulated on its input
    /// word, and its scaling configuration.
    ///
    /// # Panics
    ///
    /// Panics if the core's input word is wider than 16 bits
    /// ([`FxpPwl::tabulate`]).
    #[must_use]
    pub fn new(core: FxpPwl, scaling: MultiRangeScaling) -> Self {
        Self {
            table: core.tabulate(),
            scaling,
        }
    }

    /// The scaling configuration.
    #[must_use]
    pub fn scaling(&self) -> &MultiRangeScaling {
        &self.scaling
    }

    /// Evaluates the operator on the real axis through the full FXP
    /// datapath: optional input scaling (shift), pwl core, output rescale
    /// (shift).
    #[must_use]
    pub fn eval_f64(&self, x: f64) -> f64 {
        match self.scaling.scaling_for(x) {
            None => self.table.eval_f64(x),
            Some(s) => {
                let scaled = x * s.to_f64(); // hardware: shift on the FXP word
                let y = self.table.eval_f64(scaled);
                y * self.scaling.rescale.output_factor(s).to_f64()
            }
        }
    }

    /// The `f32` serving path: `out[i] = eval_f64(f64::from(xs[i])) as
    /// f32` (widening is exact; the only narrowing rounding is the final
    /// store).
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch.
    pub fn eval_batch_f32(&self, xs: &[f32], out: &mut [f32]) {
        assert_eq!(xs.len(), out.len(), "batch length mismatch");
        for (y, &x) in out.iter_mut().zip(xs) {
            *y = self.eval_f64(f64::from(x)) as f32;
        }
    }
}

impl gqa_funcs::BatchEval for MultiRangeLut {
    fn eval_scalar(&self, x: f64) -> f64 {
        self.eval_f64(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{fit_pwl, SegmentFit};
    use crate::quantized::QuantAwareLut;
    use gqa_funcs::NonLinearOp;

    fn build(op: NonLinearOp, scaling: MultiRangeScaling) -> MultiRangeLut {
        let (rn, rp) = op.default_range();
        let nb = 7;
        let bps: Vec<f64> = (1..=nb)
            .map(|i| rn + (rp - rn) * i as f64 / (nb + 1) as f64)
            .collect();
        let pwl = fit_pwl(&|x| op.eval(x), (rn, rp), &bps, SegmentFit::LeastSquares).unwrap();
        let lut = QuantAwareLut::new(pwl, 5).unwrap();
        MultiRangeLut::new(FxpPwl::new(&lut, 8), scaling)
    }

    #[test]
    fn paper_div_setup_is_valid_and_covers() {
        let s = MultiRangeScaling::div_paper();
        assert_eq!(s.sub_ranges().len(), 3);
        assert_eq!(s.scaling_for(2.0), None);
        assert_eq!(s.scaling_for(4.0), Some(PowerOfTwoScale::new(-3)));
        assert_eq!(s.scaling_for(100.0), Some(PowerOfTwoScale::new(-6)));
        assert_eq!(s.scaling_for(1e9), Some(PowerOfTwoScale::new(-6)));
    }

    #[test]
    fn paper_rsqrt_setup_has_even_exponents() {
        let s = MultiRangeScaling::rsqrt_paper();
        for sr in s.sub_ranges() {
            assert_eq!(sr.scale.exponent() % 2, 0);
        }
    }

    #[test]
    fn div_identity_across_ranges() {
        let lut = build(NonLinearOp::Div, MultiRangeScaling::div_paper());
        // Relative error stays bounded up to the last bounded sub-range edge.
        for &x in &[0.6, 1.0, 3.9, 5.0, 30.0, 33.0, 200.0, 255.0] {
            let got = lut.eval_f64(x);
            let want = 1.0 / x;
            let rel = (got - want).abs() / want;
            assert!(rel < 0.25, "x={x}: got {got}, want {want}, rel {rel}");
        }
        // In the unbounded tail [256, ∞)/2^-6 the scaled input saturates at
        // the IR edge, so only the *absolute* error stays small (≤ pwl(4)·S'
        // ≈ 0.004) — the paper's Table 2 setup accepts this.
        for &x in &[256.0, 300.0, 1000.0, 1e6] {
            let got = lut.eval_f64(x);
            assert!((got - 1.0 / x).abs() < 5e-3, "x={x}: got {got}");
        }
    }

    #[test]
    fn rsqrt_identity_across_ranges() {
        let lut = build(NonLinearOp::Rsqrt, MultiRangeScaling::rsqrt_paper());
        for &x in &[0.3, 1.0, 3.5, 8.0, 60.0, 100.0, 1000.0, 5000.0] {
            let got = lut.eval_f64(x);
            let want = 1.0 / x.sqrt();
            let rel = (got - want).abs() / want;
            assert!(rel < 0.25, "x={x}: got {got}, want {want}, rel {rel}");
        }
    }

    #[test]
    fn scaled_input_lands_in_ir() {
        let s = MultiRangeScaling::div_paper();
        for &x in &[4.0, 10.0, 31.9, 32.0, 100.0, 255.9] {
            let sf = s.scaling_for(x).unwrap();
            let mapped = x * sf.to_f64();
            assert!(
                mapped >= s.ir().0 - 1e-9 && mapped <= s.ir().1 + 1e-9,
                "x={x} maps to {mapped}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "starts at")]
    fn gap_in_subranges_rejected() {
        let _ = MultiRangeScaling::new(
            (0.5, 4.0),
            vec![SubRange {
                lo: 8.0,
                hi: 32.0,
                scale: PowerOfTwoScale::new(-3),
            }],
            RescaleKind::Linear,
        );
    }

    #[test]
    #[should_panic(expected = "even exponents")]
    fn odd_exponent_sqrt_rejected() {
        let _ = MultiRangeScaling::new(
            (0.25, 4.0),
            vec![SubRange {
                lo: 4.0,
                hi: 32.0,
                scale: PowerOfTwoScale::new(-3),
            }],
            RescaleKind::Sqrt,
        );
    }

    #[test]
    fn below_ir_saturates() {
        let lut = build(NonLinearOp::Div, MultiRangeScaling::div_paper());
        // 0.3 < IR.lo: the first-entry extension applies; output is finite
        // and close to the value at the IR edge.
        let y = lut.eval_f64(0.3);
        assert!(y.is_finite());
        assert!(y > 0.0);
    }
}
