//! The served form of an [`IntLutInstance`] or an [`FxpPwl`]: its
//! datapath tabulated on every input code.
//!
//! The Figure-1(b) pipeline (quantize, comparator-bank select, `k·q + b̃`,
//! output shift) sees only the `Qp − Qn + 1` codes of its input range, so
//! its output is a pure function of the code. A [`CodeTable`] holds that
//! function as one `f64` per code (2 KB at INT8), and serving an element
//! becomes one quantization and one table gather. The same holds for the
//! FXP core of DIV/RSQRT on its `storage_bits`-wide input word. The
//! hardware model still prices the comparators and the multiplier; only
//! the software schedule changes.
//!
//! [`IntLutInstance`]: crate::IntLutInstance
//! [`FxpPwl`]: crate::FxpPwl

use gqa_fxp::{IntRange, PowerOfTwoScale};

/// A datapath's output for every code `q ∈ [Qn, Qp]` of its input range,
/// with the scale `S` its quantizer divides by.
///
/// [`IntLutInstance::tabulate`] builds one with the instance's scale and
/// range, holding `eval_dequantized(q)`; [`FxpPwl::tabulate`] builds one
/// at scale 2^−λ over the input word, holding `eval_raw(q) / 2^λ`. Every
/// evaluator returns exactly what the source's `eval_f64` returns on the
/// same (widened) input: NaN in gives that NaN out, and everything else
/// saturates onto the range.
///
/// [`IntLutInstance::tabulate`]: crate::IntLutInstance::tabulate
/// [`FxpPwl::tabulate`]: crate::FxpPwl::tabulate
#[derive(Debug, Clone, PartialEq)]
pub struct CodeTable {
    values: Vec<f64>,
    range: IntRange,
    // `1/S = 2^−e` as a real number: `x · 2^−e` is the same real number
    // as `x / S`, so multiplying rounds to the quotient's `f64`, and is
    // cheaper than dividing.
    inv_scale: f64,
}

impl CodeTable {
    /// The bound on a tabulated range: at most 2^16 codes (a 16-bit input
    /// range, 512 KB of entries), none of magnitude above 2^16.
    pub const MAX_LEVELS: u64 = 1 << 16;

    /// A table over `range` at `scale` whose entries `fill` writes, in
    /// code order from `Qn`.
    ///
    /// # Panics
    ///
    /// Panics if the range has more than [`CodeTable::MAX_LEVELS`] codes
    /// or a bound of magnitude above it.
    pub(crate) fn new(
        scale: PowerOfTwoScale,
        range: IntRange,
        fill: impl FnOnce(&mut [f64]),
    ) -> Self {
        let max = Self::MAX_LEVELS;
        assert!(
            range.levels() <= max
                && range.qn().unsigned_abs() <= max
                && range.qp().unsigned_abs() <= max,
            "a code table covers at most {max} codes of magnitude at most {max}, not {range}"
        );
        let mut values = vec![0.0; range.levels() as usize];
        fill(&mut values);
        Self {
            values,
            range,
            inv_scale: scale.recip().to_f64(),
        }
    }

    /// The output for code `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` lies outside the range.
    #[must_use]
    pub fn lookup(&self, q: i64) -> f64 {
        self.values[(q - self.range.qn()) as usize]
    }

    /// Real-axis evaluation: the source's quantizer,
    /// `saturating_round(x / S)` ([`gqa_fxp::quantize_value`]), then the
    /// table. NaN in gives NaN out.
    #[must_use]
    pub fn eval_f64(&self, x: f64) -> f64 {
        if x.is_nan() {
            return x;
        }
        self.lookup(self.range.saturating_round(x * self.inv_scale))
    }

    /// The `f32` serving path: `out[i] = eval_f64(f64::from(xs[i])) as f32`.
    ///
    /// It quantizes as `v = clamp(x·2^−e, Qn, Qp)`, then
    /// `q = trunc(v + copysign(½, v))`, which avoids the libm `round`
    /// call that [`IntRange::saturating_round`] makes on targets without
    /// SSE4.1. For every `f32` input this rounds half away from zero,
    /// because `v` is an `f32` scaled by a power of two (at most 24
    /// significant bits) or a clamped integer bound. If `|v| ≥ ½`, `v` is
    /// a multiple of 2^−24 of magnitude at most 2^16, so `v ± ½` is exact.
    /// If `|v| < ½`, then `|v| ≤ ½ − 2^−25`, so the sum, even where it is
    /// rounded (tiny `|v|`), stays at most `1 − 2^−25` and truncates to 0.
    /// Neither holds for a general `f64`: `(½ − 2^−54) + ½` rounds to 1,
    /// which is why the `f64` paths keep [`IntRange::saturating_round`]. The
    /// sweep over the `f32` bit patterns in
    /// `crates/serve/tests/table_sweep.rs` checks the two agree.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch.
    pub fn eval_batch_f32(&self, xs: &[f32], out: &mut [f32]) {
        assert_eq!(xs.len(), out.len(), "batch length mismatch");
        let (qn, qp) = (self.range.qn(), self.range.qp());
        let (lo, hi) = (qn as f64, qp as f64);
        let table = &self.values[..];
        for (y, &x) in out.iter_mut().zip(xs) {
            *y = if x.is_nan() {
                x
            } else {
                let v = (f64::from(x) * self.inv_scale).clamp(lo, hi);
                let q = (v + 0.5f64.copysign(v)) as i64;
                table[(q - qn) as usize] as f32
            };
        }
    }
}

impl gqa_funcs::BatchEval for CodeTable {
    fn eval_scalar(&self, x: f64) -> f64 {
        self.eval_f64(x)
    }
}
