//! The quantization-aware LUT execution pattern of Figure 1(b).
//!
//! The key identity (§3.1) is `pwl(S·q) = S·pwl'(q)` where `pwl'` shares
//! the slopes of `pwl` but has its breakpoints and intercepts divided by
//! `S`. With `S = 2^e` that division is a shift, so the hardware stores:
//!
//! * slopes `k_i` as λ-fractional-bit fixed point (unchanged across scales),
//! * intercepts `b_i` as λ-fractional-bit fixed point, right-shifted by
//!   `log2 S` at run time (`b̃_i = b_i ≫ ⌊log2 α⌉`, Eq. 3),
//! * breakpoints quantized per scale: `p̃_i = clip(⌊p_i/S⌉, Qn, Qp)` (Eq. 3).
//!
//! [`QuantAwareLut`] holds the scale-independent parameters;
//! [`IntLutInstance`] is the per-scale materialization that evaluates the
//! integer datapath. Its scalar evaluators are the Figure-1(b) reference;
//! [`IntLutInstance::fill_codes`] computes the same bits over a span of
//! codes, run by run, for the quant-aware search, and
//! [`IntLutInstance::tabulate`] fills the [`CodeTable`] the serving engine
//! runs (one quantization and one gather per element). [`FxpPwl`] is the
//! fixed-point-input variant used for the wide-range DIV/RSQRT operators
//! (Table 2 stores their breakpoints as 8-bit FXP with λ fractional bits
//! instead of re-quantizing per scale); [`FxpPwl::tabulate`] serves it
//! from a table on its input word the same way.

use gqa_fxp::{Fxp, IntRange, PowerOfTwoScale};

use crate::pwl_fn::{Pwl, PwlError};
use crate::table::CodeTable;

/// Scale-independent quantization-aware LUT: FXP slopes/intercepts plus
/// floating-point breakpoints awaiting per-scale quantization.
///
/// Constructing one performs the final conversion of Algorithm 1
/// (line 22): slopes and intercepts are rounded onto the λ-fractional-bit
/// grid. The breakpoints stay in FP — they are quantized per scale by
/// [`QuantAwareLut::instantiate`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantAwareLut {
    pwl: Pwl,
    lambda: u32,
    slopes_raw: Vec<i64>,
    intercepts_raw: Vec<i64>,
}

impl QuantAwareLut {
    /// Rounds `pwl`'s slopes and intercepts to `lambda` fractional bits and
    /// packages the result.
    ///
    /// # Errors
    ///
    /// Propagates [`PwlError`] if the rounded parameters are degenerate
    /// (cannot happen for finite inputs, but kept for API honesty).
    pub fn new(pwl: Pwl, lambda: u32) -> Result<Self, PwlError> {
        let rounded = pwl.map_params(
            |k| gqa_fxp::round_to_fraction_bits(k, lambda as i32),
            |b| gqa_fxp::round_to_fraction_bits(b, lambda as i32),
            |p| p,
        )?;
        let slopes_raw = rounded
            .slopes()
            .iter()
            .map(|&k| Fxp::from_f64(k, lambda).raw())
            .collect();
        let intercepts_raw = rounded
            .intercepts()
            .iter()
            .map(|&b| Fxp::from_f64(b, lambda).raw())
            .collect();
        Ok(Self {
            pwl: rounded,
            lambda,
            slopes_raw,
            intercepts_raw,
        })
    }

    /// The FXP-rounded pwl (slopes/intercepts on the λ grid, FP breakpoints).
    #[must_use]
    pub fn pwl(&self) -> &Pwl {
        &self.pwl
    }

    /// Fractional bit-width λ of the stored parameters.
    #[must_use]
    pub fn lambda(&self) -> u32 {
        self.lambda
    }

    /// Number of LUT entries.
    #[must_use]
    pub fn num_entries(&self) -> usize {
        self.pwl.num_entries()
    }

    /// Materializes the integer LUT for one scaling factor (Eq. 3):
    /// breakpoints quantized into `range`, intercepts pre-shifted by
    /// `log2 S`.
    #[must_use]
    pub fn instantiate(&self, scale: PowerOfTwoScale, range: IntRange) -> IntLutInstance {
        let breakpoints_q = self
            .pwl
            .breakpoints()
            .iter()
            .map(|&p| gqa_fxp::quantize_value(p, scale, range))
            .collect();
        // b̃ = b / S on the raw λ-bit integers; for S = 2^-m this is an exact
        // left shift by m, mirroring the hardware shifter.
        let intercepts_scaled_raw = self
            .intercepts_raw
            .iter()
            .map(|&b| scale.divide_int(b))
            .collect();
        IntLutInstance {
            slopes_raw: self.slopes_raw.clone(),
            intercepts_scaled_raw,
            breakpoints_q,
            scale,
            range,
            lambda: self.lambda,
        }
    }
}

/// A per-scale integer LUT: the exact datapath of Figure 1(b).
///
/// Evaluation takes the quantized code `q ∈ [Qn, Qp]`, selects the entry by
/// integer comparison against the quantized breakpoints, computes
/// `k_i·q + b̃_i` in λ-fractional-bit integer arithmetic, and the caller
/// interprets the accumulator at scale `S·2^−λ`.
#[derive(Debug, Clone, PartialEq)]
pub struct IntLutInstance {
    slopes_raw: Vec<i64>,
    intercepts_scaled_raw: Vec<i64>,
    breakpoints_q: Vec<i64>,
    scale: PowerOfTwoScale,
    range: IntRange,
    lambda: u32,
}

impl IntLutInstance {
    /// The quantized breakpoints `p̃_i` stored in the LUT.
    #[must_use]
    pub fn breakpoints_q(&self) -> &[i64] {
        &self.breakpoints_q
    }

    /// The run-time-shifted intercepts `b̃_i` (raw, λ fractional bits).
    #[must_use]
    pub fn intercepts_scaled_raw(&self) -> &[i64] {
        &self.intercepts_scaled_raw
    }

    /// The scale this instance was materialized for.
    #[must_use]
    pub fn scale(&self) -> PowerOfTwoScale {
        self.scale
    }

    /// The integer input range `[Qn, Qp]`.
    #[must_use]
    pub fn range(&self) -> IntRange {
        self.range
    }

    /// Quantizes a real input onto this instance's grid (Eq. 2),
    /// saturating at `Qn`/`Qp` ([`gqa_fxp::quantize_value`]).
    #[must_use]
    pub fn quantize_input(&self, x: f64) -> i64 {
        gqa_fxp::quantize_value(x, self.scale, self.range)
    }

    /// Entry selection by integer comparison: number of `p̃_i ≤ q`.
    #[must_use]
    pub fn entry_index(&self, q: i64) -> usize {
        self.breakpoints_q.partition_point(|&p| p <= q)
    }

    /// The integer accumulator `k_i·q + b̃_i` with λ fractional bits
    /// (what the multiplier+adder of Figure 1(b) produce before the final
    /// `×S` output shift).
    #[must_use]
    pub fn eval_raw(&self, q: i64) -> i64 {
        let i = self.entry_index(q);
        self.slopes_raw[i] * q + self.intercepts_scaled_raw[i]
    }

    /// The approximant's value on the real axis:
    /// `S · (k_i·q + b̃_i) / 2^λ`.
    #[must_use]
    pub fn eval_dequantized(&self, q: i64) -> f64 {
        let raw = self.eval_raw(q) as f64 / (1i64 << self.lambda) as f64;
        raw * self.scale.to_f64()
    }

    /// Convenience: quantize a real input and evaluate,
    /// `x → S·pwl'(⌊x/S⌉)`. NaN has no code, so NaN in gives NaN out, as
    /// the exact operators do.
    #[must_use]
    pub fn eval_f64(&self, x: f64) -> f64 {
        if x.is_nan() {
            return x;
        }
        self.eval_dequantized(self.quantize_input(x))
    }

    /// The datapath on a contiguous span of codes: writes
    /// [`eval_dequantized(lo + j)`](IntLutInstance::eval_dequantized) into
    /// `out[j]`, bit for bit.
    ///
    /// The span is filled run by run: the codes between consecutive
    /// quantized breakpoints share one entry, so its `(k, b̃)` is hoisted
    /// and the run is swept with the same multiply-add and output scaling
    /// as `eval_dequantized`. [`tabulate`](IntLutInstance::tabulate) fills
    /// the whole range this way, and the quant-aware search fills each
    /// scale's span of in-range codes.
    pub fn fill_codes(&self, lo: i64, out: &mut [f64]) {
        let hi = lo + out.len() as i64;
        // Multiplying by the exact reciprocal of 2^λ is bit-identical to
        // `eval_dequantized`'s division, and cheaper.
        let unscale = 1.0 / (1i64 << self.lambda) as f64;
        let s = self.scale.to_f64();
        // `raw as f64` is one scalar convert per code on the default
        // x86-64 target. For |raw| < 2^51 the bits of 1.5·2^52 plus `raw`
        // are the f64 1.5·2^52 + raw, so subtracting 1.5·2^52 gives
        // `raw` exactly, in two lane-wise operations.
        const MAGIC: f64 = 6_755_399_441_055_744.0;
        let mut start = lo;
        for (entry, (&k, &b)) in self
            .slopes_raw
            .iter()
            .zip(&self.intercepts_scaled_raw)
            .enumerate()
        {
            // Entry `entry` serves the codes with exactly `entry`
            // breakpoints at or below them: up to the next breakpoint.
            let end = self
                .breakpoints_q
                .get(entry)
                .map_or(hi, |&p| p.min(hi))
                .max(start);
            let run = &mut out[(start - lo) as usize..(end - lo) as usize];
            // The accumulator wraps as `eval_raw`'s does in release builds.
            let mut raw = k.wrapping_mul(start).wrapping_add(b);
            // `raw` is linear in the code, so it stays below 2^51 across
            // the run when it does at both ends without overflowing.
            let small = |q: i64| {
                k.checked_mul(q)
                    .and_then(|r| r.checked_add(b))
                    .is_some_and(|r| r.unsigned_abs() < 1 << 51)
            };
            if small(start) && small(end - 1) {
                for v in run {
                    let exact = f64::from_bits(MAGIC.to_bits().wrapping_add(raw as u64)) - MAGIC;
                    *v = exact * unscale * s;
                    raw = raw.wrapping_add(k);
                }
            } else {
                for v in run {
                    *v = raw as f64 * unscale * s;
                    raw = raw.wrapping_add(k);
                }
            }
            start = end;
        }
    }

    /// Tabulates the datapath on its input codes: a [`CodeTable`] holding
    /// [`eval_dequantized(q)`](IntLutInstance::eval_dequantized) for every
    /// `q ∈ [Qn, Qp]` ([`fill_codes`](IntLutInstance::fill_codes) over the
    /// range), which serves each element as one quantization and one
    /// gather.
    ///
    /// # Panics
    ///
    /// Panics if the range has more than [`CodeTable::MAX_LEVELS`] codes
    /// or a bound of magnitude above it (any `IntRange::signed(bits)`
    /// past 16 bits).
    #[must_use]
    pub fn tabulate(&self) -> CodeTable {
        CodeTable::new(self.scale, self.range, |values| {
            self.fill_codes(self.range.qn(), values);
        })
    }
}

impl gqa_funcs::BatchEval for IntLutInstance {
    fn eval_scalar(&self, x: f64) -> f64 {
        self.eval_f64(x)
    }
}

/// A pure fixed-point pwl for operators whose inputs are already FXP
/// intermediates (DIV, RSQRT). Slopes, intercepts, *and* breakpoints all
/// live on the λ-fractional-bit grid; breakpoints are saturated to the
/// LUT storage width (8-bit words in Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct FxpPwl {
    lambda: u32,
    storage_bits: u32,
    slopes_raw: Vec<i64>,
    // b·2^λ: each intercept aligned once to the 2λ fractional bits of the
    // `k·x` product it is added to.
    intercepts_aligned: Vec<i64>,
    breakpoints_raw: Vec<i64>,
}

impl FxpPwl {
    /// Builds the FXP pwl from a [`QuantAwareLut`], storing breakpoints —
    /// and saturating the input word — as `storage_bits`-wide words with λ
    /// fractional bits (Table 2 uses `storage_bits = 8`).
    #[must_use]
    pub fn new(lut: &QuantAwareLut, storage_bits: u32) -> Self {
        let lambda = lut.lambda();
        let breakpoints_raw = lut
            .pwl
            .breakpoints()
            .iter()
            .map(|&p| {
                Fxp::from_f64(p, lambda)
                    .saturate_to_bits(storage_bits)
                    .raw()
            })
            .collect();
        let intercepts_aligned = lut.intercepts_raw.iter().map(|&b| b << lambda).collect();
        Self {
            lambda,
            storage_bits,
            slopes_raw: lut.slopes_raw.clone(),
            intercepts_aligned,
            breakpoints_raw,
        }
    }

    /// Fractional bit-width λ.
    #[must_use]
    pub fn lambda(&self) -> u32 {
        self.lambda
    }

    /// The stored breakpoint words (raw, λ fractional bits).
    #[must_use]
    pub fn breakpoints_raw(&self) -> &[i64] {
        &self.breakpoints_raw
    }

    /// Quantizes a real input onto the λ-bit FXP grid, saturating to the
    /// `storage_bits`-wide input word (the datapath width) before it
    /// rounds ([`IntRange::saturating_round`]).
    #[must_use]
    pub fn quantize_input(&self, x: f64) -> i64 {
        IntRange::signed(self.storage_bits).saturating_round(x * (1i64 << self.lambda) as f64)
    }

    /// Integer evaluation: input raw with λ fractional bits, output raw
    /// with λ fractional bits (the 2λ-bit product is rounding-shifted back,
    /// as the hardware's output truncation stage does).
    #[must_use]
    pub fn eval_raw(&self, x_raw: i64) -> i64 {
        let i = self.breakpoints_raw.partition_point(|&p| p <= x_raw);
        let acc2 = self.slopes_raw[i] * x_raw + self.intercepts_aligned[i];
        PowerOfTwoScale::new(-(self.lambda as i32)).multiply_int(acc2)
    }

    /// Real-axis evaluation through the FXP datapath; NaN in gives NaN
    /// out.
    #[must_use]
    pub fn eval_f64(&self, x: f64) -> f64 {
        if x.is_nan() {
            return x;
        }
        self.eval_raw(self.quantize_input(x)) as f64 / (1i64 << self.lambda) as f64
    }

    /// Tabulates the datapath on its input word: a [`CodeTable`] at scale
    /// 2^−λ over the `storage_bits`-wide word, holding
    /// `eval_raw(q) / 2^λ` for every word `q`.
    ///
    /// At scale 2^−λ the table's quantizer rounds `x · 2^λ` onto the word,
    /// as [`quantize_input`](FxpPwl::quantize_input) does, so
    /// [`CodeTable::eval_f64`] returns exactly what
    /// [`eval_f64`](FxpPwl::eval_f64) does.
    ///
    /// # Panics
    ///
    /// Panics if the word is wider than 16 bits
    /// ([`CodeTable::MAX_LEVELS`]).
    #[must_use]
    pub fn tabulate(&self) -> CodeTable {
        let word = IntRange::signed(self.storage_bits);
        let to_raw = (1i64 << self.lambda) as f64;
        let scale = PowerOfTwoScale::new(-(self.lambda as i32));
        CodeTable::new(scale, word, |values| {
            for (v, q) in values.iter_mut().zip(word.iter()) {
                *v = self.eval_raw(q) as f64 / to_raw;
            }
        })
    }
}

impl gqa_funcs::BatchEval for FxpPwl {
    fn eval_scalar(&self, x: f64) -> f64 {
        self.eval_f64(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{fit_pwl, SegmentFit};
    use gqa_funcs::NonLinearOp;
    use gqa_fxp::round_half_away;

    fn gelu_lut() -> QuantAwareLut {
        let f = |x: f64| NonLinearOp::Gelu.eval(x);
        let bps = [-2.5, -1.5, -0.8, -0.3, 0.3, 0.9, 2.0];
        let pwl = fit_pwl(&f, (-4.0, 4.0), &bps, SegmentFit::LeastSquares).unwrap();
        QuantAwareLut::new(pwl, 5).unwrap()
    }

    #[test]
    fn params_are_on_lambda_grid() {
        let lut = gelu_lut();
        for &k in lut.pwl().slopes() {
            assert_eq!(k, gqa_fxp::round_to_fraction_bits(k, 5));
        }
        for &b in lut.pwl().intercepts() {
            assert_eq!(b, gqa_fxp::round_to_fraction_bits(b, 5));
        }
    }

    #[test]
    fn instance_matches_separated_float_path() {
        // The integer datapath must equal the algebraic identity
        // S·(k·q + b/S) computed in FP on the rounded parameters, up to the
        // breakpoint-quantization entry selection.
        let lut = gelu_lut();
        let scale = PowerOfTwoScale::new(-4);
        let inst = lut.instantiate(scale, IntRange::signed(8));
        for q in IntRange::signed(8).iter() {
            let i = inst.entry_index(q);
            let k = lut.pwl().slopes()[i];
            let b = lut.pwl().intercepts()[i];
            let want = scale.to_f64() * (k * q as f64 + b / scale.to_f64());
            let got = inst.eval_dequantized(q);
            assert!((got - want).abs() < 1e-12, "q={q}: got {got} want {want}");
        }
    }

    #[test]
    fn int8_gelu_tracks_reference() {
        let lut = gelu_lut();
        let inst = lut.instantiate(PowerOfTwoScale::new(-5), IntRange::signed(8));
        let mut worst = 0.0f64;
        for q in IntRange::signed(8).iter() {
            let x = q as f64 / 32.0;
            let err = (inst.eval_dequantized(q) - NonLinearOp::Gelu.eval(x)).abs();
            worst = worst.max(err);
        }
        assert!(worst < 0.08, "worst-case error {worst}");
    }

    #[test]
    fn breakpoint_quantization_clips() {
        let lut = gelu_lut();
        // At S = 2^0 the breakpoints land on small integers.
        let inst = lut.instantiate(PowerOfTwoScale::new(0), IntRange::signed(8));
        assert_eq!(inst.breakpoints_q().len(), 7);
        for (&pq, &p) in inst.breakpoints_q().iter().zip(lut.pwl().breakpoints()) {
            assert_eq!(pq, round_half_away(p));
        }
        // At a huge scale everything collapses toward 0 (breakpoint deviation).
        let inst = lut.instantiate(PowerOfTwoScale::new(2), IntRange::signed(8));
        assert!(inst.breakpoints_q().iter().all(|&p| p.abs() <= 1));
    }

    #[test]
    fn intercept_shift_is_exact_for_negative_exponents() {
        let lut = gelu_lut();
        let inst = lut.instantiate(PowerOfTwoScale::new(-3), IntRange::signed(8));
        // b/S with S = 2^-3 must be exactly raw << 3.
        for (i, &b) in inst.intercepts_scaled_raw().iter().enumerate() {
            assert_eq!(b, lut.intercepts_raw[i] << 3);
        }
    }

    #[test]
    fn eval_f64_composes_quantize_and_eval() {
        let lut = gelu_lut();
        let inst = lut.instantiate(PowerOfTwoScale::new(-4), IntRange::signed(8));
        let x = 1.2345;
        assert_eq!(
            inst.eval_f64(x),
            inst.eval_dequantized(inst.quantize_input(x))
        );
    }

    #[test]
    fn fxp_pwl_div_accuracy() {
        let f = |x: f64| NonLinearOp::Div.eval(x);
        let bps = [0.65, 0.85, 1.1, 1.5, 2.0, 2.6, 3.3];
        let pwl = fit_pwl(&f, (0.5, 4.0), &bps, SegmentFit::LeastSquares).unwrap();
        let lut = QuantAwareLut::new(pwl, 5).unwrap();
        let fxp = FxpPwl::new(&lut, 8);
        let mut worst = 0.0f64;
        let mut x = 0.5;
        while x < 4.0 {
            worst = worst.max((fxp.eval_f64(x) - 1.0 / x).abs());
            x += 0.01;
        }
        assert!(worst < 0.15, "worst error {worst}");
    }

    #[test]
    fn fxp_breakpoints_saturate_to_storage() {
        let f = |x: f64| x;
        let pwl = fit_pwl(&f, (0.0, 10.0), &[8.0], SegmentFit::Interpolate).unwrap();
        let lut = QuantAwareLut::new(pwl, 5).unwrap();
        let fxp = FxpPwl::new(&lut, 8);
        // 8.0 * 32 = 256 saturates to the 8-bit max 127.
        assert_eq!(fxp.breakpoints_raw()[0], 127);
    }

    #[test]
    fn fxp_eval_linear_region_is_exact() {
        // y = x with slope exactly representable: datapath must be exact on
        // the FXP grid.
        let f = |x: f64| x;
        let pwl = fit_pwl(&f, (0.0, 2.0), &[1.0], SegmentFit::Interpolate).unwrap();
        let lut = QuantAwareLut::new(pwl, 5).unwrap();
        let fxp = FxpPwl::new(&lut, 8);
        for raw in 0..64i64 {
            let x = raw as f64 / 32.0;
            assert_eq!(fxp.eval_f64(x), x);
        }
    }
}
