//! Power-of-two scaling factors `S = 2^e` (paper §3.1).
//!
//! The paper restricts quantization scales to powers of two
//! (`S = 2^⌊log2 α⌉` with learnable `α`) so that the run-time division
//! `b_i / S` in Eq. (3) becomes a bit shift. This module models that scale
//! as an exponent and provides the exact shift arithmetic the hardware
//! performs.

use std::fmt;
use std::ops::{Div, Mul};

/// Which way an exponent maps onto a hardware shifter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftDirection {
    /// Multiply by `2^n` (left shift by `n`).
    Left(u32),
    /// Divide by `2^n` (arithmetic right shift by `n`).
    Right(u32),
    /// No shift (exponent 0).
    None,
}

/// A power-of-two scaling factor `S = 2^exponent`.
///
/// Typical activation scales in the paper are `2^0 .. 2^-6` (Figures 2a, 3).
/// "Larger scaling factors" in the paper's wording means larger `S`, i.e.
/// exponents closer to 0.
///
/// # Example
///
/// ```
/// use gqa_fxp::PowerOfTwoScale;
/// let s = PowerOfTwoScale::new(-3);
/// assert_eq!(s.to_f64(), 0.125);
/// assert_eq!(s.exponent(), -3);
/// // b / S with S = 2^-3 is b << 3:
/// assert_eq!(s.divide_int(5), 40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PowerOfTwoScale {
    exponent: i32,
}

impl PowerOfTwoScale {
    /// Creates `S = 2^exponent`.
    ///
    /// # Panics
    ///
    /// Panics if `|exponent| > 62` (outside what the integer pipeline can
    /// shift without overflow).
    #[must_use]
    pub fn new(exponent: i32) -> Self {
        assert!(
            exponent.abs() <= 62,
            "scale exponent {exponent} out of range"
        );
        Self { exponent }
    }

    /// The paper's learnable-α construction: `S = 2^⌊log2 α⌉` (§3.1).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not finite and positive.
    ///
    /// # Example
    ///
    /// ```
    /// use gqa_fxp::PowerOfTwoScale;
    /// assert_eq!(PowerOfTwoScale::from_alpha(0.3).exponent(), -2); // log2(0.3) ≈ -1.74 -> -2
    /// assert_eq!(PowerOfTwoScale::from_alpha(1.0).exponent(), 0);
    /// ```
    #[must_use]
    pub fn from_alpha(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "alpha must be finite and positive, got {alpha}"
        );
        let e = crate::rounding::round_half_away(alpha.log2());
        Self::new(e as i32)
    }

    /// The smallest power-of-two scale that covers `max_abs` with the given
    /// signed integer range (min-max calibration restricted to the PoT grid).
    ///
    /// # Panics
    ///
    /// Panics if `max_abs` is not finite and positive.
    #[must_use]
    pub fn covering(max_abs: f64, range: crate::IntRange) -> Self {
        assert!(
            max_abs.is_finite() && max_abs > 0.0,
            "max_abs must be finite and positive, got {max_abs}"
        );
        let ideal = max_abs / range.qp() as f64;
        let e = ideal.log2().ceil() as i32;
        Self::new(e)
    }

    /// The exponent `e` with `S = 2^e`.
    #[must_use]
    pub fn exponent(self) -> i32 {
        self.exponent
    }

    /// The scale as a real number.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        // Built from its bits: `powi` is a library call on the default
        // x86-64 target, and |e| ≤ 62 keeps 2^e a normal f64.
        f64::from_bits(((1023 + self.exponent) as u64) << 52)
    }

    /// How `x · S` maps onto a shifter.
    #[must_use]
    pub fn multiply_shift(self) -> ShiftDirection {
        match self.exponent {
            0 => ShiftDirection::None,
            e if e > 0 => ShiftDirection::Left(e as u32),
            e => ShiftDirection::Right((-e) as u32),
        }
    }

    /// How `x / S` maps onto a shifter (the `b_i ≫ ⌊log2 α⌉` of Eq. 3;
    /// for negative exponents the "right shift by a negative amount" is a
    /// left shift).
    #[must_use]
    pub fn divide_shift(self) -> ShiftDirection {
        match self.exponent {
            0 => ShiftDirection::None,
            e if e > 0 => ShiftDirection::Right(e as u32),
            e => ShiftDirection::Left((-e) as u32),
        }
    }

    /// Integer `x · S` with round-half-away on the shifted-out bits.
    ///
    /// For `S = 2^-n` this is a rounding arithmetic right shift; for
    /// `S = 2^n` an exact left shift.
    #[must_use]
    pub fn multiply_int(self, x: i64) -> i64 {
        shift_with_rounding(x, self.exponent)
    }

    /// Integer `x / S` with round-half-away on the shifted-out bits.
    #[must_use]
    pub fn divide_int(self, x: i64) -> i64 {
        shift_with_rounding(x, -self.exponent)
    }

    /// The scale `S^2` (used by RSQRT rescaling identities).
    #[must_use]
    pub fn squared(self) -> Self {
        Self::new(self.exponent * 2)
    }

    /// The reciprocal scale `1/S`.
    #[must_use]
    pub fn recip(self) -> Self {
        Self::new(-self.exponent)
    }

    /// `sqrt(S)` if the exponent is even (needed by the RSQRT multi-range
    /// rescale, which multiplies by `sqrt(S'_i)`), else `None`.
    #[must_use]
    pub fn sqrt_exact(self) -> Option<Self> {
        (self.exponent % 2 == 0).then(|| Self::new(self.exponent / 2))
    }
}

impl Default for PowerOfTwoScale {
    /// `S = 2^0 = 1`.
    fn default() -> Self {
        Self::new(0)
    }
}

impl Mul for PowerOfTwoScale {
    type Output = PowerOfTwoScale;
    // Multiplying powers of two adds exponents.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn mul(self, rhs: Self) -> Self {
        Self::new(self.exponent + rhs.exponent)
    }
}

impl Div for PowerOfTwoScale {
    type Output = PowerOfTwoScale;
    // Dividing powers of two subtracts exponents.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        Self::new(self.exponent - rhs.exponent)
    }
}

impl PartialOrd for PowerOfTwoScale {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PowerOfTwoScale {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.exponent.cmp(&other.exponent)
    }
}

impl fmt::Display for PowerOfTwoScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "2^{}", self.exponent)
    }
}

/// Computes `x · 2^e` in integer arithmetic, rounding half-away when `e < 0`.
fn shift_with_rounding(x: i64, e: i32) -> i64 {
    if e >= 0 {
        x.checked_shl(e as u32).expect("shift overflow")
    } else {
        let n = (-e) as u32;
        if n >= 63 {
            return 0;
        }
        // Rounding right shift: add half the divisor magnitude before the
        // (truncating-toward-negative) arithmetic shift, matching
        // round-half-away for both signs.
        let half = 1i64 << (n - 1);
        if x >= 0 {
            (x + half) >> n
        } else {
            -(((-x) + half) >> n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntRange;

    #[test]
    fn f64_values() {
        assert_eq!(PowerOfTwoScale::new(0).to_f64(), 1.0);
        assert_eq!(PowerOfTwoScale::new(-6).to_f64(), 0.015625);
        assert_eq!(PowerOfTwoScale::new(3).to_f64(), 8.0);
        for e in -62..=62 {
            assert_eq!(PowerOfTwoScale::new(e).to_f64(), 2.0f64.powi(e), "2^{e}");
        }
    }

    #[test]
    fn from_alpha_rounds_log() {
        assert_eq!(PowerOfTwoScale::from_alpha(1.5).exponent(), 1); // log2(1.5)=0.585
        assert_eq!(PowerOfTwoScale::from_alpha(0.1).exponent(), -3); // log2(0.1)=-3.32
        assert_eq!(PowerOfTwoScale::from_alpha(4.0).exponent(), 2);
    }

    #[test]
    fn covering_scale_covers() {
        let r = IntRange::signed(8);
        for &m in &[0.3, 1.0, 3.9, 4.0, 100.0] {
            let s = PowerOfTwoScale::covering(m, r);
            assert!(s.to_f64() * r.qp() as f64 >= m, "S={s} max={m}");
            // One step finer would not cover.
            let finer = PowerOfTwoScale::new(s.exponent() - 1);
            assert!((finer.to_f64() * r.qp() as f64) < m, "S={s} max={m}");
        }
    }

    #[test]
    fn shift_matches_float_math() {
        for e in -6..=3 {
            let s = PowerOfTwoScale::new(e);
            for x in [-1000i64, -37, -1, 0, 1, 5, 123, 4096] {
                let want = crate::round_half_away(x as f64 * s.to_f64());
                assert_eq!(s.multiply_int(x), want, "x={x} e={e}");
                let want_div = crate::round_half_away(x as f64 / s.to_f64());
                assert_eq!(s.divide_int(x), want_div, "x={x} e={e}");
            }
        }
    }

    #[test]
    fn divide_by_small_scale_is_left_shift() {
        let s = PowerOfTwoScale::new(-3);
        assert_eq!(s.divide_shift(), ShiftDirection::Left(3));
        assert_eq!(s.divide_int(-7), -56);
    }

    #[test]
    fn algebra() {
        let a = PowerOfTwoScale::new(-2);
        let b = PowerOfTwoScale::new(-4);
        assert_eq!((a * b).exponent(), -6);
        assert_eq!((a / b).exponent(), 2);
        assert_eq!(a.recip().exponent(), 2);
        assert_eq!(b.sqrt_exact().unwrap().exponent(), -2);
        assert!(PowerOfTwoScale::new(-3).sqrt_exact().is_none());
        assert!(a > b);
    }

    #[test]
    fn display() {
        assert_eq!(PowerOfTwoScale::new(-4).to_string(), "2^-4");
    }
}
