//! # gqa-fxp — fixed-point arithmetic substrate for GQA-LUT
//!
//! This crate provides the integer / fixed-point building blocks the paper's
//! quantization-aware LUT approximation flow is written in terms of:
//!
//! * [`Fxp`] — a signed fixed-point value with a runtime Q-format
//!   (integer stored value + number of fractional bits), the representation
//!   used for LUT slopes and intercepts after the final conversion step of
//!   Algorithm 1 (`K = round(K* · 2^λ) / 2^λ`).
//! * [`PowerOfTwoScale`] — the power-of-two scaling factor `S = 2^e`
//!   (paper §3.1) for which division degenerates into a bit shift.
//! * [`Dyadic`] — dyadic rational numbers `b / 2^c` used by the integer-only
//!   requantization pipeline of Jacob et al. (paper ref. \[15\]).
//! * [`quantize_value`] / [`IntRange`] — the uniform quantizer of Eq. (2),
//!   `q = clip(round(x / S), Qn, Qp)`.
//! * Rounding helpers ([`round_half_away`], [`round_to_fraction_bits`]) that
//!   pin down the exact rounding semantics (`⌊·⌉` in the paper) so that the
//!   genetic Rounding Mutation and the hardware model agree bit-for-bit.
//!
//! All rounding goes through explicitly written code with documented tie
//! behaviour, never through platform intrinsics with unspecified semantics,
//! so results are deterministic across platforms.
//!
//! ## Example
//!
//! ```
//! use gqa_fxp::{Fxp, PowerOfTwoScale, IntRange};
//!
//! // λ = 5 fractional bits, the paper's default for slopes/intercepts.
//! let k = Fxp::from_f64(0.71, 5);
//! assert_eq!(k.raw(), 23); // round(0.71 * 32) = 23
//! assert!((k.to_f64() - 0.71875).abs() < 1e-12);
//!
//! // S = 2^-3: dividing by S is a left shift by 3.
//! let s = PowerOfTwoScale::new(-3);
//! assert_eq!(s.to_f64(), 0.125);
//!
//! // INT8 signed quantization of x = 0.5 with S = 2^-3: q = round(0.5 * 8) = 4.
//! let q = gqa_fxp::quantize_value(0.5, s, IntRange::signed(8));
//! assert_eq!(q, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dyadic;
mod fxp_value;
mod range;
mod rounding;
mod scale;

pub use dyadic::Dyadic;
pub use fxp_value::{Fxp, ParseFxpError};
pub use range::IntRange;
pub use rounding::{round_half_away, round_half_even, round_to_fraction_bits, RoundingMode};
pub use scale::{PowerOfTwoScale, ShiftDirection};

/// Quantizes a real value `x` with scale `S` into the integer range `range`
/// following Eq. (2) of the paper: `q = clip(round(x / S), Qn, Qp)`.
///
/// Rounding is round-half-away-from-zero, matching the paper's `⌊·⌉` and the
/// reference implementation's behaviour on the values that occur here; exact
/// ties are resolved away from zero.
///
/// The quantizer saturates ([`IntRange::saturating_round`]): `x / S` is
/// clipped before it is rounded, so ±∞ and huge values give `Qp` or `Qn`,
/// and NaN gives the meaningless code `clip(0)` instead of a panic.
///
/// # Example
///
/// ```
/// use gqa_fxp::{quantize_value, IntRange, PowerOfTwoScale};
/// let s = PowerOfTwoScale::new(-2); // S = 0.25
/// assert_eq!(quantize_value(1.0, s, IntRange::signed(8)), 4);
/// assert_eq!(quantize_value(1000.0, s, IntRange::signed(8)), 127); // clipped
/// assert_eq!(quantize_value(-1000.0, s, IntRange::signed(8)), -128);
/// assert_eq!(quantize_value(f64::INFINITY, s, IntRange::signed(8)), 127);
/// ```
#[must_use]
pub fn quantize_value(x: f64, scale: PowerOfTwoScale, range: IntRange) -> i64 {
    range.saturating_round(x / scale.to_f64())
}

/// Dequantizes an integer `q` back to the real axis: `x̃ = S · q` (Eq. 2).
///
/// # Example
///
/// ```
/// use gqa_fxp::{dequantize_value, PowerOfTwoScale};
/// let s = PowerOfTwoScale::new(-2);
/// assert_eq!(dequantize_value(4, s), 1.0);
/// ```
#[must_use]
pub fn dequantize_value(q: i64, scale: PowerOfTwoScale) -> f64 {
    q as f64 * scale.to_f64()
}

/// Quantize-dequantize ("fake quantization"): the value the integer pipeline
/// actually represents, `S · clip(round(x/S), Qn, Qp)`.
///
/// # Example
///
/// ```
/// use gqa_fxp::{fake_quantize, IntRange, PowerOfTwoScale};
/// let s = PowerOfTwoScale::new(-3);
/// let x = fake_quantize(0.7, s, IntRange::signed(8));
/// assert_eq!(x, 0.75); // round(0.7*8)=6 -> 6/8
/// ```
#[must_use]
pub fn fake_quantize(x: f64, scale: PowerOfTwoScale, range: IntRange) -> f64 {
    dequantize_value(quantize_value(x, scale, range), scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_round_trip_on_grid() {
        let s = PowerOfTwoScale::new(-4);
        let r = IntRange::signed(8);
        for q in -128..=127i64 {
            let x = dequantize_value(q, s);
            assert_eq!(quantize_value(x, s, r), q);
        }
    }

    #[test]
    fn quantize_clips_at_bounds() {
        let s = PowerOfTwoScale::new(0);
        let r = IntRange::signed(8);
        assert_eq!(quantize_value(1e12, s, r), 127);
        assert_eq!(quantize_value(-1e12, s, r), -128);
    }

    #[test]
    fn quantize_unsigned_floor_is_zero() {
        let s = PowerOfTwoScale::new(-1);
        let r = IntRange::unsigned(8);
        assert_eq!(quantize_value(-3.0, s, r), 0);
        assert_eq!(quantize_value(1000.0, s, r), 255);
    }

    #[test]
    fn fake_quantize_is_idempotent() {
        let s = PowerOfTwoScale::new(-5);
        let r = IntRange::signed(8);
        for &x in &[0.3, -1.7, 2.9999, -4.0, 3.96875] {
            let once = fake_quantize(x, s, r);
            let twice = fake_quantize(once, s, r);
            assert_eq!(once, twice, "x={x}");
        }
    }

    #[test]
    fn quantize_ties_round_away_from_zero() {
        let s = PowerOfTwoScale::new(-1); // S = 0.5
        let r = IntRange::signed(8);
        // 0.25 / 0.5 = 0.5 -> rounds to 1 (away from zero)
        assert_eq!(quantize_value(0.25, s, r), 1);
        assert_eq!(quantize_value(-0.25, s, r), -1);
    }
}
