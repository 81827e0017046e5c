//! Rounding primitives with pinned-down tie semantics.
//!
//! The paper writes `⌊·⌉` for "round to nearest integer". Floating-point
//! `round()` in most languages rounds ties away from zero; IEEE-754
//! `roundTiesToEven` rounds them to even. The difference matters exactly at
//! the breakpoint-quantization step (§3.3) where values like `p/S = 0.5`
//! occur, so every rounding here breaks ties away from zero, as `f64::round`
//! does.

/// Rounds to the nearest integer with ties away from zero.
///
/// # Panics
///
/// Panics if `x` is NaN or does not fit in `i64`.
///
/// # Example
///
/// ```
/// use gqa_fxp::round_half_away;
/// assert_eq!(round_half_away(2.5), 3);
/// assert_eq!(round_half_away(-2.5), -3);
/// assert_eq!(round_half_away(2.4), 2);
/// ```
#[must_use]
pub fn round_half_away(x: f64) -> i64 {
    assert!(!x.is_nan(), "cannot round NaN");
    let r = x.round(); // f64::round is ties-away-from-zero
    assert!(
        r >= i64::MIN as f64 && r <= i64::MAX as f64,
        "value {x} does not fit in i64"
    );
    r as i64
}

/// Rounds `x` onto the grid of numbers with `bits` fractional bits:
/// `round(x · 2^bits) / 2^bits`.
///
/// This is the Rounding Mutation primitive (Algorithm 2, line 6:
/// `p' ← ⌊p · 2^i⌉ / 2^i`) and the final FXP conversion of Algorithm 1
/// (line 22 with `bits = λ`). Negative `bits` snaps to multiples of
/// `2^-bits` (coarser than integers), which the hardware model uses.
///
/// # Panics
///
/// Panics if `x` is NaN or the scaled value does not fit in `i64`.
///
/// # Example
///
/// ```
/// use gqa_fxp::round_to_fraction_bits;
/// assert_eq!(round_to_fraction_bits(0.71, 5), 0.71875); // 23/32
/// assert_eq!(round_to_fraction_bits(-0.815, 3), -0.875); // -7/8
/// assert_eq!(round_to_fraction_bits(5.3, 0), 5.0);
/// assert_eq!(round_to_fraction_bits(5.3, -2), 4.0); // multiples of 4
/// ```
#[must_use]
pub fn round_to_fraction_bits(x: f64, bits: i32) -> f64 {
    let scale = (2.0f64).powi(bits);
    round_half_away(x * scale) as f64 / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_away_basic() {
        assert_eq!(round_half_away(0.0), 0);
        assert_eq!(round_half_away(0.49999), 0);
        assert_eq!(round_half_away(0.5), 1);
        assert_eq!(round_half_away(-0.5), -1);
        assert_eq!(round_half_away(1.5), 2);
        assert_eq!(round_half_away(-1.5), -2);
    }

    #[test]
    fn fraction_bits_grid() {
        // On-grid values are fixed points of the rounding.
        for raw in -64..64i64 {
            let x = raw as f64 / 32.0;
            assert_eq!(round_to_fraction_bits(x, 5), x);
        }
    }

    #[test]
    fn fraction_bits_zero_is_integer_round() {
        assert_eq!(round_to_fraction_bits(2.5, 0), 3.0);
        assert_eq!(round_to_fraction_bits(-2.5, 0), -3.0);
    }

    #[test]
    #[should_panic(expected = "cannot round NaN")]
    fn nan_panics() {
        let _ = round_half_away(f64::NAN);
    }
}
