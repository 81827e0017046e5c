//! Signed fixed-point values with a runtime Q-format.

use std::cmp::Ordering;
use std::fmt;

use crate::rounding::round_half_away;

/// A signed fixed-point number `raw / 2^frac_bits`.
///
/// This is the storage format of LUT slopes and intercepts after the final
/// conversion of Algorithm 1 (`λ = frac_bits = 5` by default in the paper).
/// The raw value is kept in an `i64` so intermediate products in the pwl
/// datapath (`k_i · q + b̃_i`) never overflow for the bit-widths the paper
/// considers (≤ 32).
///
/// Two `Fxp` values compare equal iff they denote the same rational number,
/// even across different Q-formats.
///
/// # Example
///
/// ```
/// use gqa_fxp::Fxp;
/// let k = Fxp::from_f64(-0.815, 5);
/// assert_eq!(k.raw(), -26);          // round(-0.815 * 32)
/// assert_eq!(k.frac_bits(), 5);
/// assert_eq!(k.to_f64(), -0.8125);
/// assert_eq!(k, Fxp::from_raw(-52, 6)); // same rational via a finer format
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fxp {
    raw: i64,
    frac_bits: u32,
}

impl Fxp {
    /// Maximum supported number of fractional bits.
    pub const MAX_FRAC_BITS: u32 = 52;

    /// Quantizes a real number onto the `frac_bits` grid with
    /// round-half-away (the paper's `⌊x·2^λ⌉/2^λ`).
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN/infinite or `frac_bits > MAX_FRAC_BITS`.
    #[must_use]
    pub fn from_f64(x: f64, frac_bits: u32) -> Self {
        assert!(x.is_finite(), "cannot convert non-finite {x} to Fxp");
        assert!(
            frac_bits <= Self::MAX_FRAC_BITS,
            "frac_bits {frac_bits} exceeds {}",
            Self::MAX_FRAC_BITS
        );
        let raw = round_half_away(x * (1i64 << frac_bits) as f64);
        Self { raw, frac_bits }
    }

    /// Constructs directly from a stored integer and its Q-format.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits > MAX_FRAC_BITS`.
    #[must_use]
    pub fn from_raw(raw: i64, frac_bits: u32) -> Self {
        assert!(
            frac_bits <= Self::MAX_FRAC_BITS,
            "frac_bits {frac_bits} exceeds {}",
            Self::MAX_FRAC_BITS
        );
        Self { raw, frac_bits }
    }

    /// The stored integer.
    #[must_use]
    pub fn raw(self) -> i64 {
        self.raw
    }

    /// Number of fractional bits (the Q-format).
    #[must_use]
    pub fn frac_bits(self) -> u32 {
        self.frac_bits
    }

    /// The denoted rational as `f64` (exact for `frac_bits ≤ 52` and
    /// `|raw| < 2^52`).
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.raw as f64 / (1i64 << self.frac_bits) as f64
    }

    /// Saturating cast of the raw value into a `bits`-wide signed integer,
    /// keeping the Q-format. Models storing the parameter in a `bits`-wide
    /// LUT word.
    #[must_use]
    pub fn saturate_to_bits(self, bits: u32) -> Self {
        let r = crate::IntRange::signed(bits);
        Self::from_raw(r.clamp(self.raw), self.frac_bits)
    }
}

impl PartialEq for Fxp {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Fxp {}

impl PartialOrd for Fxp {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Fxp {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare raw << (max - own) on i128 so cross-format comparison is
        // exact with no rounding.
        let bits = self.frac_bits.max(other.frac_bits);
        let a = (self.raw as i128) << (bits - self.frac_bits);
        let b = (other.raw as i128) << (bits - other.frac_bits);
        a.cmp(&b)
    }
}

impl From<Fxp> for f64 {
    fn from(v: Fxp) -> f64 {
        v.to_f64()
    }
}

impl fmt::Display for Fxp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (Q.{})", self.to_f64(), self.frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_f64_rounds() {
        let v = Fxp::from_f64(0.71, 5);
        assert_eq!(v.raw(), 23);
        assert_eq!(v.to_f64(), 23.0 / 32.0);
    }

    #[test]
    fn cross_format_equality() {
        assert_eq!(Fxp::from_raw(1, 1), Fxp::from_raw(16, 5));
        assert_ne!(Fxp::from_raw(1, 1), Fxp::from_raw(17, 5));
    }

    #[test]
    fn ordering_is_numeric() {
        let a = Fxp::from_f64(-0.5, 3);
        let b = Fxp::from_f64(0.25, 5);
        assert!(a < b);
        assert!(Fxp::from_f64(1.0, 2) > b);
    }

    #[test]
    fn saturation() {
        let v = Fxp::from_raw(300, 5);
        assert_eq!(v.saturate_to_bits(8).raw(), 127);
        let v = Fxp::from_raw(-300, 5);
        assert_eq!(v.saturate_to_bits(8).raw(), -128);
    }
}
