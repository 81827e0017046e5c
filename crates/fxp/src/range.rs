//! Integer quantization ranges `[Qn, Qp]` (Eq. 2).

use std::fmt;

/// An inclusive integer range `[Qn, Qp]` used to clip quantized values.
///
/// For signed k-bit data the range is `[-2^(k-1), 2^(k-1) - 1]`; for
/// unsigned, `[0, 2^k - 1]` (paper §2.3).
///
/// # Example
///
/// ```
/// use gqa_fxp::IntRange;
/// let r = IntRange::signed(8);
/// assert_eq!((r.qn(), r.qp()), (-128, 127));
/// assert_eq!(IntRange::unsigned(8).qp(), 255);
/// assert_eq!(r.clamp(300), 127);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntRange {
    qn: i64,
    qp: i64,
}

impl IntRange {
    /// Creates the signed k-bit range `[-2^(k-1), 2^(k-1)-1]`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 63.
    #[must_use]
    pub fn signed(bits: u32) -> Self {
        assert!((1..=63).contains(&bits), "signed bit-width must be 1..=63");
        let half = 1i64 << (bits - 1);
        Self {
            qn: -half,
            qp: half - 1,
        }
    }

    /// Creates the unsigned k-bit range `[0, 2^k - 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 62.
    #[must_use]
    pub fn unsigned(bits: u32) -> Self {
        assert!(
            (1..=62).contains(&bits),
            "unsigned bit-width must be 1..=62"
        );
        Self {
            qn: 0,
            qp: (1i64 << bits) - 1,
        }
    }

    /// Creates an arbitrary inclusive range.
    ///
    /// # Panics
    ///
    /// Panics if `qn > qp`.
    #[must_use]
    pub fn new(qn: i64, qp: i64) -> Self {
        assert!(qn <= qp, "range lower bound {qn} exceeds upper bound {qp}");
        Self { qn, qp }
    }

    /// Lower bound `Qn`.
    #[must_use]
    pub fn qn(self) -> i64 {
        self.qn
    }

    /// Upper bound `Qp`.
    #[must_use]
    pub fn qp(self) -> i64 {
        self.qp
    }

    /// Clamps `q` into `[Qn, Qp]`.
    #[must_use]
    pub fn clamp(self, q: i64) -> i64 {
        q.clamp(self.qn, self.qp)
    }

    /// Rounds `v` half away from zero into `[Qn, Qp]`, saturating as the
    /// hardware's input quantizer does. `v` is clamped to `[Qn, Qp]` in
    /// `f64` before it is rounded, so ±∞ and values of any magnitude
    /// saturate to the nearer bound instead of overflowing `i64`.
    ///
    /// Wherever `self.clamp(round_half_away(v))` returns, this returns the
    /// same code: a value past `Qp` rounds to at least `Qp` and then clamps
    /// to `Qp`, and likewise below `Qn`. (Bounds past ±2^53 need `f64` to
    /// round them outward, as it does for every `signed` and `unsigned`
    /// range.)
    ///
    /// NaN has no code: it gives `self.clamp(0)`, so a datapath that
    /// serves values returns NaN for a NaN input itself.
    ///
    /// ```
    /// use gqa_fxp::IntRange;
    /// let r = IntRange::signed(8);
    /// assert_eq!(r.saturating_round(2.5), 3);
    /// assert_eq!(r.saturating_round(1e300), 127);
    /// assert_eq!(r.saturating_round(f64::NEG_INFINITY), -128);
    /// ```
    #[must_use]
    pub fn saturating_round(self, v: f64) -> i64 {
        // `f64::round` rounds ties away from zero, as `round_half_away`
        // does. `as` maps NaN to 0; the final clamp brings that, and a
        // bound that `f64` rounded outward, into the range.
        (v.clamp(self.qn as f64, self.qp as f64).round() as i64).clamp(self.qn, self.qp)
    }

    /// Whether `q` lies inside the range.
    #[must_use]
    pub fn contains(self, q: i64) -> bool {
        (self.qn..=self.qp).contains(&q)
    }

    /// Number of representable levels, `Qp - Qn + 1`.
    #[must_use]
    pub fn levels(self) -> u64 {
        (self.qp - self.qn) as u64 + 1
    }

    /// Iterates over every representable integer, `Qn..=Qp`.
    pub fn iter(self) -> impl Iterator<Item = i64> {
        self.qn..=self.qp
    }
}

impl fmt::Display for IntRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.qn, self.qp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_ranges() {
        assert_eq!(IntRange::signed(8), IntRange::new(-128, 127));
        assert_eq!(IntRange::signed(16), IntRange::new(-32768, 32767));
        assert_eq!(IntRange::signed(4), IntRange::new(-8, 7));
        assert_eq!(IntRange::signed(1), IntRange::new(-1, 0));
    }

    #[test]
    fn unsigned_ranges() {
        assert_eq!(IntRange::unsigned(8), IntRange::new(0, 255));
        assert_eq!(IntRange::unsigned(1), IntRange::new(0, 1));
    }

    #[test]
    fn levels_count() {
        assert_eq!(IntRange::signed(8).levels(), 256);
        assert_eq!(IntRange::unsigned(4).levels(), 16);
    }

    #[test]
    fn iter_covers_range() {
        let r = IntRange::signed(3);
        let v: Vec<i64> = r.iter().collect();
        assert_eq!(v, vec![-4, -3, -2, -1, 0, 1, 2, 3]);
    }

    #[test]
    fn contains_and_clamp_agree() {
        let r = IntRange::signed(8);
        for q in -300..300 {
            assert_eq!(r.contains(q), r.clamp(q) == q);
        }
    }

    #[test]
    #[should_panic(expected = "bit-width")]
    fn zero_bits_panics() {
        let _ = IntRange::signed(0);
    }

    #[test]
    fn display() {
        assert_eq!(IntRange::signed(8).to_string(), "[-128, 127]");
    }
}
