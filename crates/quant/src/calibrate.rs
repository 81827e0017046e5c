//! Calibration: choosing a tensor's quantization step from its data.

use gqa_fxp::IntRange;

/// Min-max calibration (the paper's ref. \[6\] initializer): the smallest
/// step that covers the observed absolute maximum,
/// `s = max|x| / max(|Qn|, Qp)`.
///
/// Returns a fallback step of `1e-8` for empty or all-zero data.
#[must_use]
pub fn calibrate_minmax(xs: &[f32], range: IntRange) -> f64 {
    let max_abs = xs.iter().fold(0.0f64, |m, &x| m.max((x as f64).abs()));
    if max_abs == 0.0 {
        return 1e-8;
    }
    let denom = (range.qn().abs().max(range.qp())) as f64;
    max_abs / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minmax_covers_extremes() {
        let s = calibrate_minmax(&[0.5, -2.0, 1.0], IntRange::signed(8));
        assert!((s - 2.0 / 128.0).abs() < 1e-12);
        // The extreme value quantizes without clipping error beyond s/2.
        let q = (-2.0f64 / s).round().clamp(-128.0, 127.0);
        assert!((q * s - (-2.0)).abs() <= s / 2.0 + 1e-12);
    }

    #[test]
    fn empty_and_zero_data_fallback() {
        assert_eq!(calibrate_minmax(&[], IntRange::signed(8)), 1e-8);
        assert_eq!(calibrate_minmax(&[0.0, 0.0], IntRange::signed(8)), 1e-8);
    }
}
