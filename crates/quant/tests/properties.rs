//! Property-based tests for the quantization substrate.

use gqa_fxp::IntRange;
use gqa_quant::calibrate_minmax;
use proptest::prelude::*;

proptest! {
    /// Min-max calibration never clips by more than the signed-range
    /// asymmetry: the scale is sized for |Qn| = 128, so the positive
    /// extreme (clipped at Qp = 127) can be off by up to one full step;
    /// everything else by half a step.
    #[test]
    fn minmax_never_clips(xs in proptest::collection::vec(-50.0f32..50.0, 1..64)) {
        let r = IntRange::signed(8);
        let step = calibrate_minmax(&xs, r);
        for &x in &xs {
            let code = (x as f64 / step).round().clamp(-128.0, 127.0);
            prop_assert!((code * step - x as f64).abs() <= step + 1e-6);
        }
    }
}
