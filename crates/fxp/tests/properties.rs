//! Property-based tests for the fixed-point substrate.

use gqa_fxp::{
    dequantize_value, fake_quantize, quantize_value, round_half_away, round_to_fraction_bits,
    Dyadic, Fxp, IntRange, PowerOfTwoScale,
};
use proptest::prelude::*;

proptest! {
    /// Quantize∘dequantize is the identity on representable grid points.
    #[test]
    fn quant_dequant_identity_on_grid(q in -128i64..=127, e in -8i32..=2) {
        let s = PowerOfTwoScale::new(e);
        let r = IntRange::signed(8);
        let x = dequantize_value(q, s);
        prop_assert_eq!(quantize_value(x, s, r), q);
    }

    /// Fake quantization never increases the representable error beyond S/2
    /// inside the clip range.
    #[test]
    fn fake_quant_error_bound(x in -15.0f64..15.0, e in -6i32..=0) {
        let s = PowerOfTwoScale::new(e);
        let r = IntRange::signed(8);
        let xq = fake_quantize(x, s, r);
        let lo = r.qn() as f64 * s.to_f64();
        let hi = r.qp() as f64 * s.to_f64();
        if x >= lo && x <= hi {
            prop_assert!((x - xq).abs() <= s.to_f64() / 2.0 + 1e-12);
        } else {
            // Outside the range the output saturates to an endpoint.
            prop_assert!(xq == lo || xq == hi);
        }
    }

    /// Quantized output always lies inside [Qn, Qp].
    #[test]
    fn quantized_in_range(x in -1e6f64..1e6, e in -10i32..=10, bits in 2u32..=16) {
        let s = PowerOfTwoScale::new(e);
        let r = IntRange::signed(bits);
        let q = quantize_value(x, s, r);
        prop_assert!(r.contains(q));
    }

    /// Fxp round-trip: from_f64 → to_f64 lands on the grid, within half an ulp.
    #[test]
    fn fxp_round_trip(x in -1000.0f64..1000.0, bits in 0u32..=20) {
        let v = Fxp::from_f64(x, bits);
        let step = (2.0f64).powi(-(bits as i32));
        prop_assert!((v.to_f64() - x).abs() <= step / 2.0 + 1e-12);
        // Idempotence: converting the grid value again is exact.
        prop_assert_eq!(Fxp::from_f64(v.to_f64(), bits), v);
    }

    /// Fxp ordering agrees with f64 ordering of the denoted values.
    #[test]
    fn fxp_order_matches_f64(a in -100i64..100, b in -100i64..100,
                             fa in 0u32..=10, fb in 0u32..=10) {
        let x = Fxp::from_raw(a, fa);
        let y = Fxp::from_raw(b, fb);
        prop_assert_eq!(x.cmp(&y), x.to_f64().partial_cmp(&y.to_f64()).unwrap());
    }

    /// Shift-based scale multiply agrees with float math + rounding.
    #[test]
    fn scale_shift_matches_float(x in -100_000i64..100_000, e in -10i32..=6) {
        let s = PowerOfTwoScale::new(e);
        prop_assert_eq!(s.multiply_int(x), round_half_away(x as f64 * s.to_f64()));
        prop_assert_eq!(s.divide_int(x), round_half_away(x as f64 / s.to_f64()));
    }

    /// Dyadic application is within rounding distance of real multiplication.
    #[test]
    fn dyadic_apply_close(x in -1_000_000i64..1_000_000, real in -4.0f64..4.0) {
        let d = Dyadic::approximate_best(real, 30);
        let got = d.apply(x) as f64;
        let want = x as f64 * real;
        // Error sources: numerator rounding (x * 2^-30 each) and output rounding (0.5).
        let tol = 0.5 + (x.abs() as f64) * (2.0f64).powi(-30) + 1e-9;
        prop_assert!((got - want).abs() <= tol, "got={got} want={want} tol={tol}");
    }

    /// round_to_fraction_bits output is always on the requested grid.
    #[test]
    fn fraction_grid_membership(x in -64.0f64..64.0, bits in 0i32..=12) {
        let y = round_to_fraction_bits(x, bits);
        let scaled = y * (2.0f64).powi(bits);
        prop_assert!((scaled - scaled.round()).abs() < 1e-9);
        prop_assert!((y - x).abs() <= (2.0f64).powi(-bits) / 2.0 + 1e-12);
    }

    /// IntRange::clamp is idempotent and order-preserving.
    #[test]
    fn clamp_idempotent_monotone(a in -500i64..500, b in -500i64..500, bits in 2u32..=12) {
        let r = IntRange::signed(bits);
        prop_assert_eq!(r.clamp(r.clamp(a)), r.clamp(a));
        if a <= b {
            prop_assert!(r.clamp(a) <= r.clamp(b));
        }
    }
}

/// The quantizer clips before it rounds. Wherever the round-then-clip
/// spelling `clamp(round_half_away(x / S))` returned, the code is the
/// same: at `Qp ± ½` and `Qn ± ½` and their neighbours, ±0, subnormals
/// and ±2^62·S. Where that spelling panicked it now saturates: ±∞ and
/// |x / S| past `i64` give `Qp` or `Qn`, and NaN gives the code `clip(0)`.
#[test]
fn quantizer_saturates_and_matches_round_then_clip_at_the_edges() {
    let ranges = [
        IntRange::signed(4),
        IntRange::signed(8),
        IntRange::signed(16),
        IntRange::unsigned(8),
        IntRange::signed(53),
    ];
    for r in ranges {
        for e in -8..=4 {
            let s = PowerOfTwoScale::new(e);
            let sf = s.to_f64();
            let tiny = f64::from_bits(1);
            let big = 2f64.powi(62) * sf;
            let mut xs = vec![0.0, -0.0, tiny, -tiny, f64::MIN_POSITIVE / 2.0, big, -big];
            for edge in [r.qp() as f64, r.qn() as f64] {
                for v in [edge - 0.5, edge, edge + 0.5] {
                    let x = v * sf;
                    xs.extend([x.next_down(), x, x.next_up()]);
                }
            }
            for x in xs {
                let old = r.clamp(round_half_away(x / sf));
                assert_eq!(quantize_value(x, s, r), old, "x = {x:e}, S = {sf:e}, {r}");
            }
            let huge = 2f64.powi(70) * sf;
            for (x, want) in [
                (f64::INFINITY, r.qp()),
                (f64::NEG_INFINITY, r.qn()),
                (huge, r.qp()),
                (-huge, r.qn()),
                (f64::MAX, r.qp()),
                (f64::NAN, r.clamp(0)),
            ] {
                assert_eq!(quantize_value(x, s, r), want, "x = {x:e}, S = {sf:e}, {r}");
            }
        }
    }
}
