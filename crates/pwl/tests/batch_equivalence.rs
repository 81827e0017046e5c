//! Batch-vs-scalar equivalence properties: `eval_batch` must match the
//! scalar `eval` bit-for-bit (NaN ≡ NaN) for every evaluator in the
//! workspace's eval spine — every registered operator, every `Pwl`
//! (sorted and unsorted inputs), and the quantized LUT datapaths.
//!
//! These properties also pin the `simd` feature's exactness contract:
//! the scalar `eval` never touches `gqa-simd`, so on an AVX2 machine with
//! default features every assertion here compares a wide-lane kernel
//! against pure scalar code. Running the same suite with
//! `--no-default-features` compares the scalar fallbacks instead; CI does
//! both, which is what "bit-exact with `simd` on *and* off" means
//! operationally. The `f32` fast paths (`CodeTable::eval_batch_f32`,
//! `MultiRangeLut::eval_batch_f32`) are pinned to
//! `(eval(f64::from(x)) as f32)` the same way, a `CodeTable` to the
//! `IntLutInstance` or `FxpPwl` it tabulates, `IntLutInstance::fill_codes`
//! to the per-code datapath, and the table-backed `MultiRangeLut` to the
//! scalar FXP datapath composed with its multi-range scaling.

use gqa_funcs::{BatchEval, NonLinearOp};
use gqa_fxp::{IntRange, PowerOfTwoScale};
use gqa_pwl::eval::MseGrid;
use gqa_pwl::{
    fit, FxpPwl, IntLutInstance, MultiRangeLut, MultiRangeScaling, Pwl, QuantAwareLut, SegmentFit,
};
use proptest::prelude::*;

/// Bit-for-bit equality with NaN ≡ NaN.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_batch_matches_scalar(eval: &dyn BatchEval, xs: &[f64], label: &str) {
    let mut out = vec![0.0; xs.len()];
    eval.eval_batch(xs, &mut out);
    for (&x, &y) in xs.iter().zip(&out) {
        let want = eval.eval_scalar(x);
        assert!(same(y, want), "{label}({x}): batch {y} vs scalar {want}");
    }
}

/// The inputs where a quantizer can go wrong, for `range` at scale `s`:
/// every code boundary `(q ± ½)·S` with its neighbours one ulp either
/// side (through `neighbours`), then ±0, the smallest and largest
/// subnormals, ±∞, NaN, ±2^62·S and ±`f32::MAX`.
fn quantizer_edges<T: Copy>(
    range: IntRange,
    s: f64,
    narrow: impl Fn(f64) -> T,
    neighbours: impl Fn(T) -> [T; 3],
) -> Vec<T> {
    let mut xs = Vec::new();
    for q in range.iter() {
        for half in [-0.5, 0.5] {
            xs.extend(neighbours(narrow((q as f64 + half) * s)));
        }
    }
    let tiny = f64::from(f32::from_bits(1));
    let sub = f64::from(f32::MIN_POSITIVE.next_down());
    let big = 2f64.powi(62) * s;
    let max = f64::from(f32::MAX);
    for x in [0.0, tiny, sub, f64::INFINITY, big, max] {
        xs.extend([narrow(x), narrow(-x)]);
    }
    xs.push(narrow(f64::NAN));
    xs
}

/// A `CodeTable` must serve exactly what the instance it tabulates
/// serves: the `f32` path against the widened scalar datapath, and the
/// `f64` scalar and batch paths against `eval_f64`.
fn assert_table_serves_instance(inst: &IntLutInstance, xs32: &[f32], xs64: &[f64], label: &str) {
    let table = inst.tabulate();
    let mut out = vec![0.0f32; xs32.len()];
    table.eval_batch_f32(xs32, &mut out);
    for (&x, &y) in xs32.iter().zip(&out) {
        let want = inst.eval_f64(f64::from(x)) as f32;
        assert!(
            same(f64::from(y), f64::from(want)),
            "{label} table f32({x:e}): {y} vs widened {want}"
        );
    }
    assert_batch_matches_scalar(&table, xs64, label);
    for &x in xs64 {
        let (y, want) = (table.eval_f64(x), inst.eval_f64(x));
        assert!(same(y, want), "{label} table f64({x:e}): {y} vs {want}");
    }
}

/// Strategy: a sorted, deduplicated breakpoint vector inside (-4, 4).
fn breakpoints() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-3.9f64..3.9, 1..12).prop_map(|mut v| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v.dedup_by(|a, b| (*a - *b).abs() < 1e-6);
        v
    })
}

fn gelu_pwl(bps: &[f64]) -> Pwl {
    let f = |x: f64| NonLinearOp::Gelu.eval(x);
    fit::fit_pwl(&f, (-4.0, 4.0), bps, SegmentFit::LeastSquares).unwrap()
}

/// The paper's DIV unit: an FXP pwl core behind the Table 2 multi-range
/// scaling.
fn div_unit() -> MultiRangeLut {
    let (core, scaling) = wide_core(NonLinearOp::Div, 8);
    MultiRangeLut::new(core, scaling)
}

/// The FXP core of DIV or RSQRT on a `bits`-wide input word, fitted with
/// 7 uniform breakpoints over the operator's range, and its Table 2
/// scaling.
fn wide_core(op: NonLinearOp, bits: u32) -> (FxpPwl, MultiRangeScaling) {
    let (rn, rp) = op.default_range();
    let bps: Vec<f64> = (1..=7)
        .map(|i| rn + (rp - rn) * f64::from(i) / 8.0)
        .collect();
    let pwl = fit::fit_pwl(&|x| op.eval(x), (rn, rp), &bps, SegmentFit::LeastSquares).unwrap();
    let scaling = match op {
        NonLinearOp::Div => MultiRangeScaling::div_paper(),
        _ => MultiRangeScaling::rsqrt_paper(),
    };
    (
        FxpPwl::new(&QuantAwareLut::new(pwl, 5).unwrap(), bits),
        scaling,
    )
}

/// DIV/RSQRT composed from the scalar FXP datapath, not its table:
/// pre-scale, `FxpPwl::eval_f64`, rescale.
fn composed(core: &FxpPwl, scaling: &MultiRangeScaling, x: f64) -> f64 {
    match scaling.scaling_for(x) {
        None => core.eval_f64(x),
        Some(s) => core.eval_f64(x * s.to_f64()) * scaling.rescale().output_factor(s).to_f64(),
    }
}

proptest! {
    /// Every registered operator: batch ≡ scalar on arbitrary inputs,
    /// including out-of-domain ones (DIV/RSQRT at and below zero).
    #[test]
    fn registry_ops_batch_equals_scalar(
        xs in proptest::collection::vec(-10.0f64..10.0, 1..200)
    ) {
        for &op in NonLinearOp::all() {
            assert_batch_matches_scalar(&op, &xs, op.name());
        }
    }

    /// Every Pwl, unsorted inputs: the per-element fallback path.
    #[test]
    fn pwl_batch_equals_scalar_unsorted(
        bps in breakpoints(),
        xs in proptest::collection::vec(-6.0f64..6.0, 1..200)
    ) {
        let p = gelu_pwl(&bps);
        assert_batch_matches_scalar(&p, &xs, "pwl");
    }

    /// Every Pwl, sorted inputs: the segment-walking fast path, with
    /// inputs deliberately colliding with breakpoints so entry-boundary
    /// ties are exercised.
    #[test]
    fn pwl_batch_equals_scalar_sorted(
        bps in breakpoints(),
        xs in proptest::collection::vec(-6.0f64..6.0, 1..200)
    ) {
        let p = gelu_pwl(&bps);
        let mut xs = xs;
        xs.extend_from_slice(p.breakpoints()); // exact boundary hits
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut out = vec![0.0; xs.len()];
        p.eval_sorted_batch(&xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            let want = p.eval(x);
            assert!(same(y, want), "pwl sorted({x}): {y} vs {want}");
        }
        // And the trait path must pick the same fast path transparently.
        assert_batch_matches_scalar(&p, &xs, "pwl sorted/trait");
    }

    /// Quantized LUT path (IntLutInstance): real-axis batch ≡ scalar and
    /// integer batch ≡ per-code eval, for every scale of the paper sweep.
    #[test]
    fn int_lut_batch_equals_scalar(
        bps in breakpoints(),
        e in -6i32..=1,
        xs in proptest::collection::vec(-6.0f64..6.0, 1..100)
    ) {
        let lut = QuantAwareLut::new(gelu_pwl(&bps), 5).unwrap();
        let inst = lut.instantiate(PowerOfTwoScale::new(e), IntRange::signed(8));
        assert_batch_matches_scalar(&inst, &xs, "int_lut");
        // The served table: its f64 batch ≡ its scalar ≡ the instance's,
        // and each entry is the instance's output for its code.
        assert_table_serves_instance(&inst, &[], &xs, "code_table");
        let table = inst.tabulate();

        for q in inst.range().iter() {
            assert!(same(table.lookup(q), inst.eval_dequantized(q)), "table at q={q}");
        }
        // Spans of codes, as the quant-aware scorer fills them: every
        // seventh start, empty to full length, and one span reaching past
        // both ends of the range.
        let (qn, qp) = (inst.range().qn(), inst.range().qp());
        let mut spans: Vec<(i64, usize)> = (qn..=qp)
            .step_by(7)
            .flat_map(|lo| [0, 1, 13, (qp - lo + 1) as usize].map(|len| (lo, len)))
            .collect();
        spans.push((qn - 20, (qp - qn + 41) as usize));
        for (lo, len) in spans {
            let mut out = vec![0.0; len];
            inst.fill_codes(lo, &mut out);
            for (q, &y) in (lo..).zip(&out) {
                assert!(same(y, inst.eval_dequantized(q)), "fill from {lo} at q={q}");
            }
        }
        // λ = 40 at INT16 drives the top runs' accumulators past 2^51,
        // where the table fill converts each code one by one.
        let wide = QuantAwareLut::new(gelu_pwl(&bps), 40)
            .unwrap()
            .instantiate(PowerOfTwoScale::new(e), IntRange::signed(16));
        assert!(wide.eval_raw(wide.range().qp()).unsigned_abs() >= 1 << 51);
        let table = wide.tabulate();
        for q in wide.range().iter() {
            assert!(same(table.lookup(q), wide.eval_dequantized(q)), "wide table at q={q}");
        }
    }

    /// Quantized LUT path (FxpPwl): batch ≡ scalar, and its table ≡ its
    /// scalar datapath, across the storage word's full range including
    /// saturation.
    #[test]
    fn fxp_pwl_batch_equals_scalar(
        bps in breakpoints(),
        xs in proptest::collection::vec(-8.0f64..8.0, 1..100)
    ) {
        let lut = QuantAwareLut::new(gelu_pwl(&bps), 5).unwrap();
        let fxp = FxpPwl::new(&lut, 8);
        assert_batch_matches_scalar(&fxp, &xs, "fxp_pwl");
        let table = fxp.tabulate();
        for &x in &xs {
            let (y, want) = (table.eval_f64(x), fxp.eval_f64(x));
            assert!(same(y, want), "fxp table({x:e}): {y} vs {want}");
        }
    }

    /// Quantized LUT path (MultiRangeLut): batch ≡ scalar across IR, the
    /// scaled sub-ranges, and the unbounded tail.
    #[test]
    fn multirange_batch_equals_scalar(
        xs in proptest::collection::vec(0.5f64..300.0, 1..100)
    ) {
        assert_batch_matches_scalar(&div_unit(), &xs, "multirange");
    }

    /// The `f32` fast paths: `eval_batch_f32` must equal evaluating the
    /// widened input through the scalar datapath and narrowing — i.e. the
    /// fast path changes *where* conversions happen, never what comes out.
    /// For the INT datapath that fast path is its tabulated `CodeTable`.
    #[test]
    fn f32_fast_paths_equal_widened_scalar(
        bps in breakpoints(),
        e in -6i32..=1,
        xs in proptest::collection::vec(-300.0f32..300.0, 1..300)
    ) {
        let lut = QuantAwareLut::new(gelu_pwl(&bps), 5).unwrap();
        let inst = lut.instantiate(PowerOfTwoScale::new(e), IntRange::signed(8));
        let mut out = vec![0.0f32; xs.len()];
        inst.tabulate().eval_batch_f32(&xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            let want = inst.eval_f64(f64::from(x)) as f32;
            assert!(
                y.to_bits() == want.to_bits(),
                "int_lut f32({x}): {y} vs widened {want}"
            );
        }

        let unit = div_unit();
        let pos: Vec<f32> = xs.iter().map(|&x| x.abs().max(0.5)).collect();
        let mut out = vec![0.0f32; pos.len()];
        unit.eval_batch_f32(&pos, &mut out);
        for (&x, &y) in pos.iter().zip(&out) {
            let want = unit.eval_f64(f64::from(x)) as f32;
            assert!(
                y.to_bits() == want.to_bits(),
                "multirange f32({x}): {y} vs widened {want}"
            );
        }
    }

    /// The MSE accumulator's pinned reduction order (the `simd` on/off
    /// invariance contract of `gqa_simd::sum_sq_diff`, replayed here at
    /// the `MseGrid` level): four stride-4 lane accumulators,
    /// `(l0+l2)+(l1+l3)` combine, sequential tail.
    #[test]
    fn mse_grid_reduction_order_is_pinned(
        bps in breakpoints(),
        step in 0.005f64..0.05
    ) {
        let p = gelu_pwl(&bps);
        let grid = MseGrid::new(&NonLinearOp::Gelu, (-4.0, 4.0), step);
        let mut scratch = Vec::new();
        let got = grid.mse_of(&p, &mut scratch);

        let mut y_hat = vec![0.0; grid.len()];
        p.eval_batch(grid.xs(), &mut y_hat);
        let n = grid.len();
        let n4 = n - n % 4;
        let mut lanes = [0.0f64; 4];
        for (ca, cb) in y_hat[..n4].chunks_exact(4).zip(grid.ys()[..n4].chunks_exact(4)) {
            for (l, lane) in lanes.iter_mut().enumerate() {
                let d = ca[l] - cb[l];
                *lane += d * d;
            }
        }
        let mut acc = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
        for (&a, &b) in y_hat[n4..].iter().zip(&grid.ys()[n4..]) {
            let d = a - b;
            acc += d * d;
        }
        assert!(
            got.to_bits() == (acc / n as f64).to_bits(),
            "mse_of diverged from the documented reduction: {got:e} vs {:e}",
            acc / n as f64
        );
    }
}

/// Hostile inputs reach the served datapaths as raw `f32` bits. NaN in
/// gives NaN out, as the exact operators do; ±∞ and huge values saturate
/// to the edge codes; none of them panics, on any path, and batch ≡
/// scalar and `f32` ≡ widened scalar hold for them as for finite inputs.
/// The served `CodeTable` equals its instance on them and on every code
/// boundary, at INT4, INT8 and INT16.
#[test]
fn served_datapaths_pass_nan_and_saturate_the_rest() {
    let xs = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e30,
        -1e30,
        f32::MAX,
        0.75,
    ];
    let wide: Vec<f64> = xs.iter().map(|&x| f64::from(x)).collect();

    let lut = QuantAwareLut::new(gelu_pwl(&[-2.5, -1.5, -0.8, -0.3, 0.3, 0.9, 2.0]), 5).unwrap();
    let inst = lut.instantiate(PowerOfTwoScale::new(-4), IntRange::signed(8));
    let fxp = FxpPwl::new(&lut, 8);
    let unit = div_unit();
    let paths: [(&dyn BatchEval, &str); 3] =
        [(&inst, "int_lut"), (&fxp, "fxp_pwl"), (&unit, "multirange")];
    for (path, label) in paths {
        assert_batch_matches_scalar(path, &wide, label);
        for &x in &wide {
            let y = path.eval_scalar(x);
            assert_eq!(y.is_nan(), x.is_nan(), "{label}({x}) = {y}");
        }
    }
    assert_eq!(inst.eval_f64(f64::INFINITY), inst.eval_dequantized(127));
    assert_eq!(inst.eval_f64(-1e30), inst.eval_dequantized(-128));
    assert_eq!(fxp.quantize_input(f64::INFINITY), 127);
    assert_eq!(fxp.quantize_input(f64::NEG_INFINITY), -128);

    assert_table_serves_instance(&inst, &xs, &wide, "int_lut");
    for bits in [4, 8, 16] {
        let inst = lut.instantiate(PowerOfTwoScale::new(-4), IntRange::signed(bits));
        let (range, s) = (inst.range(), inst.scale().to_f64());
        let xs32 = quantizer_edges(range, s, |x| x as f32, |x| [x.next_down(), x, x.next_up()]);
        let xs64 = quantizer_edges(range, s, |x| x, |x| [x.next_down(), x, x.next_up()]);
        assert_table_serves_instance(&inst, &xs32, &xs64, &format!("int{bits}"));
    }

    let mut out = vec![0.0f32; xs.len()];
    unit.eval_batch_f32(&xs, &mut out);
    for (&x, &y) in xs.iter().zip(&out) {
        let want = unit.eval_f64(f64::from(x)) as f32;
        assert!(
            same(f64::from(y), f64::from(want)),
            "multirange f32({x}): {y} vs {want}"
        );
    }

    // An unbounded last sub-range holds +∞: DIV and RSQRT of +∞ are their
    // values at the largest finite input, not the in-IR edge's.
    for op in [NonLinearOp::Div, NonLinearOp::Rsqrt] {
        let (core, scaling) = wide_core(op, 8);
        let unit = MultiRangeLut::new(core, scaling);
        let top = unit.eval_f64(f64::MAX);
        assert_eq!(unit.eval_f64(f64::INFINITY), top, "{op}(+inf)");
        let mut out = [0.0f32; 2];
        unit.eval_batch_f32(&[f32::INFINITY, f32::MAX], &mut out);
        assert_eq!(out, [top as f32; 2], "{op} f32(+inf), f32(MAX)");
    }
}

/// The table-backed `MultiRangeLut` serves exactly the composed scalar
/// datapath, on the `f64` and `f32` paths: at every input-word boundary
/// (q ± ½)·2^−λ, unscaled and mapped back through each sub-range's S',
/// with its neighbours one ulp either side, and at each sub-range edge,
/// for 4-, 8- and 16-bit words.
#[test]
fn multirange_table_serves_the_composed_datapath() {
    for op in [NonLinearOp::Div, NonLinearOp::Rsqrt] {
        for bits in [4, 8, 16] {
            let (core, scaling) = wide_core(op, bits);
            let unit = MultiRangeLut::new(core.clone(), scaling.clone());
            let step = 1.0 / f64::from(1u32 << core.lambda());
            let mut xs = Vec::new();
            for s in
                std::iter::once(1.0).chain(scaling.sub_ranges().iter().map(|sr| sr.scale.to_f64()))
            {
                for q in IntRange::signed(bits).iter() {
                    for half in [-0.5, 0.5] {
                        let x = (q as f64 + half) * step / s;
                        xs.extend([x.next_down(), x, x.next_up()]);
                    }
                }
            }
            let (rn, rp) = scaling.ir();
            for edge in [rn, rp]
                .into_iter()
                .chain(scaling.sub_ranges().iter().flat_map(|sr| [sr.lo, sr.hi]))
            {
                xs.extend([edge.next_down(), edge, edge.next_up()]);
            }
            xs.extend([0.0, -0.0, f64::MAX, f64::NAN, f64::NEG_INFINITY]);
            let label = format!("{op} INT{bits}");
            for &x in &xs {
                let (y, want) = (unit.eval_f64(x), composed(&core, &scaling, x));
                assert!(
                    same(y, want),
                    "{label}({x:e}): table {y} vs datapath {want}"
                );
            }
            assert_batch_matches_scalar(&unit, &xs, &label);
            let xs32: Vec<f32> = xs.iter().map(|&x| x as f32).collect();
            let mut out = vec![0.0f32; xs32.len()];
            unit.eval_batch_f32(&xs32, &mut out);
            for (&x, &y) in xs32.iter().zip(&out) {
                let want = composed(&core, &scaling, f64::from(x)) as f32;
                assert!(
                    same(f64::from(y), f64::from(want)),
                    "{label} f32({x:e}): table {y} vs datapath {want}"
                );
            }
        }
    }
}

/// `FxpPwl` saturates its input word before rounding. Wherever the old
/// round-then-saturate spelling returned, the raw word is the same.
#[test]
fn fxp_input_word_matches_round_then_saturate_at_the_edges() {
    let lut = QuantAwareLut::new(gelu_pwl(&[-1.0, 1.0]), 5).unwrap();
    let fxp = FxpPwl::new(&lut, 8);
    let word = IntRange::signed(8);
    let to_raw = 32.0;
    for edge in [word.qp() as f64, word.qn() as f64, 0.0] {
        for v in [edge - 0.5, edge, edge + 0.5] {
            let x = v / to_raw;
            for x in [x.next_down(), x, x.next_up()] {
                let old = word.clamp(gqa_fxp::round_half_away(x * to_raw));
                assert_eq!(fxp.quantize_input(x), old, "x = {x:e}");
            }
        }
    }
}
