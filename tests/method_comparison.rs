//! Integration: the paper's headline comparison — NN-LUT vs GQA-LUT w/o RM
//! vs GQA-LUT w/ RM — holds at reduced budget.

use std::sync::OnceLock;

use gqa::funcs::NonLinearOp;
use gqa::fxp::{IntRange, PowerOfTwoScale};
use gqa::pwl::eval;
use gqa::pwl::QuantAwareLut;
use gqa::registry::{LutRegistry, Method};
use gqa::serve::{build_datapath, OpDatapath, OpPlan};

/// The comparison's one LUT spelling: a serve-layer plan entry resolved
/// through a registry shared across the tests in this binary, at the
/// suite's reduced budget.
fn build_lut(method: Method, op: NonLinearOp) -> QuantAwareLut {
    static REGISTRY: OnceLock<LutRegistry> = OnceLock::new();
    let spec = OpPlan::new(method)
        .with_entries(8)
        .with_seed(7)
        .with_budget(0.25)
        .spec(op);
    (*REGISTRY
        .get_or_init(LutRegistry::new)
        .get_or_build(&spec)
        .unwrap())
    .clone()
}

/// Table 3's DIV/RSQRT protocol: the INT8 multi-range datapath the engine
/// serves, scored on the 0.01 grid over the operator's range.
fn wide_range_mse(method: Method, op: NonLinearOp) -> f64 {
    let lut = build_lut(method, op);
    let OpDatapath::Wide(unit) = build_datapath(&lut, op, 8, PowerOfTwoScale::new(0)) else {
        panic!("{op} is not a wide-range operator");
    };
    eval::mse_grid_fn(
        &|x| unit.eval_f64(x),
        &|x| op.eval(x),
        op.default_range(),
        0.01,
    )
}

fn avg_quantized_mse(method: Method, op: NonLinearOp) -> f64 {
    let lut = build_lut(method, op);
    let range = IntRange::signed(8);
    let clip = Some(op.default_range());
    let sweep = eval::paper_scale_sweep();
    sweep
        .iter()
        .map(|&s| {
            let inst = lut.instantiate(s, range);
            eval::mse_dequantized(
                &|q| inst.eval_dequantized(q),
                &|x| op.eval(x),
                s,
                range,
                clip,
            )
        })
        .sum::<f64>()
        / sweep.len() as f64
}

#[test]
fn gqa_with_rm_beats_nn_lut_on_gelu() {
    // Table 3's central column ordering (8-entry GELU):
    // NN-LUT > GQA w/ RM, by a substantial factor.
    let nn = avg_quantized_mse(Method::NnLut, NonLinearOp::Gelu);
    let rm = avg_quantized_mse(Method::GqaRm, NonLinearOp::Gelu);
    assert!(
        rm * 2.0 < nn,
        "w/ RM ({rm:.2e}) should beat NN-LUT ({nn:.2e}) by at least 2x"
    );
}

#[test]
fn rm_fixes_large_scales() {
    // Figure 2(a)'s story: at S = 2^0 the w/o RM variant suffers breakpoint
    // deviation; RM recovers most of it.
    let op = NonLinearOp::Gelu;
    let range = IntRange::signed(8);
    let clip = Some(op.default_range());
    let s = PowerOfTwoScale::new(0);
    let mse_at_s0 = |method: Method| {
        let lut = build_lut(method, op);
        let inst = lut.instantiate(s, range);
        eval::mse_dequantized(
            &|q| inst.eval_dequantized(q),
            &|x| op.eval(x),
            s,
            range,
            clip,
        )
    };
    let no_rm = mse_at_s0(Method::GqaNoRm);
    let rm = mse_at_s0(Method::GqaRm);
    assert!(
        rm < no_rm,
        "at S=2^0, w/ RM ({rm:.2e}) should beat w/o RM ({no_rm:.2e})"
    );
}

#[test]
fn nn_lut_wide_range_disadvantage() {
    // Table 3's DIV/RSQRT rows: NN-LUT (trained over the wide input range,
    // then INT8-converted) trails GQA-LUT by an order of magnitude.
    for op in [NonLinearOp::Div, NonLinearOp::Rsqrt] {
        let nn = wide_range_mse(Method::NnLut, op);
        let gqa_mse = wide_range_mse(Method::GqaNoRm, op);
        assert!(
            gqa_mse * 3.0 < nn,
            "{op}: GQA ({gqa_mse:.2e}) should beat NN-LUT ({nn:.2e}) by at least 3x"
        );
    }
}

#[test]
fn data_size_claim_holds() {
    // §4.1: GQA-LUT uses 0.35-0.8K points vs NN-LUT's 100K samples.
    use gqa::genetic::SearchConfig;
    use gqa::nnlut::NnLutConfig;
    for &op in NonLinearOp::PAPER_OPS.iter() {
        let gqa_points = SearchConfig::for_op(op).data_size();
        let nn_samples = NnLutConfig::for_op(op).samples;
        assert!(gqa_points <= 800, "{op}: {gqa_points}");
        assert!(gqa_points >= 350, "{op}: {gqa_points}");
        assert_eq!(nn_samples, 100_000);
        assert!(nn_samples / gqa_points >= 125);
    }
}
