//! Method wrappers and the §4.1 evaluation protocol that scores the LUTs.

use gqa_funcs::NonLinearOp;
use gqa_fxp::{IntRange, PowerOfTwoScale};
use gqa_pwl::{eval, QuantAwareLut};
pub use gqa_registry::Method;
use gqa_serve::{build_datapath, OpDatapath, OpPlan};

/// Builds (or fetches warm) the full-budget LUT for a table/figure row.
///
/// # Panics
///
/// Panics if `entries` is not 8 or 16.
#[must_use]
pub fn build_lut(method: Method, op: NonLinearOp, entries: usize, seed: u64) -> QuantAwareLut {
    build_lut_budgeted(method, op, entries, seed, 1.0)
}

/// [`build_lut`] with a reduced search budget (unit tests / smoke rows):
/// the serving layer's [`OpPlan`] entry resolved through the shared
/// [`crate::registry`], so artifacts are bit-identical to the ones an
/// engine serves.
///
/// # Panics
///
/// Panics if the plan entry fails validation.
#[must_use]
pub fn build_lut_budgeted(
    method: Method,
    op: NonLinearOp,
    entries: usize,
    seed: u64,
    budget: f64,
) -> QuantAwareLut {
    let spec = OpPlan::new(method)
        .with_entries(entries)
        .with_seed(seed)
        .with_budget(budget)
        .spec(op);
    match crate::registry().get_or_build(&spec) {
        Ok(lut) => (*lut).clone(),
        Err(e) => panic!("{e}"),
    }
}

/// §4.1 protocol for the scale-dependent operators (GELU/HSWISH/EXP):
/// per-scale dequantized-grid MSE over the Figure-3 sweep
/// `S ∈ {2^0 … 2^-6}`, INT8 input codes, restricted to the operator's
/// approximation domain.
#[must_use]
pub fn mse_per_scale(lut: &QuantAwareLut, op: NonLinearOp) -> Vec<f64> {
    let range = IntRange::signed(8);
    let clip = Some(op.default_range());
    eval::paper_scale_sweep()
        .into_iter()
        .map(|s| {
            let inst = lut.instantiate(s, range);
            eval::mse_dequantized(
                &|q| inst.eval_dequantized(q),
                &|x| op.eval(x),
                s,
                range,
                clip,
            )
        })
        .collect()
}

/// Average of [`mse_per_scale`] — the Table 3 entry for scale-dependent
/// operators.
#[must_use]
pub fn mse_scale_average(lut: &QuantAwareLut, op: NonLinearOp) -> f64 {
    let v = mse_per_scale(lut, op);
    v.iter().sum::<f64>() / v.len() as f64
}

/// Table 3 entry for the wide-range operators (DIV/RSQRT): the full
/// multi-range FXP datapath the engine serves at INT8, evaluated on the
/// 0.01 grid over the breakpoint interval (the paper's "Data Size" grid —
/// 0.35 K / 0.36 K points).
#[must_use]
pub fn wide_range_mse(lut: &QuantAwareLut, op: NonLinearOp) -> f64 {
    // The input scale only matters to scale-dependent operators.
    let OpDatapath::Wide(unit) = build_datapath(lut, op, 8, PowerOfTwoScale::new(0)) else {
        panic!("wide_range_mse is for DIV/RSQRT, got {op}");
    };
    eval::mse_grid_fn(
        &|x| unit.eval_f64(x),
        &|x| op.eval(x),
        op.default_range(),
        0.01,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_lut(method: Method, op: NonLinearOp) -> QuantAwareLut {
        // Reduced budget for unit tests.
        build_lut_budgeted(method, op, 8, 3, 0.05)
    }

    #[test]
    fn sweep_has_seven_scales() {
        let lut = quick_lut(Method::GqaRm, NonLinearOp::Gelu);
        assert_eq!(mse_per_scale(&lut, NonLinearOp::Gelu).len(), 7);
    }

    #[test]
    fn averages_are_finite_and_positive() {
        for &m in &[Method::GqaRm, Method::GqaNoRm] {
            let lut = quick_lut(m, NonLinearOp::Exp);
            let avg = mse_scale_average(&lut, NonLinearOp::Exp);
            assert!(avg.is_finite() && avg > 0.0, "{m}: {avg}");
        }
    }

    #[test]
    fn wide_range_eval_works() {
        let lut = quick_lut(Method::GqaNoRm, NonLinearOp::Div);
        let mse = wide_range_mse(&lut, NonLinearOp::Div);
        assert!(mse.is_finite() && mse < 0.1, "mse {mse}");
    }

    #[test]
    #[should_panic(expected = "8- and 16-entry")]
    fn entry_count_validated() {
        let _ = build_lut(Method::GqaRm, NonLinearOp::Gelu, 12, 0);
    }
}
