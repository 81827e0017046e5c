//! Table ≡ datapath, on every `f32`: the code table a scale-dependent
//! operator is served through returns, for every one of the 2^32 `f32`
//! bit patterns, exactly `IntLutInstance::eval_f64(f64::from(x)) as f32`
//! (NaN ≡ NaN).
//!
//! `CodeTable::eval_batch_f32` rounds its scaled input by adding ½ and
//! truncating, where the datapath calls `IntRange::saturating_round`. The
//! two agree only on inputs that came from an `f32`, and the property
//! tests reach only chosen ones; this sweep checks them all. It also pins
//! the table to the datapath's own bits rather than to a reference
//! computed by the same build.
//!
//! DIV and RSQRT are served from a table too: the FXP core's, on its
//! input word, behind the multi-range pre-scale and rescale. A strided
//! pass checks those units at 4, 8 and 16 bits against a reference
//! composed in this file from the scalar `FxpPwl::eval_f64` and the
//! operator's `MultiRangeScaling`, which never touches the table.
//!
//! All three tests are ignored by default (together a few minutes on two
//! CPUs in a release build); run them with
//! `cargo test --release -p gqa-serve --test table_sweep -- --ignored`.

use std::sync::Arc;
use std::thread;

use gqa_funcs::NonLinearOp;
use gqa_fxp::{IntRange, PowerOfTwoScale};
use gqa_pwl::{FxpPwl, MultiRangeScaling, QuantAwareLut};
use gqa_serve::{build_datapath, EngineBuilder, Method, OpDatapath, OpPlan, OperatorPlan};

/// The artifacts of the paper's default plan (GQA w/ RM) for `ops`.
fn artifacts(ops: &[NonLinearOp]) -> Vec<(NonLinearOp, Arc<QuantAwareLut>)> {
    let plan = OpPlan::new(Method::GqaRm);
    let engine = EngineBuilder::new(
        ops.iter()
            .fold(OperatorPlan::new(), |p, &op| p.with(op, plan)),
    )
    .build()
    .expect("default plan builds");
    ops.iter()
        .map(|&op| (op, engine.artifact(op).expect("planned")))
        .collect()
}

/// Runs every `stride`-th `f32` bit pattern through the served datapath
/// and `want`, the scalar `f64` datapath it must equal after narrowing,
/// split over up to eight scoped threads. Panics with the first mismatch;
/// returns the number of inputs checked.
fn sweep(label: &str, served: &OpDatapath, want: &(dyn Fn(f64) -> f64 + Sync), stride: u64) -> u64 {
    const BLOCK: usize = 4096;
    let n = (1u64 << 32).div_ceil(stride);
    let threads = thread::available_parallelism()
        .map_or(1, |t| t.get())
        .min(8) as u64;
    thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let (lo, hi) = (n * t / threads, n * (t + 1) / threads);
                    let mut xs = Vec::with_capacity(BLOCK);
                    let mut out = vec![0.0f32; BLOCK];
                    let mut i = lo;
                    while i < hi {
                        let end = hi.min(i + BLOCK as u64);
                        xs.clear();
                        xs.extend((i..end).map(|j| f32::from_bits((j * stride) as u32)));
                        let out = &mut out[..xs.len()];
                        served.eval_batch_f32(&xs, out);
                        for (&x, &y) in xs.iter().zip(out.iter()) {
                            let want = want(f64::from(x)) as f32;
                            assert!(
                                y.to_bits() == want.to_bits() || (y.is_nan() && want.is_nan()),
                                "{label}: x = {x:e} ({:#010x}) served {y:e}, datapath {want:e}",
                                x.to_bits()
                            );
                        }
                        i = end;
                    }
                    hi - lo
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    })
}

/// Checks `op` at scale `2^e` and `bits` of precision through the
/// datapath `build_datapath` serves.
fn check(op: NonLinearOp, artifact: &QuantAwareLut, e: i32, bits: u32, stride: u64) -> u64 {
    let scale = PowerOfTwoScale::new(e);
    let served = build_datapath(artifact, op, bits, scale);
    assert!(matches!(served, OpDatapath::Scaled(_)), "{op} is tabulated");
    let inst = artifact.instantiate(scale, IntRange::signed(bits));
    let want = |x| inst.eval_f64(x);
    sweep(&format!("{op} S=2^{e} INT{bits}"), &served, &want, stride)
}

/// DIV/RSQRT composed from the FXP core's scalar datapath, not its
/// table: pre-scale, `FxpPwl::eval_f64`, rescale.
fn composed(core: &FxpPwl, scaling: &MultiRangeScaling, x: f64) -> f64 {
    match scaling.scaling_for(x) {
        None => core.eval_f64(x),
        Some(s) => core.eval_f64(x * s.to_f64()) * scaling.rescale().output_factor(s).to_f64(),
    }
}

#[test]
#[ignore = "exhaustive: 2^32 inputs per operator; run in release with --ignored"]
fn every_f32_is_served_bit_exact_at_int8() {
    for (op, artifact) in artifacts(&[NonLinearOp::Gelu, NonLinearOp::Exp]) {
        let checked = check(op, &artifact, -4, 8, 1);
        assert_eq!(checked, 1 << 32);
        eprintln!("{op}: all {checked} f32 bit patterns bit-exact at S = 2^-4, INT8");
    }
}

#[test]
#[ignore = "strided: 2^32/97 inputs per configuration; run in release with --ignored"]
fn every_97th_f32_is_served_bit_exact_across_scales_and_precisions() {
    for (op, artifact) in artifacts(&[NonLinearOp::Gelu, NonLinearOp::Exp]) {
        for e in -6..=0 {
            for bits in [4, 8, 16] {
                let checked = check(op, &artifact, e, bits, 97);
                eprintln!("{op} S = 2^{e} INT{bits}: {checked} f32 bit patterns bit-exact");
            }
        }
    }
}

#[test]
#[ignore = "strided: 2^32/97 inputs per configuration; run in release with --ignored"]
fn every_97th_f32_is_served_bit_exact_through_div_and_rsqrt() {
    for (op, artifact) in artifacts(&[NonLinearOp::Div, NonLinearOp::Rsqrt]) {
        let scaling = match op {
            NonLinearOp::Div => MultiRangeScaling::div_paper(),
            _ => MultiRangeScaling::rsqrt_paper(),
        };
        for bits in [4, 8, 16] {
            let served = build_datapath(&artifact, op, bits, PowerOfTwoScale::new(0));
            assert!(matches!(served, OpDatapath::Wide(_)), "{op} is multi-range");
            let core = FxpPwl::new(&artifact, bits);
            let want = |x| composed(&core, &scaling, x);
            let checked = sweep(&format!("{op} INT{bits}"), &served, &want, 97);
            eprintln!("{op} INT{bits}: {checked} f32 bit patterns bit-exact");
        }
    }
}
