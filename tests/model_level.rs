//! Integration: model forward/backward with pwl backends across crates
//! (tensor ⊗ models ⊗ pwl ⊗ genetic), at test-sized budgets.

use std::sync::Arc;

use gqa::funcs::NonLinearOp;
use gqa::models::{
    CalibrationRecorder, EffVitConfig, EfficientVitLite, FinetuneHarness, HotSwapBackend, Method,
    ReplaceSet, SegConfig, SegformerLite, TrainConfig,
};
use gqa::registry::LutRegistry;
use gqa::serve::{EngineBuilder, OpPlan, OperatorPlan};
use gqa::tensor::{
    BufferPool, EvalMode, ExactBackend, Graph, ParamStore, Tensor, UnaryBackend, UnaryKind,
};

/// One forward on the serving hot path — inference tape over a recycled
/// buffer pool — returning the output tensor. Training tests keep their
/// own `Graph::new` tapes; every pure forward in this suite goes through
/// here.
fn forward_pooled(
    backend: &dyn UnaryBackend,
    model: &SegformerLite,
    ps: &ParamStore,
    image: &Tensor,
    pool: &mut BufferPool,
) -> Tensor {
    let mut g = Graph::with_mode(backend, EvalMode::Inference, std::mem::take(pool));
    let x = g.input(image.clone());
    let n = model.forward(&mut g, ps, x);
    let out = g.value(n).clone();
    *pool = g.recycle();
    out
}

/// One registry shared by every engine in this binary, so repeated specs
/// run zero extra search generations.
fn shared_registry() -> std::sync::Arc<LutRegistry> {
    static SHARED: std::sync::OnceLock<std::sync::Arc<LutRegistry>> = std::sync::OnceLock::new();
    std::sync::Arc::clone(SHARED.get_or_init(|| std::sync::Arc::new(LutRegistry::new())))
}

/// An engine session for `replace` at the given method/seed/budget.
fn engine_session(
    method: Method,
    replace: ReplaceSet,
    calib: &CalibrationRecorder,
    seed: u64,
    budget: f64,
) -> gqa::serve::Session {
    let plan = replace
        .to_plan(OpPlan::new(method).with_seed(seed).with_budget(budget))
        .calibrated(calib);
    EngineBuilder::new(plan)
        .with_registry(shared_registry())
        .build()
        .expect("engine build")
        .session()
}

#[test]
fn segformer_logits_with_pwl_backend_stay_close_to_exact() {
    let mut ps = ParamStore::new();
    let model = SegformerLite::new(&mut ps, SegConfig::tiny(), 5);
    let image = Tensor::full(&[1, 3, 16, 16], 0.4);

    // All three passes (reference, calibration, LUT-served) are pure
    // forwards: inference tapes sharing one recycled buffer pool.
    let mut pool = BufferPool::new();
    let exact = ExactBackend;
    let exact_logits = forward_pooled(&exact, &model, &ps, &image, &mut pool);

    // Calibrate, then route every paper operator through GQA-LUT w/ RM.
    let calib = CalibrationRecorder::new();
    let _ = forward_pooled(&calib, &model, &ps, &image, &mut pool);
    let backend = engine_session(Method::GqaRm, ReplaceSet::all(), &calib, 5, 0.1);

    let pwl_logits = forward_pooled(&backend, &model, &ps, &image, &mut pool);

    assert_eq!(exact_logits.shape, pwl_logits.shape);
    let mut worst = 0.0f32;
    for (a, b) in exact_logits.data.iter().zip(&pwl_logits.data) {
        worst = worst.max((a - b).abs());
    }
    let scale = exact_logits.max_abs().max(1e-3);
    assert!(
        worst / scale < 0.8,
        "pwl logits diverge: worst {worst} vs magnitude {scale}"
    );
}

#[test]
fn efficientvit_trains_with_hswish_div_luts() {
    let harness = FinetuneHarness::new(TrainConfig::tiny());
    let mut ps = ParamStore::new();
    let model = EfficientVitLite::new(&mut ps, EffVitConfig::tiny(), 6);
    let exact = ExactBackend;
    let _ = harness.train(&model, &mut ps, &exact, 2, 2e-3, false);
    let calib = harness.calibrate(&model, &ps);
    let replace = ReplaceSet {
        hswish: true,
        div: true,
        ..ReplaceSet::none()
    };
    let backend = engine_session(Method::GqaNoRm, replace, &calib, 6, 0.05);
    // Fine-tuning through the LUT backend must reduce (or at least not
    // explode) the loss.
    let loss = harness.train(&model, &mut ps, &backend, 2, 5e-4, true);
    assert!(loss.is_finite() && loss < 4.0, "loss {loss}");
    let out = harness.evaluate(&model, &ps, &backend);
    assert!((0.0..=1.0).contains(&out.miou));
}

#[test]
fn backend_substitution_changes_only_replaced_ops() {
    let gelu = OpPlan::new(Method::GqaRm)
        .with_seed(9)
        .with_budget(0.05)
        .with_scale(gqa::fxp::PowerOfTwoScale::new(-5));
    let backend = EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, gelu))
        .with_registry(shared_registry())
        .build()
        .expect("engine build")
        .session();
    // GELU approximated, everything else bit-exact with the reference.
    assert_ne!(
        backend.eval(UnaryKind::Gelu, 0.731),
        UnaryKind::Gelu.exact(0.731)
    );
    for kind in [
        UnaryKind::Exp,
        UnaryKind::Recip,
        UnaryKind::Rsqrt,
        UnaryKind::Relu,
    ] {
        assert_eq!(backend.eval(kind, 0.731), kind.exact(0.731), "{kind:?}");
    }
}

#[test]
fn hot_swap_moves_a_live_model_between_backends() {
    let mut ps = ParamStore::new();
    let model = SegformerLite::new(&mut ps, SegConfig::tiny(), 5);
    let image = Tensor::full(&[1, 3, 16, 16], 0.4);

    // Reference logits on the exact backend — pooled inference forward.
    let mut pool = BufferPool::new();
    let exact = ExactBackend;
    let exact_logits = forward_pooled(&exact, &model, &ps, &image, &mut pool);
    let bits = |t: &Tensor| t.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

    let calib = CalibrationRecorder::new();
    let _ = forward_pooled(&calib, &model, &ps, &image, &mut pool);
    // Same plan as segformer_logits_... and a shared registry, so this
    // engine build runs zero search generations; the session then swaps
    // into the raw hot-swap cell like any other backend.
    let pwl = engine_session(Method::GqaRm, ReplaceSet::all(), &calib, 5, 0.1);

    // One hot-swap cell, two datapaths: swap between pooled forwards
    // without reassembling the model — the pool survives the swap too.
    let hot = HotSwapBackend::default();
    let via_exact = forward_pooled(&hot, &model, &ps, &image, &mut pool);
    assert_eq!(
        bits(&via_exact),
        bits(&exact_logits),
        "exact route is exact"
    );

    hot.swap(Arc::new(pwl));
    let via_pwl = forward_pooled(&hot, &model, &ps, &image, &mut pool);
    assert_eq!(via_pwl.shape, exact_logits.shape);
    assert_ne!(
        bits(&via_pwl),
        bits(&exact_logits),
        "LUT datapath must actually be in use after the swap"
    );
}

#[test]
fn weight_quantization_preserves_accuracy_roughly() {
    // INT8 PoT weight fake-quant should not destroy a trained model.
    let harness = FinetuneHarness::new(TrainConfig::tiny());
    let mut ps = ParamStore::new();
    let model = SegformerLite::new(&mut ps, SegConfig::tiny(), 7);
    let exact = ExactBackend;
    let _ = harness.train(&model, &mut ps, &exact, 4, 2e-3, false);
    let fp = harness.evaluate(&model, &ps, &exact);
    gqa::models::quantize_weights_pot(&mut ps);
    let q = harness.evaluate(&model, &ps, &exact);
    assert!(
        q.pixel_accuracy > fp.pixel_accuracy - 0.25,
        "quantization collapse: {} -> {}",
        fp.pixel_accuracy,
        q.pixel_accuracy
    );
}
