//! Scoped SegformerLite forwards are bit-invisible.
//!
//! On an inference tape, SegformerLite's block, stage and decode-head
//! scopes hand their intermediates back to the pool mid-forward, and
//! later ops of the same forward reuse those buffers. The logits must
//! still be `to_bits`-identical to a training-tape forward, which keeps
//! every value. That is pinned here on the exact backend and on an engine
//! session serving all four paper operators through LUTs, at batch 1 and
//! 16, over three forwards through one recycled pool. The pool starts
//! out poisoned: it holds the buffers of a forward over an all-NaN batch,
//! so a read of stale pool contents anywhere would change the logits.

use gqa_data::{SceneConfig, SynthScapes};
use gqa_models::{CalibrationRecorder, Method, SegConfig, SegformerLite};
use gqa_serve::{EngineBuilder, OpPlan, OperatorPlan};
use gqa_tensor::{BufferPool, EvalMode, ExactBackend, Graph, ParamStore, Tensor, UnaryBackend};

struct Net {
    model: SegformerLite,
    ps: ParamStore,
}

fn net() -> Net {
    let mut ps = ParamStore::new();
    let model = SegformerLite::new(&mut ps, SegConfig::benchmark(), 7);
    Net { model, ps }
}

/// `batch` benchmark scenes stacked into one `(B, 3, H, W)` tensor.
fn images(batch: usize) -> Tensor {
    let cfg = SceneConfig::benchmark();
    let scenes = SynthScapes::new(cfg.clone(), 11);
    let data = (0..batch as u64)
        .flat_map(|i| scenes.sample(i).image.data)
        .collect();
    Tensor::from_vec(data, &[batch, 3, cfg.height, cfg.width])
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| v.to_bits()).collect()
}

/// The reference: a training tape, on which scopes release nothing.
fn training_logits(backend: &dyn UnaryBackend, net: &Net, x: &Tensor) -> Vec<u32> {
    let mut g = Graph::new(backend);
    let xi = g.input(x.clone());
    let y = net.model.forward(&mut g, &net.ps, xi);
    bits(g.value(y))
}

/// One scoped inference forward through `pool`, recycled afterwards.
fn scoped_logits(
    backend: &dyn UnaryBackend,
    net: &Net,
    x: &Tensor,
    pool: &mut BufferPool,
) -> Vec<u32> {
    let mut g = Graph::with_mode(backend, EvalMode::Inference, std::mem::take(pool));
    let xi = g.input(x.clone());
    let y = net.model.forward(&mut g, &net.ps, xi);
    let out = bits(g.value(y));
    *pool = g.recycle();
    out
}

/// A pool holding the buffers of an exact forward over an all-NaN batch:
/// the sizes the next forward asks for, filled with NaN.
fn poisoned_pool(net: &Net, x: &Tensor) -> BufferPool {
    let mut pool = BufferPool::new();
    let nan = Tensor::full(&x.shape, f32::NAN);
    let _ = scoped_logits(&ExactBackend, net, &nan, &mut pool);
    pool
}

fn assert_scopes_are_invisible(backend: &dyn UnaryBackend, net: &Net, tag: &str) {
    for batch in [1, 16] {
        let x = images(batch);
        let want = training_logits(backend, net, &x);
        let mut pool = poisoned_pool(net, &x);
        for pass in 0..3 {
            let got = scoped_logits(backend, net, &x, &mut pool);
            assert_eq!(got.len(), want.len());
            let diff = got.iter().zip(&want).position(|(a, b)| a != b);
            assert!(
                diff.is_none(),
                "{tag}, batch {batch}, forward {pass}: logit {diff:?} differs from the training tape"
            );
        }
    }
}

#[test]
fn scoped_forwards_match_the_training_tape_on_the_exact_backend() {
    assert_scopes_are_invisible(&ExactBackend, &net(), "exact");
}

#[test]
fn scoped_forwards_match_the_training_tape_on_a_lut_session() {
    let net = net();
    let calib = CalibrationRecorder::new();
    {
        let mut g = Graph::new_inference(&calib);
        let x = g.input(images(4));
        let _ = net.model.forward(&mut g, &net.ps, x);
    }
    let plan = OperatorPlan::segformer(OpPlan::new(Method::GqaRm).with_seed(1).with_budget(0.05))
        .calibrated(&calib);
    let session = EngineBuilder::new(plan)
        .build()
        .expect("engine build")
        .session();
    assert_scopes_are_invisible(&session, &net, "LUT session");
}
