//! Autoregressive decode end to end: a KV-cached greedy generation loop
//! on a LUT-served engine, the prefix-equivalence contract checked live,
//! a mid-decode hot swap, and the same sequence driven through the
//! serving front-end's `DecodeSession` by the `ServedDecoder` adapter,
//! which refuses an out-of-vocabulary step with a typed error.
//!
//! Run with: `cargo run --release --example decode_loop`

use std::sync::Arc;

use gqa::funcs::NonLinearOp;
use gqa::models::{argmax, DecoderConfig, ServedDecoder, TinyDecoder};
use gqa::registry::Method;
use gqa::serve::{EngineBuilder, OpPlan, OperatorPlan};
use gqa::served::{ModelSpec, ServedBuilder, ServedError};
use gqa::tensor::{BufferPool, EvalMode, Graph, ParamStore, Tensor};

const MAX_LEN: usize = 64;

fn main() {
    // 1. An engine serving GELU (the decoder FFN activation, hit twice
    //    per step) through an 8-entry INT8 GQA-LUT.
    let base = OpPlan::new(Method::GqaRm).with_seed(7).with_budget(0.05);
    let engine = EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, base))
        .build()
        .expect("engine build");
    let session = engine.session();

    // 2. The decoder and a prompt.
    let mut ps = ParamStore::new();
    let model = TinyDecoder::new(&mut ps, DecoderConfig::tiny(), 42);
    let prompt = [3usize, 1, 4, 1, 5];

    // 3. The library-level loop: `greedy_decode` prefills the prompt and
    //    generates, one KV-cached step per token.
    let seq = model.greedy_decode(&session, &ps, &prompt, 10, MAX_LEN);
    println!("greedy decode: {seq:?}");

    // 4. Prefix equivalence, checked live: each step's logits are
    //    bit-identical to the last row of the full causal forward over
    //    the prefix so far — the contract the decode suites pin on exact
    //    and LUT backends, simd on and off.
    let mut pool = BufferPool::new();
    let mut caches = model.new_caches(MAX_LEN, &mut pool);
    for t in 0..seq.len() {
        let mut g = Graph::with_mode(&session, EvalMode::Inference, pool);
        let step = model.step_logits(&mut g, &ps, seq[t], &mut caches);
        let step_bits: Vec<u32> = g.value(step).data.iter().map(|x| x.to_bits()).collect();
        pool = g.recycle();

        let mut gf = Graph::new_inference(&session);
        let full = model.forward_logits(&mut gf, &ps, &seq[..=t]);
        let v = gf.value(full);
        let full_bits: Vec<u32> = v.data[t * v.shape[1]..]
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(step_bits, full_bits, "prefix equivalence broke at step {t}");
    }
    println!(
        "prefix equivalence: {} steps bit-identical to the causal forward",
        seq.len()
    );

    // 5. The same model through the serving front-end, wrapped in its
    //    serving adapter: `open_decode` returns a `DecodeSession` owning
    //    the per-sequence KV state; each `step` coalesces with other
    //    tenants' steps into batched forwards. A hot swap between steps
    //    retunes the rest of the sequence — the cache keeps the pre-swap
    //    prefix bits.
    let adapter = ServedDecoder::new(model, Arc::new(ps), MAX_LEN);
    let served = ServedBuilder::new(engine)
        .with_model(ModelSpec::from_model("tiny-decoder", &[1], adapter))
        .build();
    let decode = served.open_decode(0, 0).expect("decode-capable model");
    let mut tok = prompt[0];
    for t in 0..10 {
        if t == 5 {
            served
                .engine()
                .swap(NonLinearOp::Gelu, base.with_seed(8))
                .expect("mid-decode retune");
        }
        let logits = decode
            .step(Tensor::from_vec(vec![tok as f32], &[1]))
            .expect("step admitted")
            .wait()
            .expect("step served");
        tok = argmax(&logits.data);
    }
    println!(
        "served decode: 10 steps, {} swap(s) mid-sequence, front-end {}",
        served.engine().stats().swaps,
        served.stats()
    );

    // 6. A step the adapter cannot run is refused before it is queued,
    //    and the session stays usable.
    let refused = decode.step(Tensor::from_vec(vec![1e9], &[1]));
    let Err(ServedError::InvalidStep(reason)) = refused else {
        panic!("an out-of-vocabulary step must be refused, got {refused:?}");
    };
    println!("refused step: {reason}");
}
