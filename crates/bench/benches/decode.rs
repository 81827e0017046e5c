//! `decode/*` — the autoregressive serving hot path: KV-cached
//! incremental steps versus full-prefix re-forwards, the prefill/decode
//! split, and batched decode through the coalescing front-end.
//!
//! CI's bench gate runs with `--require decode/`, so this file going
//! missing (or silently producing no entries) fails the build.
//!
//! * `step_cached_prefix128` vs `full_reforward_prefix128`: one token's
//!   logits at a 128-token prefix, first as a KV-cached
//!   `TinyDecoder::step_logits` step, then as the full causal forward a
//!   cacheless server would re-run. Both run on a LUT-served session
//!   (GELU through the engine datapath) and produce bit-identical last
//!   rows — the prefix-equivalence suites pin it; this file measures it.
//!   The run **asserts** the cached step is ≥2× cheaper.
//! * `prefill128`: stepping a 128-token prompt into fresh caches — the
//!   other half of the prefill/decode cost split.
//! * `greedy_prompt8_gen56` + `batch1_token_ns`: the end-to-end greedy
//!   generation loop; the derived per-token entry's `iters_per_sec` in
//!   the JSON artifact is the batch-1 tokens/sec figure.
//! * `batched4_token_ns`: four concurrent `DecodeSession`s closed-loop
//!   through the threaded server, steps coalescing into shared batched
//!   forwards; per-token ns across all sessions (`iters_per_sec` is the
//!   aggregate batched-decode tokens/sec).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use gqa_funcs::NonLinearOp;
use gqa_models::{argmax, DecoderConfig, ServedDecoder, TinyDecoder};
use gqa_registry::Method;
use gqa_serve::{Engine, EngineBuilder, OpPlan, OperatorPlan};
use gqa_served::{BatchConfig, ModelSpec, ServedBuilder, ServedConfig};
use gqa_tensor::{BufferPool, EvalMode, Graph, ParamStore, Tensor};

/// Steady-state prefix length for the cached-vs-reforward comparison.
const PREFIX: usize = 128;

/// An engine whose GELU (the decoder FFN activation, hit twice per step)
/// is LUT-served — the decode benches measure the approximate datapath,
/// not just exact math.
fn lut_engine() -> Engine {
    EngineBuilder::new(OperatorPlan::new().with(
        NonLinearOp::Gelu,
        OpPlan::new(Method::GqaRm).with_seed(7).with_budget(0.05),
    ))
    .build()
    .expect("engine build")
}

/// Deterministic pseudo-token stream over the benchmark vocabulary.
fn token_stream(n: usize, vocab: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 37 + 11) % vocab).collect()
}

fn bench_step_vs_reforward(c: &mut Criterion) {
    let mut ps = ParamStore::new();
    let model = TinyDecoder::new(&mut ps, DecoderConfig::benchmark(), 7);
    let engine = lut_engine();
    let session = engine.session();
    let prompt = token_stream(PREFIX, model.config().vocab);
    let next_tok = 63usize;

    // Prefill the caches to the steady-state prefix.
    let mut pool = BufferPool::new();
    let mut caches = model.new_caches(PREFIX + 1, &mut pool);
    for &tok in &prompt {
        let mut g = Graph::with_mode(&session, EvalMode::Inference, pool);
        let _ = model.step_logits(&mut g, &ps, tok, &mut caches);
        pool = g.recycle();
    }

    // Sanity: the two spellings agree before we time them (the
    // equivalence suites pin this bitwise; a cheap argmax check here
    // keeps the bench honest about measuring the same computation).
    let full: Vec<usize> = prompt.iter().copied().chain([next_tok]).collect();
    let cached_next = {
        let mut g = Graph::with_mode(&session, EvalMode::Inference, BufferPool::new());
        let logits = model.step_logits(&mut g, &ps, next_tok, &mut caches);
        let out = argmax(&g.value(logits).data);
        for cache in &mut caches {
            cache.truncate(PREFIX);
        }
        out
    };
    let forward_next = {
        let mut g = Graph::with_mode(&session, EvalMode::Inference, BufferPool::new());
        let logits = model.forward_logits(&mut g, &ps, &full);
        let v = g.value(logits);
        argmax(&v.data[PREFIX * v.shape[1]..])
    };
    assert_eq!(cached_next, forward_next, "spellings diverged");

    // One KV-cached step at prefix 128, rolled back after each iteration
    // (truncate only moves the length; the next append overwrites).
    c.bench_function("decode/step_cached_prefix128", |b| {
        b.iter(|| {
            let mut g = Graph::with_mode(&session, EvalMode::Inference, std::mem::take(&mut pool));
            let logits = model.step_logits(&mut g, &ps, black_box(next_tok), &mut caches);
            let out = argmax(&g.value(logits).data);
            pool = g.recycle();
            for cache in &mut caches {
                cache.truncate(PREFIX);
            }
            out
        })
    });

    // The same token's logits the way a cacheless server gets them: a
    // full causal forward over the 129-token prefix.
    let mut pool_full = BufferPool::new();
    c.bench_function("decode/full_reforward_prefix128", |b| {
        b.iter(|| {
            let mut g = Graph::with_mode(
                &session,
                EvalMode::Inference,
                std::mem::take(&mut pool_full),
            );
            let logits = model.forward_logits(&mut g, &ps, black_box(&full));
            let v = g.value(logits);
            let out = argmax(&v.data[PREFIX * v.shape[1]..]);
            pool_full = g.recycle();
            out
        })
    });

    // Prefill: stepping the whole 128-token prompt into fresh caches.
    c.bench_function("decode/prefill128", |b| {
        b.iter(|| {
            let mut pool = BufferPool::new();
            let mut caches = model.new_caches(PREFIX, &mut pool);
            let mut last = 0usize;
            for &tok in &prompt {
                let mut g = Graph::with_mode(&session, EvalMode::Inference, pool);
                let logits = model.step_logits(&mut g, &ps, tok, &mut caches);
                last = argmax(&g.value(logits).data);
                pool = g.recycle();
            }
            last
        })
    });

    // The KV cache's acceptance bar: ≥2× cheaper than re-forwarding the
    // prefix at length 128. Read off the just-measured medians so the
    // committed baseline can never record a regression of the claim.
    let ns = |name: &str| {
        c.results()
            .iter()
            .find(|r| r.name == name)
            .expect("entry recorded")
            .ns_per_iter
    };
    let (cached, reforward) = (
        ns("decode/step_cached_prefix128"),
        ns("decode/full_reforward_prefix128"),
    );
    println!(
        "decode: cached step {cached:.0} ns vs full re-forward {reforward:.0} ns \
         ({:.1}x) at prefix {PREFIX}",
        reforward / cached
    );
    assert!(
        cached * 2.0 <= reforward,
        "cached step ({cached:.0} ns) must be >=2x cheaper than a full \
         re-forward ({reforward:.0} ns) at prefix {PREFIX}"
    );
}

fn bench_greedy_loop(c: &mut Criterion) {
    const GEN: usize = 56;
    let mut ps = ParamStore::new();
    let model = TinyDecoder::new(&mut ps, DecoderConfig::benchmark(), 7);
    let engine = lut_engine();
    let session = engine.session();
    let prompt = token_stream(8, model.config().vocab);
    let total_tokens = prompt.len() + GEN;

    c.bench_function("decode/greedy_prompt8_gen56", |b| {
        b.iter(|| model.greedy_decode(&session, &ps, black_box(&prompt), GEN, total_tokens))
    });

    // Batch-1 tokens/sec, derived per token: the JSON artifact's
    // `iters_per_sec` on this entry is the throughput figure.
    let loop_result = c
        .results()
        .iter()
        .find(|r| r.name == "decode/greedy_prompt8_gen56")
        .expect("greedy loop measured")
        .clone();
    let per_token = loop_result.ns_per_iter / total_tokens as f64;
    println!(
        "decode: batch-1 greedy {:.0} tokens/sec ({per_token:.0} ns/token)",
        1.0e9 / per_token
    );
    c.record(
        "decode/batch1_token_ns",
        per_token,
        loop_result.iterations * total_tokens as u64,
    );
}

// ---------------------------------------------------------------------------
// Batched decode through the serving front-end.
// ---------------------------------------------------------------------------

/// Session capacity for the served sessions (they reset when full).
const SERVED_MAX_LEN: usize = 128;

/// Four tenants greedy-decoding concurrently, closed-loop, through the
/// threaded server: every poll flushes whatever steps have coalesced
/// (`max_wait = 0`), so concurrent sessions share batched forwards.
fn bench_batched_decode(c: &mut Criterion) {
    const SESSIONS: usize = 4;
    const STEPS: usize = 192;
    let vocab = DecoderConfig::benchmark().vocab;
    let mut ps = ParamStore::new();
    let model = TinyDecoder::new(&mut ps, DecoderConfig::benchmark(), 7);
    let adapter = ServedDecoder::new(model, Arc::new(ps), SERVED_MAX_LEN);
    let served = ServedBuilder::new(lut_engine())
        .with_model(ModelSpec::from_model("tiny-decoder", &[1], adapter))
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: SESSIONS,
                max_wait: 0,
                capacity: 64,
                ..BatchConfig::default()
            },
            workers: 2,
            tenants: SESSIONS,
        })
        .build();

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for t in 0..SESSIONS {
            let served = &served;
            scope.spawn(move || {
                let session = served.open_decode(t, 0).expect("open decode");
                let mut tok = (t * 29 + 3) % vocab;
                for i in 0..STEPS {
                    if i > 0 && i % SERVED_MAX_LEN == 0 {
                        session.reset().expect("reset");
                    }
                    let logits = session
                        .step(Tensor::from_vec(vec![tok as f32], &[1]))
                        .expect("step")
                        .wait()
                        .expect("decode step");
                    tok = argmax(&logits.data);
                }
            });
        }
    });
    let elapsed = start.elapsed();

    let stats = served.stats();
    let total = (SESSIONS * STEPS) as u64;
    assert_eq!(stats.completed, total, "batched decode lost steps");
    let per_token = elapsed.as_nanos() as f64 / total as f64;
    println!(
        "decode: batched x{SESSIONS} {:.0} tokens/sec aggregate \
         ({per_token:.0} ns/token, mean batch {:.1})",
        1.0e9 / per_token,
        stats.mean_batch()
    );
    c.record("decode/batched4_token_ns", per_token, total);
}

criterion_group!(
    benches,
    bench_step_vs_reforward,
    bench_greedy_loop,
    bench_batched_decode
);
criterion_main!(benches);
