//! `fused/*` — the fused softmax/LayerNorm execution layer against the
//! unfused graph assemblies it replaces.
//!
//! Every fused/unfused pair evaluates the *same bits* (the property
//! suites prove it); the deltas here are pure execution-layer cost: tape
//! nodes, intermediate tensor materialization, and per-primitive sweeps
//! that fusion eliminates. Pairs are measured with the exact backend and
//! with an engine session serving EXP and DIV through INT8 LUTs (the
//! paper's datapath), where the non-linear stages are cheap enough that
//! the unfused assembly overhead dominates.
//!
//! CI's bench gate runs with `--require fused/`, so this file going
//! missing (or silently producing no entries) fails the build.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use gqa_funcs::NonLinearOp;
use gqa_fxp::{IntRange, PowerOfTwoScale};
use gqa_serve::{EngineBuilder, Method, OpPlan, OperatorPlan};
use gqa_tensor::nn::LayerNorm;
use gqa_tensor::{ExactBackend, FusedOp, Graph, ParamStore, Tensor, UnaryBackend};

fn logits(rows: usize, cols: usize) -> Tensor {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| ((i as f32 * 0.7311).sin() * 4.0) - 1.0)
        .collect();
    Tensor::from_vec(data, &[rows, cols])
}

fn softmax_once(backend: &dyn UnaryBackend, t: &Tensor, fused: bool) -> f32 {
    let mut g = Graph::new(backend);
    let x = g.input(t.clone());
    let s = if fused {
        g.softmax(x)
    } else {
        g.softmax_rows(x)
    };
    g.value(s).data[0]
}

fn bench_fused(c: &mut Criterion) {
    println!(
        "simd dispatch path: {}",
        if gqa_simd::simd_active() {
            "avx2"
        } else {
            "scalar"
        }
    );

    let exact = ExactBackend;

    // --- Softmax, exact backend (libm exp dominates; fusion trims the
    // assembly overhead around it).
    let t = logits(64, 256);
    c.bench_function("fused/softmax_fused_64x256", |b| {
        b.iter(|| softmax_once(&exact, black_box(&t), true))
    });
    c.bench_function("fused/softmax_unfused_64x256", |b| {
        b.iter(|| softmax_once(&exact, black_box(&t), false))
    });

    // --- Softmax through the INT8 LUT datapath (EXP + DIV replaced): the
    // non-linear stages are a few ns/element, so the unfused assembly's
    // tape/materialization cost is the dominant term fusion removes.
    let plan = |method| OpPlan::new(method).with_seed(7).with_budget(0.05);
    let scale = PowerOfTwoScale::covering(9.0, IntRange::signed(8));
    let lut_backend = EngineBuilder::new(
        OperatorPlan::new()
            .with(NonLinearOp::Exp, plan(Method::GqaRm).with_scale(scale))
            .with(NonLinearOp::Div, plan(Method::GqaNoRm)),
    )
    .build()
    .expect("engine build")
    .session();
    let t_lut = logits(256, 64);
    c.bench_function("fused/softmax_lut_fused_256x64", |b| {
        b.iter(|| softmax_once(&lut_backend, black_box(&t_lut), true))
    });
    c.bench_function("fused/softmax_lut_unfused_256x64", |b| {
        b.iter(|| softmax_once(&lut_backend, black_box(&t_lut), false))
    });

    // --- Short attention rows (the small-context shape): per-node
    // overhead is amortized over 8 elements per row, so the unfused
    // assembly pays proportionally more for its five nodes.
    let t_short = logits(2048, 8);
    c.bench_function("fused/softmax_lut_fused_2048x8", |b| {
        b.iter(|| softmax_once(&lut_backend, black_box(&t_short), true))
    });
    c.bench_function("fused/softmax_lut_unfused_2048x8", |b| {
        b.iter(|| softmax_once(&lut_backend, black_box(&t_short), false))
    });

    // --- The raw fused driver (no tape): the serving-path cost of one
    // fused softmax apply.
    let mut out = vec![0.0f32; t_lut.data.len()];
    c.bench_function("fused/softmax_driver_256x64", |b| {
        b.iter(|| {
            FusedOp::Softmax.eval_f32(&lut_backend, black_box(&t_lut.data), 64, &mut out);
            out[0]
        })
    });

    // --- Attention: the whole score → scale → softmax → aggregate
    // pipeline as one node vs the five-node unfused assembly. The fused
    // node keeps kᵀ and the score matrix in pooled scratch instead of
    // materializing them as tape nodes.
    let (bsz, nq, nk, ch) = (2, 128, 128, 32);
    let q = Tensor::from_vec(
        (0..bsz * nq * ch)
            .map(|i| ((i as f32 * 0.311).sin()) * 0.7)
            .collect(),
        &[bsz, nq, ch],
    );
    let k = Tensor::from_vec(
        (0..bsz * nk * ch)
            .map(|i| ((i as f32 * 0.173).cos()) * 0.7)
            .collect(),
        &[bsz, nk, ch],
    );
    let v = Tensor::from_vec(
        (0..bsz * nk * ch)
            .map(|i| ((i as f32 * 0.531).sin()) + 0.2)
            .collect(),
        &[bsz, nk, ch],
    );
    let scale_attn = 1.0 / (ch as f32).sqrt();
    let attention_once = |backend: &dyn UnaryBackend, fused: bool| {
        let mut g = Graph::new(backend);
        let qn = g.input(q.clone());
        let kn = g.input(k.clone());
        let vn = g.input(v.clone());
        let y = if fused {
            g.attention(qn, kn, vn, scale_attn)
        } else {
            g.attention_unfused(qn, kn, vn, scale_attn)
        };
        g.value(y).data[0]
    };
    c.bench_function("fused/attention_fused_2x128x32", |b| {
        b.iter(|| attention_once(black_box(&exact), true))
    });
    c.bench_function("fused/attention_unfused_2x128x32", |b| {
        b.iter(|| attention_once(black_box(&exact), false))
    });
    c.bench_function("fused/attention_lut_fused_2x128x32", |b| {
        b.iter(|| attention_once(black_box(&lut_backend), true))
    });
    c.bench_function("fused/attention_lut_unfused_2x128x32", |b| {
        b.iter(|| attention_once(black_box(&lut_backend), false))
    });

    // --- The serving configuration: inference tape + recycled pool, the
    // forward-only fast path `Session::inference_graph_with_pool` serves.
    let mut pool = gqa_tensor::BufferPool::new();
    c.bench_function("fused/attention_inference_2x128x32", |b| {
        b.iter(|| {
            let mut g = Graph::with_mode(
                &exact,
                gqa_tensor::EvalMode::Inference,
                std::mem::take(&mut pool),
            );
            let qn = g.input(q.clone());
            let kn = g.input(k.clone());
            let vn = g.input(v.clone());
            let y = g.attention(qn, kn, vn, scale_attn);
            let out = g.value(y).data[0];
            pool = g.recycle();
            black_box(out)
        })
    });

    // --- LayerNorm with affine: the transformer-block shape. RSQRT only
    // touches a rows-length vector, so nearly the whole unfused cost is
    // the assembly fusion collapses (tile_last's matmul included).
    let mut ps = ParamStore::new();
    let ln = LayerNorm::new(&mut ps, 64, 1e-5);
    for (i, v) in ps.value_mut(ln.gamma).data.iter_mut().enumerate() {
        *v = 1.0 + i as f32 * 0.001;
    }
    let t_ln = logits(256, 64);
    c.bench_function("fused/layernorm_fused_256x64", |b| {
        b.iter(|| {
            let mut g = Graph::new(&exact);
            let x = g.input(black_box(&t_ln).clone());
            let y = ln.apply(&mut g, &ps, x);
            g.value(y).data[0]
        })
    });
    c.bench_function("fused/layernorm_unfused_256x64", |b| {
        b.iter(|| {
            let mut g = Graph::new(&exact);
            let x = g.input(black_box(&t_ln).clone());
            let y = ln.apply_unfused(&mut g, &ps, x);
            g.value(y).data[0]
        })
    });
}

criterion_group!(benches, bench_fused);
criterion_main!(benches);
