//! `engine/*` — the serving engine's overhead relative to the raw
//! backends it wraps, plus the control-plane hot paths.
//!
//! CI's bench gate runs with `--require engine/`, so this file going
//! missing (or silently producing no entries) fails the build.
//!
//! * `session_dispatch` vs `raw_backend`: one tensor-level GELU sweep
//!   through a `Session` (table lookup + hot-swap cell resolve + LUT
//!   datapath) against the bare `build_datapath` sweep over the same
//!   artifact — the per-tensor cost of serving through the engine.
//! * `swap_cached`: a full `Engine::swap` retune where the artifact is a
//!   registry hit — datapath instantiation + cell swap, no search.
//! * `refresh_warm`: an `Engine::refresh` pass over unchanged shards —
//!   one `stat` per planned operator, no parsing.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use gqa_funcs::NonLinearOp;
use gqa_registry::Method;
use gqa_serve::{build_datapath, EngineBuilder, OpPlan, OperatorPlan};
use gqa_tensor::{UnaryBackend, UnaryKind};

fn bench_engine(c: &mut Criterion) {
    let base = OpPlan::new(Method::GqaRm).with_seed(7).with_budget(0.05);
    let dir = std::env::temp_dir().join(format!("gqa-engine-bench-{}", std::process::id()));
    let engine = EngineBuilder::new(
        OperatorPlan::new()
            .with(NonLinearOp::Gelu, base)
            .with(NonLinearOp::Div, base),
    )
    .with_snapshot_dir(&dir)
    .build()
    .expect("engine build");
    let session = engine.session();

    let xs: Vec<f32> = (0..4096).map(|i| (i as f32 - 2048.0) * 0.002).collect();
    let mut out = vec![0.0f32; xs.len()];

    c.bench_function("engine/session_dispatch_gelu_4096", |b| {
        b.iter(|| {
            session.eval_many_f32(UnaryKind::Gelu, black_box(&xs), &mut out);
            out[0]
        })
    });

    // The same artifact's datapath without the engine indirection.
    let artifact = engine.artifact(NonLinearOp::Gelu).unwrap();
    let raw = build_datapath(&artifact, NonLinearOp::Gelu, base.bits, base.scale);
    c.bench_function("engine/raw_backend_gelu_4096", |b| {
        b.iter(|| {
            raw.eval_batch_f32(black_box(&xs), &mut out);
            out[0]
        })
    });

    // Unplanned kinds fall through to the exact backend via the same
    // dispatch table — the "engine serving an exact op" cost.
    c.bench_function("engine/session_exact_relu_4096", |b| {
        b.iter(|| {
            session.eval_many_f32(UnaryKind::Relu, black_box(&xs), &mut out);
            out[0]
        })
    });

    // Retune with both artifacts already cached: datapath instantiation
    // plus the atomic cell swap, alternating between two seeds.
    let alt = base.with_seed(8);
    engine
        .swap(NonLinearOp::Gelu, alt)
        .expect("pre-warm seed 8");
    let mut flip = false;
    c.bench_function("engine/swap_cached", |b| {
        b.iter(|| {
            flip = !flip;
            let plan = if flip { base } else { alt };
            engine.swap(NonLinearOp::Gelu, plan).expect("swap")
        })
    });

    // Warm refresh: shards on disk match what the engine last observed,
    // so the pass is pure metadata stats.
    engine.save_shards().expect("write shards");
    c.bench_function("engine/refresh_warm", |b| {
        b.iter(|| engine.refresh().expect("refresh"))
    });

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
