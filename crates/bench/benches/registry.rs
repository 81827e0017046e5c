//! Registry benchmarks: the cost of a cold LUT compilation versus a warm
//! registry rebuild for an identical key.
//!
//! The acceptance bar for the registry layer is that a repeated
//! `get_or_build` with an identical `LutKey` performs zero
//! genetic-search generations; these two entries make the resulting
//! wall-clock gap (≥10×, in practice ≥1000×) part of the recorded bench
//! trajectory.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use gqa_funcs::NonLinearOp;
use gqa_registry::{LutRegistry, LutSpec, Method};

fn spec() -> LutSpec {
    LutSpec::new(Method::GqaRm, NonLinearOp::Gelu, 8, 1).with_budget(0.1)
}

fn bench_registry(c: &mut Criterion) {
    // Cold: every iteration starts from an empty registry, so the full
    // genetic search runs each time.
    c.bench_function("registry/gelu_build_cold", |b| {
        b.iter_batched(
            LutRegistry::new,
            |reg| reg.get_or_build(black_box(&spec())).unwrap(),
            BatchSize::PerIteration,
        )
    });

    // Warm: one pre-warmed registry; every iteration is a content-address
    // hit that runs zero search generations.
    let reg = LutRegistry::new();
    let _ = reg.get_or_build(&spec()).unwrap();
    c.bench_function("registry/gelu_rebuild_warm", |b| {
        b.iter(|| reg.get_or_build(black_box(&spec())).unwrap())
    });

    // Snapshot round-trip: serialize + load the single-entry registry
    // (the warm-start path bench binaries take under GQA_LUT_SNAPSHOT).
    c.bench_function("registry/snapshot_round_trip", |b| {
        b.iter(|| {
            let json = reg.snapshot_json();
            let fresh = LutRegistry::new();
            fresh.load_snapshot_json(black_box(&json)).unwrap()
        })
    });
}

criterion_group!(benches, bench_registry);
criterion_main!(benches);
