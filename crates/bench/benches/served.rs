//! `served/*` — the serving front-end's payoff and its sustained-load
//! profile.
//!
//! CI's bench gate runs with `--require served/`, so this file going
//! missing (or silently producing no entries) fails the build.
//!
//! * `dispatch_batch16` vs `dispatch_one_by_one_x16`: the same 16
//!   requests executed as ONE coalesced forward versus 16 batch-of-one
//!   forwards through the identical [`dispatch_batch`] path. Both
//!   benches process 16 requests per iteration, so the coalescing win is
//!   read directly off the ns/iter ratio (the acceptance bar is ≥2×
//!   requests/sec).
//! * `zipf_*`: a closed-loop Zipfian load (deterministic golden trace)
//!   through the real threaded server — sustained ns/request plus the
//!   p50/p99 representatives from the per-tenant lock-free histograms,
//!   exported via `Criterion::record`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use gqa_funcs::NonLinearOp;
use gqa_registry::Method;
use gqa_serve::{EngineBuilder, OpPlan, OperatorPlan};
use gqa_served::{
    dispatch_batch, generate_trace, request_input, BatchConfig, LoadGenConfig, ModelSpec, Request,
    ServedBuilder, ServedConfig,
};
use gqa_tensor::{BufferPool, Tensor, UnaryKind};

const DIM: usize = 64;
const BATCH: usize = 16;

/// The served model: matmul against a fixed weight, LUT-served GELU,
/// row softmax — a transformer-block-shaped unit of work.
fn mlp_spec() -> ModelSpec {
    let weight: Vec<f32> = (0..DIM * DIM)
        .map(|i| ((i as f32) * 0.37).sin() * 0.5)
        .collect();
    ModelSpec::new("mlp", &[DIM], move |g, x| {
        let w = g.input(Tensor::from_vec(weight.clone(), &[DIM, DIM]));
        let h = g.matmul(x, w);
        let u = g.unary(h, UnaryKind::Gelu);
        g.softmax_rows(u)
    })
}

fn lut_engine() -> gqa_serve::Engine {
    EngineBuilder::new(OperatorPlan::new().with(
        NonLinearOp::Gelu,
        OpPlan::new(Method::GqaRm).with_seed(7).with_budget(0.05),
    ))
    .build()
    .expect("engine build")
}

fn bench_dispatch(c: &mut Criterion) {
    let engine = lut_engine();
    let session = engine.session();
    let spec = mlp_spec();
    let inputs: Vec<Tensor> = (0..BATCH)
        .map(|i| {
            Tensor::from_vec(
                (0..DIM)
                    .map(|j| ((i * DIM + j) as f32 * 0.21).sin())
                    .collect(),
                &[DIM],
            )
        })
        .collect();
    let mut pool = BufferPool::new();

    // 16 requests per iteration, ONE coalesced forward.
    c.bench_function("served/dispatch_batch16", |b| {
        b.iter(|| dispatch_batch(&session, &spec, black_box(&inputs), &mut pool)[0].data[0])
    });

    // The same 16 requests, one forward each — what serving costs without
    // the coalescer.
    let mut pool1 = BufferPool::new();
    c.bench_function("served/dispatch_one_by_one_x16", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for input in black_box(&inputs) {
                acc += dispatch_batch(&session, &spec, std::slice::from_ref(input), &mut pool1)[0]
                    .data[0];
            }
            acc
        })
    });
}

/// Sustained closed-loop Zipfian load through the real threaded server:
/// 4 submitter threads replay the deterministic trace, `max_wait = 0`
/// keeps every poll flushing whatever has coalesced. Exports the mean
/// ns/request and the histogram's p50/p99 representatives.
fn bench_zipf_load(c: &mut Criterion) {
    const THREADS: usize = 4;
    let cfg = LoadGenConfig {
        seed: 0xBE7C,
        requests: 2048,
        tenants: THREADS,
        models: 1,
        skew: 1.0,
        mean_gap: 0,
    };
    let trace = generate_trace(&cfg);
    let spec = mlp_spec();
    let row_shape = spec.row_shape().to_vec();
    let served = ServedBuilder::new(lut_engine())
        .with_model(spec)
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: BATCH,
                max_wait: 0,
                capacity: 4096,
                ..BatchConfig::default()
            },
            workers: 2,
            tenants: THREADS,
        })
        .build();

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (served, trace, row_shape) = (&served, &trace, &row_shape);
            scope.spawn(move || {
                // Each thread replays its own tenant's slice closed-loop.
                for e in trace.iter().filter(|e| e.tenant % THREADS == t) {
                    served
                        .serve(Request {
                            tenant: t,
                            model: 0,
                            input: request_input(e, row_shape),
                        })
                        .expect("serve");
                }
            });
        }
    });
    let elapsed = start.elapsed();

    let stats = served.stats();
    assert_eq!(
        stats.completed, cfg.requests as u64,
        "load run lost requests"
    );
    let per_req = elapsed.as_nanos() as f64 / cfg.requests as f64;
    let lat = served.latency();
    println!(
        "served/zipf: {} requests in {:.1} ms, mean batch {:.1}, {lat}",
        cfg.requests,
        elapsed.as_secs_f64() * 1e3,
        stats.mean_batch()
    );
    c.record(
        "served/zipf_sustained_ns_per_req",
        per_req,
        cfg.requests as u64,
    );
    c.record(
        "served/zipf_latency_p50",
        lat.p50().expect("samples") as f64,
        lat.total(),
    );
    c.record(
        "served/zipf_latency_p99",
        lat.p99().expect("samples") as f64,
        lat.total(),
    );
}

criterion_group!(benches, bench_dispatch, bench_zipf_load);
criterion_main!(benches);
