//! `net/*` — what the socket costs on top of the in-process front-end.
//!
//! CI's bench gate runs with `--require net/`, so this file going
//! missing (or silently producing no entries) fails the build.
//!
//! * `loopback_roundtrip`: one blocking `NetClient::infer` round trip
//!   over loopback — framing, syscalls, admission, coalescing,
//!   forward, and the response frame, end to end.
//! * `inprocess_roundtrip`: the identical request through
//!   `Served::serve` on an identically configured server — the
//!   wire-vs-in-process delta is read directly off the two entries.
//! * `zipf_*`: the deterministic Zipfian trace replayed by one socket
//!   client per tenant (closed loop), exporting sustained ns/request
//!   and the p50/p99 admission-to-response representatives via
//!   `Criterion::record`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use gqa_funcs::NonLinearOp;
use gqa_net::{NetClient, NetConfig, NetServer};
use gqa_registry::Method;
use gqa_serve::{Engine, EngineBuilder, OpPlan, OperatorPlan};
use gqa_served::{
    generate_trace, request_input, BatchConfig, LoadGenConfig, ModelSpec, Request, Served,
    ServedBuilder, ServedConfig,
};
use gqa_tensor::{Tensor, UnaryKind};

const DIM: usize = 64;
const TENANTS: usize = 4;

/// The served model: matmul against a fixed weight, LUT-served GELU,
/// row softmax — the same unit of work as the `served/*` family, so the
/// socket overhead is the only new variable.
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

fn lut_engine() -> Engine {
    EngineBuilder::new(OperatorPlan::new().with(
        NonLinearOp::Gelu,
        OpPlan::new(Method::GqaRm).with_seed(7).with_budget(0.05),
    ))
    .build()
    .expect("engine build")
}

fn served(max_wait: u64) -> Served {
    ServedBuilder::new(lut_engine())
        .with_model(mlp_spec())
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 16,
                max_wait,
                capacity: 4096,
                ..BatchConfig::default()
            },
            workers: 2,
            tenants: TENANTS,
        })
        .build()
}

/// One request per iteration, through the socket vs in process — the
/// transport's full overhead in one ratio.
fn bench_roundtrip(c: &mut Criterion) {
    let input = Tensor::from_vec((0..DIM).map(|j| (j as f32 * 0.21).sin()).collect(), &[DIM]);

    let server = NetServer::spawn(served(0), "127.0.0.1:0", NetConfig::default()).expect("bind");
    let mut client = NetClient::connect(server.addr(), "bench").expect("connect");
    c.bench_function("net/loopback_roundtrip", |b| {
        b.iter(|| {
            client
                .infer(0, 0, black_box(input.clone()))
                .expect("infer")
                .data[0]
        })
    });
    drop(client);
    drop(server);

    let inproc = served(0);
    c.bench_function("net/inprocess_roundtrip", |b| {
        b.iter(|| {
            inproc
                .serve(Request {
                    tenant: 0,
                    model: 0,
                    input: black_box(input.clone()),
                })
                .expect("serve")
                .data[0]
        })
    });
}

/// Sustained closed-loop Zipfian load through the socket: one client
/// per tenant replays the deterministic trace over loopback.
fn bench_zipf_over_loopback(c: &mut Criterion) {
    let cfg = LoadGenConfig {
        seed: 0xBE7C,
        requests: 2048,
        tenants: TENANTS,
        models: 1,
        skew: 1.0,
        mean_gap: 0,
    };
    let trace = generate_trace(&cfg);
    let server = NetServer::spawn(served(0), "127.0.0.1:0", NetConfig::default()).expect("bind");
    let addr = server.addr();

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for t in 0..TENANTS {
            let trace = &trace;
            scope.spawn(move || {
                let mut client = NetClient::connect(addr, "zipf").expect("connect");
                for e in trace.iter().filter(|e| e.tenant == t) {
                    client
                        .infer(t as u64, 0, request_input(e, &[DIM]))
                        .expect("infer");
                }
            });
        }
    });
    let elapsed = start.elapsed();

    let stats = server.served().stats();
    assert_eq!(
        stats.completed, cfg.requests as u64,
        "load run lost requests"
    );
    let per_req = elapsed.as_nanos() as f64 / cfg.requests as f64;
    let lat = server.served().latency();
    println!(
        "net/zipf: {} requests in {:.1} ms over loopback, {lat}",
        cfg.requests,
        elapsed.as_secs_f64() * 1e3,
    );
    c.record(
        "net/zipf_sustained_ns_per_req",
        per_req,
        cfg.requests as u64,
    );
    c.record(
        "net/zipf_latency_p50",
        lat.p50().expect("samples") as f64,
        lat.total(),
    );
    c.record(
        "net/zipf_latency_p99",
        lat.p99().expect("samples") as f64,
        lat.total(),
    );
}

criterion_group!(benches, bench_roundtrip, bench_zipf_over_loopback);
criterion_main!(benches);
