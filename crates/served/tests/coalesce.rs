//! Deterministic scheduler-script tests for the coalescing front-end.
//!
//! Every test runs the real threaded server on a **virtual clock**: time
//! only moves when the script calls `advance`, so flush-by-size,
//! flush-by-deadline, and model segregation are exercised as exact
//! schedules — no sleeps, no wall-time tolerances, no flakes.
//!
//! The centrepiece is the coalescing-invisibility property: whatever
//! batches the server forms, every response is `to_bits`-identical to a
//! batch-of-one [`dispatch_batch`] on the same engine state — across the
//! exact backend, the LUT backend, a mid-trace [`Engine::swap`], and a
//! mid-trace [`Engine::refresh`] from a republished shard.

use std::path::PathBuf;
use std::time::{Duration, SystemTime};

use gqa_funcs::NonLinearOp;
use gqa_serve::{
    shard_file_name, Engine, EngineBuilder, LutRegistry, Method, OpPlan, OperatorPlan,
};
use gqa_served::{
    dispatch_batch, generate_trace, request_input, BatchConfig, LoadGenConfig, ModelSpec, Request,
    Served, ServedBuilder, ServedConfig,
};
use gqa_tensor::{BufferPool, Tensor, UnaryKind};

fn base_plan() -> OpPlan {
    OpPlan::new(Method::GqaRm).with_seed(1).with_budget(0.05)
}

fn exact_engine() -> Engine {
    EngineBuilder::new(OperatorPlan::new()).build().unwrap()
}

fn lut_engine() -> Engine {
    EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, base_plan()))
        .build()
        .unwrap()
}

/// A small transformer-ish block: matmul against a fixed weight, GELU,
/// per-row softmax, layer norm. Rows are independent by construction, and
/// the GELU runs whatever datapath the engine serves.
fn mlp_spec(dim: usize) -> ModelSpec {
    let weight: Vec<f32> = (0..dim * dim)
        .map(|i| ((i as f32) * 0.37).sin() * 0.5)
        .collect();
    let shape = [dim, dim];
    ModelSpec::new("mlp", &[dim], move |g, x| {
        let w = g.input(Tensor::from_vec(weight.clone(), &shape));
        let h = g.matmul(x, w);
        let u = g.unary(h, UnaryKind::Gelu);
        let s = g.softmax_rows(u);
        g.layernorm_rows(s, 1e-5)
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| v.to_bits()).collect()
}

fn virtual_server(engine: Engine, spec: ModelSpec, batch: BatchConfig, workers: usize) -> Served {
    ServedBuilder::new(engine)
        .with_model(spec)
        .with_config(ServedConfig {
            batch,
            workers,
            tenants: 4,
        })
        .with_virtual_clock()
        .build()
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gqa-served-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Size-ready queues flush with no clock movement at all: four arrivals
/// at tick 0 with a far-away deadline become exactly one batch of four.
#[test]
fn flush_by_size_needs_no_clock() {
    let spec = mlp_spec(6);
    let served = virtual_server(
        exact_engine(),
        spec,
        BatchConfig {
            max_batch: 4,
            max_wait: 1_000_000,
            capacity: 64,
            ..BatchConfig::default()
        },
        1,
    );
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            served
                .submit(Request {
                    tenant: i % 4,
                    model: 0,
                    input: Tensor::from_vec(vec![0.1 * (i as f32 + 1.0); 6], &[6]),
                })
                .unwrap()
        })
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let stats = served.stats();
    assert_eq!(
        (stats.batches, stats.batched_rows, stats.completed),
        (1, 4, 4),
        "four size-ready arrivals must coalesce into one batch: {stats}"
    );
    assert_eq!(served.now(), 0, "the clock never moved");
    // Every tenant that submitted has a latency sample.
    assert_eq!(served.latency().total(), 4);
}

/// Below `max_batch`, nothing flushes until the virtual clock reaches the
/// oldest arrival's deadline — then everything queued goes out together.
#[test]
fn flush_by_deadline_waits_for_the_scripted_tick() {
    let spec = mlp_spec(6);
    let served = virtual_server(
        exact_engine(),
        spec,
        BatchConfig {
            max_batch: 16,
            max_wait: 5,
            capacity: 64,
            ..BatchConfig::default()
        },
        1,
    );
    let make = |i: usize| Request {
        tenant: 0,
        model: 0,
        input: Tensor::from_vec(vec![0.2 * (i as f32 + 1.0); 6], &[6]),
    };
    let mut t0 = served.submit(make(0)).unwrap();
    let t1 = served.submit(make(1)).unwrap();
    // Two queued, deadline at tick 5: a flush is IMPOSSIBLE while the
    // clock is below it, so this check is race-free by construction.
    assert!(
        t0.try_consume().is_none(),
        "nothing may flush before tick 5"
    );
    assert_eq!(served.advance(4), 4);
    assert!(t0.try_consume().is_none(), "tick 4 is one tick early");
    assert_eq!(served.stats().batches, 0);
    served.advance(1); // tick 5: exactly the deadline
    t0.wait().unwrap();
    t1.wait().unwrap();
    let stats = served.stats();
    assert_eq!(
        (stats.batches, stats.batched_rows),
        (1, 2),
        "the deadline flush takes everything queued: {stats}"
    );
}

/// Different models never share a batch, and each model's forward is the
/// one its spec declares (verifiable exactly with scale-only models).
#[test]
fn models_are_segregated_into_their_own_batches() {
    let double = ModelSpec::new("double", &[3], |g, x| g.scale(x, 2.0));
    let triple = ModelSpec::new("triple", &[3], |g, x| g.scale(x, 3.0));
    let served = ServedBuilder::new(exact_engine())
        .with_model(double)
        .with_model(triple)
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 2,
                max_wait: 1_000_000,
                capacity: 64,
                ..BatchConfig::default()
            },
            workers: 1,
            tenants: 1,
        })
        .with_virtual_clock()
        .build();
    // Interleaved submissions: A B A B.
    let reqs: Vec<_> = (0..4)
        .map(|i| Request {
            tenant: 0,
            model: i % 2,
            input: Tensor::from_vec(vec![i as f32 + 1.0; 3], &[3]),
        })
        .collect();
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| served.submit(r.clone()).unwrap())
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let out = t.wait().unwrap();
        let factor = if i % 2 == 0 { 2.0 } else { 3.0 };
        let want: Vec<f32> = reqs[i].input.data.iter().map(|v| v * factor).collect();
        assert_eq!(out.data, want, "request {i} ran the wrong model");
    }
    let stats = served.stats();
    assert_eq!(
        (stats.batches, stats.batched_rows),
        (2, 4),
        "two models, two batches: {stats}"
    );
}

/// Replays a Zipf-scripted arrival schedule through the server and checks
/// every response against a batch-of-one [`dispatch_batch`] on the same
/// engine — the coalescing-invisibility contract.
fn assert_invisible_over_trace(engine: Engine, tag: &str) {
    let spec = mlp_spec(8);
    let cfg = LoadGenConfig {
        seed: 0xC0A1,
        requests: 24,
        tenants: 4,
        models: 1,
        skew: 1.0,
        mean_gap: 1,
    };
    let trace = generate_trace(&cfg);
    let served = ServedBuilder::new(engine)
        .with_model(spec.clone())
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 3,
                max_wait: 2,
                capacity: 64,
                ..BatchConfig::default()
            },
            workers: 2,
            tenants: cfg.tenants,
        })
        .with_virtual_clock()
        .build();

    // References first: batch-of-one through the very same execution path
    // on a sibling session of the same engine.
    let reference_session = served.engine().session();
    let mut pool = BufferPool::new();
    let references: Vec<Vec<u32>> = trace
        .iter()
        .map(|e| {
            let input = request_input(e, spec.row_shape());
            bits(&dispatch_batch(&reference_session, &spec, &[input], &mut pool)[0])
        })
        .collect();

    // Script the arrivals: advance the virtual clock to each entry's tick,
    // then submit. Whatever batches form (by size or by deadline), the
    // answers may not change.
    let mut tickets = Vec::new();
    for e in &trace {
        let now = served.now();
        if e.at > now {
            served.advance(e.at - now);
        }
        tickets.push(
            served
                .submit(Request {
                    tenant: e.tenant,
                    model: e.model,
                    input: request_input(e, spec.row_shape()),
                })
                .unwrap(),
        );
    }
    // Push the clock past every deadline so stragglers flush too.
    served.advance(1000);
    for (i, t) in tickets.into_iter().enumerate() {
        let got = bits(&t.wait().unwrap());
        assert_eq!(
            got, references[i],
            "{tag}: request {i} response differs from its batch-of-one forward"
        );
    }
    let stats = served.stats();
    assert_eq!(stats.completed, trace.len() as u64, "{tag}: {stats}");
    assert!(
        stats.batches < trace.len() as u64,
        "{tag}: coalescing must actually have happened ({stats})"
    );
}

#[test]
fn coalescing_is_invisible_on_the_exact_backend() {
    assert_invisible_over_trace(exact_engine(), "exact");
}

#[test]
fn coalescing_is_invisible_on_the_lut_backend() {
    assert_invisible_over_trace(lut_engine(), "lut");
}

/// Invisibility through a mid-trace [`Engine::swap`]: requests answered
/// before the swap match batch-of-one on the old artifact, requests after
/// it match batch-of-one on the new one — and the two differ.
#[test]
fn coalescing_is_invisible_across_a_mid_trace_swap() {
    let spec = mlp_spec(8);
    let served = virtual_server(
        lut_engine(),
        spec.clone(),
        BatchConfig {
            max_batch: 2,
            max_wait: 1_000_000,
            capacity: 64,
            ..BatchConfig::default()
        },
        1,
    );
    let session = served.engine().session();
    let mut pool = BufferPool::new();
    let inputs: Vec<Tensor> = (0..4)
        .map(|i| {
            Tensor::from_vec(
                (0..8).map(|j| ((i * 8 + j) as f32 * 0.21).sin()).collect(),
                &[8],
            )
        })
        .collect();
    let reference = |session: &gqa_serve::Session, input: &Tensor, pool: &mut BufferPool| {
        bits(&dispatch_batch(session, &spec, std::slice::from_ref(input), pool)[0])
    };

    // Phase 1: old artifact.
    let before: Vec<Vec<u32>> = inputs[..2]
        .iter()
        .map(|x| reference(&session, x, &mut pool))
        .collect();
    let got: Vec<Vec<u32>> = inputs[..2]
        .iter()
        .map(|x| {
            served.submit(Request {
                tenant: 0,
                model: 0,
                input: x.clone(),
            })
        })
        .collect::<Result<Vec<_>, _>>()
        .unwrap()
        .into_iter()
        .map(|t| bits(&t.wait().unwrap()))
        .collect();
    assert_eq!(got, before, "pre-swap responses match the old artifact");

    // Mid-trace retune.
    served
        .engine()
        .swap(NonLinearOp::Gelu, base_plan().with_seed(2))
        .unwrap();

    // Phase 2: new artifact.
    let after: Vec<Vec<u32>> = inputs[2..]
        .iter()
        .map(|x| reference(&session, x, &mut pool))
        .collect();
    let got: Vec<Vec<u32>> = inputs[2..]
        .iter()
        .map(|x| {
            served.submit(Request {
                tenant: 0,
                model: 0,
                input: x.clone(),
            })
        })
        .collect::<Result<Vec<_>, _>>()
        .unwrap()
        .into_iter()
        .map(|t| bits(&t.wait().unwrap()))
        .collect();
    assert_eq!(got, after, "post-swap responses match the new artifact");
    // Same inputs, different artifact → different bits (sanity that the
    // swap actually changed the datapath the server runs).
    let before_on_same: Vec<Vec<u32>> = inputs[..2]
        .iter()
        .map(|x| reference(&session, x, &mut pool))
        .collect();
    assert_ne!(before, before_on_same, "the swap must be observable");
    assert_eq!(served.engine().stats().swaps, 1);
}

/// Invisibility through a mid-trace [`Engine::refresh`]: a republished
/// shard (different artifact under the same key, as an offline rebuilder
/// produces) goes live under traffic, and responses track it exactly.
#[test]
fn coalescing_is_invisible_across_a_mid_trace_refresh() {
    let dir = test_dir("refresh");
    let engine = EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, base_plan()))
        .with_snapshot_dir(&dir)
        .build()
        .unwrap();
    engine.save_shards().unwrap();
    let spec = mlp_spec(8);
    let served = virtual_server(
        engine,
        spec.clone(),
        BatchConfig {
            max_batch: 2,
            max_wait: 1_000_000,
            capacity: 64,
            ..BatchConfig::default()
        },
        1,
    );
    let session = served.engine().session();
    let mut pool = BufferPool::new();
    let input = Tensor::from_vec((0..8).map(|j| (j as f32 * 0.33).cos()).collect(), &[8]);
    let serve_pair = || -> Vec<Vec<u32>> {
        let tickets: Vec<_> = (0..2)
            .map(|_| {
                served
                    .submit(Request {
                        tenant: 0,
                        model: 0,
                        input: input.clone(),
                    })
                    .unwrap()
            })
            .collect();
        tickets
            .into_iter()
            .map(|t| bits(&t.wait().unwrap()))
            .collect()
    };

    let before_ref =
        bits(&dispatch_batch(&session, &spec, std::slice::from_ref(&input), &mut pool)[0]);
    assert!(serve_pair().iter().all(|b| *b == before_ref));

    // An offline rebuilder republishes GELU's shard with a different
    // artifact under the same key (the engine.rs refresh technique).
    let other = LutRegistry::new();
    let rebuilt = other
        .get_or_build(&base_plan().with_seed(2).spec(NonLinearOp::Gelu))
        .unwrap();
    let publish = LutRegistry::new();
    publish.insert(
        base_plan().spec(NonLinearOp::Gelu).key().unwrap(),
        (*rebuilt).clone(),
    );
    let shard = dir.join(shard_file_name(NonLinearOp::Gelu));
    std::fs::write(&shard, publish.snapshot_json()).unwrap();
    std::fs::File::options()
        .write(true)
        .open(&shard)
        .unwrap()
        .set_modified(SystemTime::now() + Duration::from_secs(3))
        .unwrap();
    assert_eq!(served.engine().refresh().unwrap(), 1);

    let after_ref =
        bits(&dispatch_batch(&session, &spec, std::slice::from_ref(&input), &mut pool)[0]);
    assert_ne!(before_ref, after_ref, "the refresh must be observable");
    assert!(serve_pair().iter().all(|b| *b == after_ref));
    std::fs::remove_dir_all(&dir).ok();
}
