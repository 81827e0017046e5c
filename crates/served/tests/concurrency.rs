//! Concurrency stress for the serving front-end — all sleep-free.
//!
//! The load-bearing test races N closed-loop submitter threads against a
//! main thread hammering [`Engine::swap`] and [`Engine::refresh`], and
//! asserts the hot-swap contract *through the whole coalescing stack*:
//! every response is entirely the old artifact's bits or entirely the new
//! one's, never a blend. Termination is deterministic by construction:
//! with `max_batch` equal to the submitter count, an effectively infinite
//! `max_wait`, and one outstanding request per thread, every batch forms
//! exactly when all submitters have one request queued — no timers.
//!
//! The other tests pin admission control (bounded queue rejects instead
//! of growing) and shutdown (drop drains admitted work gracefully; what
//! cannot run fails typed, never hangs).

use gqa_funcs::NonLinearOp;
use gqa_serve::{Engine, EngineBuilder, Method, OpPlan, OperatorPlan};
use gqa_served::{
    dispatch_batch, BatchConfig, ModelSpec, Request, Served, ServedBuilder, ServedConfig,
    ServedError,
};
use gqa_tensor::{BufferPool, Tensor, UnaryKind};

fn base_plan() -> OpPlan {
    OpPlan::new(Method::GqaRm).with_seed(1).with_budget(0.05)
}

fn lut_engine() -> Engine {
    EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, base_plan()))
        .build()
        .unwrap()
}

/// A model whose forward contains exactly ONE planned-op tensor call.
/// That is what makes "all-old-bits or all-new-bits" the right assertion:
/// a forward with several LUT calls could legitimately straddle a swap
/// (early layers old artifact, late layers new). One call, one datapath
/// resolution, two possible answers.
fn single_gelu_spec(dim: usize) -> ModelSpec {
    ModelSpec::new("gelu", &[dim], |g, x| g.unary(x, UnaryKind::Gelu))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| v.to_bits()).collect()
}

/// 4 submitter threads × 64 closed-loop requests, racing ~60 swaps and
/// interleaved refresh calls. Every one of the 256 responses must be
/// bit-identical to the artifact-A or artifact-B batch-of-one forward.
#[test]
fn responses_are_all_old_or_all_new_under_racing_swaps_and_refreshes() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 64;
    const DIM: usize = 32;
    let plan_a = base_plan();
    let plan_b = base_plan().with_seed(2);
    let engine = lut_engine();
    let spec = single_gelu_spec(DIM);
    let input = Tensor::from_vec((0..DIM).map(|i| (i as f32 - 16.0) * 0.05).collect(), &[DIM]);

    // Both references via the real dispatch path, before the race starts.
    let mut pool = BufferPool::new();
    let out_a = bits(
        &dispatch_batch(
            &engine.session(),
            &spec,
            std::slice::from_ref(&input),
            &mut pool,
        )[0],
    );
    engine.swap(NonLinearOp::Gelu, plan_b).unwrap();
    let out_b = bits(
        &dispatch_batch(
            &engine.session(),
            &spec,
            std::slice::from_ref(&input),
            &mut pool,
        )[0],
    );
    engine.swap(NonLinearOp::Gelu, plan_a).unwrap();
    assert_ne!(out_a, out_b, "the two artifacts must be distinguishable");

    // Virtual clock that never advances: deadline flushes are impossible,
    // so batches form exactly at max_batch — one request per submitter,
    // lockstep, 64 full batches. No sleeps anywhere.
    let served = ServedBuilder::new(engine)
        .with_model(spec)
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: THREADS,
                max_wait: u64::MAX,
                capacity: 1024,
                ..BatchConfig::default()
            },
            workers: 2,
            tenants: THREADS,
        })
        .with_virtual_clock()
        .build();

    std::thread::scope(|scope| {
        for tenant in 0..THREADS {
            let (served, input, out_a, out_b) = (&served, &input, &out_a, &out_b);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let got = bits(
                        &served
                            .serve(Request {
                                tenant,
                                model: 0,
                                input: input.clone(),
                            })
                            .unwrap(),
                    );
                    assert!(
                        got == *out_a || got == *out_b,
                        "tenant {tenant}, request {i}: response mixed two artifacts"
                    );
                }
            });
        }
        // Retune under load; refresh (no snapshot dir → typed error) still
        // exercises the control-plane lock against live dispatch.
        for i in 0..60 {
            let plan = if i % 2 == 0 { plan_b } else { plan_a };
            served.engine().swap(NonLinearOp::Gelu, plan).unwrap();
            let _ = served.engine().refresh();
            std::thread::yield_now();
        }
    });

    let stats = served.stats();
    let total = (THREADS * PER_THREAD) as u64;
    assert_eq!(stats.completed, total, "{stats}");
    assert_eq!(stats.rejected, 0, "{stats}");
    assert_eq!(
        (stats.batches, stats.batched_rows),
        (total / THREADS as u64, total),
        "closed-loop lockstep must produce only full batches: {stats}"
    );
    assert_eq!(served.engine().stats().swaps, 2 + 60);
    // Every tenant's histogram counted exactly its own requests.
    for tenant in 0..THREADS {
        assert_eq!(served.tenant_latency(tenant).total(), PER_THREAD as u64);
    }
    assert_eq!(served.latency().total(), total);
}

/// Admission control: the queue is bounded. With no workers draining it,
/// submissions beyond `capacity` come back `Rejected` — typed, with the
/// depth and bound — and the queue provably never grows past capacity.
#[test]
fn bounded_queue_rejects_instead_of_growing() {
    const CAPACITY: usize = 8;
    let served = ServedBuilder::new(lut_engine())
        .with_model(single_gelu_spec(4))
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 4,
                max_wait: u64::MAX,
                capacity: CAPACITY,
                ..BatchConfig::default()
            },
            workers: 0, // nothing drains: pure admission behaviour
            tenants: 1,
        })
        .with_virtual_clock()
        .build();
    let req = || Request {
        tenant: 0,
        model: 0,
        input: Tensor::from_vec(vec![0.5; 4], &[4]),
    };
    let tickets: Vec<_> = (0..CAPACITY)
        .map(|_| served.submit(req()).unwrap())
        .collect();
    for extra in 0..3 {
        match served.submit(req()) {
            Err(ServedError::Rejected(r)) => {
                assert_eq!((r.depth, r.capacity), (CAPACITY, CAPACITY), "extra {extra}");
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
    }
    let stats = served.stats();
    assert_eq!(
        (stats.submitted, stats.rejected, stats.depth),
        (CAPACITY as u64, 3, CAPACITY),
        "rejections never enter the queue: {stats}"
    );
    // Dropping the zero-worker server cannot execute the backlog; every
    // admitted ticket fails typed instead of hanging forever.
    drop(served);
    for t in tickets {
        assert_eq!(t.wait().unwrap_err(), ServedError::ShuttingDown);
    }
}

/// Graceful drain: dropping a server with queued-but-unflushed requests
/// (below max_batch, deadline never reached) still executes them — the
/// admitted work completes rather than erroring.
#[test]
fn drop_drains_admitted_requests_to_completion() {
    let spec = single_gelu_spec(4);
    let engine = lut_engine();
    let mut pool = BufferPool::new();
    let input = Tensor::from_vec(vec![0.25, -0.5, 1.0, -1.5], &[4]);
    let want = bits(
        &dispatch_batch(
            &engine.session(),
            &spec,
            std::slice::from_ref(&input),
            &mut pool,
        )[0],
    );
    let served = ServedBuilder::new(engine)
        .with_model(spec)
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 16,
                max_wait: u64::MAX,
                capacity: 64,
                ..BatchConfig::default()
            },
            workers: 1,
            tenants: 1,
        })
        .with_virtual_clock()
        .build();
    let tickets: Vec<_> = (0..3)
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
    drop(served); // flush-by-policy is impossible; the drain must run them
    for t in tickets {
        assert_eq!(bits(&t.wait().unwrap()), want);
    }
}

/// Submission validation is typed and happens before the queue: bad
/// model, bad tenant, bad shape each get their own error and leave no
/// queued residue.
#[test]
fn submission_validation_is_typed() {
    let served = ServedBuilder::new(lut_engine())
        .with_model(single_gelu_spec(4))
        .with_config(ServedConfig {
            tenants: 2,
            ..ServedConfig::default()
        })
        .with_virtual_clock()
        .build();
    let good = Tensor::from_vec(vec![0.0; 4], &[4]);
    assert_eq!(
        served
            .submit(Request {
                tenant: 0,
                model: 9,
                input: good.clone(),
            })
            .unwrap_err(),
        ServedError::UnknownModel(9)
    );
    assert_eq!(
        served
            .submit(Request {
                tenant: 5,
                model: 0,
                input: good.clone(),
            })
            .unwrap_err(),
        ServedError::UnknownTenant(5)
    );
    assert_eq!(
        served
            .submit(Request {
                tenant: 1,
                model: 0,
                input: Tensor::from_vec(vec![0.0; 6], &[2, 3]),
            })
            .unwrap_err(),
        ServedError::BadShape {
            model: 0,
            expected: vec![4],
            got: vec![2, 3],
        }
    );
    let stats = served.stats();
    assert_eq!(
        (stats.submitted, stats.rejected, stats.depth),
        (0, 0, 0),
        "validation failures leave no trace: {stats}"
    );
}

/// The stress test again on a sanity point: `Served` is usable from a
/// shared reference across threads (no `&mut` needed anywhere on the
/// submit path), which is what lets callers put it in an `Arc` untouched.
#[test]
fn served_is_shareable_by_reference() {
    let served: &'static Served = Box::leak(Box::new(
        ServedBuilder::new(lut_engine())
            .with_model(single_gelu_spec(2))
            .with_config(ServedConfig {
                batch: BatchConfig {
                    max_batch: 2,
                    max_wait: u64::MAX,
                    capacity: 16,
                    ..BatchConfig::default()
                },
                workers: 1,
                tenants: 2,
            })
            .with_virtual_clock()
            .build(),
    ));
    let handles: Vec<_> = (0..2)
        .map(|tenant| {
            std::thread::spawn(move || {
                served
                    .serve(Request {
                        tenant,
                        model: 0,
                        input: Tensor::from_vec(vec![0.1, 0.2], &[2]),
                    })
                    .unwrap()
            })
        })
        .collect();
    let outs: Vec<Tensor> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(bits(&outs[0]), bits(&outs[1]), "same input, same bits");
}
