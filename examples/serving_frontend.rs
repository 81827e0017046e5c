//! The serving front-end end to end: tenants submitting concurrently, the
//! coalescer folding their requests into batched forwards, a hot-swap
//! retune landing mid-run, and the per-tenant latency histograms that
//! come out the other side.
//!
//! Run with: `cargo run --release --example serving_frontend`

use gqa::funcs::NonLinearOp;
use gqa::registry::Method;
use gqa::serve::{EngineBuilder, OpPlan, OperatorPlan};
use gqa::served::{
    generate_trace, request_input, BatchConfig, LoadGenConfig, ModelSpec, Request, ServedBuilder,
    ServedConfig,
};
use gqa::tensor::{Tensor, UnaryKind};

fn main() {
    // 1. An engine serving GELU through an 8-entry INT8 GQA-LUT
    //    (example-sized search budget; production plans use 1.0).
    let base = OpPlan::new(Method::GqaRm).with_seed(7).with_budget(0.05);
    let engine = EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, base))
        .build()
        .expect("engine build");

    // 2. A served model: per-request rows of 64 features through a
    //    matmul + LUT-GELU + row-softmax block. The forward must treat
    //    the leading dimension as an opaque batch axis — that is what
    //    makes coalescing invisible to callers.
    const DIM: usize = 64;
    let weight: Vec<f32> = (0..DIM * DIM)
        .map(|i| ((i as f32) * 0.37).sin() * 0.5)
        .collect();
    let spec = ModelSpec::new("mlp", &[DIM], move |g, x| {
        let w = g.input(Tensor::from_vec(weight.clone(), &[DIM, DIM]));
        let h = g.matmul(x, w);
        let u = g.unary(h, UnaryKind::Gelu);
        g.softmax_rows(u)
    });

    // 3. The front-end: coalesce up to 16 same-model rows per forward,
    //    bounded admission queue, two worker threads, four tenants.
    const TENANTS: usize = 4;
    let served = ServedBuilder::new(engine)
        .with_model(spec)
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 16,
                max_wait: 0,
                capacity: 1024,
                ..BatchConfig::default()
            },
            workers: 2,
            tenants: TENANTS,
        })
        .build();

    // 4. A deterministic Zipfian load: hot tenants dominate, and the
    //    same seed replays the identical trace on every run.
    let cfg = LoadGenConfig {
        seed: 0xD0C5,
        requests: 1024,
        tenants: TENANTS,
        models: 1,
        skew: 1.0,
        mean_gap: 0,
    };
    let trace = generate_trace(&cfg);

    // 5. Four closed-loop submitter threads replay the trace while the
    //    main thread hot-swaps the GELU artifact mid-run. Every response
    //    stays entirely on one artifact's datapath — batching and swaps
    //    are invisible to the answer, visible only in the throughput.
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for tenant in 0..TENANTS {
            let (served, trace) = (&served, &trace);
            scope.spawn(move || {
                for e in trace.iter().filter(|e| e.tenant == tenant) {
                    served
                        .serve(Request {
                            tenant,
                            model: 0,
                            input: request_input(e, &[DIM]),
                        })
                        .expect("serve");
                }
            });
        }
        served
            .engine()
            .swap(NonLinearOp::Gelu, base.with_seed(8))
            .expect("mid-run retune");
    });
    let elapsed = start.elapsed();

    // 6. What the front-end observed: coalescing width, throughput, and
    //    per-tenant latency from the lock-free histograms.
    let stats = served.stats();
    println!("front-end: {stats}");
    println!(
        "sustained: {:.0} requests/sec (mean batch width {:.1})",
        stats.completed as f64 / elapsed.as_secs_f64(),
        stats.mean_batch()
    );
    for tenant in 0..TENANTS {
        let lat = served.tenant_latency(tenant);
        println!("tenant {tenant}: {lat}");
    }
    let all = served.latency();
    println!(
        "fleet: p50 ~{} ns, p99 ~{} ns over {} responses",
        all.p50().unwrap_or(0),
        all.p99().unwrap_or(0),
        all.total()
    );
}
