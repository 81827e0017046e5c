//! Deterministic fairness suite for the coalescer's per-tenant lanes —
//! all virtual time, no sleeps, no tolerances.
//!
//! Each coalescer queue keeps one FIFO lane per tenant and fills a batch
//! one item per lane visit: deficit round robin with quantum 1 and equal
//! weights. The centrepiece is the starvation bound that follows: an
//! item at depth `p` of its lane, among `T` tenants with queued work,
//! leaves within `(p + 1) · T` flushed items, no matter how hard every
//! other tenant floods. The suite pins that bound under an adversarial
//! backlog, a sustained flood and the Zipf trace, pins the schedule's
//! determinism, and pins the per-tenant quota on a live `Served`,
//! decode steps included.

use gqa_serve::{EngineBuilder, OperatorPlan};
use gqa_served::{
    generate_trace, BatchConfig, Coalescer, DecodeState, LoadGenConfig, ModelDecode, ModelForward,
    ModelSpec, Request, ServedBuilder, ServedConfig, ServedError,
};
use gqa_tensor::{Graph, NodeId, Tensor};

/// A one-queue coalescer whose every poll flushes exactly one item
/// (`max_batch` 1, `max_wait` 0), so flushed items count polls.
fn one_at_a_time<T>(tenants: usize, quota: usize) -> Coalescer<T> {
    Coalescer::new(
        1,
        tenants,
        BatchConfig {
            max_batch: 1,
            max_wait: 0,
            capacity: 4096,
            quota,
        },
    )
}

/// The analytic bound: an item at lane depth `p` among `tenants` active
/// tenants leaves within this many flushed items.
fn starvation_bound(tenants: usize, p: usize) -> usize {
    (p + 1) * tenants
}

/// An adversary floods three heavy lanes to their quota; a light tenant
/// submits one item. The light item leaves within the analytic bound —
/// and the bound is *independent of the flood depth*.
#[test]
fn light_tenant_release_is_bounded_under_flood() {
    let tenants = 4;
    let quota = 256;
    let mut c = one_at_a_time(tenants, quota);

    // Heavy tenants 0..3 fill their lanes to quota BEFORE the light
    // tenant shows up — worst case for FIFO, best case for starvation.
    for heavy in 0..3 {
        for i in 0..quota {
            c.submit(0, heavy, (heavy, i), 0).unwrap();
        }
    }
    c.submit(0, 3, (3, 0), 0).unwrap();

    let bound = starvation_bound(tenants, 0);
    let released_at = (1..=bound).find(|&k| c.poll(k as u64).unwrap().items == [(3, 0)]);
    assert!(
        released_at.is_some(),
        "light tenant starved past the analytic bound {bound}"
    );
}

/// The bound holds at depth too: an item buried `p` deep in its own
/// lane still leaves within the analytic bound while two heavy tenants
/// keep their lanes at quota the whole time.
#[test]
fn buried_item_release_is_bounded_under_sustained_flood() {
    let tenants = 3;
    let quota = 64;
    let mut c = one_at_a_time(tenants, quota);

    let p = 10; // our item's lane depth at submission
    for i in 0..p {
        c.submit(0, 2, (2, i), 0).unwrap();
    }
    c.submit(0, 2, (2, 777), 0).unwrap();

    let bound = starvation_bound(tenants, p);
    let mut seen = false;
    for k in 1..=bound as u64 {
        // Adversary: top the heavy lanes back up to quota at every step.
        for heavy in 0..2 {
            while c.submit(0, heavy, (heavy, 0), k).is_ok() {}
        }
        if c.poll(k).unwrap().items == [(2, 777)] {
            seen = true;
            break;
        }
    }
    assert!(seen, "item at depth {p} starved past the bound {bound}");
}

/// Replaying the seeded Zipf trace through the coalescer: the hottest
/// tenant's flood cannot push the coldest tenant's worst queue wait (in
/// flushed items) past the analytic bound.
#[test]
fn zipf_replay_keeps_cold_tenant_waits_bounded() {
    let tenants = 4;
    let quota = 64;
    let trace = generate_trace(&LoadGenConfig {
        seed: 0xFA1,
        requests: 512,
        tenants,
        models: 1,
        skew: 1.3, // hard skew: tenant 0 dominates
        mean_gap: 0,
    });

    // Items carry (tenant, arrival tick) so the test can read waits.
    let mut c = one_at_a_time(tenants, quota);
    let mut worst_wait = vec![0u64; tenants];
    let mut clock = 0u64;
    let mut it = trace.iter().peekable();
    // Closed alternation: one arrival, one flushed item per tick — a
    // server that keeps up, while lanes still go deep under bursts.
    while it.peek().is_some() || c.depth() > 0 {
        if let Some(e) = it.next() {
            // Shed on quota like the server does; the trace is hot
            // enough that tenant 0 sheds, the cold tenants never do.
            let _ = c.submit(0, e.tenant, (e.tenant, clock), clock);
        }
        if let Some(b) = c.poll(clock) {
            for (tenant, arrived) in b.items {
                worst_wait[tenant] = worst_wait[tenant].max(clock - arrived);
            }
        }
        clock += 1;
    }
    let bound = starvation_bound(tenants, quota - 1) as u64;
    assert!(
        worst_wait[tenants - 1] <= bound,
        "cold tenant worst wait {} exceeds bound {bound} (waits: {worst_wait:?})",
        worst_wait[tenants - 1]
    );
}

/// The bitwise-determinism contract of the fair schedule itself: the
/// same submissions at the same ticks flush the same batches, run after
/// run.
#[test]
fn fair_schedule_is_deterministic() {
    let run = || {
        let mut c = Coalescer::new(
            1,
            2,
            BatchConfig {
                max_batch: 3,
                max_wait: 2,
                capacity: 4096,
                quota: 32,
            },
        );
        let mut out = Vec::new();
        for k in 0..64u64 {
            let _ = c.submit(0, usize::from(k % 3 == 0), k, k);
            if let Some(b) = c.poll(k) {
                out.push(b.items);
            }
        }
        out
    };
    assert_eq!(run(), run());
}

/// A late tenant is not queued behind another tenant's backlog: with 64
/// items from tenant 0 already queued, tenant 1's one item leaves in the
/// very first batch, where a single FIFO would hold it for four.
#[test]
fn late_tenant_rides_the_first_batch_behind_a_full_lane() {
    let cfg = BatchConfig::default();
    let mut c = Coalescer::new(1, 2, cfg);
    for i in 0..64 {
        c.submit(0, 0, (0, i), 0).unwrap();
    }
    c.submit(0, 1, (1, 0), 0).unwrap();
    let first = c.poll(0).expect("size-ready");
    assert_eq!(first.items.len(), cfg.max_batch);
    assert!(
        first.items.contains(&(1, 0)),
        "tenant 1 waited behind tenant 0's backlog: {:?}",
        first.items
    );
}

/// A model whose decode step echoes its input — enough to queue decode
/// steps next to forwards.
struct Echo;

impl ModelForward for Echo {
    fn forward(&self, _g: &mut Graph<'_>, x: NodeId) -> NodeId {
        x
    }

    fn decode(&self) -> Option<&dyn ModelDecode> {
        Some(self)
    }
}

impl ModelDecode for Echo {
    fn new_state(&self) -> DecodeState {
        Box::new(())
    }

    fn step(&self, _g: &mut Graph<'_>, input: &Tensor, _state: &mut DecodeState) -> Tensor {
        input.clone()
    }
}

/// The quota is per tenant and covers every queue: with tenant 0 at its
/// quota (one decode step plus forwards), its next forward and its next
/// decode step are refused typed, while tenant 1 is still admitted.
#[test]
fn quota_rejects_only_the_full_tenant_and_counts_decode_steps() {
    const QUOTA: usize = 3;
    // Zero workers: nothing leaves the queue, so only admission runs.
    let served = ServedBuilder::new(EngineBuilder::new(OperatorPlan::new()).build().unwrap())
        .with_model(ModelSpec::from_model("echo", &[2], Echo))
        .with_config(ServedConfig {
            batch: BatchConfig {
                quota: QUOTA,
                ..BatchConfig::default()
            },
            workers: 0,
            tenants: 2,
        })
        .with_virtual_clock()
        .build();
    let row = || Tensor::from_vec(vec![1.0, 2.0], &[2]);
    let req = |tenant| Request {
        tenant,
        model: 0,
        input: row(),
    };
    let full = ServedError::QuotaExceeded {
        queued: QUOTA,
        quota: QUOTA,
    };

    let stepping = served.open_decode(0, 0).unwrap();
    let mut held = vec![stepping.step(row()).unwrap()];
    for _ in 1..QUOTA {
        held.push(served.submit(req(0)).unwrap());
    }
    assert_eq!(served.submit(req(0)).unwrap_err(), full);

    let refused = served.open_decode(0, 0).unwrap();
    assert_eq!(refused.step(row()).unwrap_err(), full);
    assert!(
        !refused.is_step_pending(),
        "a refused step must return the session state"
    );

    held.push(served.submit(req(1)).unwrap());
    let stats = served.stats();
    assert_eq!(
        (stats.submitted, stats.rejected, stats.depth),
        (QUOTA as u64 + 1, 2, QUOTA + 1),
        "refusals never enter the queue: {stats}"
    );
}
