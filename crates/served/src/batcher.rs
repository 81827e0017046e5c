//! The request coalescer: a **pure, single-threaded state machine** that
//! turns per-tenant arrivals into same-model batches.
//!
//! All policy lives here — flush-by-size, flush-by-deadline, model
//! segregation, per-tenant fair lanes, bounded admission — and none of
//! the threading does. Time is an explicit `now` argument in **ticks**
//! (an abstract monotonic counter): the production server feeds it
//! wall-time ticks, and the test suites feed it scripted schedules,
//! which is what makes every concurrency property in `tests/coalesce.rs`
//! and `tests/fairness.rs` reproducible without a single sleep.
//!
//! **Fairness.** Each queue keeps one FIFO lane per tenant plus a
//! rotation of its non-empty lanes, and a batch is filled one item per
//! lane visit: deficit round robin (Shreedhar & Varghese, 1995) with
//! quantum 1 and equal weights, so no deficit counters are needed. A
//! tenant may hold at most [`BatchConfig::quota`] queued requests across
//! all queues. Together these give the starvation bound: an item at
//! depth `p` of its lane, among `T` tenants with queued work in its
//! queue, leaves within `(p + 1) · T` flushed items of that queue, no
//! matter how deep any other lane is.
//!
//! Determinism contract: given the same sequence of
//! [`Coalescer::submit`] / [`Coalescer::poll`] calls with the same `now`
//! values, the emitted batches are identical — queues are scanned in
//! index order (size-ready batches before deadline-ready ones), and
//! items leave each lane in arrival order.

use std::collections::VecDeque;

use crate::request::{ModelId, Rejected, ServedError, TenantId};

/// Coalescing and admission policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Flush a queue as soon as it holds this many requests (the batched
    /// `forward` width the SIMD kernels are paid off by).
    pub max_batch: usize,
    /// Flush a non-empty queue once its **oldest** request has waited
    /// this many ticks, even below `max_batch` — the latency bound. `0`
    /// flushes whatever is queued at the next poll.
    pub max_wait: u64,
    /// Total queued-request bound across all queues. Submissions beyond
    /// it are rejected ([`Rejected`]), never buffered: the queue cannot
    /// grow without bound no matter how fast tenants submit.
    pub capacity: usize,
    /// Requests one tenant may have queued across all queues (forwards
    /// and decode steps alike). Submissions beyond it fail with
    /// [`ServedError::QuotaExceeded`] while other tenants stay admitted;
    /// the starvation bound scales with it.
    pub quota: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_wait: 2,
            capacity: 1024,
            quota: 64,
        }
    }
}

/// One queued item plus its arrival tick.
#[derive(Debug)]
struct Pending<T> {
    item: T,
    enqueued: u64,
}

/// One model queue: a FIFO lane per tenant and the round-robin rotation
/// of the non-empty lanes (front = next to serve).
#[derive(Debug)]
struct Queue<T> {
    lanes: Vec<VecDeque<Pending<T>>>,
    rotation: VecDeque<TenantId>,
    len: usize,
}

impl<T> Queue<T> {
    /// Arrival tick of the oldest queued item (every lane is FIFO, so it
    /// heads one of the rotation's lanes).
    fn oldest(&self) -> Option<u64> {
        self.rotation
            .iter()
            .map(|&t| self.lanes[t].front().expect("rotation lanes are non-empty"))
            .map(|p| p.enqueued)
            .min()
    }
}

/// A flushed batch: same-queue items in lane-rotation order.
#[derive(Debug, PartialEq, Eq)]
pub struct Batch<T> {
    /// The queue every item belongs to (batches never mix queues).
    pub model: ModelId,
    /// The coalesced items.
    pub items: Vec<T>,
}

/// The coalescing state machine. Generic over the queued payload so the
/// scheduler-script tests can drive it with bare markers while the
/// server queues response slots.
#[derive(Debug)]
pub struct Coalescer<T> {
    cfg: BatchConfig,
    queues: Vec<Queue<T>>,
    /// Requests queued per tenant, across every queue (the quota count).
    queued: Vec<usize>,
    depth: usize,
}

impl<T> Coalescer<T> {
    /// A coalescer over `queues` model queues and `tenants` tenants.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch`, `capacity` or `quota` is zero (a server
    /// that can admit or flush nothing is a configuration bug, not a
    /// state).
    #[must_use]
    pub fn new(queues: usize, tenants: usize, cfg: BatchConfig) -> Self {
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        assert!(cfg.capacity > 0, "capacity must be positive");
        assert!(cfg.quota > 0, "quota must be positive");
        Self {
            cfg,
            queues: (0..queues)
                .map(|_| Queue {
                    lanes: (0..tenants).map(|_| VecDeque::new()).collect(),
                    rotation: VecDeque::new(),
                    len: 0,
                })
                .collect(),
            queued: vec![0; tenants],
            depth: 0,
        }
    }

    /// The configured policy.
    #[must_use]
    pub fn config(&self) -> BatchConfig {
        self.cfg
    }

    /// Requests currently queued across all queues.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Admits `item` into `tenant`'s lane of queue `model` at tick `now`,
    /// or rejects it when the tenant is at its quota or the total queue
    /// is at capacity.
    ///
    /// # Errors
    ///
    /// [`ServedError::QuotaExceeded`] when the tenant already has `quota`
    /// requests queued, else [`ServedError::Rejected`] when
    /// `depth == capacity`; the item is returned to the caller untouched
    /// via the error (it was never queued).
    ///
    /// # Panics
    ///
    /// Panics if `model` or `tenant` is out of range — the server
    /// validates ids before they reach the coalescer.
    pub fn submit(
        &mut self,
        model: ModelId,
        tenant: TenantId,
        item: T,
        now: u64,
    ) -> Result<(), (ServedError, T)> {
        let queued = self.queued[tenant];
        if queued >= self.cfg.quota {
            let quota = self.cfg.quota;
            return Err((ServedError::QuotaExceeded { queued, quota }, item));
        }
        if self.depth >= self.cfg.capacity {
            let rejected = Rejected {
                depth: self.depth,
                capacity: self.cfg.capacity,
            };
            return Err((ServedError::Rejected(rejected), item));
        }
        let queue = &mut self.queues[model];
        let lane = &mut queue.lanes[tenant];
        if lane.is_empty() {
            // A newly active lane joins the BACK of the rotation: it
            // cannot jump ahead of tenants already waiting their turn.
            queue.rotation.push_back(tenant);
        }
        lane.push_back(Pending {
            item,
            enqueued: now,
        });
        queue.len += 1;
        self.queued[tenant] += 1;
        self.depth += 1;
        Ok(())
    }

    fn deadline_hit(&self, queue: &Queue<T>, now: u64) -> bool {
        queue
            .oldest()
            .is_some_and(|t| now >= t.saturating_add(self.cfg.max_wait))
    }

    /// Whether a poll at tick `now` would emit a batch.
    #[must_use]
    pub fn ready(&self, now: u64) -> bool {
        self.queues
            .iter()
            .any(|q| q.len >= self.cfg.max_batch || self.deadline_hit(q, now))
    }

    /// Emits the next ready batch at tick `now`, or `None` when nothing is
    /// flushable yet.
    ///
    /// Scan order is deterministic: first the lowest-indexed queue with a
    /// **full** batch (`max_batch` queued — these pay for themselves
    /// regardless of deadlines), then the lowest-indexed queue whose
    /// oldest request has aged past `max_wait`. Either way at most
    /// `max_batch` items leave, one per lane visit of the rotation.
    pub fn poll(&mut self, now: u64) -> Option<Batch<T>> {
        let size_ready = self.queues.iter().position(|q| q.len >= self.cfg.max_batch);
        let m =
            size_ready.or_else(|| self.queues.iter().position(|q| self.deadline_hit(q, now)))?;
        Some(self.flush(m))
    }

    /// Emits the next non-empty queue as a batch regardless of size or
    /// deadline — the shutdown drain, so no queued request is ever
    /// dropped on the floor.
    pub fn drain(&mut self) -> Option<Batch<T>> {
        let m = self.queues.iter().position(|q| q.len > 0)?;
        Some(self.flush(m))
    }

    /// The earliest tick at which a currently queued request hits its
    /// deadline (`None` when empty). The server sizes its waits with
    /// this; a size-ready queue reports its oldest item's deadline too,
    /// which is always `<=` any wait the caller would compute.
    #[must_use]
    pub fn next_deadline(&self) -> Option<u64> {
        self.queues
            .iter()
            .filter_map(Queue::oldest)
            .map(|t| t.saturating_add(self.cfg.max_wait))
            .min()
    }

    fn flush(&mut self, model: ModelId) -> Batch<T> {
        let queue = &mut self.queues[model];
        let take = queue.len.min(self.cfg.max_batch);
        let mut items = Vec::with_capacity(take);
        for _ in 0..take {
            // One item per lane visit; a lane with more queued goes to
            // the back of the rotation, an emptied one leaves it.
            let tenant = queue
                .rotation
                .pop_front()
                .expect("a non-empty queue has an active lane");
            let lane = &mut queue.lanes[tenant];
            items.push(lane.pop_front().expect("rotation lanes are non-empty").item);
            if !lane.is_empty() {
                queue.rotation.push_back(tenant);
            }
            self.queued[tenant] -= 1;
        }
        queue.len -= take;
        self.depth -= take;
        Batch { model, items }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_batch: usize, max_wait: u64, capacity: usize) -> BatchConfig {
        BatchConfig {
            max_batch,
            max_wait,
            capacity,
            ..BatchConfig::default()
        }
    }

    #[test]
    fn flushes_by_size_before_deadline() {
        let mut c = Coalescer::new(1, 1, cfg(3, 100, 10));
        for i in 0..3 {
            c.submit(0, 0, i, 0).unwrap();
        }
        // Deadline (tick 100) is far away, but the batch is full.
        let b = c.poll(0).expect("size-ready");
        assert_eq!((b.model, b.items), (0, vec![0, 1, 2]));
        assert_eq!(c.depth(), 0);
        assert!(c.poll(0).is_none());
    }

    #[test]
    fn flushes_by_deadline_exactly_at_max_wait() {
        let mut c = Coalescer::new(1, 1, cfg(8, 5, 10));
        c.submit(0, 0, 7, 2).unwrap();
        assert!(!c.ready(6), "one tick early");
        assert!(c.poll(6).is_none());
        assert_eq!(c.next_deadline(), Some(7));
        let b = c.poll(7).expect("deadline-ready");
        assert_eq!(b.items, vec![7]);
    }

    #[test]
    fn deadline_follows_the_oldest_lane_head() {
        let mut c = Coalescer::new(1, 2, cfg(8, 5, 10));
        c.submit(0, 1, 10, 3).unwrap();
        c.submit(0, 0, 20, 4).unwrap();
        // Tenant 1 arrived first, though tenant 0 has the lower index.
        assert_eq!(c.next_deadline(), Some(8));
        assert!(c.poll(7).is_none());
        assert_eq!(c.poll(8).unwrap().items, vec![10, 20]);
    }

    #[test]
    fn oversize_queue_flushes_in_max_batch_chunks_fifo() {
        let mut c = Coalescer::new(1, 1, cfg(2, 0, 10));
        for i in 0..5 {
            c.submit(0, 0, i, 0).unwrap();
        }
        assert_eq!(c.poll(0).unwrap().items, vec![0, 1]);
        assert_eq!(c.poll(0).unwrap().items, vec![2, 3]);
        // The remainder goes out via the deadline rule (max_wait = 0).
        assert_eq!(c.poll(0).unwrap().items, vec![4]);
        assert!(c.poll(0).is_none());
    }

    #[test]
    fn batches_fill_one_item_per_lane_visit() {
        let mut c = Coalescer::new(1, 3, cfg(4, 0, 64));
        for i in 0..4 {
            c.submit(0, 0, i, 0).unwrap();
        }
        c.submit(0, 2, 20, 0).unwrap();
        c.submit(0, 1, 10, 0).unwrap();
        c.submit(0, 1, 11, 0).unwrap();
        // Rotation in activation order 0, 2, 1; tenant 2 empties and
        // leaves it, the others go round again.
        assert_eq!(c.poll(0).unwrap().items, vec![0, 20, 10, 1]);
        assert_eq!(c.poll(0).unwrap().items, vec![11, 2, 3]);
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn models_never_mix_and_lower_index_flushes_first() {
        let mut c = Coalescer::new(2, 1, cfg(2, 0, 10));
        c.submit(1, 0, 10, 0).unwrap();
        c.submit(0, 0, 20, 0).unwrap();
        c.submit(1, 0, 11, 0).unwrap();
        // Model 1 has a full batch; size-readiness outranks model 0's
        // deadline-readiness even though model 0 has the lower index.
        let b = c.poll(0).unwrap();
        assert_eq!((b.model, b.items), (1, vec![10, 11]));
        let b = c.poll(0).unwrap();
        assert_eq!((b.model, b.items), (0, vec![20]));
    }

    #[test]
    fn rejects_at_capacity_and_returns_the_item() {
        let mut c = Coalescer::new(1, 1, cfg(4, 10, 2));
        c.submit(0, 0, 1, 0).unwrap();
        c.submit(0, 0, 2, 0).unwrap();
        let (err, item) = c.submit(0, 0, 3, 0).unwrap_err();
        let want = ServedError::Rejected(Rejected {
            depth: 2,
            capacity: 2,
        });
        assert_eq!((err, item), (want, 3));
        assert_eq!(c.depth(), 2, "rejected submissions never queue");
        // Flushing frees capacity again.
        let _ = c.poll(10).unwrap();
        c.submit(0, 0, 3, 10).unwrap();
    }

    #[test]
    fn quota_counts_a_tenant_across_queues() {
        let quota = 2;
        let mut c = Coalescer::new(
            2,
            2,
            BatchConfig {
                quota,
                ..cfg(8, 10, 64)
            },
        );
        c.submit(0, 0, 1, 0).unwrap();
        c.submit(1, 0, 2, 0).unwrap();
        let (err, item) = c.submit(0, 0, 3, 0).unwrap_err();
        assert_eq!(
            (err, item),
            (ServedError::QuotaExceeded { queued: 2, quota }, 3)
        );
        // The other tenant is unaffected — a per-tenant bound, not a
        // shared one.
        c.submit(0, 1, 4, 0).unwrap();
        assert_eq!(c.drain().unwrap().items, vec![1, 4]);
        c.submit(0, 0, 3, 0).unwrap();
    }

    #[test]
    fn drain_empties_everything_ignoring_deadlines() {
        let mut c = Coalescer::new(2, 1, cfg(8, 1000, 10));
        c.submit(0, 0, 1, 0).unwrap();
        c.submit(1, 0, 2, 0).unwrap();
        assert!(c.poll(0).is_none(), "nothing is ready by policy");
        assert_eq!(c.drain().unwrap().items, vec![1]);
        assert_eq!(c.drain().unwrap().items, vec![2]);
        assert!(c.drain().is_none());
        assert_eq!(c.depth(), 0);
    }
}
