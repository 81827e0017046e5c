//! The thread-pool serving front-end: admission → coalesce → one batched
//! forward → respond.
//!
//! The policy brain is the [`Coalescer`] state machine (deterministic,
//! tick-driven, the single admission point with per-tenant fair lanes
//! and quotas); this module adds the threading shell around it — a
//! bounded submit path, a worker pool that executes flushed batches
//! through one shared [`Session`], per-tenant latency and queue-wait
//! histograms, and a clock that is either wall time (production) or a
//! virtual counter the test advances by hand (every concurrency test is
//! sleep-free).
//!
//! The execution core is [`dispatch_batch`], a free function: stack the
//! coalesced inputs into one `[batch, ...]` tensor, run **one** pooled
//! inference forward, slice the output back into per-request rows. The
//! worker pool, the correctness tests, and the benchmarks all call this
//! same function, so what the tests prove is what the server runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gqa_serve::{DecodeState, Engine, EngineStats, Session};
use gqa_tensor::{BufferPool, EvalMode, Graph, Tensor};

use crate::batcher::{Batch, BatchConfig, Coalescer};
use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use crate::model::ModelSpec;
use crate::request::{ModelId, Request, ServedError, TenantId};

/// Runs one coalesced batch through `session`: stacks `inputs` into a
/// single `[inputs.len(), ...row_shape]` tensor (drawn from `pool`), runs
/// **one** pooled inference forward, and slices the output's leading
/// dimension back into per-request tensors (in input order).
///
/// This is the server's entire execution path — the worker pool calls
/// exactly this — exposed as a free function so the deterministic
/// scheduler-script tests and the benchmarks drive the identical code.
///
/// The coalescing-invisibility contract: element `i` of the returned
/// vector is `to_bits`-identical to
/// `dispatch_batch(session, spec, &inputs[i..=i], pool)` — a batch of
/// one — because every graph op treats leading-dimension rows
/// independently with a pinned per-element reduction order, and the
/// backend's non-linear sweeps are element-wise with chunk-seam
/// invariance.
///
/// # Panics
///
/// Panics if `inputs` is empty, an input's shape differs from
/// `spec.row_shape()`, or the model's forward does not preserve the batch
/// dimension.
#[must_use]
pub fn dispatch_batch(
    session: &Session,
    spec: &ModelSpec,
    inputs: &[Tensor],
    pool: &mut BufferPool,
) -> Vec<Tensor> {
    let rows = inputs.len();
    assert!(rows > 0, "dispatch_batch needs at least one request");
    let row_len = spec.row_len();
    let mut pool_owned = std::mem::take(pool);

    // Stack the request rows. Every element is overwritten before the
    // tensor is read, so the stale-reuse pool path applies.
    let mut data = pool_owned.take_full(rows * row_len);
    for (i, t) in inputs.iter().enumerate() {
        assert_eq!(
            t.shape,
            spec.row_shape(),
            "request {i} shape mismatch for model {}",
            spec.name()
        );
        data[i * row_len..(i + 1) * row_len].copy_from_slice(&t.data);
    }
    let mut shape = Vec::with_capacity(spec.row_shape().len() + 1);
    shape.push(rows);
    shape.extend_from_slice(spec.row_shape());

    let mut g = Graph::with_mode(session, EvalMode::Inference, pool_owned);
    let x = g.input(Tensor::from_vec(data, &shape));
    let y = spec.run_forward(&mut g, x);
    let results = {
        let out = g.value(y);
        assert_eq!(
            out.shape.first(),
            Some(&rows),
            "model {} must preserve the batch dimension (output shape {:?})",
            spec.name(),
            out.shape
        );
        let out_row_shape = &out.shape[1..];
        let out_row_len = out.data.len() / rows;
        (0..rows)
            .map(|i| {
                Tensor::from_vec(
                    out.data[i * out_row_len..(i + 1) * out_row_len].to_vec(),
                    out_row_shape,
                )
            })
            .collect()
    };
    *pool = g.recycle();
    results
}

/// Front-end configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedConfig {
    /// Coalescing and admission policy (batch width, deadline ticks,
    /// queue bound, per-tenant quota).
    pub batch: BatchConfig,
    /// Worker threads executing batches. `0` is allowed (nothing
    /// executes — useful to observe pure admission behaviour).
    pub workers: usize,
    /// Size of the dense tenant id space; submissions must use
    /// `tenant < tenants`. Each tenant gets its own lock-free latency
    /// histogram.
    pub tenants: usize,
}

impl Default for ServedConfig {
    fn default() -> Self {
        Self {
            batch: BatchConfig::default(),
            workers: 2,
            tenants: 1,
        }
    }
}

/// Wall-clock duration of one coalescer tick, the unit of
/// [`BatchConfig::max_wait`] and of the queue-wait histograms.
const TICK: Duration = Duration::from_micros(100);

/// How the front-end reads time.
#[derive(Debug)]
enum ClockMode {
    /// Ticks of [`TICK`] since a monotonic epoch (production).
    Wall { epoch: Instant },
    /// An atomic counter the owner advances by hand
    /// ([`Served::advance`]) — deterministic, sleep-free tests.
    Virtual(AtomicU64),
}

#[derive(Debug)]
struct Clock {
    mode: ClockMode,
}

impl Clock {
    fn now(&self) -> u64 {
        match &self.mode {
            ClockMode::Wall { epoch } => (epoch.elapsed().as_nanos() / TICK.as_nanos()) as u64,
            ClockMode::Virtual(t) => t.load(Ordering::Acquire),
        }
    }
}

/// One request's response rendezvous.
struct Slot {
    result: Mutex<Option<Result<Tensor, ServedError>>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Self {
        Self {
            result: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fulfill(&self, r: Result<Tensor, ServedError>) {
        let mut slot = self.result.lock().expect("slot lock");
        if slot.is_none() {
            *slot = Some(r);
        }
        self.cv.notify_all();
    }

    /// Blocks until the response is ready and takes it.
    fn wait(&self) -> Result<Tensor, ServedError> {
        let mut r = self.result.lock().expect("slot lock");
        loop {
            match r.take() {
                Some(out) => return out,
                None => r = self.cv.wait(r).expect("slot wait"),
            }
        }
    }
}

/// A pending response handle returned by [`Served::submit`].
///
/// Dropping a ticket abandons the response (the request still executes
/// with its batch); [`Ticket::wait`] blocks until the worker pool
/// fulfills it.
#[must_use = "a ticket resolves to the response; drop it only to abandon the request"]
pub struct Ticket {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the response is ready (condvar rendezvous, no
    /// polling).
    ///
    /// # Errors
    ///
    /// [`ServedError::ShuttingDown`] if the server was dropped before the
    /// request could execute.
    pub fn wait(self) -> Result<Tensor, ServedError> {
        self.slot.wait()
    }

    /// Blocks for at most `timeout`, returning the response if it
    /// resolves in time.
    ///
    /// `None` means the deadline passed with no response; the ticket
    /// stays usable — wait again, or keep the ticket around and retry
    /// later. A `Some` return **consumes** the response (`&mut self`
    /// marks the ticket spent): treat it as the final answer, exactly as
    /// with [`Ticket::try_consume`].
    ///
    /// # Errors
    ///
    /// Same as [`Ticket::wait`] once the response has resolved to an
    /// error.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<Tensor, ServedError>> {
        // A timeout past what `Instant` can represent never expires.
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            return Some(self.slot.wait());
        };
        let mut r = self.slot.result.lock().expect("slot lock");
        loop {
            if let Some(out) = r.take() {
                return Some(out);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            // Spurious wakeups loop; a timed-out wait re-checks once in
            // case the fulfill raced the deadline.
            let (guard, status) = self
                .slot
                .cv
                .wait_timeout(r, deadline - now)
                .expect("slot wait");
            r = guard;
            if status.timed_out() {
                return r.take();
            }
        }
    }

    /// Non-blocking check: the response if it is already available.
    ///
    /// `None` means "not done yet" and the ticket stays usable. A `Some`
    /// return **consumes** the response — the `&mut self` receiver makes
    /// that visible in the type: the one-shot slot is emptied, so any
    /// later wait on the same ticket would block forever / return `None`.
    /// Take the `Some` as the final answer.
    ///
    /// # Errors
    ///
    /// Same as [`Ticket::wait`] once the response has resolved to an
    /// error.
    pub fn try_consume(&mut self) -> Option<Result<Tensor, ServedError>> {
        self.slot.result.lock().expect("slot lock").take()
    }
}

/// A decode step's checked-out session state plus the cell it must be
/// returned to before the step's ticket resolves.
struct DecodeHandoff {
    state: DecodeState,
    home: Arc<Mutex<Option<DecodeState>>>,
}

impl DecodeHandoff {
    /// Checks the state back into its session. Called exactly once per
    /// handoff, always **before** the step's slot is fulfilled, so a
    /// caller returning from [`Ticket::wait`] can immediately step again.
    fn check_in(self) {
        if let Ok(mut home) = self.home.lock() {
            *home = Some(self.state);
        }
    }
}

/// One queued request inside the worker machinery. `decode` is `Some`
/// for incremental-decode steps (queued under the model's decode queue,
/// index `models.len() + model`) and `None` for plain forwards.
struct Job {
    tenant: TenantId,
    input: Tensor,
    slot: Arc<Slot>,
    started: Instant,
    /// The tick the job entered the queue, where its queue wait starts.
    queued: u64,
    decode: Option<DecodeHandoff>,
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    batched_rows: AtomicU64,
}

/// Point-in-time front-end counters (plus the engine's own stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Responses delivered.
    pub completed: u64,
    /// Submissions refused by admission control (queue capacity or
    /// tenant quota).
    pub rejected: u64,
    /// Coalesced batches executed.
    pub batches: u64,
    /// Total request rows across those batches.
    pub batched_rows: u64,
    /// Requests queued right now.
    pub depth: usize,
    /// The engine's control-plane counters.
    pub engine: EngineStats,
}

impl ServedStats {
    /// Mean coalesced batch width (0 before the first batch).
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_rows as f64 / self.batches as f64
        }
    }
}

impl std::fmt::Display for ServedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} submitted, {} completed, {} rejected, {} batches (mean width {:.1}), \
             {} queued; engine: {}",
            self.submitted,
            self.completed,
            self.rejected,
            self.batches,
            self.mean_batch(),
            self.depth,
            self.engine
        )
    }
}

struct Inner {
    engine: Engine,
    session: Session,
    models: Vec<ModelSpec>,
    queue: Mutex<Coalescer<Job>>,
    work: Condvar,
    clock: Clock,
    shutdown: AtomicBool,
    counters: Counters,
    tenants: Vec<LatencyHistogram>,
    /// Per-tenant queue waits in ticks, alongside the nanosecond
    /// latency histograms in `tenants`.
    waits: Vec<LatencyHistogram>,
}

impl Inner {
    /// Admits one request into `queue` (`model` for a forward,
    /// `models.len() + model` for a decode step) and wakes a worker.
    fn enqueue(
        &self,
        queue: usize,
        tenant: TenantId,
        input: Tensor,
        decode: Option<DecodeHandoff>,
    ) -> Result<Ticket, ServedError> {
        let slot = Arc::new(Slot::new());
        let started = Instant::now();
        let mut q = self.queue.lock().expect("queue lock");
        let now = self.clock.now();
        let job = Job {
            tenant,
            input,
            slot: Arc::clone(&slot),
            started,
            queued: now,
            decode,
        };
        // Read under the queue lock, where `Served::shutdown` flips it, so
        // a job admitted here is always drained.
        let admitted = if self.shutdown.load(Ordering::Acquire) {
            Err((ServedError::ShuttingDown, job))
        } else {
            let admitted = q.submit(queue, tenant, job, now);
            // Counted before the lock drops: a worker may execute the job
            // (bumping `completed`) the instant it does, and stats() must
            // never see completed > submitted.
            let counter = match admitted {
                Ok(()) => &self.counters.submitted,
                Err(_) => &self.counters.rejected,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            admitted
        };
        drop(q);
        match admitted {
            Ok(()) => {
                self.work.notify_one();
                Ok(Ticket { slot })
            }
            Err((e, job)) => {
                // The job never queued: a decode step's state goes
                // straight back, so the session survives the refusal.
                if let Some(handoff) = job.decode {
                    handoff.check_in();
                }
                Err(e)
            }
        }
    }

    /// Blocks until new work may exist. Virtual clocks wait for a
    /// notification (submit / advance / shutdown); wall clocks also wake
    /// at the next queued deadline so a lone request cannot stall past
    /// `max_wait`.
    fn wait_for_work<'q>(
        &self,
        q: MutexGuard<'q, Coalescer<Job>>,
    ) -> MutexGuard<'q, Coalescer<Job>> {
        match (&self.clock.mode, q.next_deadline()) {
            (ClockMode::Wall { .. }, Some(deadline)) => {
                let ticks = deadline.saturating_sub(self.clock.now()).max(1);
                let dur =
                    Duration::from_nanos((TICK.as_nanos() as u64).saturating_mul(ticks)) + TICK / 2;
                self.work.wait_timeout(q, dur).expect("queue wait").0
            }
            _ => self.work.wait(q).expect("queue wait"),
        }
    }

    /// Runs a batch that left the queue at tick `now`.
    fn execute(&self, batch: Batch<Job>, now: u64, pool: &mut BufferPool) {
        for job in &batch.items {
            self.waits[job.tenant].record(now.saturating_sub(job.queued));
        }
        if batch.model >= self.models.len() {
            return self.execute_decode(batch, pool);
        }
        let spec = &self.models[batch.model];
        let rows = batch.items.len();
        let mut inputs = Vec::with_capacity(rows);
        let mut meta = Vec::with_capacity(rows);
        for job in batch.items {
            inputs.push(job.input);
            meta.push((job.tenant, job.slot, job.started));
        }
        let outputs = dispatch_batch(&self.session, spec, &inputs, pool);
        // All bookkeeping lands before the slots resolve, so a caller that
        // has collected every response observes fully settled counters.
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .batched_rows
            .fetch_add(rows as u64, Ordering::Relaxed);
        for ((tenant, slot, started), out) in meta.into_iter().zip(outputs) {
            self.tenants[tenant].record(started.elapsed().as_nanos() as u64);
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
            slot.fulfill(Ok(out));
        }
    }

    /// Runs one coalesced batch of decode steps. The steps (possibly from
    /// several sessions of the same model) share one pooled inference
    /// tape but nothing else — each runs against its own checked-out
    /// [`DecodeState`], so coalescing cannot change a session's bits.
    /// Every state is checked back in before any slot resolves.
    fn execute_decode(&self, batch: Batch<Job>, pool: &mut BufferPool) {
        let spec = &self.models[batch.model - self.models.len()];
        let decode = spec
            .decoder()
            .expect("decode queue holds steps of a decode-capable model");
        let rows = batch.items.len();
        let pool_owned = std::mem::take(pool);
        let mut g = Graph::with_mode(&self.session, EvalMode::Inference, pool_owned);
        let mut done = Vec::with_capacity(rows);
        for job in batch.items {
            let mut handoff = job
                .decode
                .expect("decode queue items carry their session state");
            let out = decode.step(&mut g, &job.input, &mut handoff.state);
            handoff.check_in();
            done.push((job.tenant, job.slot, job.started, out));
        }
        *pool = g.recycle();
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .batched_rows
            .fetch_add(rows as u64, Ordering::Relaxed);
        for (tenant, slot, started, out) in done {
            self.tenants[tenant].record(started.elapsed().as_nanos() as u64);
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
            slot.fulfill(Ok(out));
        }
    }
}

fn worker_loop(inner: &Inner) {
    let mut pool = BufferPool::new();
    loop {
        let (batch, now) = {
            let mut q = inner.queue.lock().expect("queue lock");
            loop {
                let now = inner.clock.now();
                if let Some(b) = q.poll(now) {
                    // More flushable work behind this batch: chain-wake a
                    // sibling before leaving the lock for the forward.
                    if q.ready(now) {
                        inner.work.notify_one();
                    }
                    break (Some(b), now);
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    // Graceful drain: everything admitted still executes.
                    break (q.drain(), now);
                }
                q = inner.wait_for_work(q);
            }
        };
        match batch {
            Some(b) => inner.execute(b, now, &mut pool),
            None => return,
        }
    }
}

/// Builds a [`Served`] front-end over an [`Engine`].
pub struct ServedBuilder {
    engine: Engine,
    models: Vec<ModelSpec>,
    config: ServedConfig,
    virtual_clock: bool,
}

impl std::fmt::Debug for ServedBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedBuilder")
            .field("models", &self.models.len())
            .field("config", &self.config)
            .field("virtual_clock", &self.virtual_clock)
            .finish_non_exhaustive()
    }
}

impl ServedBuilder {
    /// Builder over `engine` with the default [`ServedConfig`].
    #[must_use]
    pub fn new(engine: Engine) -> Self {
        Self {
            engine,
            models: Vec::new(),
            config: ServedConfig::default(),
            virtual_clock: false,
        }
    }

    /// Registers a model; its [`crate::ModelId`] is its registration
    /// order.
    #[must_use]
    pub fn with_model(mut self, spec: ModelSpec) -> Self {
        self.models.push(spec);
        self
    }

    /// Overrides the front-end configuration.
    #[must_use]
    pub fn with_config(mut self, config: ServedConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces wall time with a virtual tick counter the owner advances
    /// via [`Served::advance`] — the deterministic-test mode: no flush
    /// ever depends on a real timer, so scripted schedules reproduce
    /// exactly.
    #[must_use]
    pub fn with_virtual_clock(mut self) -> Self {
        self.virtual_clock = true;
        self
    }

    /// Starts the worker pool and returns the running front-end.
    ///
    /// # Panics
    ///
    /// Panics if no models were registered or `tenants == 0` — both
    /// configuration bugs, not runtime states.
    #[must_use]
    pub fn build(self) -> Served {
        assert!(!self.models.is_empty(), "a server needs at least one model");
        assert!(
            self.config.tenants > 0,
            "a server needs at least one tenant"
        );
        let clock = Clock {
            mode: if self.virtual_clock {
                ClockMode::Virtual(AtomicU64::new(0))
            } else {
                ClockMode::Wall {
                    epoch: Instant::now(),
                }
            },
        };
        let session = self.engine.session();
        let inner = Arc::new(Inner {
            engine: self.engine,
            session,
            // Two queue families over one policy: queue `m` coalesces
            // model m's plain forwards, queue `models.len() + m` its
            // decode steps (forwards and steps never share a batch).
            queue: Mutex::new(Coalescer::new(
                2 * self.models.len(),
                self.config.tenants,
                self.config.batch,
            )),
            models: self.models,
            work: Condvar::new(),
            clock,
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            tenants: (0..self.config.tenants)
                .map(|_| LatencyHistogram::new())
                .collect(),
            waits: (0..self.config.tenants)
                .map(|_| LatencyHistogram::new())
                .collect(),
        });
        let workers = (0..self.config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("gqa-served-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Served { inner, workers }
    }
}

/// The running multi-tenant serving front-end.
///
/// Submissions are admitted into a bounded queue with per-tenant fair
/// lanes and quotas, coalesced per model by the [`Coalescer`] policy,
/// executed as single batched forwards through one shared [`Session`]
/// (so [`Engine::swap`] / [`Engine::refresh`] retune live traffic), and
/// answered through [`Ticket`]s. Dropping the server drains the queue
/// gracefully — everything admitted executes — then joins the workers.
pub struct Served {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Served {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Served")
            .field("models", &self.inner.models.len())
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Served {
    /// Admits one request, returning its response [`Ticket`].
    ///
    /// Validation (model id, tenant id, input shape) happens before the
    /// queue is touched; admission control happens inside it. A rejected
    /// or invalid request leaves no trace in the queue.
    ///
    /// # Errors
    ///
    /// [`ServedError::UnknownModel`] / [`ServedError::UnknownTenant`] /
    /// [`ServedError::BadShape`] on validation failure,
    /// [`ServedError::QuotaExceeded`] when the tenant is at its quota,
    /// [`ServedError::Rejected`] on backpressure,
    /// [`ServedError::ShuttingDown`] after the server started dropping.
    pub fn submit(&self, req: Request) -> Result<Ticket, ServedError> {
        let inner = &*self.inner;
        let spec = inner
            .models
            .get(req.model)
            .ok_or(ServedError::UnknownModel(req.model))?;
        if req.tenant >= inner.tenants.len() {
            return Err(ServedError::UnknownTenant(req.tenant));
        }
        if req.input.shape != spec.row_shape() {
            return Err(ServedError::BadShape {
                model: req.model,
                expected: spec.row_shape().to_vec(),
                got: req.input.shape,
            });
        }
        inner.enqueue(req.model, req.tenant, req.input, None)
    }

    /// Submit and block for the response — the closed-loop client call.
    ///
    /// # Errors
    ///
    /// Everything [`Served::submit`] and [`Ticket::wait`] can return.
    pub fn serve(&self, req: Request) -> Result<Tensor, ServedError> {
        self.submit(req)?.wait()
    }

    /// Opens an incremental-decode session: fresh per-session state
    /// (typically the model's KV caches) plus a handle to submit one
    /// step at a time through the same admission/coalescing machinery as
    /// plain forwards. Same-model steps coalesce with each other (never
    /// with forwards) while staying bitwise independent per session.
    ///
    /// # Errors
    ///
    /// [`ServedError::UnknownModel`] / [`ServedError::UnknownTenant`] on
    /// validation failure, [`ServedError::DecodeUnsupported`] if the
    /// model's [`crate::ModelForward`] does not advertise a decode entry
    /// point, [`ServedError::ShuttingDown`] after the server started
    /// dropping.
    pub fn open_decode(
        &self,
        tenant: TenantId,
        model: ModelId,
    ) -> Result<DecodeSession, ServedError> {
        let inner = &*self.inner;
        let spec = inner
            .models
            .get(model)
            .ok_or(ServedError::UnknownModel(model))?;
        if tenant >= inner.tenants.len() {
            return Err(ServedError::UnknownTenant(tenant));
        }
        let decode = spec
            .decoder()
            .ok_or(ServedError::DecodeUnsupported(model))?;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(ServedError::ShuttingDown);
        }
        Ok(DecodeSession {
            inner: Arc::clone(&self.inner),
            tenant,
            model,
            state: Arc::new(Mutex::new(Some(decode.new_state()))),
        })
    }

    /// Advances the virtual clock by `ticks` and wakes the workers —
    /// deterministic time for the scheduler-script tests. Returns the new
    /// tick.
    ///
    /// # Panics
    ///
    /// Panics if the server runs on the wall clock (build with
    /// [`ServedBuilder::with_virtual_clock`]).
    pub fn advance(&self, ticks: u64) -> u64 {
        match &self.inner.clock.mode {
            ClockMode::Virtual(t) => {
                // Publish the tick while holding the queue lock: a worker
                // checks `clock.now()` under that lock, so updating the
                // atomic without it could interleave between the check and
                // the worker entering `Condvar::wait`, and the notify
                // below would be lost (worker sleeps through the tick).
                let q = self.inner.queue.lock().expect("queue lock");
                let now = t.fetch_add(ticks, Ordering::AcqRel) + ticks;
                drop(q);
                self.inner.work.notify_all();
                now
            }
            ClockMode::Wall { .. } => {
                panic!("advance() needs a virtual clock (ServedBuilder::with_virtual_clock)")
            }
        }
    }

    /// The current tick (wall-derived or virtual).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.inner.clock.now()
    }

    /// The coalescing and admission policy.
    #[must_use]
    pub fn batch_config(&self) -> BatchConfig {
        self.inner.queue.lock().expect("queue lock").config()
    }

    /// The engine behind the front-end — the control plane for
    /// [`Engine::swap`] / [`Engine::refresh`] under live traffic.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// Number of registered models (model ids are `0..model_count()`).
    #[must_use]
    pub fn model_count(&self) -> usize {
        self.inner.models.len()
    }

    /// Size of the configured tenant space (tenant ids are
    /// `0..tenant_count()`).
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.inner.tenants.len()
    }

    /// Front-end + engine counters.
    #[must_use]
    pub fn stats(&self) -> ServedStats {
        let c = &self.inner.counters;
        ServedStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            batched_rows: c.batched_rows.load(Ordering::Relaxed),
            depth: self.inner.queue.lock().expect("queue lock").depth(),
            engine: self.inner.engine.stats(),
        }
    }

    /// Latency snapshot for one tenant.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is outside the configured tenant space.
    #[must_use]
    pub fn tenant_latency(&self, tenant: TenantId) -> HistogramSnapshot {
        self.inner.tenants[tenant].snapshot()
    }

    /// Queue-wait snapshot for one tenant, in **ticks** (the histogram's
    /// nanosecond buckets hold tick counts): how long each of the
    /// tenant's requests and decode steps sat in the coalescer — the
    /// fair-lane delay plus the `max_wait` deadline — recorded as its
    /// batch leaves the queue.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is outside the configured tenant space.
    #[must_use]
    pub fn queue_wait(&self, tenant: TenantId) -> HistogramSnapshot {
        self.inner.waits[tenant].snapshot()
    }

    /// Latency snapshot merged across every tenant.
    #[must_use]
    pub fn latency(&self) -> HistogramSnapshot {
        let mut all = self.inner.tenants[0].snapshot();
        for t in &self.inner.tenants[1..] {
            all.merge(&t.snapshot());
        }
        all
    }

    /// Initiates shutdown without consuming the handle: new submissions
    /// fail with [`ServedError::ShuttingDown`], live workers drain and
    /// execute everything already admitted, and on a zero-worker server
    /// queued requests fail typed immediately (nobody is left to run
    /// them). Idempotent; [`Drop`] calls it and then joins the workers.
    ///
    /// Layers that put their own threads between clients and tickets
    /// (the network front door) call this *before* joining those
    /// threads, so every in-flight [`Ticket::wait`] is guaranteed to
    /// resolve while the joiner waits.
    pub fn shutdown(&self) {
        // Same lost-wakeup discipline as `advance` / `drop`: flip the
        // flag while holding the queue lock, then wake everyone.
        let guard = self.inner.queue.lock();
        self.inner.shutdown.store(true, Ordering::Release);
        drop(guard);
        self.inner.work.notify_all();
        if self.workers.is_empty() {
            self.fail_queued();
        }
    }

    /// Fails everything still queued with `ShuttingDown`, checking
    /// decode state back into its session first.
    fn fail_queued(&self) {
        if let Ok(mut q) = self.inner.queue.lock() {
            while let Some(batch) = q.drain() {
                for job in batch.items {
                    // A decode step's state still goes home: the session
                    // handle outlives the server and stays steppable
                    // (its next step fails with ShuttingDown, not
                    // StepPending).
                    if let Some(handoff) = job.decode {
                        handoff.check_in();
                    }
                    job.slot.fulfill(Err(ServedError::ShuttingDown));
                }
            }
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        // `shutdown` handles the lost-wakeup hazard (flag flipped under
        // the queue lock; a poisoned lock still holds the guard inside
        // the PoisonError, so the critical section is preserved even if
        // a worker panicked).
        self.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Workers drained and executed everything they could; anything
        // still queued (left behind by workers that died) fails loudly
        // instead of leaving waiters hanging.
        self.fail_queued();
    }
}

/// A per-sequence incremental-decode handle from [`Served::open_decode`]:
/// owns the sequence's [`DecodeState`] (KV caches) and submits one
/// token-step at a time into the model's decode queue.
///
/// Steps are **strictly sequential per session** — the state is checked
/// out to the worker for the duration of a step, and a second
/// [`DecodeSession::step`] before the first resolves fails with
/// [`ServedError::StepPending`]. Steps of *different* sessions coalesce
/// freely; the per-session bits never change (each step runs against its
/// own state), which is the decode flavor of coalescing invisibility.
///
/// The handle keeps the server's internals alive: it stays valid after
/// the [`Served`] front-end drops, but further steps then fail with
/// [`ServedError::ShuttingDown`].
pub struct DecodeSession {
    inner: Arc<Inner>,
    tenant: TenantId,
    model: ModelId,
    state: Arc<Mutex<Option<DecodeState>>>,
}

impl std::fmt::Debug for DecodeSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeSession")
            .field("tenant", &self.tenant)
            .field("model", &self.model)
            .field("step_pending", &self.is_step_pending())
            .finish_non_exhaustive()
    }
}

impl DecodeSession {
    /// The session's tenant.
    #[must_use]
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The model this session decodes with.
    #[must_use]
    pub fn model(&self) -> ModelId {
        self.model
    }

    /// Whether a submitted step has not resolved yet (the state is
    /// checked out to a worker).
    #[must_use]
    pub fn is_step_pending(&self) -> bool {
        self.state.lock().expect("decode state lock").is_none()
    }

    /// Submits one decode step with `input` (one row of the model's
    /// `row_shape`), returning its response [`Ticket`]. The step
    /// coalesces with other sessions' same-model steps; the session's
    /// state is checked back in before the ticket resolves, so the
    /// caller can step again as soon as [`Ticket::wait`] returns.
    ///
    /// # Errors
    ///
    /// [`ServedError::BadShape`] on input-shape mismatch,
    /// [`ServedError::StepPending`] while the previous step is in
    /// flight, [`ServedError::InvalidStep`] when the model's
    /// [`ModelDecode::check_step`](crate::ModelDecode::check_step)
    /// refuses the step (it is not queued, does not count against the
    /// quota, and leaves the session unchanged),
    /// [`ServedError::QuotaExceeded`] / [`ServedError::Rejected`]
    /// on backpressure (the step counts against the tenant's quota like
    /// any request; the state is checked back in — the session stays
    /// usable), [`ServedError::ShuttingDown`] after the server started
    /// dropping.
    pub fn step(&self, input: Tensor) -> Result<Ticket, ServedError> {
        let inner = &*self.inner;
        let spec = &inner.models[self.model];
        if input.shape != spec.row_shape() {
            return Err(ServedError::BadShape {
                model: self.model,
                expected: spec.row_shape().to_vec(),
                got: input.shape,
            });
        }
        let state = {
            let mut home = self.state.lock().expect("decode state lock");
            let state = home.take().ok_or(ServedError::StepPending)?;
            let decode = spec.decoder().expect("session exists, model decodes");
            if let Err(reason) = decode.check_step(&input, &state) {
                *home = Some(state);
                return Err(ServedError::InvalidStep(reason));
            }
            state
        };
        let handoff = DecodeHandoff {
            state,
            home: Arc::clone(&self.state),
        };
        inner.enqueue(
            inner.models.len() + self.model,
            self.tenant,
            input,
            Some(handoff),
        )
    }

    /// Resets the session to a fresh sequence (new empty decode state).
    ///
    /// # Errors
    ///
    /// [`ServedError::StepPending`] while a step is in flight — resolve
    /// or abandon-and-wait first, so a worker cannot check stale state
    /// back in over the reset.
    pub fn reset(&self) -> Result<(), ServedError> {
        let spec = &self.inner.models[self.model];
        let decode = spec.decoder().expect("session exists, model decodes");
        let mut state = self.state.lock().expect("decode state lock");
        if state.is_none() {
            return Err(ServedError::StepPending);
        }
        *state = Some(decode.new_state());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The front-end types cross thread boundaries by design.
    #[test]
    fn served_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Served>();
        assert_send_sync::<ModelSpec>();
        assert_send_sync::<Ticket>();
        assert_send_sync::<ServedStats>();
    }

    /// A timeout too large for `Instant` waits without a deadline rather
    /// than overflowing, whether the response is already there or not.
    #[test]
    fn wait_timeout_accepts_an_unrepresentable_timeout() {
        let slot = Arc::new(Slot::new());
        slot.fulfill(Ok(Tensor::from_vec(vec![1.0], &[1])));
        let mut ticket = Ticket { slot };
        assert!(matches!(ticket.wait_timeout(Duration::MAX), Some(Ok(_))));

        let slot = Arc::new(Slot::new());
        let mut ticket = Ticket {
            slot: Arc::clone(&slot),
        };
        let fulfiller = std::thread::spawn(move || slot.fulfill(Err(ServedError::ShuttingDown)));
        assert!(matches!(
            ticket.wait_timeout(Duration::MAX),
            Some(Err(ServedError::ShuttingDown))
        ));
        fulfiller.join().unwrap();
    }
}
