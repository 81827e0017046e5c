//! The serving engine: plan resolution, the per-operator hot-swap cells,
//! and the operator-level control plane.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gqa_funcs::NonLinearOp;
use gqa_pwl::QuantAwareLut;
use gqa_registry::{HotSwapBackend, LutBuildError, LutRegistry, RegistryStats, SnapshotError};
use gqa_tensor::UnaryKind;

use crate::datapath::{build_datapath, OpBackend};
use crate::plan::{serve_kind, OpPlan, OperatorPlan};
use crate::session::Session;
use crate::store::ShardStore;

/// Number of [`UnaryKind`] variants (the session dispatch table width).
pub(crate) const N_KINDS: usize = 8;

/// The datapaths serve 1..=16-bit words: every operator is a table over
/// its `2^bits` codes (65,536 entries, 512 KB at 16 bits), and wider
/// words would let the integer multiply-add wrap. Reject anything else
/// before a search is spent on it.
fn validate_bits(bits: u32) -> Result<(), EngineError> {
    if (1..=16).contains(&bits) {
        Ok(())
    } else {
        Err(EngineError::InvalidBits(bits))
    }
}

/// Dense index of a [`UnaryKind`] in the session dispatch table.
pub(crate) fn kind_index(kind: UnaryKind) -> usize {
    match kind {
        UnaryKind::Relu => 0,
        UnaryKind::Gelu => 1,
        UnaryKind::Hswish => 2,
        UnaryKind::Exp => 3,
        UnaryKind::Recip => 4,
        UnaryKind::Rsqrt => 5,
        UnaryKind::Sigmoid => 6,
        UnaryKind::Tanh => 7,
    }
}

/// Failure of an engine operation.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The plan names an operator with no tensor-level [`UnaryKind`]
    /// (SiLU/Softplus/Cos) — nothing in a model graph could dispatch it.
    Unservable(NonLinearOp),
    /// A control-plane call named an operator the engine was not built
    /// with. The served-operator *set* is fixed at build time (sessions
    /// pre-resolve their dispatch tables); [`Engine::swap`] retunes an
    /// operator's artifact, it does not add one.
    Unplanned(NonLinearOp),
    /// Artifact compilation-request validation failed.
    Build(LutBuildError),
    /// The serving precision is outside `1..=16` bits (a wider table
    /// would not be built; `build_datapath` panics on one).
    InvalidBits(u32),
    /// The storage layer failed (shard write, or an explicit snapshot op).
    Snapshot(SnapshotError),
    /// A storage operation was requested but the engine was built without
    /// [`crate::EngineBuilder::with_snapshot_dir`].
    NoSnapshotDir,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Unservable(op) => {
                write!(f, "operator {op} has no tensor-level unary kind to serve")
            }
            EngineError::Unplanned(op) => {
                write!(f, "operator {op} is not in the engine's plan")
            }
            EngineError::Build(e) => write!(f, "artifact build failed: {e}"),
            EngineError::InvalidBits(b) => {
                write!(f, "serving precision must be 1..=16 bits (got {b})")
            }
            EngineError::Snapshot(e) => write!(f, "snapshot store failed: {e}"),
            EngineError::NoSnapshotDir => {
                write!(f, "engine was built without a snapshot directory")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<LutBuildError> for EngineError {
    fn from(e: LutBuildError) -> Self {
        EngineError::Build(e)
    }
}

impl From<SnapshotError> for EngineError {
    fn from(e: SnapshotError) -> Self {
        EngineError::Snapshot(e)
    }
}

/// Builds an [`Engine`] from an [`OperatorPlan`].
///
/// By default the engine owns a fresh private [`LutRegistry`]; pass a
/// shared one with [`EngineBuilder::with_registry`] when several engines
/// (or an engine and other registry users) should share one artifact
/// cache.
#[derive(Debug)]
pub struct EngineBuilder {
    plan: OperatorPlan,
    registry: Option<Arc<LutRegistry>>,
    snapshot_dir: Option<PathBuf>,
}

impl EngineBuilder {
    /// Builder for `plan`.
    #[must_use]
    pub fn new(plan: OperatorPlan) -> Self {
        Self {
            plan,
            registry: None,
            snapshot_dir: None,
        }
    }

    /// Resolves artifacts through `registry` instead of a fresh private
    /// one (shared caches across engines; pre-warmed registries).
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<LutRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Enables the sharded storage layer rooted at `dir`: the build
    /// warm-starts from any existing per-operator shard files, and
    /// [`Engine::save_shards`] / [`Engine::refresh`] write and reload
    /// them.
    #[must_use]
    pub fn with_snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }

    /// Resolves every planned artifact (cold-compiling on cache miss) and
    /// wires the per-operator hot-swap cells.
    ///
    /// # Errors
    ///
    /// [`EngineError::Unservable`] if the plan names an operator without a
    /// tensor-level kind; [`EngineError::Build`] if a plan entry fails
    /// validation. A missing or corrupt snapshot shard is **not** an
    /// error — the artifact is recompiled from its spec instead (a stale
    /// store must never prevent serving).
    pub fn build(self) -> Result<Engine, EngineError> {
        // Validate the whole plan before compiling anything, so a bad
        // trailing entry doesn't waste minutes of search on the others.
        for (op, plan) in self.plan.iter() {
            serve_kind(op).ok_or(EngineError::Unservable(op))?;
            validate_bits(plan.bits)?;
            plan.spec(op).key()?;
        }

        let registry = self
            .registry
            .unwrap_or_else(|| Arc::new(LutRegistry::new()));
        let mut store = self.snapshot_dir.map(ShardStore::new);
        let counters = Counters::default();

        let mut table: [Option<Arc<HotSwapBackend>>; N_KINDS] = std::array::from_fn(|_| None);
        let mut states = Vec::with_capacity(self.plan.len());
        for (op, plan) in self.plan.iter() {
            let kind = serve_kind(op).expect("validated above");
            if let Some(store) = store.as_mut() {
                // Warm start; corrupt shards fall back to recompilation.
                if store.load(&registry, op).is_err() {
                    counters.shard_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            let artifact = registry.get_or_build(&plan.spec(op))?;
            let backend =
                OpBackend::new(kind, build_datapath(&artifact, op, plan.bits, plan.scale));
            let cell = Arc::new(HotSwapBackend::new(Arc::new(backend)));
            table[kind_index(kind)] = Some(Arc::clone(&cell));
            states.push(OpState {
                op,
                kind,
                plan: *plan,
                artifact,
                cell,
            });
        }

        Ok(Engine {
            inner: Arc::new(EngineInner {
                registry,
                table,
                state: Mutex::new(EngineState { states, store }),
                counters,
            }),
        })
    }
}

/// One planned operator's live serving state.
struct OpState {
    op: NonLinearOp,
    kind: UnaryKind,
    plan: OpPlan,
    artifact: Arc<QuantAwareLut>,
    cell: Arc<HotSwapBackend>,
}

/// Control-plane state (mutated by `swap`/`refresh`/`save_shards`).
struct EngineState {
    states: Vec<OpState>,
    store: Option<ShardStore>,
}

#[derive(Debug, Default)]
struct Counters {
    sessions: AtomicU64,
    swaps: AtomicU64,
    refreshes: AtomicU64,
    shard_reloads: AtomicU64,
    shard_errors: AtomicU64,
}

pub(crate) struct EngineInner {
    registry: Arc<LutRegistry>,
    /// Per-kind hot-swap cells, fixed at build time. `Session` dispatches
    /// through this table without taking the control-plane lock.
    pub(crate) table: [Option<Arc<HotSwapBackend>>; N_KINDS],
    state: Mutex<EngineState>,
    counters: Counters,
}

/// Point-in-time engine counters (plus the owned registry's).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// The owned artifact registry's hit/miss/build counters.
    pub registry: RegistryStats,
    /// Number of planned (LUT-served) operators.
    pub ops: usize,
    /// Sessions handed out so far.
    pub sessions: u64,
    /// Successful [`Engine::swap`] retunes.
    pub swaps: u64,
    /// [`Engine::refresh`] passes executed.
    pub refreshes: u64,
    /// Operators whose artifacts were reloaded from a changed shard.
    pub shard_reloads: u64,
    /// Corrupt/unreadable shards skipped (artifact recompiled instead).
    pub shard_errors: u64,
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ops, {} sessions, {} swaps, {} refreshes ({} shard reloads, \
             {} shard errors); registry: {}",
            self.ops,
            self.sessions,
            self.swaps,
            self.refreshes,
            self.shard_reloads,
            self.shard_errors,
            self.registry
        )
    }
}

/// The serving engine. Cheap to clone (all clones share one control
/// plane); see the crate docs for the full data-flow picture.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.lock().expect("engine lock");
        f.debug_struct("Engine")
            .field("ops", &state.states.len())
            .field(
                "snapshot_dir",
                &state.store.as_ref().map(|s| s.dir().to_path_buf()),
            )
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// A new serving session. Sessions are cheap handles (`Clone` is two
    /// atomic increments) sharing the engine's hot-swap cells: an
    /// [`Engine::swap`] or [`Engine::refresh`] retunes **every** live
    /// session, while the hot-swap contract guarantees each in-flight
    /// tensor finishes on the datapath it resolved.
    #[must_use]
    pub fn session(&self) -> Session {
        self.inner.counters.sessions.fetch_add(1, Ordering::Relaxed);
        Session::new(Arc::clone(&self.inner))
    }

    /// The current plan (reflecting every applied [`Engine::swap`]).
    #[must_use]
    pub fn plan(&self) -> OperatorPlan {
        let state = self.inner.state.lock().expect("engine lock");
        let mut plan = OperatorPlan::new();
        for s in &state.states {
            plan.set(s.op, s.plan);
        }
        plan
    }

    /// Engine + owned-registry counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let ops = self.inner.state.lock().expect("engine lock").states.len();
        let c = &self.inner.counters;
        EngineStats {
            registry: self.inner.registry.stats(),
            ops,
            sessions: c.sessions.load(Ordering::Relaxed),
            swaps: c.swaps.load(Ordering::Relaxed),
            refreshes: c.refreshes.load(Ordering::Relaxed),
            shard_reloads: c.shard_reloads.load(Ordering::Relaxed),
            shard_errors: c.shard_errors.load(Ordering::Relaxed),
        }
    }

    /// The artifact registry this engine resolves through — owned by the
    /// engine, or shared via [`EngineBuilder::with_registry`].
    #[must_use]
    pub fn registry(&self) -> &LutRegistry {
        &self.inner.registry
    }

    /// The currently served artifact for `op`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Unplanned`] if `op` is not in the plan.
    pub fn artifact(&self, op: NonLinearOp) -> Result<Arc<QuantAwareLut>, EngineError> {
        let state = self.inner.state.lock().expect("engine lock");
        state
            .states
            .iter()
            .find(|s| s.op == op)
            .map(|s| Arc::clone(&s.artifact))
            .ok_or(EngineError::Unplanned(op))
    }

    /// Retunes one operator across all live sessions: resolves the
    /// artifact for `plan` (cache hit or cold compile), instantiates its
    /// datapath, and atomically installs it in `op`'s hot-swap cell.
    /// Returns the newly served artifact.
    ///
    /// In-flight tensor evaluations finish on the datapath they already
    /// resolved (the swap-under-eval guarantee); subsequent tensor calls
    /// in every session use the new one.
    ///
    /// # Errors
    ///
    /// [`EngineError::Unplanned`] if `op` is not in the plan (the served
    /// set is fixed at build time), [`EngineError::Build`] if the new
    /// plan entry fails validation.
    pub fn swap(&self, op: NonLinearOp, plan: OpPlan) -> Result<Arc<QuantAwareLut>, EngineError> {
        // Validate the target, then resolve OUTSIDE the control-plane
        // lock: a cache-miss plan runs a full genetic search, and holding
        // the lock through it would block stats()/plan() and swaps of
        // unrelated operators for the whole compile (the registry already
        // single-flights concurrent builds of one key).
        let kind = {
            let state = self.inner.state.lock().expect("engine lock");
            state
                .states
                .iter()
                .find(|s| s.op == op)
                .map(|s| s.kind)
                .ok_or(EngineError::Unplanned(op))?
        };
        validate_bits(plan.bits)?;
        let artifact = self.inner.registry.get_or_build(&plan.spec(op))?;
        let backend = OpBackend::new(kind, build_datapath(&artifact, op, plan.bits, plan.scale));

        let mut state = self.inner.state.lock().expect("engine lock");
        let s = state
            .states
            .iter_mut()
            .find(|s| s.op == op)
            .expect("served-operator set is fixed at build time");
        // Concurrent swaps of the same op serialize here; whichever locks
        // last installs both the cell delegate and the recorded plan, so
        // plan() and the live datapath never disagree.
        s.cell.swap(Arc::new(backend));
        s.plan = plan;
        s.artifact = Arc::clone(&artifact);
        drop(state);
        self.inner.counters.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(artifact)
    }

    /// Writes every planned operator's artifacts to its snapshot shard
    /// (`lut-<op>.json` under the snapshot directory), creating the
    /// directory if needed. Returns the shard paths written.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoSnapshotDir`] without a configured directory;
    /// [`EngineError::Snapshot`] on write failure.
    pub fn save_shards(&self) -> Result<Vec<PathBuf>, EngineError> {
        let mut state = self.inner.state.lock().expect("engine lock");
        let EngineState { states, store } = &mut *state;
        let store = store.as_mut().ok_or(EngineError::NoSnapshotDir)?;
        let mut paths = Vec::with_capacity(states.len());
        for s in states.iter() {
            paths.push(store.save(&self.inner.registry, s.op)?);
        }
        Ok(paths)
    }

    /// Picks up artifacts rebuilt by other processes **without a
    /// restart**: stats every planned operator's shard file and, for each
    /// one whose **content** changed since last observed, reloads the
    /// shard into the registry, re-resolves the planned artifact, and
    /// hot-swaps the rebuilt datapath into every live session. Staleness
    /// is two-tier: unchanged metadata (mtime/length) costs one `stat` —
    /// no parsing, no allocation — so refresh is cheap enough to poll
    /// from a serving loop; when metadata moved, the shard header's
    /// `content_hash` is read from the file's first bytes, and a
    /// republish of identical artifacts (the normal outcome of another
    /// process's atomic [`Engine::save_shards`]) is absorbed without a
    /// reload or swap. Returns how many operators were reloaded.
    ///
    /// A shard that turned corrupt or disappeared is skipped (counted in
    /// [`EngineStats::shard_errors`]): the engine keeps serving its
    /// current artifact rather than degrade. A present shard that loads
    /// zero artifacts is skipped silently (nothing to pick up).
    ///
    /// Refresh holds the control-plane lock for the pass; re-resolution
    /// after a reload is normally a cache hit, so the expensive case —
    /// a cold compile under the lock — only occurs when a republished
    /// shard no longer contains the planned key.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoSnapshotDir`] without a configured directory;
    /// [`EngineError::Build`] if a re-resolved plan entry fails
    /// validation (only possible if validation rules changed under a
    /// live process).
    pub fn refresh(&self) -> Result<usize, EngineError> {
        let mut state = self.inner.state.lock().expect("engine lock");
        let EngineState { states, store } = &mut *state;
        let store = store.as_mut().ok_or(EngineError::NoSnapshotDir)?;
        let mut reloaded = 0usize;
        for s in states.iter_mut() {
            if !store.is_stale(s.op) {
                continue;
            }
            let vanished = !store.exists(s.op);
            match store.load(&self.inner.registry, s.op) {
                // A shard that disappeared is an error to skip (there is
                // nothing to pick up — keep serving the current
                // artifact); a present shard with zero artifacts simply
                // has nothing for us (not an error, not a reload).
                Ok(0) if vanished => {
                    self.inner
                        .counters
                        .shard_errors
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Ok(0) => continue,
                Ok(_) => {}
                Err(_) => {
                    self.inner
                        .counters
                        .shard_errors
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            let artifact = self.inner.registry.get_or_build(&s.plan.spec(s.op))?;
            let backend = OpBackend::new(
                s.kind,
                build_datapath(&artifact, s.op, s.plan.bits, s.plan.scale),
            );
            s.cell.swap(Arc::new(backend));
            s.artifact = Arc::clone(&artifact);
            reloaded += 1;
        }
        self.inner
            .counters
            .refreshes
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .counters
            .shard_reloads
            .fetch_add(reloaded as u64, Ordering::Relaxed);
        Ok(reloaded)
    }

    /// The configured snapshot directory, if any.
    #[must_use]
    pub fn snapshot_dir(&self) -> Option<PathBuf> {
        let state = self.inner.state.lock().expect("engine lock");
        state.store.as_ref().map(|s| Path::to_path_buf(s.dir()))
    }
}
