//! The serving session handle model graphs consume.

use std::sync::Arc;

use gqa_tensor::{BufferPool, EvalMode, ExactBackend, Graph, UnaryBackend, UnaryKind};

use crate::engine::{kind_index, EngineInner};

/// A cheap cloneable serving handle: implements
/// [`UnaryBackend`], so it plugs in wherever an `ExactBackend` goes
/// (`Graph::new(&session)`, the fine-tune harness, …).
///
/// Dispatch is lock-free on the session side: planned kinds route through
/// the engine's per-operator hot-swap cells (a swap retunes every live
/// session at its next *tensor-level* call — never mid-tensor, per the
/// hot-swap contract), unplanned kinds evaluate exactly. Cloning a
/// session is two atomic increments; clones observe the same control
/// plane.
#[derive(Clone)]
pub struct Session {
    inner: Arc<EngineInner>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").finish_non_exhaustive()
    }
}

impl Session {
    pub(crate) fn new(inner: Arc<EngineInner>) -> Self {
        Self { inner }
    }

    fn cell(&self, kind: UnaryKind) -> Option<&dyn UnaryBackend> {
        self.inner.table[kind_index(kind)]
            .as_deref()
            .map(|hs| hs as &dyn UnaryBackend)
    }

    /// An inference-only tape backed by this session: forward values are
    /// bit-identical to `Graph::new(&session)` but no backward state is
    /// recorded (no saved-state `Arc`s, no gradient slots) — the serving
    /// fast path.
    #[must_use]
    pub fn inference_graph(&self) -> Graph<'_> {
        Graph::new_inference(self)
    }

    /// Like [`Session::inference_graph`] but seeded with a recycled
    /// [`BufferPool`] (from [`Graph::recycle`]) so steady-state request
    /// loops reuse the previous forward's tensor buffers instead of
    /// allocating fresh ones.
    #[must_use]
    pub fn inference_graph_with_pool(&self, pool: BufferPool) -> Graph<'_> {
        Graph::with_mode(self, EvalMode::Inference, pool)
    }
}

impl UnaryBackend for Session {
    fn eval(&self, kind: UnaryKind, x: f64) -> f64 {
        match self.cell(kind) {
            Some(hs) => hs.eval(kind, x),
            None => kind.exact(x),
        }
    }

    fn eval_many(&self, kind: UnaryKind, xs: &[f64], out: &mut [f64]) {
        match self.cell(kind) {
            Some(hs) => hs.eval_many(kind, xs, out),
            None => ExactBackend.eval_many(kind, xs, out),
        }
    }

    /// The graph's per-tensor entry point: planned kinds resolve their
    /// datapath once per tensor through the hot-swap cell (so a
    /// concurrent [`crate::Engine::swap`] never splits one tensor across
    /// two datapaths), unplanned kinds run the exact `f32` kernel.
    fn eval_many_f32(&self, kind: UnaryKind, xs: &[f32], out: &mut [f32]) {
        match self.cell(kind) {
            Some(hs) => hs.eval_many_f32(kind, xs, out),
            None => ExactBackend.eval_many_f32(kind, xs, out),
        }
    }
}
