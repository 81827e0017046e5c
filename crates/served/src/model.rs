//! The model vocabulary of the front-end: what a servable model *is*.
//!
//! A model is a [`ModelForward`] implementation — a named entry point
//! that records the batched forward onto an inference tape. Plain
//! closures implement the trait via a blanket impl, so the original
//! `ModelSpec::new("double", &[2], |g, x| g.scale(x, 2.0))` spelling
//! keeps working; implementing the trait on a struct additionally lets a
//! model advertise an **incremental decode** entry point
//! ([`ModelForward::decode`] → [`ModelDecode`]), which is what
//! [`Served::open_decode`](crate::Served::open_decode) and
//! [`DecodeSession`](crate::DecodeSession) are built on.

use std::sync::Arc;

use gqa_tensor::{Graph, NodeId, Tensor};

/// A servable model's forward entry point.
///
/// `forward` is handed an inference tape over the engine's shared
/// `Session` and the batched input node; it records the forward and
/// returns the output node. It must treat the leading dimension as an
/// opaque batch axis (every row independent) — the coalescing-
/// invisibility contract.
///
/// Every `Fn(&mut Graph<'_>, NodeId) -> NodeId + Send + Sync` closure
/// implements this trait, so simple models stay closures. Implement it
/// on a named type to also override [`ModelForward::decode`] and opt the
/// model into KV-cached incremental serving.
pub trait ModelForward: Send + Sync {
    /// Records the batched forward; returns the output node. Must
    /// preserve the leading (batch) dimension.
    fn forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId;

    /// The model's incremental-decode entry point, if it has one.
    /// `None` (the default, and what closures report) means
    /// [`Served::open_decode`](crate::Served::open_decode) fails with
    /// [`ServedError::DecodeUnsupported`](crate::ServedError::DecodeUnsupported).
    fn decode(&self) -> Option<&dyn ModelDecode> {
        None
    }
}

impl<F> ModelForward for F
where
    F: Fn(&mut Graph<'_>, NodeId) -> NodeId + Send + Sync,
{
    fn forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        self(g, x)
    }
}

/// Opaque per-session decode state (typically the model's KV caches).
/// The front-end never looks inside: it checks the state out to a worker
/// for the duration of one step and checks it back in before the step's
/// ticket resolves.
pub type DecodeState = Box<dyn std::any::Any + Send>;

/// The incremental-decode entry point of a model: one token-step at a
/// time against per-session [`DecodeState`].
///
/// **Prefix equivalence** is the contract the serving layer inherits
/// from the tensor/model layers and re-exposes: step `t` of a session
/// must be `to_bits`-identical to row `t` of the model's full-prefix
/// (causal) forward over tokens `0..=t` on the same backend state —
/// which also makes decode coalescing invisible, since steps of
/// different sessions share nothing but the tape they are recorded on.
pub trait ModelDecode: Send + Sync {
    /// Fresh state for a new decode session (e.g. empty KV caches).
    fn new_state(&self) -> DecodeState;

    /// Runs one step: `input` is one request row (the model's
    /// `row_shape`), `state` is the session's checked-out decode state,
    /// and the return value is the step's output row. Steps of several
    /// sessions may be recorded on the same tape `g`; they must not
    /// interact.
    fn step(&self, g: &mut Graph<'_>, input: &Tensor, state: &mut DecodeState) -> Tensor;
}

/// One servable model: a name, the per-request input shape, and the
/// [`ModelForward`] implementation.
///
/// The forward runs on **inference tapes** over the engine's shared
/// `Session`, so LUT-served operators, hot swaps, and shard refreshes
/// all apply; it must treat the leading dimension as an opaque batch axis
/// (every row independent), which is what makes coalescing invisible.
#[derive(Clone)]
pub struct ModelSpec {
    name: String,
    row_shape: Vec<usize>,
    forward: Arc<dyn ModelForward>,
}

impl std::fmt::Debug for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSpec")
            .field("name", &self.name)
            .field("row_shape", &self.row_shape)
            .field("decode", &self.supports_decode())
            .finish_non_exhaustive()
    }
}

impl ModelSpec {
    /// A model named `name` taking per-request inputs of shape
    /// `row_shape` (no batch dimension) through the `forward` closure
    /// (stored as its blanket [`ModelForward`] impl, so such models never
    /// advertise decode — use [`ModelSpec::from_model`] for that).
    ///
    /// # Panics
    ///
    /// Panics if `row_shape` is empty or contains a zero dimension.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        row_shape: &[usize],
        forward: impl Fn(&mut Graph<'_>, NodeId) -> NodeId + Send + Sync + 'static,
    ) -> Self {
        Self::from_model(name, row_shape, forward)
    }

    /// A model from any [`ModelForward`] implementation — the spelling
    /// for named model types, including ones that advertise an
    /// incremental-decode entry point via [`ModelForward::decode`].
    ///
    /// # Panics
    ///
    /// Panics if `row_shape` is empty or contains a zero dimension.
    #[must_use]
    pub fn from_model(
        name: impl Into<String>,
        row_shape: &[usize],
        model: impl ModelForward + 'static,
    ) -> Self {
        assert!(
            !row_shape.is_empty() && row_shape.iter().all(|&d| d > 0),
            "row_shape must be non-empty with positive dims, got {row_shape:?}"
        );
        Self {
            name: name.into(),
            row_shape: row_shape.to_vec(),
            forward: Arc::new(model),
        }
    }

    /// The model's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-request input shape (without the batch dimension).
    #[must_use]
    pub fn row_shape(&self) -> &[usize] {
        &self.row_shape
    }

    /// Elements in one request's input.
    #[must_use]
    pub fn row_len(&self) -> usize {
        self.row_shape.iter().product()
    }

    /// Whether the model advertises an incremental-decode entry point
    /// (whether [`Served::open_decode`](crate::Served::open_decode) can
    /// succeed for it).
    #[must_use]
    pub fn supports_decode(&self) -> bool {
        self.forward.decode().is_some()
    }

    /// The model's decode entry point, if advertised.
    #[must_use]
    pub fn decoder(&self) -> Option<&dyn ModelDecode> {
        self.forward.decode()
    }

    /// Records the batched forward on `g` (worker execution path).
    pub(crate) fn run_forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        self.forward.forward(g, x)
    }
}
