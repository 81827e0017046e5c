//! The model vocabulary of the serving stack: what a servable model *is*.
//!
//! A model is a [`ModelForward`] implementation — a named entry point
//! that records the batched forward onto an inference tape over a
//! [`Session`](crate::Session). Plain closures implement the trait via a
//! blanket impl; implementing it on a struct additionally lets a model
//! advertise an **incremental decode** entry point
//! ([`ModelForward::decode`] → [`ModelDecode`]), which is what the
//! `gqa-served` front-end's decode sessions are built on.
//!
//! The traits use only `gqa-tensor` types, so they live here, below both
//! the model crates that implement them and the front-end that drives
//! them; `gqa-served` re-exports them under the same names.

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
    /// `None` (the default, and what closures report) means the serving
    /// front-end refuses to open a decode session on the model (in
    /// `gqa-served`, `Served::open_decode` fails with
    /// `ServedError::DecodeUnsupported`).
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

    /// Whether `input` is a step [`ModelDecode::step`] can run against
    /// `state`, checked at submit before the step is queued. `Err`
    /// carries the reason; the front-end refuses the step with a typed
    /// error, leaves `state` untouched, and the session stays usable.
    ///
    /// The default accepts every input. Override it wherever `step`
    /// would panic (a token outside the vocabulary, a full KV cache), so
    /// a peer's bad step can never take down the worker that runs it.
    fn check_step(&self, _input: &Tensor, _state: &DecodeState) -> Result<(), String> {
        Ok(())
    }

    /// Runs one step: `input` is one request row (the model's
    /// `row_shape`), `state` is the session's checked-out decode state,
    /// and the return value is the step's output row. Steps of several
    /// sessions may be recorded on the same tape `g`; they must not
    /// interact.
    fn step(&self, g: &mut Graph<'_>, input: &Tensor, state: &mut DecodeState) -> Tensor;
}
