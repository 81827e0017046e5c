//! [`ModelSpec`]: a servable model's name, per-request row shape and
//! [`ModelForward`] implementation. The model traits themselves are
//! defined in `gqa-serve`, below the model crates that implement them,
//! and re-exported from this crate.

use std::sync::Arc;

use gqa_serve::{ModelDecode, ModelForward};
use gqa_tensor::{Graph, NodeId};

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
