//! The front-end's request vocabulary: what a tenant submits and the typed
//! ways a submission can fail.

use gqa_tensor::Tensor;

/// Identifies a tenant. Tenants are a dense index space fixed when the
/// server is built ([`crate::ServedConfig::tenants`]), so per-tenant
/// metrics are a lock-free array lookup, never a map insert on the hot
/// path.
pub type TenantId = usize;

/// Identifies a served model: the dense index of its
/// [`crate::ModelSpec`] in the server's model list.
pub type ModelId = usize;

/// One inference request: a tenant asks for `input` to be forwarded
/// through `model`.
///
/// The input carries the **per-request** shape (no batch dimension); the
/// coalescer stacks same-model inputs into one `[batch, ...]` tensor for
/// a single batched forward, and the response is the request's own output
/// rows — bit-identical to the rows a batch-of-one forward would have
/// produced (the coalescing-invisibility contract).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The submitting tenant (must be `< ServedConfig::tenants`).
    pub tenant: TenantId,
    /// The model to forward through.
    pub model: ModelId,
    /// Per-request input tensor, shaped like the model's
    /// [`crate::ModelSpec::row_shape`].
    pub input: Tensor,
}

/// Admission control said no: the bounded queue is full. The request was
/// **not** enqueued — backpressure is the caller's signal to retry later
/// or shed load; the queue never grows past its capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected {
    /// Requests queued at the moment of rejection (== `capacity`).
    pub depth: usize,
    /// The configured queue bound.
    pub capacity: usize,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "admission queue full ({}/{} requests pending)",
            self.depth, self.capacity
        )
    }
}

impl std::error::Error for Rejected {}

/// Failure of a front-end submission or wait.
#[derive(Debug, Clone, PartialEq)]
pub enum ServedError {
    /// Backpressure: the bounded admission queue is full.
    Rejected(Rejected),
    /// Per-tenant backpressure: the tenant already has its quota of
    /// requests queued ([`crate::BatchConfig::quota`]); other tenants
    /// are still admitted.
    QuotaExceeded {
        /// Requests the tenant has queued (== `quota`).
        queued: usize,
        /// The configured per-tenant bound.
        quota: usize,
    },
    /// The request names a model index the server was not built with.
    UnknownModel(ModelId),
    /// The request names a tenant index outside the configured tenant
    /// space.
    UnknownTenant(TenantId),
    /// The input tensor's shape does not match the model's per-request
    /// row shape (coalescing stacks rows, so every request of a model
    /// must share one shape).
    BadShape {
        /// The model whose contract was violated.
        model: ModelId,
        /// The model's declared per-request shape.
        expected: Vec<usize>,
        /// The shape actually submitted.
        got: Vec<usize>,
    },
    /// [`crate::Served::open_decode`] named a model whose
    /// [`crate::ModelForward`] does not advertise a decode entry point.
    DecodeUnsupported(ModelId),
    /// A [`crate::DecodeSession`] step (or reset) was attempted while the
    /// previous step is still in flight — decode steps are strictly
    /// sequential per session; wait on the outstanding ticket first.
    StepPending,
    /// The model's [`crate::ModelDecode::check_step`] refused a decode
    /// step (the reason is its message). The step was not queued, and
    /// the session is unchanged and usable.
    InvalidStep(String),
    /// The server is shutting down; queued requests are failed rather
    /// than silently dropped.
    ShuttingDown,
}

impl std::fmt::Display for ServedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServedError::Rejected(r) => write!(f, "{r}"),
            ServedError::QuotaExceeded { queued, quota } => {
                write!(
                    f,
                    "tenant quota exhausted ({queued}/{quota} requests queued)"
                )
            }
            ServedError::UnknownModel(m) => write!(f, "unknown model id {m}"),
            ServedError::UnknownTenant(t) => write!(f, "unknown tenant id {t}"),
            ServedError::BadShape {
                model,
                expected,
                got,
            } => write!(
                f,
                "model {model} expects per-request shape {expected:?}, got {got:?}"
            ),
            ServedError::DecodeUnsupported(m) => {
                write!(f, "model {m} does not support incremental decode")
            }
            ServedError::StepPending => {
                write!(f, "a decode step is already in flight for this session")
            }
            ServedError::InvalidStep(reason) => write!(f, "invalid decode step: {reason}"),
            ServedError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServedError {}

impl From<Rejected> for ServedError {
    fn from(r: Rejected) -> Self {
        ServedError::Rejected(r)
    }
}
