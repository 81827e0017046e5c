//! Per-operator serving datapaths: the instantiated INT LUT executors a
//! compiled artifact is served through, and the single-operator
//! [`UnaryBackend`] the engine installs into each hot-swap cell.
//!
//! [`build_datapath`] is the one way from a compiled artifact to a
//! datapath, and every datapath it builds is a table over input codes.
//! Scale-dependent operators instantiate the quant-aware LUT at a
//! power-of-two input scale and tabulate it on its input codes, so an
//! element costs one quantization and one gather. The wide-range DIV/RSQRT
//! intermediates tabulate the FXP core on its input word and serve it
//! behind the paper's multi-range input scaling: a pre-scale, one
//! quantization and gather, and a rescale.

use gqa_funcs::{BatchEval, NonLinearOp};
use gqa_fxp::{IntRange, PowerOfTwoScale};
use gqa_pwl::{CodeTable, FxpPwl, MultiRangeLut, MultiRangeScaling, QuantAwareLut};
use gqa_tensor::{ExactBackend, UnaryBackend, UnaryKind};

/// An instantiated serving datapath for one operator.
pub enum OpDatapath {
    /// Scale-dependent operators (GELU/HSWISH/EXP/Sigmoid/Tanh): the
    /// INT datapath of Figure 1(b) at a fixed power-of-two input scale,
    /// tabulated on its `2^bits` input codes
    /// ([`gqa_pwl::IntLutInstance::tabulate`]).
    Scaled(CodeTable),
    /// Wide-range intermediates (DIV/RSQRT): the §3.1 multi-range input
    /// scaling around the FXP pwl core, tabulated on its `bits`-wide
    /// input word ([`gqa_pwl::FxpPwl::tabulate`]).
    Wide(MultiRangeLut),
}

impl std::fmt::Debug for OpDatapath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpDatapath::Scaled(_) => f.write_str("OpDatapath::Scaled"),
            OpDatapath::Wide(_) => f.write_str("OpDatapath::Wide"),
        }
    }
}

impl OpDatapath {
    fn batch(&self) -> &dyn BatchEval {
        match self {
            OpDatapath::Scaled(t) => t,
            OpDatapath::Wide(m) => m,
        }
    }

    /// Native `f32` batch sweep (bit-identical to staging through `f64`).
    pub fn eval_batch_f32(&self, xs: &[f32], out: &mut [f32]) {
        match self {
            OpDatapath::Scaled(t) => t.eval_batch_f32(xs, out),
            OpDatapath::Wide(m) => m.eval_batch_f32(xs, out),
        }
    }
}

/// Instantiates the serving datapath for `op` from its compiled artifact:
/// `bits` fixes the quantized input range / FXP storage width, `scale`
/// the power-of-two input scale (scale-dependent operators only).
///
/// Built once per engine build, [`crate::Engine::swap`] and
/// [`crate::Engine::refresh`], never per search candidate: tabulating
/// costs a pass over every input code.
///
/// # Panics
///
/// Panics if `bits` is outside `1..=16`: every operator is tabulated,
/// and a table holds at most 65,536 entries. The engine refuses such a
/// plan with [`crate::EngineError::InvalidBits`] first.
#[must_use]
pub fn build_datapath(
    artifact: &QuantAwareLut,
    op: NonLinearOp,
    bits: u32,
    scale: PowerOfTwoScale,
) -> OpDatapath {
    if op.scale_dependent() {
        OpDatapath::Scaled(
            artifact
                .instantiate(scale, IntRange::signed(bits))
                .tabulate(),
        )
    } else {
        let scaling = match op {
            NonLinearOp::Div => MultiRangeScaling::div_paper(),
            NonLinearOp::Rsqrt => MultiRangeScaling::rsqrt_paper(),
            _ => unreachable!("the only scale-independent ops are DIV/RSQRT"),
        };
        OpDatapath::Wide(MultiRangeLut::new(FxpPwl::new(artifact, bits), scaling))
    }
}

/// The single-operator backend installed into an engine's hot-swap cell:
/// evaluates exactly one [`UnaryKind`] through its LUT datapath and
/// everything else exactly. [`crate::Session`] only routes the matching
/// kind here, so the fallback arm is defensive.
pub(crate) struct OpBackend {
    kind: UnaryKind,
    path: OpDatapath,
}

impl OpBackend {
    pub(crate) fn new(kind: UnaryKind, path: OpDatapath) -> Self {
        Self { kind, path }
    }
}

impl UnaryBackend for OpBackend {
    fn eval(&self, kind: UnaryKind, x: f64) -> f64 {
        if kind == self.kind {
            self.path.batch().eval_scalar(x)
        } else {
            kind.exact(x)
        }
    }

    fn eval_many(&self, kind: UnaryKind, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "batch length mismatch");
        if kind == self.kind {
            self.path.batch().eval_batch(xs, out);
        } else {
            ExactBackend.eval_many(kind, xs, out);
        }
    }

    fn eval_many_f32(&self, kind: UnaryKind, xs: &[f32], out: &mut [f32]) {
        assert_eq!(xs.len(), out.len(), "batch length mismatch");
        if kind == self.kind {
            self.path.eval_batch_f32(xs, out);
        } else {
            ExactBackend.eval_many_f32(kind, xs, out);
        }
    }
}
