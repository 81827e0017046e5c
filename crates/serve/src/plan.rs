//! The typed serving plan: which operators are LUT-served and how each
//! one's artifact is built and instantiated.

use gqa_funcs::NonLinearOp;
use gqa_fxp::PowerOfTwoScale;
use gqa_registry::{LutSpec, Method};
use gqa_tensor::UnaryKind;

use crate::calibrate::CalibrationRecorder;

/// The tensor-level [`UnaryKind`] a [`NonLinearOp`] is served as, or
/// `None` for operators the graph has no unary node for (SiLU, Softplus,
/// Cos — they can still be approximated offline, but an [`crate::Engine`]
/// cannot dispatch them).
#[must_use]
pub fn serve_kind(op: NonLinearOp) -> Option<UnaryKind> {
    match op {
        NonLinearOp::Gelu => Some(UnaryKind::Gelu),
        NonLinearOp::Hswish => Some(UnaryKind::Hswish),
        NonLinearOp::Exp => Some(UnaryKind::Exp),
        NonLinearOp::Div => Some(UnaryKind::Recip),
        NonLinearOp::Rsqrt => Some(UnaryKind::Rsqrt),
        NonLinearOp::Sigmoid => Some(UnaryKind::Sigmoid),
        NonLinearOp::Tanh => Some(UnaryKind::Tanh),
        _ => None,
    }
}

/// How one operator is served: everything that determines its artifact
/// (method, entries, seed, budget — the content address) plus the serving
/// instantiation (integer precision, power-of-two input scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpPlan {
    /// LUT construction method.
    pub method: Method,
    /// LUT entries (8 or 16, per the paper).
    pub entries: usize,
    /// RNG seed (builds are deterministic given it).
    pub seed: u64,
    /// Budget multiplier in `(0, 1]` scaling search generations / training
    /// steps (1.0 = the paper's full budget).
    pub budget: f64,
    /// Serving integer precision in bits, `1..=16`: the datapath's
    /// quantized input range (`IntRange::signed(bits)`) and FXP storage
    /// width.
    pub bits: u32,
    /// Power-of-two input scale for scale-dependent operators
    /// (GELU/HSWISH/EXP/...); ignored by the wide-range DIV/RSQRT
    /// datapaths, which use the paper's multi-range input scaling.
    pub scale: PowerOfTwoScale,
}

impl OpPlan {
    /// Paper defaults: 8 entries, full budget, INT8 serving precision,
    /// `S = 2^-4` input scale (the calibration fallback).
    pub fn new(method: Method) -> Self {
        Self {
            method,
            entries: 8,
            seed: 0,
            budget: 1.0,
            bits: 8,
            scale: PowerOfTwoScale::new(-4),
        }
    }

    /// Sets the LUT entry count (8 or 16).
    #[must_use]
    pub fn with_entries(mut self, entries: usize) -> Self {
        self.entries = entries;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the budget multiplier.
    #[must_use]
    pub fn with_budget(mut self, budget: f64) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the serving integer precision in bits.
    #[must_use]
    pub fn with_bits(mut self, bits: u32) -> Self {
        self.bits = bits;
        self
    }

    /// Sets the power-of-two input scale (scale-dependent operators).
    #[must_use]
    pub fn with_scale(mut self, scale: PowerOfTwoScale) -> Self {
        self.scale = scale;
        self
    }

    /// The content-addressed build request this plan entry resolves to for
    /// `op` — the seam between the serving layer and the artifact
    /// registry.
    #[must_use]
    pub fn spec(&self, op: NonLinearOp) -> LutSpec {
        LutSpec::new(self.method, op, self.entries, self.seed).with_budget(self.budget)
    }
}

/// A typed serving plan: an ordered `op → OpPlan` map. Insertion order is
/// preserved (it is the engine's wiring/reporting order); re-planning an
/// operator replaces its entry in place.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperatorPlan {
    ops: Vec<(NonLinearOp, OpPlan)>,
}

impl OperatorPlan {
    /// Empty plan (every operator served exact).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans `op` to be LUT-served per `plan` (replacing any existing
    /// entry for `op`).
    #[must_use]
    pub fn with(mut self, op: NonLinearOp, plan: OpPlan) -> Self {
        self.set(op, plan);
        self
    }

    /// In-place form of [`OperatorPlan::with`].
    pub fn set(&mut self, op: NonLinearOp, plan: OpPlan) {
        match self.ops.iter_mut().find(|(o, _)| *o == op) {
            Some((_, p)) => *p = plan,
            None => self.ops.push((op, plan)),
        }
    }

    /// Convenience: plans all four SegformerLite operators (EXP, GELU,
    /// DIV, RSQRT — the vanilla-Transformer inventory) with one shared
    /// per-op plan.
    #[must_use]
    pub fn segformer(plan: OpPlan) -> Self {
        Self::new()
            .with(NonLinearOp::Exp, plan)
            .with(NonLinearOp::Gelu, plan)
            .with(NonLinearOp::Div, plan)
            .with(NonLinearOp::Rsqrt, plan)
    }

    /// Convenience: plans both EfficientVitLite operators (HSWISH, DIV)
    /// with one shared per-op plan.
    #[must_use]
    pub fn efficientvit(plan: OpPlan) -> Self {
        Self::new()
            .with(NonLinearOp::Hswish, plan)
            .with(NonLinearOp::Div, plan)
    }

    /// The plan for `op`, if it is LUT-served.
    #[must_use]
    pub fn get(&self, op: NonLinearOp) -> Option<&OpPlan> {
        self.ops.iter().find(|(o, _)| *o == op).map(|(_, p)| p)
    }

    /// Iterates the planned operators in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (NonLinearOp, &OpPlan)> {
        self.ops.iter().map(|(o, p)| (*o, p))
    }

    /// Number of planned operators.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operator is planned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Overwrites every scale-dependent entry's input scale with the
    /// calibrated power-of-two scale recorded for its serving kind —
    /// the bridge from a calibration forward pass to a servable plan.
    #[must_use]
    pub fn calibrated(mut self, calib: &CalibrationRecorder) -> Self {
        for (op, plan) in &mut self.ops {
            if let Some(kind) = serve_kind(*op) {
                if op.scale_dependent() {
                    plan.scale = calib.pot_scale(kind);
                }
            }
        }
        self
    }
}

impl std::fmt::Display for OperatorPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.ops.is_empty() {
            return write!(f, "(empty plan: all operators exact)");
        }
        for (i, (op, p)) in self.ops.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(
                f,
                "{:<8} {} x{} @ {} bits, seed {}, budget {:.2}, S = {}",
                op.name(),
                p.method.ident(),
                p.entries,
                p.bits,
                p.seed,
                p.budget,
                p.scale
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_replaces_in_place_and_preserves_order() {
        let plan = OperatorPlan::new()
            .with(NonLinearOp::Exp, OpPlan::new(Method::GqaRm))
            .with(NonLinearOp::Gelu, OpPlan::new(Method::GqaRm))
            .with(NonLinearOp::Exp, OpPlan::new(Method::NnLut).with_seed(9));
        assert_eq!(plan.len(), 2);
        let order: Vec<_> = plan.iter().map(|(o, _)| o).collect();
        assert_eq!(order, vec![NonLinearOp::Exp, NonLinearOp::Gelu]);
        assert_eq!(plan.get(NonLinearOp::Exp).unwrap().method, Method::NnLut);
        assert_eq!(plan.get(NonLinearOp::Exp).unwrap().seed, 9);
        assert!(plan.get(NonLinearOp::Rsqrt).is_none());
    }

    #[test]
    fn paper_ops_all_have_serve_kinds() {
        for op in NonLinearOp::PAPER_OPS {
            assert!(serve_kind(op).is_some(), "{op} must be servable");
        }
        assert_eq!(serve_kind(NonLinearOp::Silu), None);
        assert_eq!(serve_kind(NonLinearOp::Div), Some(UnaryKind::Recip));
    }

    #[test]
    fn model_presets_cover_their_operator_inventories() {
        let p = OpPlan::new(Method::GqaRm).with_seed(3);
        let seg = OperatorPlan::segformer(p);
        assert_eq!(seg.len(), 4);
        assert!(seg.get(NonLinearOp::Exp).is_some());
        assert!(seg.get(NonLinearOp::Hswish).is_none());
        let vit = OperatorPlan::efficientvit(p);
        assert_eq!(vit.len(), 2);
        assert!(vit.get(NonLinearOp::Hswish).is_some());
    }

    #[test]
    fn spec_carries_the_content_address_fields() {
        let p = OpPlan::new(Method::GqaNoRm)
            .with_entries(16)
            .with_seed(42)
            .with_budget(0.5);
        let spec = p.spec(NonLinearOp::Exp);
        assert_eq!(spec.method, Method::GqaNoRm);
        assert_eq!(spec.op, NonLinearOp::Exp);
        assert_eq!(spec.entries, 16);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.budget, 0.5);
    }
}
