//! Which of the paper's five operators a Table 4/5 row routes through
//! INT8 LUTs, and the serving plan that does it.

use gqa_funcs::NonLinearOp;

/// Which operators are LUT-replaced (the "Replacement" column of Tables
/// 4 and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplaceSet {
    /// Replace GELU.
    pub gelu: bool,
    /// Replace HSWISH.
    pub hswish: bool,
    /// Replace EXP (Softmax kernel).
    pub exp: bool,
    /// Replace DIV (reciprocal normalizers).
    pub div: bool,
    /// Replace RSQRT (LayerNorm kernel).
    pub rsqrt: bool,
}

impl ReplaceSet {
    /// Nothing replaced (the "None" row).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Everything replaced (the "Altogether" row).
    #[must_use]
    pub fn all() -> Self {
        Self {
            gelu: true,
            hswish: true,
            exp: true,
            div: true,
            rsqrt: true,
        }
    }

    /// Replace a single operator.
    #[must_use]
    pub fn only(op: NonLinearOp) -> Self {
        let mut s = Self::default();
        match op {
            NonLinearOp::Gelu => s.gelu = true,
            NonLinearOp::Hswish => s.hswish = true,
            NonLinearOp::Exp => s.exp = true,
            NonLinearOp::Div => s.div = true,
            NonLinearOp::Rsqrt => s.rsqrt = true,
            other => panic!("{other} is not a Table 4/5 replacement target"),
        }
        s
    }

    /// Whether any operator is replaced.
    #[must_use]
    pub fn any(&self) -> bool {
        self.gelu || self.hswish || self.exp || self.div || self.rsqrt
    }

    /// The serving plan for this replacement set: every replaced
    /// operator planned with `base` (Table 4/5 row order). Serve it with
    /// `EngineBuilder::new(replace.to_plan(base).calibrated(&calib))`.
    #[must_use]
    pub fn to_plan(self, base: gqa_serve::OpPlan) -> gqa_serve::OperatorPlan {
        let mut plan = gqa_serve::OperatorPlan::new();
        for (on, op) in [
            (self.exp, NonLinearOp::Exp),
            (self.gelu, NonLinearOp::Gelu),
            (self.hswish, NonLinearOp::Hswish),
            (self.div, NonLinearOp::Div),
            (self.rsqrt, NonLinearOp::Rsqrt),
        ] {
            if on {
                plan.set(op, base);
            }
        }
        plan
    }

    /// Human-readable row label as in Tables 4 and 5.
    #[must_use]
    pub fn label(&self) -> String {
        if !self.any() {
            return "None".to_owned();
        }
        if *self == Self::all() {
            return "Altogether".to_owned();
        }
        let mut parts = Vec::new();
        if self.exp {
            parts.push("EXP");
        }
        if self.gelu {
            parts.push("GELU");
        }
        if self.hswish {
            parts.push("HSWISH");
        }
        if self.div {
            parts.push("DIV");
        }
        if self.rsqrt {
            parts.push("RSQRT");
        }
        format!("{} only", parts.join("+"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_set_labels() {
        assert_eq!(ReplaceSet::none().label(), "None");
        assert_eq!(ReplaceSet::all().label(), "Altogether");
        assert_eq!(ReplaceSet::only(NonLinearOp::Exp).label(), "EXP only");
        assert_eq!(ReplaceSet::only(NonLinearOp::Div).label(), "DIV only");
    }

    #[test]
    #[should_panic(expected = "not a Table 4/5 replacement target")]
    fn only_rejects_non_paper_ops() {
        let _ = ReplaceSet::only(NonLinearOp::Tanh);
    }
}
