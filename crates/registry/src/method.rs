//! The three LUT-construction methods compared throughout the paper's
//! evaluation. Canonical home (moved here from `gqa-models` so the
//! artifact registry can address artifacts without depending on the model
//! layer).

use std::fmt;

/// The three methods compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// NN-LUT baseline (ref. \[11\]), INT8-converted per §4.1.
    NnLut,
    /// GQA-LUT with conventional Gaussian mutation ("w/o RM"): §3.2's
    /// straightforward approach — quantization-blind breakpoints, post-hoc
    /// FXP conversion.
    GqaNoRm,
    /// GQA-LUT with Rounding Mutation ("w/ RM"): FXP-aligned proposals and,
    /// for scale-dependent operators, the §4.1 dequantized-grid fitness, so
    /// selection rewards quantization-robust breakpoints.
    GqaRm,
}

impl Method {
    /// All three methods in the paper's column order.
    pub const ALL: [Method; 3] = [Method::NnLut, Method::GqaNoRm, Method::GqaRm];

    /// Paper-style label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Method::NnLut => "NN-LUT",
            Method::GqaNoRm => "GQA-LUT w/o RM",
            Method::GqaRm => "GQA-LUT w/ RM",
        }
    }

    /// Stable identifier used by snapshot files (no spaces or slashes).
    #[must_use]
    pub fn ident(self) -> &'static str {
        match self {
            Method::NnLut => "nnlut",
            Method::GqaNoRm => "gqa_no_rm",
            Method::GqaRm => "gqa_rm",
        }
    }

    /// Inverse of [`Method::ident`].
    #[must_use]
    pub fn from_ident(s: &str) -> Option<Self> {
        Method::ALL.into_iter().find(|m| m.ident() == s)
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Method::NnLut.label(), "NN-LUT");
        assert_eq!(Method::GqaRm.to_string(), "GQA-LUT w/ RM");
        assert_eq!(Method::ALL.len(), 3);
    }

    #[test]
    fn idents_round_trip() {
        for m in Method::ALL {
            assert_eq!(Method::from_ident(m.ident()), Some(m));
        }
        assert_eq!(Method::from_ident("bogus"), None);
    }
}
