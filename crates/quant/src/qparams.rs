//! Per-tensor quantization parameters.

use std::fmt;

use gqa_fxp::{IntRange, PowerOfTwoScale};

/// Frozen per-tensor quantization parameters: a power-of-two scale plus an
/// integer range. The harness snaps each weight tensor onto the grid these
/// describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantParams {
    scale: PowerOfTwoScale,
    range: IntRange,
}

impl QuantParams {
    /// Creates the parameter pair.
    #[must_use]
    pub fn new(scale: PowerOfTwoScale, range: IntRange) -> Self {
        Self { scale, range }
    }

    /// The power-of-two scale.
    #[must_use]
    pub fn scale(&self) -> PowerOfTwoScale {
        self.scale
    }

    /// The integer range.
    #[must_use]
    pub fn range(&self) -> IntRange {
        self.range
    }

    /// Fake-quantizes a slice in place (quantize∘dequantize).
    pub fn fake_quantize_in_place(&self, xs: &mut [f32]) {
        for x in xs.iter_mut() {
            *x = gqa_fxp::fake_quantize(*x as f64, self.scale, self.range) as f32;
        }
    }
}

impl fmt::Display for QuantParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S={} range={}", self.scale, self.range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int8(exponent: i32) -> QuantParams {
        QuantParams::new(PowerOfTwoScale::new(exponent), IntRange::signed(8))
    }

    #[test]
    fn fake_quant_in_place_idempotent() {
        let p = int8(-3);
        let mut xs = vec![0.3f32, -1.77, 100.0];
        p.fake_quantize_in_place(&mut xs);
        let once = xs.clone();
        p.fake_quantize_in_place(&mut xs);
        assert_eq!(once, xs);
    }

    #[test]
    fn display_format() {
        assert_eq!(int8(-2).to_string(), "S=2^-2 range=[-128, 127]");
    }
}
