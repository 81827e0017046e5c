//! # gqa-quant — the model harness's weight quantizer
//!
//! What the Table 4/5 harness (`gqa-models`) calls to snap each weight
//! tensor onto a min-max power-of-two INT8 grid (§2.3, §3.1):
//!
//! * [`calibrate_minmax`] — the min-max step that covers a tensor's
//!   largest magnitude.
//! * [`QuantParams`] — a frozen power-of-two scale plus integer range,
//!   which fake-quantizes a tensor in place (Eq. 2).
//!
//! ## Example
//!
//! ```
//! use gqa_fxp::{IntRange, PowerOfTwoScale};
//! use gqa_quant::{calibrate_minmax, QuantParams};
//!
//! let range = IntRange::signed(8);
//! let mut w = vec![0.31f32, -0.74, 0.02, 0.5];
//! let step = calibrate_minmax(&w, range); // 0.74 / 128
//! let scale = PowerOfTwoScale::covering(step * range.qp() as f64, range);
//! assert_eq!(scale.exponent(), -7);
//! QuantParams::new(scale, range).fake_quantize_in_place(&mut w);
//! assert_eq!(w, [0.3125, -0.7421875, 0.0234375, 0.5]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod qparams;

pub use calibrate::calibrate_minmax;
pub use qparams::QuantParams;
