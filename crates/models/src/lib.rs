//! # gqa-models — Transformer models with pluggable non-linear backends
//!
//! The model-level evaluation substrate for Tables 4 and 5:
//!
//! * [`SegformerLite`] — a scaled-down Segformer-B0: hierarchical encoder
//!   with overlap patch embeds, self-attention (Softmax = EXP + DIV),
//!   Mix-FFN (depthwise conv + GELU), LayerNorm (RSQRT), and an all-MLP
//!   decode head. Operator inventory identical to the paper's vanilla
//!   Transformer: **EXP, GELU, DIV, RSQRT**.
//! * [`EfficientVitLite`] — a scaled-down EfficientViT-B0: conv stem,
//!   MBConv blocks, ReLU linear attention (softmax-free, DIV-normalized),
//!   HSWISH activations. Operator inventory: **HSWISH, DIV**.
//! * [`TinyDecoder`] — a small autoregressive decoder stack with a
//!   KV-cached incremental path ([`DecoderLayer::step`]) bit-identical to
//!   the full-prefix forward, plus a greedy-decode driver.
//! * [`ServedDecoder`] — the one serving adapter of a `TinyDecoder`: it
//!   implements `gqa_serve`'s `ModelForward` and `ModelDecode`, and its
//!   `check_step` refuses an out-of-vocabulary token or a full context
//!   before the step is queued. The serving crate's `DecodeSession`
//!   suites, the `decode_loop` example and the `decode/*` benches run
//!   on it.
//! * [`ReplaceSet`] — which operators a Table 4/5 row LUT-replaces.
//!   [`ReplaceSet::to_plan`] turns it into a `gqa_serve::OperatorPlan`;
//!   an `Engine` built from that plan hands out `Session`s, and a
//!   session is the `UnaryBackend` the model graphs consume.
//! * [`FinetuneHarness`] — the Table 4/5 protocol: FP pre-train →
//!   INT8 baseline (each weight tensor snapped to a min-max power-of-two
//!   grid after every optimizer step; no step size is learned) →
//!   per-replacement fine-tuning → mIoU on the SynthScapes validation
//!   split.
//!
//! ## Example: forward a batch through SegformerLite
//!
//! ```
//! use gqa_models::{SegformerLite, SegConfig};
//! use gqa_tensor::{Graph, ParamStore, ExactBackend, Tensor};
//!
//! let mut ps = ParamStore::new();
//! let model = SegformerLite::new(&mut ps, SegConfig::tiny(), 1);
//! let backend = ExactBackend;
//! let mut g = Graph::new(&backend);
//! let x = g.input(Tensor::zeros(&[1, 3, 32, 64]));
//! let logits = model.forward(&mut g, &ps, x);
//! assert_eq!(g.value(logits).shape, vec![1, 19, 32, 64]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decoder;
mod efficientvit;
mod replace;
mod segformer;
mod serving;
mod train;

pub use decoder::{argmax, DecoderConfig, DecoderLayer, TinyDecoder};
pub use efficientvit::{EffVitConfig, EfficientVitLite};
pub use gqa_registry::{HotSwapBackend, LutBuildError, Method};
pub use gqa_serve::CalibrationRecorder;
pub use replace::ReplaceSet;
pub use segformer::{SegConfig, SegformerLite};
pub use serving::ServedDecoder;
pub use train::{
    argmax_nchw, quantize_weights_pot, FinetuneHarness, FinetuneOutcome, SegModel, TrainConfig,
};
