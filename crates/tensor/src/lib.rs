//! # gqa-tensor — minimal CPU tensor library with reverse-mode autodiff
//!
//! The training substrate for the paper's model-level evaluation (§4.2).
//! The paper fine-tunes Segformer-B0 and EfficientViT-B0 with PyTorch; this
//! crate provides the equivalent machinery from scratch, sized for the
//! SynthScapes substitute benchmark:
//!
//! * [`Tensor`] — a dense `f32` value with shape (no grad state).
//! * [`Graph`] — an eager tape: every op computes its value immediately
//!   and records what it needs for the reverse pass.
//! * [`ParamStore`] / [`ParamId`] — persistent parameters with gradient
//!   accumulators, shared across steps/graphs.
//! * [`UnaryBackend`] — the pluggable evaluator for the *non-linear
//!   operators the paper approximates* (GELU, HSWISH, EXP, DIV(recip),
//!   RSQRT, …). The exact backend computes reference math; the models crate
//!   plugs in pwl-LUT backends to reproduce Tables 4 and 5. Backward always
//!   uses the exact derivative (straight-through estimation w.r.t. the
//!   approximation error — standard QAT practice).
//! * [`optim`] — SGD with momentum and Adam.
//!
//! Softmax and LayerNorm have two spellings. The unfused assemblies
//! ([`Graph::softmax_rows`] / [`Graph::layernorm_rows`]) build them from
//! `exp`, `recip`, `rsqrt`, reductions and products, so the LUT
//! replacement hooks at exactly the operators the paper replaces; they are
//! the semantic ground truth. The **fused execution layer** ([`fused`],
//! surfaced as [`Graph::softmax`] / [`Graph::layer_norm`] /
//! [`Graph::layer_norm_affine`] / [`Graph::attention`] /
//! [`Graph::residual_layer_norm_affine`]) computes the same values in
//! single-sweep row kernels — bit-identical to the unfused assemblies
//! forward *and* backward, with the non-linear stages still routed through
//! the same [`UnaryBackend`] batch calls (so LUT-served and hot-swapped
//! datapaths keep working inside fused nodes).
//!
//! For serving there is an **inference mode** ([`EvalMode::Inference`],
//! via [`Graph::new_inference`]): the tape skips saved-state `Arc`
//! materialization and gradient bookkeeping entirely, producing forward
//! values bit-identical to training tapes. A [`BufferPool`] recycles
//! tensor buffers across ops and — via [`Graph::recycle`] — across
//! graphs, so a steady-state forward pass allocates almost nothing, and
//! [`Graph::scope`] hands a stretch of the forward's dead intermediates
//! back to the pool before the forward ends.
//!
//! ## Example: fit a line
//!
//! ```
//! use gqa_tensor::{Graph, ParamStore, Tensor, ExactBackend, optim::Sgd};
//!
//! let backend = ExactBackend;
//! let mut ps = ParamStore::new();
//! let w = ps.alloc(Tensor::zeros(&[1, 1]));
//! let mut opt = Sgd::new(0.1, 0.0);
//! for _ in 0..200 {
//!     let mut g = Graph::new(&backend);
//!     let x = g.input(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4, 1]));
//!     let wid = g.param(&ps, w);
//!     let pred = g.matmul(x, wid);
//!     let target = g.input(Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], &[4, 1]));
//!     let loss = g.mse_loss(pred, target);
//!     g.backward(loss);
//!     g.accumulate_grads(&mut ps);
//!     opt.step(&mut ps);
//!     ps.zero_grads();
//! }
//! assert!((ps.value(w).data[0] - 2.0).abs() < 1e-3);
//! ```

//!
//! ## The `simd` feature (default-on)
//!
//! The exact backend's branch-free unaries (ReLU, HSWISH) run on the
//! wide-lane kernels of `gqa-simd` (AVX2, runtime-detected), and the
//! graph feeds backends through the `f32` fast path
//! ([`UnaryBackend::eval_many_f32`]) — both bit-identical to the scalar
//! / staged paths they replace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod decode;
pub mod fused;
mod graph;
pub mod nn;
pub mod optim;
mod pool;
mod tensor_impl;

pub use backend::{eval_many_f32_via_f64, ExactBackend, UnaryBackend, UnaryKind};
pub use decode::KvCache;
pub use fused::FusedOp;
pub use graph::{EvalMode, Graph, NodeId};
pub use pool::BufferPool;
pub use tensor_impl::{ParamId, ParamStore, Tensor};
