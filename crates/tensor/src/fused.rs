//! The fused softmax/LayerNorm execution layer.
//!
//! The graph's composite helpers ([`Graph::softmax_rows`] /
//! [`Graph::layernorm_rows`]) assemble these operators from five-plus
//! unfused per-tensor primitives, materializing an intermediate tensor
//! (plus a gradient slot) between every pair. The drivers here compute the
//! same values in a handful of cache-resident row sweeps writing straight
//! into the output buffer — no tape nodes, no intermediate tensors.
//!
//! ## Exactness contract
//!
//! Every driver is **bit-identical** to the unfused graph assembly it
//! replaces, by construction:
//!
//! * Row reductions (max, sum, sum-of-squares) go through the
//!   pinned-order kernels of `gqa-simd` ([`gqa_simd::max_f32`],
//!   [`gqa_simd::sum_f32`], [`gqa_simd::sum_sq_f32`]) — the *same*
//!   kernels the unfused `row_sum` / `row_mean` / `row_max_sub_detach`
//!   primitives use, so fused ≡ unfused and simd-on ≡ simd-off
//!   simultaneously.
//! * Each non-linear stage (EXP, DIV, RSQRT) is **one whole-tensor
//!   [`UnaryBackend`] call**, exactly like the unfused graph: LUT-served
//!   datapaths keep their batch kernels, and a hot-swapped backend (see
//!   `gqa-registry`) resolves its delegate once per stage — a swap landing
//!   mid-node changes the datapath *between* stages, never inside a row,
//!   in both the fused and unfused spellings.
//! * Element-wise sweeps (shift, rescale, affine) use the separate-mul/add
//!   kernels, matching the unfused spelling operation for operation.
//!
//! The property suite in `tests/fused_equivalence.rs` pins the contract
//! with `to_bits` comparisons across shapes, chunk seams, and backends.
//!
//! [`Graph::softmax_rows`]: crate::Graph::softmax_rows
//! [`Graph::layernorm_rows`]: crate::Graph::layernorm_rows

use gqa_simd::{gather_stride_f32, matmul_acc_f32};

use crate::backend::{UnaryBackend, UnaryKind};
use crate::pool::BufferPool;

/// A fused row operator, as a value: the public surface benches and
/// drivers dispatch on. [`Graph`](crate::Graph) records fused nodes with
/// saved backward state instead; this enum is the stateless entry point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedOp {
    /// Numerically stable softmax over rows of length `cols`
    /// (row-max shift → EXP → row sum → DIV → deferred rescale).
    Softmax,
    /// LayerNorm over rows of length `cols` (mean/variance in the pinned
    /// two-accumulator shape → RSQRT → normalize), without affine.
    LayerNorm {
        /// Variance stabilizer added before the RSQRT stage.
        eps: f32,
    },
}

impl FusedOp {
    /// Evaluates the fused operator over an `f32` buffer of `cols`-length
    /// rows, discarding the backward artifacts.
    ///
    /// # Panics
    ///
    /// Panics if `cols == 0`, `xs.len()` is not a multiple of `cols`, or
    /// the buffer lengths differ.
    pub fn eval_f32(self, backend: &dyn UnaryBackend, xs: &[f32], cols: usize, out: &mut [f32]) {
        match self {
            FusedOp::Softmax => {
                let _ = softmax_rows_f32(backend, xs, cols, out);
            }
            FusedOp::LayerNorm { eps } => {
                let _ = layer_norm_rows_f32(backend, xs, cols, eps, None, out);
            }
        }
    }
}

/// Forward-pass state the fused softmax keeps for its backward pass: the
/// backend's EXP outputs and reciprocal denominators (the two values that
/// cannot be recomputed later, because the backend may have been swapped).
#[derive(Debug, Clone)]
pub struct SoftmaxSaved {
    /// `exp(x − rowmax)` as the backend produced it, full tensor size.
    pub exp: Vec<f32>,
    /// Backend reciprocal of each row's denominator, one per row.
    pub inv: Vec<f32>,
}

/// Forward-pass state the fused LayerNorm keeps for its backward pass.
#[derive(Debug, Clone)]
pub struct LayerNormSaved {
    /// `x − μ` per element, full tensor size.
    pub centered: Vec<f32>,
    /// Backend `1/√(var + eps)` per row.
    pub inv_std: Vec<f32>,
    /// `var + eps` per row (the RSQRT stage's input, needed for the
    /// straight-through derivative).
    pub var_eps: Vec<f32>,
}

/// Forward-pass state the fused attention node keeps for its backward
/// pass: the softmax stage's backend outputs (not recomputable after a
/// hot swap) plus the scaled score matrix they were evaluated on (the
/// straight-through derivatives need the stage inputs, and recomputing
/// them would repeat the score matmul).
#[derive(Debug, Clone)]
pub struct AttentionSaved {
    /// `scale · (q·kᵀ)` — the softmax stage's input, `(B·Nq, Nk)` rows.
    pub scaled: Vec<f32>,
    /// `exp(scaled − rowmax)` as the backend produced it.
    pub exp: Vec<f32>,
    /// Backend reciprocal of each row's denominator, one per `(B·Nq)` row.
    pub inv: Vec<f32>,
}

fn check_rows(len: usize, cols: usize, out_len: usize) -> usize {
    assert!(cols > 0, "rows must have at least one element");
    assert_eq!(len % cols, 0, "buffer not a whole number of rows");
    assert_eq!(len, out_len, "batch length mismatch");
    len / cols
}

/// Fused numerically-stable softmax over `cols`-length rows of `xs` into
/// `out`, bit-identical to the unfused
/// `row_max_sub_detach → exp → row_sum → recip → mul_row` graph assembly.
///
/// One sweep computes each row's pinned-order max and writes the shifted
/// row (staged in `out`); a single whole-tensor EXP backend call follows;
/// one sweep takes pinned-order row sums; a single backend DIV call
/// produces the reciprocals; the final sweep applies the deferred rescale.
///
/// # Panics
///
/// Panics if `cols == 0`, `xs.len()` is not a multiple of `cols`, or the
/// buffer lengths differ.
pub fn softmax_rows_f32(
    backend: &dyn UnaryBackend,
    xs: &[f32],
    cols: usize,
    out: &mut [f32],
) -> SoftmaxSaved {
    let mut pool = BufferPool::new();
    softmax_rows_f32_pooled(backend, xs, cols, out, &mut pool, true)
        .expect("save=true always returns state")
}

/// [`softmax_rows_f32`] with staging buffers drawn from (and returned to)
/// `pool`, and backward state kept only when `save` is set. Bit-identical
/// to the plain driver — every staging buffer is fully overwritten before
/// it is read (stale pooled contents are invisible) and the stage sequence
/// is unchanged; with `save = false` the would-be saved buffers are
/// recycled instead of retained (the inference path).
///
/// # Panics
///
/// Panics if `cols == 0`, `xs.len()` is not a multiple of `cols`, or the
/// buffer lengths differ.
pub fn softmax_rows_f32_pooled(
    backend: &dyn UnaryBackend,
    xs: &[f32],
    cols: usize,
    out: &mut [f32],
    pool: &mut BufferPool,
    save: bool,
) -> Option<SoftmaxSaved> {
    let rows = check_rows(xs.len(), cols, out.len());
    // Pass 1: running row max + shift, staged into the output buffer.
    for (row, orow) in xs.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
        let m = gqa_simd::max_f32(row);
        gqa_simd::sub_scalar_f32(m, row, orow);
    }
    // Stage 2: LUT/exp eval — one whole-tensor backend call, the same
    // call shape as the unfused graph (hot-swap resolves once here).
    let mut exp = pool.take_full(xs.len());
    backend.eval_many_f32(UnaryKind::Exp, out, &mut exp);
    // Pass 3: pinned-order row sums.
    let mut sums = pool.take_full(rows);
    for (s, erow) in sums.iter_mut().zip(exp.chunks_exact(cols)) {
        *s = gqa_simd::sum_f32(erow);
    }
    // Stage 4: one backend DIV call over the per-row denominators.
    let mut inv = pool.take_full(rows);
    backend.eval_many_f32(UnaryKind::Recip, &sums, &mut inv);
    pool.put(sums);
    // Pass 5: deferred rescale.
    for ((orow, erow), &f) in out
        .chunks_exact_mut(cols)
        .zip(exp.chunks_exact(cols))
        .zip(&inv)
    {
        gqa_simd::scale_f32(f, erow, orow);
    }
    if save {
        Some(SoftmaxSaved { exp, inv })
    } else {
        pool.put(exp);
        pool.put(inv);
        None
    }
}

/// Fused LayerNorm over `cols`-length rows, optionally with a per-column
/// affine `(γ, β)`, bit-identical to the unfused
/// `row_mean → sub_row → mul → row_mean → add_scalar → rsqrt → mul_row`
/// assembly (plus `⊙ γ, + β` when affine).
///
/// Mean and variance use the pinned two-accumulator shape: one
/// pinned-order sum for μ, then a pinned-order sum of centered squares
/// for the variance — the exact reduction sequence of the unfused
/// decomposition. RSQRT is a single backend call over the per-row
/// `var + eps` vector.
///
/// # Panics
///
/// Panics if `cols == 0`, `xs.len()` is not a multiple of `cols`, the
/// buffer lengths differ, or an affine slice is not `cols` long.
pub fn layer_norm_rows_f32(
    backend: &dyn UnaryBackend,
    xs: &[f32],
    cols: usize,
    eps: f32,
    affine: Option<(&[f32], &[f32])>,
    out: &mut [f32],
) -> LayerNormSaved {
    let mut pool = BufferPool::new();
    layer_norm_rows_f32_pooled(backend, xs, cols, eps, affine, out, &mut pool, true)
        .expect("save=true always returns state")
}

/// [`layer_norm_rows_f32`] with pooled staging and optional backward
/// state, mirroring [`softmax_rows_f32_pooled`].
///
/// # Panics
///
/// Panics under the same conditions as [`layer_norm_rows_f32`].
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_rows_f32_pooled(
    backend: &dyn UnaryBackend,
    xs: &[f32],
    cols: usize,
    eps: f32,
    affine: Option<(&[f32], &[f32])>,
    out: &mut [f32],
    pool: &mut BufferPool,
    save: bool,
) -> Option<LayerNormSaved> {
    let rows = check_rows(xs.len(), cols, out.len());
    if let Some((gamma, beta)) = affine {
        assert_eq!(gamma.len(), cols, "gamma must be ({cols})");
        assert_eq!(beta.len(), cols, "beta must be ({cols})");
    }
    let mut centered = pool.take_full(xs.len());
    let mut var_eps = pool.take_full(rows);
    for (r, (row, crow)) in xs
        .chunks_exact(cols)
        .zip(centered.chunks_exact_mut(cols))
        .enumerate()
    {
        let mu = gqa_simd::sum_f32(row) / cols as f32;
        gqa_simd::sub_scalar_f32(mu, row, crow);
        let var = gqa_simd::sum_sq_f32(crow) / cols as f32;
        var_eps[r] = var + eps;
    }
    // One backend RSQRT call over the per-row variances.
    let mut inv_std = pool.take_full(rows);
    backend.eval_many_f32(UnaryKind::Rsqrt, &var_eps, &mut inv_std);
    for (r, (crow, orow)) in centered
        .chunks_exact(cols)
        .zip(out.chunks_exact_mut(cols))
        .enumerate()
    {
        match affine {
            Some((gamma, beta)) => gqa_simd::norm_affine_f32(inv_std[r], gamma, beta, crow, orow),
            None => gqa_simd::scale_f32(inv_std[r], crow, orow),
        }
    }
    if save {
        Some(LayerNormSaved {
            centered,
            inv_std,
            var_eps,
        })
    } else {
        pool.put(centered);
        pool.put(var_eps);
        pool.put(inv_std);
        None
    }
}

/// Fused residual-add + LayerNorm: computes `sum = x + y` and the
/// (optionally affine) LayerNorm of `sum` in one pass per row, writing
/// both results. Bit-identical to the unfused `add → layer_norm` pair:
/// the add is the same element-wise `+`, and the norm stages run the
/// exact [`layer_norm_rows_f32`] sequence on the summed rows (same
/// pinned-order reductions, one whole-tensor RSQRT backend call).
///
/// The pre-norm transformer pattern needs **both** outputs — the sum
/// feeds the next residual, the normed value feeds the sub-block — which
/// is why this driver fills two buffers instead of one.
///
/// # Panics
///
/// Panics if `cols == 0`, lengths are not a whole number of rows, the
/// four buffer lengths disagree, or an affine slice is not `cols` long.
#[allow(clippy::too_many_arguments)]
pub fn residual_layer_norm_rows_f32_pooled(
    backend: &dyn UnaryBackend,
    xs: &[f32],
    ys: &[f32],
    cols: usize,
    eps: f32,
    affine: Option<(&[f32], &[f32])>,
    sum_out: &mut [f32],
    out: &mut [f32],
    pool: &mut BufferPool,
    save: bool,
) -> Option<LayerNormSaved> {
    let rows = check_rows(xs.len(), cols, out.len());
    assert_eq!(xs.len(), ys.len(), "residual length mismatch");
    assert_eq!(xs.len(), sum_out.len(), "sum buffer length mismatch");
    if let Some((gamma, beta)) = affine {
        assert_eq!(gamma.len(), cols, "gamma must be ({cols})");
        assert_eq!(beta.len(), cols, "beta must be ({cols})");
    }
    let mut centered = pool.take_full(xs.len());
    let mut var_eps = pool.take_full(rows);
    // One pass per row: residual add, then mean/center/variance on the
    // freshly summed row while it is cache-hot.
    for (r, ((xrow, yrow), srow)) in xs
        .chunks_exact(cols)
        .zip(ys.chunks_exact(cols))
        .zip(sum_out.chunks_exact_mut(cols))
        .enumerate()
    {
        for ((s, &xv), &yv) in srow.iter_mut().zip(xrow).zip(yrow) {
            *s = xv + yv;
        }
        let crow = &mut centered[r * cols..(r + 1) * cols];
        let mu = gqa_simd::sum_f32(srow) / cols as f32;
        gqa_simd::sub_scalar_f32(mu, srow, crow);
        let var = gqa_simd::sum_sq_f32(crow) / cols as f32;
        var_eps[r] = var + eps;
    }
    let mut inv_std = pool.take_full(rows);
    backend.eval_many_f32(UnaryKind::Rsqrt, &var_eps, &mut inv_std);
    for (r, (crow, orow)) in centered
        .chunks_exact(cols)
        .zip(out.chunks_exact_mut(cols))
        .enumerate()
    {
        match affine {
            Some((gamma, beta)) => gqa_simd::norm_affine_f32(inv_std[r], gamma, beta, crow, orow),
            None => gqa_simd::scale_f32(inv_std[r], crow, orow),
        }
    }
    if save {
        Some(LayerNormSaved {
            centered,
            inv_std,
            var_eps,
        })
    } else {
        pool.put(centered);
        pool.put(var_eps);
        pool.put(inv_std);
        None
    }
}

/// Fused scaled-dot-product attention over `(B, Nq, C) × (B, Nk, C)²`
/// buffers: `out = softmax(scale · q·kᵀ) · v`, with `dims = [B, Nq, Nk,
/// C]`. Bit-identical to the unfused
/// `transpose → batch_matmul → scale → softmax_rows → batch_matmul` tape
/// assembly ([`Graph::attention_unfused`]):
///
/// * kᵀ and the score matrix live in pooled scratch, never on the tape,
///   but are produced by the *same* strided-gather/`matmul_acc_f32`
///   kernels the unfused graph ops run;
/// * the softmax stages are [`softmax_rows_f32_pooled`] over the whole
///   `(B·Nq, Nk)` score tensor — exactly **one** EXP and **one** DIV
///   backend call for the entire node, the same tensor-level call shape
///   as the unfused spelling, so LUT datapaths and hot swaps behave
///   identically inside the fused node.
///
/// # Panics
///
/// Panics if any buffer length disagrees with `dims`.
///
/// [`Graph::attention_unfused`]: crate::Graph::attention_unfused
#[allow(clippy::too_many_arguments)]
pub fn attention_rows_f32_pooled(
    backend: &dyn UnaryBackend,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    dims: [usize; 4],
    scale: f32,
    out: &mut [f32],
    pool: &mut BufferPool,
    save: bool,
) -> Option<AttentionSaved> {
    let [bsz, nq, nk, c] = dims;
    assert_eq!(q.len(), bsz * nq * c, "q length mismatch");
    assert_eq!(k.len(), bsz * nk * c, "k length mismatch");
    assert_eq!(v.len(), bsz * nk * c, "v length mismatch");
    assert_eq!(out.len(), bsz * nq * c, "out length mismatch");
    // kᵀ staged per batch in pooled scratch (the flash-attention lesson
    // in reverse: we keep the exact unfused reduction order, but stop
    // materializing intermediates as tape nodes).
    let mut kt = pool.take_full(bsz * c * nk);
    for bi in 0..bsz {
        let src = &k[bi * nk * c..(bi + 1) * nk * c];
        let dst = &mut kt[bi * c * nk..(bi + 1) * c * nk];
        for cc in 0..c {
            gather_stride_f32(&src[cc..], c, &mut dst[cc * nk..][..nk]);
        }
    }
    // scores = scale · (q · kᵀ), per batch through the shared matmul
    // kernel, then one elementwise sweep — the `scale` op's spelling.
    let mut scores = pool.take(bsz * nq * nk);
    for bi in 0..bsz {
        matmul_acc_f32(
            &q[bi * nq * c..(bi + 1) * nq * c],
            &kt[bi * c * nk..(bi + 1) * c * nk],
            &mut scores[bi * nq * nk..(bi + 1) * nq * nk],
            nq,
            c,
            nk,
        );
    }
    for s in &mut scores {
        *s *= scale;
    }
    // Softmax over all (B·Nq) rows at once: one EXP call, one DIV call.
    let mut attn = pool.take_full(bsz * nq * nk);
    let soft = softmax_rows_f32_pooled(backend, &scores, nk, &mut attn, pool, save);
    // ctx = attn · v.
    out.fill(0.0);
    for bi in 0..bsz {
        matmul_acc_f32(
            &attn[bi * nq * nk..(bi + 1) * nq * nk],
            &v[bi * nk * c..(bi + 1) * nk * c],
            &mut out[bi * nq * c..(bi + 1) * nq * c],
            nq,
            nk,
            c,
        );
    }
    pool.put(kt);
    pool.put(attn);
    match soft {
        Some(SoftmaxSaved { exp, inv }) => Some(AttentionSaved {
            scaled: scores,
            exp,
            inv,
        }),
        None => {
            pool.put(scores);
            None
        }
    }
}

/// [`attention_rows_f32_pooled`] with a throwaway pool, always saving
/// backward state — the stateless entry point for benches and tests.
///
/// # Panics
///
/// Panics if any buffer length disagrees with `dims`.
pub fn attention_rows_f32(
    backend: &dyn UnaryBackend,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    dims: [usize; 4],
    scale: f32,
    out: &mut [f32],
) -> AttentionSaved {
    let mut pool = BufferPool::new();
    attention_rows_f32_pooled(backend, q, k, v, dims, scale, out, &mut pool, true)
        .expect("save=true always returns state")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExactBackend;

    #[test]
    fn fused_softmax_rows_are_distributions() {
        let xs: Vec<f32> = (0..28).map(|i| (i as f32 - 13.0) * 0.37).collect();
        let mut out = vec![0.0f32; xs.len()];
        let saved = softmax_rows_f32(&ExactBackend, &xs, 7, &mut out);
        assert_eq!(saved.exp.len(), 28);
        assert_eq!(saved.inv.len(), 4);
        for row in out.chunks(7) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn fused_layer_norm_standardizes() {
        let xs: Vec<f32> = (0..32).map(|i| i as f32 * 0.3 - 2.0).collect();
        let mut out = vec![0.0f32; xs.len()];
        let _ = layer_norm_rows_f32(&ExactBackend, &xs, 16, 0.0, None, &mut out);
        for row in out.chunks(16) {
            let mean: f32 = row.iter().sum::<f32>() / 16.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn empty_buffers_are_fine() {
        let mut out = [0.0f32; 0];
        let saved = softmax_rows_f32(&ExactBackend, &[], 5, &mut out);
        assert!(saved.exp.is_empty() && saved.inv.is_empty());
        let saved = layer_norm_rows_f32(&ExactBackend, &[], 5, 1e-5, None, &mut out);
        assert!(saved.centered.is_empty());
    }

    #[test]
    fn one_element_rows() {
        // Softmax of a single-element row is exactly 1 whatever the input
        // (exp(0) = 1, recip(1) = 1).
        let xs = [3.5f32, -2.0, 0.0];
        let mut out = [0.0f32; 3];
        let _ = softmax_rows_f32(&ExactBackend, &xs, 1, &mut out);
        assert_eq!(out, [1.0, 1.0, 1.0]);
    }

    #[test]
    fn fused_op_enum_dispatches() {
        let xs: Vec<f32> = (0..12).map(|i| i as f32 * 0.25 - 1.5).collect();
        let (mut a, mut b) = (vec![0.0f32; 12], vec![0.0f32; 12]);
        FusedOp::Softmax.eval_f32(&ExactBackend, &xs, 4, &mut a);
        let _ = softmax_rows_f32(&ExactBackend, &xs, 4, &mut b);
        assert_eq!(a, b);
        FusedOp::LayerNorm { eps: 1e-5 }.eval_f32(&ExactBackend, &xs, 4, &mut a);
        let _ = layer_norm_rows_f32(&ExactBackend, &xs, 4, 1e-5, None, &mut b);
        assert_eq!(a, b);
    }
}
