//! # gqa-simd — explicit wide-lane kernels for the batch eval spine
//!
//! The hot loops of the reproduction (`Pwl::eval_sorted_batch`,
//! `ReluNet1d::forward_batch`, the grid-MSE accumulators, the tensor
//! backend's unary and row sweeps, the model matmuls) are contiguous
//! buffer sweeps. This crate supplies the explicit SIMD implementations
//! of those sweeps:
//!
//! * [`axpy_f64`] — `out[i] = k·x[i] + b`, the pwl segment kernel.
//! * [`relu_unit_accum`] — one hidden unit of the NN-LUT network swept
//!   across a buffer: `out[i] += w2·max(w1·x[i] + b1, 0)`.
//! * [`sum_sq_diff`] — the MSE accumulator `Σ (a[i] − b[i])²` with a
//!   **pinned reduction shape** (see below).
//! * [`relu_f64`] / [`hswish_f64`] / [`relu_f32`] — the branch-free unary
//!   activations of the tensor backend.
//! * [`sum_f32`] / [`sum_sq_f32`] / [`max_f32`] — the
//!   **pinned-order row reductions** of the fused softmax/LayerNorm
//!   execution layer, shared with the unfused `row_sum` / `row_mean` /
//!   `row_max_sub_detach` graph primitives so fused ≡ unfused holds bit
//!   for bit.
//! * [`sub_scalar_f32`] / [`scale_f32`] / [`norm_affine_f32`] — the
//!   element-wise row sweeps those fused kernels are assembled from.
//! * [`matmul_acc_f32`] / [`matmul_nt_f32`] / [`matmul_tn_f32`] /
//!   [`gather_stride_f32`] — the blocked, vectorized matmul kernel
//!   family behind `Graph::matmul`, im2col convolution, and fused
//!   attention, forward *and* backward. The ordered-add contract —
//!   every output element's adds in ascending inner index, aligned
//!   zero-chunk skip preserved — is what licenses tiling, B-panel
//!   packing, and vectorizing across output columns without changing a
//!   bit. [`matmul_path`] names the dispatched kernel for bench labels.
//!
//! The integer LUT datapath of Figure 1(b) has no kernel here. Its output
//! is a pure function of the input code, so `gqa-pwl` tabulates it once
//! per build (`IntLutInstance::tabulate` for the scale-dependent
//! operators, `FxpPwl::tabulate` for the DIV/RSQRT core) and serves each
//! element as one quantization and one table gather; the quant-aware
//! search fills its codes run by run (`IntLutInstance::fill_codes`).
//!
//! ## Dispatch and exactness contract
//!
//! Every public function is safe and dispatches at runtime: on x86-64 with
//! the `simd` cargo feature enabled *and* AVX2 detected on the running CPU
//! ([`simd_active`]), the intrinsic path runs; otherwise a scalar fallback
//! runs. The two paths are **bit-identical** for every input:
//!
//! * the kernels use separate multiply and add (no FMA contraction), so
//!   each element sees exactly the scalar operation sequence;
//! * [`sum_sq_diff`] does not promise "the sequential sum" — it promises a
//!   *fixed four-lane reduction order* that the scalar fallback replays
//!   exactly (stride-4 lane accumulators, `(l0+l2)+(l1+l3)` combine,
//!   sequential tail). The order is part of the function's contract, so a
//!   result computed with the feature off equals the result with it on,
//!   bit for bit.
//!
//! The ReLU kernels pin `maxpd`'s exact tie/NaN rule on both paths
//! (`z` iff `z > 0`, else `+0.0` — so `-0.0` ties and NaN inputs both
//! produce `+0.0` deterministically; `f64::max` would leave the `-0.0`
//! tie sign unspecified). NaN *payloads* remain the one documented
//! exception: [`hswish_f64`]'s clamp chain may canonicalize a NaN
//! differently than the scalar `f64::clamp` spelling, so callers must
//! treat any-NaN ≡ any-NaN — which the workspace's batch-equivalence
//! suites already do.
//!
//! The unsafe intrinsic code is confined to one module of this crate; with
//! the `simd` feature disabled the crate compiles under
//! `forbid(unsafe_code)` like the rest of the workspace.
//!
//! ## Example
//!
//! ```
//! // The pwl segment kernel: one entry's (k, b) over its run of inputs.
//! let xs = [-1.0, 0.0, 0.5, 2.0, 4.0];
//! let mut out = [0.0; 5];
//! gqa_simd::axpy_f64(0.5, 1.0, &xs, &mut out);
//! assert_eq!(out, [0.5, 1.0, 1.25, 2.0, 3.0]);
//! // The MSE accumulator, in its pinned reduction order.
//! let want = [0.5, 1.0, 1.25, 2.0, 2.0];
//! assert_eq!(gqa_simd::sum_sq_diff(&out, &want), 1.0);
//! ```

#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![deny(missing_docs)]

mod matmul;
mod scalar;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2;

pub use matmul::{gather_stride_f32, matmul_acc_f32, matmul_nt_f32, matmul_path, matmul_tn_f32};

/// Whether the AVX2 intrinsic paths will be taken on this machine
/// (`simd` feature compiled in, x86-64, AVX2 detected at runtime).
///
/// Exposed so benches can label measurements and tests can assert they
/// exercised the intended path; results never depend on it.
#[must_use]
pub fn simd_active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// `out[i] = k·xs[i] + b` (separate multiply and add — no FMA contraction,
/// so results match the scalar spelling bit for bit).
///
/// This is the pwl segment kernel: `Pwl::eval_sorted_batch` hoists one
/// `(k, b)` per entry and sweeps the contiguous run of inputs it covers.
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn axpy_f64(k: f64, b: f64, xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "batch length mismatch");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just detected.
        unsafe { avx2::axpy_f64(k, b, xs, out) };
        return;
    }
    scalar::axpy_f64(k, b, xs, out);
}

/// One ReLU hidden unit accumulated across a buffer:
/// `out[i] += w2 · max(w1·xs[i] + b1, 0)`.
///
/// `ReluNet1d::forward_batch` calls this once per hidden unit after seeding
/// `out` with the direct linear path, keeping the per-element accumulation
/// order of the scalar forward pass.
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn relu_unit_accum(w1: f64, b1: f64, w2: f64, xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "batch length mismatch");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just detected.
        unsafe { avx2::relu_unit_accum(w1, b1, w2, xs, out) };
        return;
    }
    scalar::relu_unit_accum(w1, b1, w2, xs, out);
}

/// `Σ (a[i] − b[i])²` with the pinned four-lane reduction order (see the
/// crate docs): stride-4 lane accumulators over the aligned prefix,
/// combined as `(l0 + l2) + (l1 + l3)`, then a sequential tail. The scalar
/// fallback replays this order exactly, so the result is identical with
/// the `simd` feature on or off.
///
/// This is the MSE accumulator of the grid evaluators; dividing by the
/// length is left to the caller.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
#[must_use]
pub fn sum_sq_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "batch length mismatch");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just detected.
        return unsafe { avx2::sum_sq_diff(a, b) };
    }
    scalar::sum_sq_diff(a, b)
}

/// `out[i] = max(xs[i], 0)` in `f64` (the exact-backend ReLU sweep).
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn relu_f64(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "batch length mismatch");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just detected.
        unsafe { avx2::relu_f64(xs, out) };
        return;
    }
    scalar::relu_f64(xs, out);
}

/// `out[i] = xs[i] · clamp(xs[i] + 3, 0, 6) / 6` in `f64` (the
/// exact-backend HSWISH sweep; clamp expanded as `min(max(·, 0), 6)`).
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn hswish_f64(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "batch length mismatch");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just detected.
        unsafe { avx2::hswish_f64(xs, out) };
        return;
    }
    scalar::hswish_f64(xs, out);
}

/// `out[i] = max(xs[i], 0)` in `f32` — the one unary whose native-`f32`
/// result is bit-identical to evaluating through `f64` and narrowing, so
/// the tensor fast path may skip the widening entirely.
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn relu_f32(xs: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len(), "batch length mismatch");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just detected.
        unsafe { avx2::relu_f32(xs, out) };
        return;
    }
    scalar::relu_f32(xs, out);
}

// ---------------------------------------------------------------------------
// Pinned-order row kernels (the fused softmax/LayerNorm sweep primitives).
// ---------------------------------------------------------------------------

macro_rules! dispatch {
    ($avx2:expr, $scalar:expr) => {{
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just detected; slice bounds are the
            // callee's only pointer source.
            return unsafe { $avx2 };
        }
        $scalar
    }};
}

/// Pinned-order sum of an `f32` row: stride-8 lane accumulators over the
/// aligned prefix, lanes combined pairwise as `p_j = l_j + l_{j+4}`, the
/// partials as `(p0 + p2) + (p1 + p3)`, then a sequential tail. The scalar
/// fallback replays this shape exactly, so the result is bit-identical
/// with the `simd` feature on or off. Returns `0.0` for an empty row.
///
/// This is the row-sum of the fused softmax (denominator) and LayerNorm
/// (mean) kernels — and of the unfused `row_sum`/`row_mean` graph
/// primitives, which share it so fused ≡ unfused stays `assert_eq!`-able.
#[must_use]
pub fn sum_f32(xs: &[f32]) -> f32 {
    dispatch!(avx2::sum_f32(xs), scalar::sum_f32(xs))
}

/// Pinned-order sum of squares `Σ x_i²` of an `f32` row — the same lane
/// shape as [`sum_f32`], with each element squared (separate mul, no FMA)
/// before accumulation. Summing a pre-squared buffer with [`sum_f32`]
/// yields the identical result bit for bit, which is what keeps the fused
/// LayerNorm variance equal to the unfused `mul → row_mean` assembly.
#[must_use]
pub fn sum_sq_f32(xs: &[f32]) -> f32 {
    dispatch!(avx2::sum_sq_f32(xs), scalar::sum_sq_f32(xs))
}

/// Pinned-order row max of an `f32` row with `maxps` semantics: the
/// accumulator survives only a strict compare, so ±0.0 ties and NaN
/// elements resolve to the newer operand, exactly like the vector
/// instruction (`f32::max` would leave the `-0.0` tie unspecified and
/// skip NaNs). Lane combine uses the same pair order as [`sum_f32`].
/// Returns `-∞` for an empty row.
#[must_use]
pub fn max_f32(xs: &[f32]) -> f32 {
    dispatch!(avx2::max_f32(xs), scalar::max_f32(xs))
}

/// `out[i] = xs[i] − c` — the row-shift sweep of the fused softmax
/// (subtracting the row max) and LayerNorm (subtracting the mean).
/// Element-wise, so trivially bit-identical simd on/off.
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn sub_scalar_f32(c: f32, xs: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len(), "batch length mismatch");
    dispatch!(
        avx2::sub_scalar_f32(c, xs, out),
        scalar::sub_scalar_f32(c, xs, out)
    )
}

/// `out[i] = xs[i] + c` — the broadcast bias sweep of conv/channel bias
/// (one bias value added across a whole feature plane). Element-wise, so
/// trivially bit-identical simd on/off.
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn add_scalar_f32(c: f32, xs: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len(), "batch length mismatch");
    dispatch!(
        avx2::add_scalar_f32(c, xs, out),
        scalar::add_scalar_f32(c, xs, out)
    )
}

/// `out[i] = xs[i] + ys[i]` — the per-row bias sweep of Linear layers
/// (one bias vector added to every row of a `(rows, c)` activation).
/// Element-wise, so trivially bit-identical simd on/off.
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub fn add_f32(xs: &[f32], ys: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), ys.len(), "batch length mismatch");
    assert_eq!(xs.len(), out.len(), "batch length mismatch");
    dispatch!(avx2::add_f32(xs, ys, out), scalar::add_f32(xs, ys, out))
}

/// `out[i] = xs[i] · c` — the deferred-rescale sweep of the fused softmax
/// (multiplying a row of exponentials by the reciprocal denominator).
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn scale_f32(c: f32, xs: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len(), "batch length mismatch");
    dispatch!(avx2::scale_f32(c, xs, out), scalar::scale_f32(c, xs, out))
}

/// The fused LayerNorm affine sweep over one row:
/// `out[j] = ((xs[j] · inv) · gamma[j]) + beta[j]` with separate mul/add
/// (no FMA contraction), matching the unfused
/// `mul_row → mul(γ) → add_bias_last(β)` spelling bit for bit.
///
/// # Panics
///
/// Panics if the four slice lengths differ.
pub fn norm_affine_f32(inv: f32, gamma: &[f32], beta: &[f32], xs: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len(), "batch length mismatch");
    assert_eq!(gamma.len(), xs.len(), "gamma length mismatch");
    assert_eq!(beta.len(), xs.len(), "beta length mismatch");
    dispatch!(
        avx2::norm_affine_f32(inv, gamma, beta, xs, out),
        scalar::norm_affine_f32(inv, gamma, beta, xs, out)
    )
}

// ---------------------------------------------------------------------------
// Polynomial transcendental sweeps (the exact-backend EXP/TANH/RECIP/
// RSQRT batch kernels).
// ---------------------------------------------------------------------------

/// `e^x` for a single value — the scalar twin of the [`exp_f64`] sweep,
/// a Cephes-style Cody–Waite reduction + degree-(2,3) rational in r²,
/// accurate to ~1 ulp over the full finite range. Guarantees
/// `exp_scalar(0.0) == 1.0` exactly (the fused-softmax one-element-row
/// contract), saturates to `+inf`/`0.0` outside `exp`'s dynamic range,
/// and propagates NaN.
///
/// The tensor crate's `UnaryKind::exact(Exp)` is defined as this
/// function, so scalar ground truth, the batched sweep, and the AVX2
/// path all agree bit for bit.
#[must_use]
pub fn exp_scalar(x: f64) -> f64 {
    scalar::exp_scalar(x)
}

/// `tanh(x)` for a single value — the scalar twin of the [`tanh_f64`]
/// sweep: a rational in x² below 0.625, the `1 − 2/(e^{2|x|}+1)` form
/// (sharing [`exp_scalar`]'s core) above. Preserves ±0.0 and saturates
/// to ±1.0 exactly, including at ±inf.
#[must_use]
pub fn tanh_scalar(x: f64) -> f64 {
    scalar::tanh_scalar(x)
}

/// `out[i] = e^(xs[i])` — the exact-backend EXP sweep. The AVX2 path
/// replays [`exp_scalar`]'s operation sequence lane for lane (range and
/// NaN branches become blends), so simd on/off agree bit for bit.
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn exp_f64(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "batch length mismatch");
    dispatch!(avx2::exp_f64(xs, out), scalar::exp_f64(xs, out))
}

/// `out[i] = tanh(xs[i])` — the exact-backend TANH sweep (AVX2 twin of
/// [`tanh_scalar`], bit-identical simd on/off).
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn tanh_f64(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "batch length mismatch");
    dispatch!(avx2::tanh_f64(xs, out), scalar::tanh_f64(xs, out))
}

/// `out[i] = 1 / xs[i]` — the exact-backend RECIP sweep. IEEE division
/// is exactly rounded, so the vector path is bit-identical to the scalar
/// spelling for every input.
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn recip_f64(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "batch length mismatch");
    dispatch!(avx2::recip_f64(xs, out), scalar::recip_f64(xs, out))
}

/// `out[i] = 1 / √(xs[i])` — the exact-backend RSQRT sweep. Spelled
/// `div(1, sqrt(x))` on both paths (never a hardware rsqrt estimate);
/// sqrt and div are exactly rounded, so simd on/off agree bit for bit.
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn rsqrt_f64(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "batch length mismatch");
    dispatch!(avx2::rsqrt_f64(xs, out), scalar::rsqrt_f64(xs, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xs_f64(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 - n as f64 / 2.0) * 0.37).collect()
    }

    #[test]
    fn axpy_f64_matches_scalar_spelling() {
        for n in [0usize, 1, 3, 4, 7, 8, 33, 100] {
            let xs = xs_f64(n);
            let mut out = vec![0.0; n];
            axpy_f64(0.71875, -0.125, &xs, &mut out);
            for (&x, &y) in xs.iter().zip(&out) {
                assert_eq!(y.to_bits(), (0.71875 * x + -0.125).to_bits());
            }
        }
    }

    #[test]
    fn relu_unit_accumulates_in_place() {
        for n in [1usize, 4, 6, 50] {
            let xs = xs_f64(n);
            let mut out: Vec<f64> = xs.iter().map(|x| 0.25 * x).collect();
            let mut want = out.clone();
            relu_unit_accum(1.5, -0.3, 2.0, &xs, &mut out);
            for (w, &x) in want.iter_mut().zip(&xs) {
                *w += 2.0 * (1.5 * x + -0.3).max(0.0);
            }
            for (y, w) in out.iter().zip(&want) {
                assert_eq!(y.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn sum_sq_diff_matches_pinned_order() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 801] {
            let a = xs_f64(n);
            let b: Vec<f64> = a.iter().map(|v| v * 0.9 + 0.01).collect();
            let got = sum_sq_diff(&a, &b);
            // Replay the documented reduction shape by hand.
            let n4 = n - n % 4;
            let mut lanes = [0.0f64; 4];
            for c in a[..n4].chunks_exact(4).zip(b[..n4].chunks_exact(4)) {
                #[allow(clippy::needless_range_loop)] // l indexes three views
                for l in 0..4 {
                    let d = c.0[l] - c.1[l];
                    lanes[l] += d * d;
                }
            }
            let mut want = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
            for (&x, &y) in a[n4..].iter().zip(&b[n4..]) {
                let d = x - y;
                want += d * d;
            }
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn unary_sweeps_match_scalar() {
        let xs = xs_f64(101);
        let mut out = vec![0.0; xs.len()];
        relu_f64(&xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            assert_eq!(y.to_bits(), x.max(0.0).to_bits());
        }
        hswish_f64(&xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            let want = x * (x + 3.0).clamp(0.0, 6.0) / 6.0;
            assert_eq!(y.to_bits(), want.to_bits());
        }
        let xs32: Vec<f32> = xs.iter().map(|&v| v as f32).collect();
        let mut out32 = vec![0.0f32; xs32.len()];
        relu_f32(&xs32, &mut out32);
        for (&x, &y) in xs32.iter().zip(&out32) {
            assert_eq!(y.to_bits(), x.max(0.0).to_bits());
            // And the f64 round trip agrees, which is what lets the tensor
            // fast path use the native kernel.
            assert_eq!(y.to_bits(), (f64::from(x).max(0.0) as f32).to_bits());
        }
    }

    #[test]
    fn sum_f32_matches_pinned_order() {
        for n in [0usize, 1, 7, 8, 9, 16, 23, 801] {
            let xs: Vec<f32> = (0..n)
                .map(|i| (i as f32 - n as f32 / 2.0) * 0.173)
                .collect();
            let got = sum_f32(&xs);
            // Replay the documented eight-lane reduction shape by hand.
            let n8 = n - n % 8;
            let mut lanes = [0.0f32; 8];
            for c in xs[..n8].chunks_exact(8) {
                for (l, &x) in lanes.iter_mut().zip(c) {
                    *l += x;
                }
            }
            let p = [
                lanes[0] + lanes[4],
                lanes[1] + lanes[5],
                lanes[2] + lanes[6],
                lanes[3] + lanes[7],
            ];
            let mut want = (p[0] + p[2]) + (p[1] + p[3]);
            for &x in &xs[n8..] {
                want += x;
            }
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}");

            // Squares: sum_sq over the raw row equals sum over the
            // pre-squared row, bit for bit (the LayerNorm variance
            // contract).
            let sq: Vec<f32> = xs.iter().map(|&x| x * x).collect();
            assert_eq!(sum_sq_f32(&xs).to_bits(), sum_f32(&sq).to_bits(), "n={n}");
        }
    }

    #[test]
    fn max_f32_pins_maxps_semantics() {
        let xs: Vec<f32> = (0..57).map(|i| ((i * 37) % 53) as f32 - 26.0).collect();
        assert_eq!(max_f32(&xs), 26.0);
        assert_eq!(max_f32(&[]), f32::NEG_INFINITY);
        // ±0.0 tie resolves like maxps: the later operand wins the strict
        // compare, so a row of -0.0 then +0.0 yields +0.0 …
        assert_eq!(max_f32(&[-0.0, 0.0]).to_bits(), 0.0f32.to_bits());
        // … and NaN inputs propagate per the strict-compare rule (the last
        // element dominates when nothing compares greater).
        assert!(max_f32(&[1.0, f32::NAN]).is_nan());
        assert_eq!(max_f32(&[f32::NAN, 1.0]), 1.0);
    }

    #[test]
    fn elementwise_row_sweeps_match_scalar_spelling() {
        let n = 37;
        let xs32: Vec<f32> = (0..n).map(|i| (i as f32 - 17.0) * 0.31).collect();
        let mut out32 = vec![0.0f32; n];
        sub_scalar_f32(0.625, &xs32, &mut out32);
        for (&x, &y) in xs32.iter().zip(&out32) {
            assert_eq!(y.to_bits(), (x - 0.625).to_bits());
        }
        scale_f32(1.7, &xs32, &mut out32);
        for (&x, &y) in xs32.iter().zip(&out32) {
            assert_eq!(y.to_bits(), (x * 1.7).to_bits());
        }
        let gamma: Vec<f32> = (0..n).map(|i| 1.0 + i as f32 * 0.01).collect();
        let beta: Vec<f32> = (0..n).map(|i| i as f32 * 0.02 - 0.3).collect();
        norm_affine_f32(0.8, &gamma, &beta, &xs32, &mut out32);
        for j in 0..n {
            let want = ((xs32[j] * 0.8) * gamma[j]) + beta[j];
            assert_eq!(out32[j].to_bits(), want.to_bits(), "j={j}");
        }
    }

    /// Inputs that walk every branch of the transcendental kernels: both
    /// sides of the tanh split and the exp range limits, ±0, ±inf,
    /// subnormals, and a dense sweep of ordinary magnitudes.
    fn transcendental_probe() -> Vec<f64> {
        let mut xs: Vec<f64> = (0..512).map(|i| (i as f64 - 256.0) * 0.173).collect();
        xs.extend_from_slice(&[
            0.0,
            -0.0,
            0.625,
            -0.625,
            0.6249999,
            709.0,
            709.782712893384,
            710.0,
            -708.0,
            -708.3964185322641,
            -709.0,
            -746.0,
            1e-300,
            -1e-300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
        ]);
        xs
    }

    #[test]
    fn exp_sweep_matches_scalar_twin_and_reference() {
        let xs = transcendental_probe();
        let mut out = vec![0.0f64; xs.len()];
        exp_f64(&xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            // Dispatched sweep ≡ scalar twin, bit for bit.
            assert_eq!(y.to_bits(), exp_scalar(x).to_bits(), "x={x}");
            // And the twin stays within 1 ulp of libm wherever the result
            // is normal. (Below EXP_MIN the kernel flushes to 0.0 where
            // libm still produces subnormals — the documented saturation.)
            let want = x.exp();
            if want.is_normal() {
                let d = (y.to_bits() as i64 - want.to_bits() as i64).abs();
                assert!(d <= 1, "x={x}: {y} vs {want} ({d} ulps)");
            } else if want.is_infinite() {
                assert_eq!(y.to_bits(), want.to_bits(), "x={x}");
            }
        }
        assert_eq!(exp_scalar(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp_scalar(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp_scalar(f64::NEG_INFINITY).to_bits(), 0.0f64.to_bits());
        assert!(exp_scalar(f64::NAN).is_nan());
    }

    #[test]
    fn tanh_sweep_matches_scalar_twin_and_reference() {
        let xs = transcendental_probe();
        let mut out = vec![0.0f64; xs.len()];
        tanh_f64(&xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            assert_eq!(y.to_bits(), tanh_scalar(x).to_bits(), "x={x}");
            let want = x.tanh();
            if want.is_finite() && want.abs() < 1.0 && want != 0.0 {
                let d = (y.to_bits() as i64 - want.to_bits() as i64).abs();
                assert!(d <= 2, "x={x}: {y} vs {want} ({d} ulps)");
            }
        }
        // Sign-preserving zeros, exact saturation, NaN propagation.
        assert_eq!(tanh_scalar(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh_scalar(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(tanh_scalar(f64::INFINITY).to_bits(), 1.0f64.to_bits());
        assert_eq!(
            tanh_scalar(f64::NEG_INFINITY).to_bits(),
            (-1.0f64).to_bits()
        );
        assert!(tanh_scalar(f64::NAN).is_nan());
    }

    #[test]
    fn recip_rsqrt_sweeps_match_scalar_spelling() {
        let mut xs = transcendental_probe();
        xs.retain(|x| !x.is_nan());
        let mut out = vec![0.0f64; xs.len()];
        recip_f64(&xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            assert_eq!(y.to_bits(), (1.0 / x).to_bits(), "x={x}");
        }
        rsqrt_f64(&xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            let want = 1.0 / x.sqrt();
            if want.is_nan() {
                assert!(y.is_nan(), "x={x}");
            } else {
                assert_eq!(y.to_bits(), want.to_bits(), "x={x}");
            }
        }
    }

    /// Every dispatched kernel must agree with the scalar module bit for
    /// bit on this machine, whichever path runs.
    #[test]
    fn dispatch_agrees_with_scalar_module() {
        let xs = xs_f64(97);
        let (mut a, mut b) = (vec![0.0; 97], vec![0.0; 97]);
        axpy_f64(1.1, 2.2, &xs, &mut a);
        scalar::axpy_f64(1.1, 2.2, &xs, &mut b);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));

        assert_eq!(
            sum_sq_diff(&xs, &a).to_bits(),
            scalar::sum_sq_diff(&xs, &a).to_bits()
        );

        // The pinned row-reduction kernels, whichever path dispatched.
        let xs32: Vec<f32> = xs.iter().map(|&v| v as f32).collect();
        assert_eq!(sum_f32(&xs32).to_bits(), scalar::sum_f32(&xs32).to_bits());
        assert_eq!(
            sum_sq_f32(&xs32).to_bits(),
            scalar::sum_sq_f32(&xs32).to_bits()
        );
        assert_eq!(max_f32(&xs32).to_bits(), scalar::max_f32(&xs32).to_bits());
        let (mut a32, mut b32) = (vec![0.0f32; 97], vec![0.0f32; 97]);
        sub_scalar_f32(0.3, &xs32, &mut a32);
        scalar::sub_scalar_f32(0.3, &xs32, &mut b32);
        assert!(a32
            .iter()
            .zip(&b32)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        scale_f32(0.3, &xs32, &mut a32);
        scalar::scale_f32(0.3, &xs32, &mut b32);
        assert!(a32
            .iter()
            .zip(&b32)
            .all(|(x, y)| x.to_bits() == y.to_bits()));

        // The transcendental sweeps, whichever path dispatched.
        let probe = transcendental_probe();
        let (mut ta, mut tb) = (vec![0.0; probe.len()], vec![0.0; probe.len()]);
        for (disp, sc) in [
            (
                exp_f64 as fn(&[f64], &mut [f64]),
                scalar::exp_f64 as fn(&[f64], &mut [f64]),
            ),
            (tanh_f64, scalar::tanh_f64),
            (recip_f64, scalar::recip_f64),
            (rsqrt_f64, scalar::rsqrt_f64),
        ] {
            disp(&probe, &mut ta);
            sc(&probe, &mut tb);
            for ((&x, &a), &b) in probe.iter().zip(&ta).zip(&tb) {
                if a.is_nan() && b.is_nan() {
                    continue; // payloads excepted, as documented
                }
                assert_eq!(a.to_bits(), b.to_bits(), "x={x}");
            }
        }
    }
}
