//! AVX2 intrinsic implementations.
//!
//! # Safety
//!
//! Every function here is `#[target_feature(enable = "avx2")]` and must
//! only be called after `is_x86_feature_detected!("avx2")` returned true
//! (the dispatchers in `lib.rs` do exactly that). Pointer arithmetic stays
//! inside the slice bounds the dispatchers validate; no kernel gathers.
//!
//! Exactness: the kernels use separate `mul`/`add` (never FMA), and
//! `max`/`min` where the scalar spelling uses `f64::max`/`clamp` — all
//! bit-identical to the `scalar` module (NaN payloads excepted, see crate
//! docs).

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m256, __m256d, _mm256_add_pd, _mm256_add_ps, _mm256_and_pd, _mm256_andnot_pd,
    _mm256_blendv_pd, _mm256_castpd256_pd128, _mm256_castps256_ps128, _mm256_castsi256_pd,
    _mm256_cmp_pd, _mm256_cvtepi32_epi64, _mm256_cvtpd_epi32, _mm256_div_pd, _mm256_extractf128_pd,
    _mm256_extractf128_ps, _mm256_floor_pd, _mm256_loadu_pd, _mm256_loadu_ps, _mm256_max_pd,
    _mm256_max_ps, _mm256_min_pd, _mm256_mul_pd, _mm256_mul_ps, _mm256_or_pd, _mm256_set1_pd,
    _mm256_set1_ps, _mm256_setzero_pd, _mm256_setzero_ps, _mm256_slli_epi64, _mm256_sqrt_pd,
    _mm256_storeu_pd, _mm256_storeu_ps, _mm256_sub_pd, _mm256_sub_ps, _mm_add_epi32, _mm_add_pd,
    _mm_add_ps, _mm_add_ss, _mm_cvtsd_f64, _mm_cvtss_f32, _mm_max_ps, _mm_max_ss, _mm_movehl_ps,
    _mm_set1_epi32, _mm_shuffle_ps, _mm_srai_epi32, _mm_sub_epi32, _mm_unpackhi_pd, _CMP_EQ_OQ,
    _CMP_GE_OQ, _CMP_GT_OQ, _CMP_LT_OQ, _CMP_UNORD_Q,
};

use crate::scalar;

#[target_feature(enable = "avx2")]
pub unsafe fn axpy_f64(k: f64, b: f64, xs: &[f64], out: &mut [f64]) {
    let n = xs.len();
    let kv = _mm256_set1_pd(k);
    let bv = _mm256_set1_pd(b);
    let mut i = 0usize;
    while i + 4 <= n {
        let x = _mm256_loadu_pd(xs.as_ptr().add(i));
        let y = _mm256_add_pd(_mm256_mul_pd(kv, x), bv);
        _mm256_storeu_pd(out.as_mut_ptr().add(i), y);
        i += 4;
    }
    while i < n {
        *out.get_unchecked_mut(i) = k * *xs.get_unchecked(i) + b;
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub unsafe fn relu_unit_accum(w1: f64, b1: f64, w2: f64, xs: &[f64], out: &mut [f64]) {
    let n = xs.len();
    let w1v = _mm256_set1_pd(w1);
    let b1v = _mm256_set1_pd(b1);
    let w2v = _mm256_set1_pd(w2);
    let zero = _mm256_setzero_pd();
    let mut i = 0usize;
    while i + 4 <= n {
        let x = _mm256_loadu_pd(xs.as_ptr().add(i));
        let z = _mm256_add_pd(_mm256_mul_pd(w1v, x), b1v);
        let r = _mm256_max_pd(z, zero);
        let y = _mm256_loadu_pd(out.as_ptr().add(i));
        let y = _mm256_add_pd(y, _mm256_mul_pd(w2v, r));
        _mm256_storeu_pd(out.as_mut_ptr().add(i), y);
        i += 4;
    }
    while i < n {
        let z = w1 * *xs.get_unchecked(i) + b1;
        // Tail matches the maxpd tie/NaN semantics of the vector body.
        *out.get_unchecked_mut(i) += w2 * if z > 0.0 { z } else { 0.0 };
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub unsafe fn sum_sq_diff(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let n4 = n - n % 4;
    // Lane l of `accv` is the stride-4 accumulator for elements l, l+4, …
    // — exactly the `lanes` array of the scalar module.
    let mut accv = _mm256_setzero_pd();
    let mut i = 0usize;
    while i < n4 {
        let xa = _mm256_loadu_pd(a.as_ptr().add(i));
        let xb = _mm256_loadu_pd(b.as_ptr().add(i));
        let d = _mm256_sub_pd(xa, xb);
        accv = _mm256_add_pd(accv, _mm256_mul_pd(d, d));
        i += 4;
    }
    // (l0 + l2) + (l1 + l3): low128 + high128, then horizontal add.
    let lo = _mm256_castpd256_pd128(accv);
    let hi = _mm256_extractf128_pd::<1>(accv);
    let pair = _mm_add_pd(lo, hi); // [l0+l2, l1+l3]
    let mut acc = _mm_cvtsd_f64(_mm_add_pd(pair, _mm_unpackhi_pd(pair, pair)));
    for j in n4..n {
        let d = *a.get_unchecked(j) - *b.get_unchecked(j);
        acc += d * d;
    }
    acc
}

#[target_feature(enable = "avx2")]
pub unsafe fn relu_f64(xs: &[f64], out: &mut [f64]) {
    let n = xs.len();
    let zero = _mm256_setzero_pd();
    let mut i = 0usize;
    while i + 4 <= n {
        let x = _mm256_loadu_pd(xs.as_ptr().add(i));
        _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_max_pd(x, zero));
        i += 4;
    }
    while i < n {
        let x = *xs.get_unchecked(i);
        // Tail matches the maxpd tie/NaN semantics of the vector body.
        *out.get_unchecked_mut(i) = if x > 0.0 { x } else { 0.0 };
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub unsafe fn hswish_f64(xs: &[f64], out: &mut [f64]) {
    let n = xs.len();
    let zero = _mm256_setzero_pd();
    let three = _mm256_set1_pd(3.0);
    let six = _mm256_set1_pd(6.0);
    let mut i = 0usize;
    while i + 4 <= n {
        let x = _mm256_loadu_pd(xs.as_ptr().add(i));
        let t = _mm256_min_pd(_mm256_max_pd(_mm256_add_pd(x, three), zero), six);
        // x · t / 6, matching the scalar op order (mul then div). The
        // divide by the constant 6 stays a divide — ·(1/6) would not
        // round identically.
        let y = _mm256_div_pd(_mm256_mul_pd(x, t), six);
        _mm256_storeu_pd(out.as_mut_ptr().add(i), y);
        i += 4;
    }
    while i < n {
        let x = *xs.get_unchecked(i);
        *out.get_unchecked_mut(i) = x * (x + 3.0).clamp(0.0, 6.0) / 6.0;
        i += 1;
    }
}

/// Horizontal combine of eight f32 lane accumulators in the pinned order:
/// `(p0 + p2) + (p1 + p3)` over `p_j = l_j + l_{j+4}`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum_f32(accv: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(accv);
    let hi = _mm256_extractf128_ps::<1>(accv);
    let p = _mm_add_ps(lo, hi); // [l0+l4, l1+l5, l2+l6, l3+l7]
    let q = _mm_add_ps(p, _mm_movehl_ps(p, p)); // [p0+p2, p1+p3, ..]
    _mm_cvtss_f32(_mm_add_ss(q, _mm_shuffle_ps::<1>(q, q)))
}

/// Horizontal maxps combine of eight f32 lanes in the same pair order as
/// [`hsum_f32`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hmax_f32(accv: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(accv);
    let hi = _mm256_extractf128_ps::<1>(accv);
    let p = _mm_max_ps(lo, hi);
    let q = _mm_max_ps(p, _mm_movehl_ps(p, p));
    _mm_cvtss_f32(_mm_max_ss(q, _mm_shuffle_ps::<1>(q, q)))
}

#[target_feature(enable = "avx2")]
pub unsafe fn sum_f32(xs: &[f32]) -> f32 {
    let n = xs.len();
    let n8 = n - n % 8;
    let mut accv = _mm256_setzero_ps();
    let mut i = 0usize;
    while i < n8 {
        accv = _mm256_add_ps(accv, _mm256_loadu_ps(xs.as_ptr().add(i)));
        i += 8;
    }
    let mut acc = hsum_f32(accv);
    for j in n8..n {
        acc += *xs.get_unchecked(j);
    }
    acc
}

#[target_feature(enable = "avx2")]
pub unsafe fn sum_sq_f32(xs: &[f32]) -> f32 {
    let n = xs.len();
    let n8 = n - n % 8;
    let mut accv = _mm256_setzero_ps();
    let mut i = 0usize;
    while i < n8 {
        let x = _mm256_loadu_ps(xs.as_ptr().add(i));
        accv = _mm256_add_ps(accv, _mm256_mul_ps(x, x));
        i += 8;
    }
    let mut acc = hsum_f32(accv);
    for j in n8..n {
        let x = *xs.get_unchecked(j);
        acc += x * x;
    }
    acc
}

#[target_feature(enable = "avx2")]
pub unsafe fn max_f32(xs: &[f32]) -> f32 {
    let n = xs.len();
    let n8 = n - n % 8;
    let mut accv = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut i = 0usize;
    while i < n8 {
        accv = _mm256_max_ps(accv, _mm256_loadu_ps(xs.as_ptr().add(i)));
        i += 8;
    }
    let mut acc = hmax_f32(accv);
    for j in n8..n {
        acc = crate::scalar::maxps(acc, *xs.get_unchecked(j));
    }
    acc
}

#[target_feature(enable = "avx2")]
pub unsafe fn sub_scalar_f32(c: f32, xs: &[f32], out: &mut [f32]) {
    let n = xs.len();
    let cv = _mm256_set1_ps(c);
    let mut i = 0usize;
    while i + 8 <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(i));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_sub_ps(x, cv));
        i += 8;
    }
    while i < n {
        *out.get_unchecked_mut(i) = *xs.get_unchecked(i) - c;
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub unsafe fn add_scalar_f32(c: f32, xs: &[f32], out: &mut [f32]) {
    let n = xs.len();
    let cv = _mm256_set1_ps(c);
    let mut i = 0usize;
    while i + 8 <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(i));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_add_ps(x, cv));
        i += 8;
    }
    while i < n {
        *out.get_unchecked_mut(i) = *xs.get_unchecked(i) + c;
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub unsafe fn add_f32(xs: &[f32], ys: &[f32], out: &mut [f32]) {
    let n = xs.len();
    let mut i = 0usize;
    while i + 8 <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(i));
        let y = _mm256_loadu_ps(ys.as_ptr().add(i));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_add_ps(x, y));
        i += 8;
    }
    while i < n {
        *out.get_unchecked_mut(i) = *xs.get_unchecked(i) + *ys.get_unchecked(i);
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub unsafe fn scale_f32(c: f32, xs: &[f32], out: &mut [f32]) {
    let n = xs.len();
    let cv = _mm256_set1_ps(c);
    let mut i = 0usize;
    while i + 8 <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(i));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_mul_ps(x, cv));
        i += 8;
    }
    while i < n {
        *out.get_unchecked_mut(i) = *xs.get_unchecked(i) * c;
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub unsafe fn norm_affine_f32(inv: f32, gamma: &[f32], beta: &[f32], xs: &[f32], out: &mut [f32]) {
    let n = xs.len();
    let iv = _mm256_set1_ps(inv);
    let mut i = 0usize;
    while i + 8 <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(i));
        let g = _mm256_loadu_ps(gamma.as_ptr().add(i));
        let b = _mm256_loadu_ps(beta.as_ptr().add(i));
        // ((x·inv)·γ) + β with separate mul/add — no FMA contraction.
        let y = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(x, iv), g), b);
        _mm256_storeu_ps(out.as_mut_ptr().add(i), y);
        i += 8;
    }
    while i < n {
        *out.get_unchecked_mut(i) =
            ((*xs.get_unchecked(i) * inv) * *gamma.get_unchecked(i)) + *beta.get_unchecked(i);
        i += 1;
    }
}

/// Vector twin of [`scalar::exp_scalar`]: the same mul/add/div sequence
/// on four lanes, with the scalar wrapper's range/NaN branches replayed
/// as blends. Lanes outside `[EXP_MIN, EXP_MAX]` run garbage through the
/// core and are overwritten by the blends, exactly like the scalar early
/// returns skip the core.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn exp_pd(x: __m256d) -> __m256d {
    let one = _mm256_set1_pd(1.0);
    let px = _mm256_floor_pd(_mm256_add_pd(
        _mm256_mul_pd(_mm256_set1_pd(scalar::LOG2E), x),
        _mm256_set1_pd(0.5),
    ));
    // `px` is an exact integer, so the round-to-nearest cvt equals the
    // scalar `as i32` truncation on every non-blended lane.
    let n32 = _mm256_cvtpd_epi32(px);
    let r = _mm256_sub_pd(x, _mm256_mul_pd(px, _mm256_set1_pd(scalar::LN2_HI)));
    let r = _mm256_sub_pd(r, _mm256_mul_pd(px, _mm256_set1_pd(scalar::LN2_LO)));
    let rr = _mm256_mul_pd(r, r);
    let p = _mm256_add_pd(
        _mm256_mul_pd(_mm256_set1_pd(scalar::EXP_P[0]), rr),
        _mm256_set1_pd(scalar::EXP_P[1]),
    );
    let p = _mm256_add_pd(_mm256_mul_pd(p, rr), _mm256_set1_pd(scalar::EXP_P[2]));
    let p = _mm256_mul_pd(p, r);
    let q = _mm256_add_pd(
        _mm256_mul_pd(_mm256_set1_pd(scalar::EXP_Q[0]), rr),
        _mm256_set1_pd(scalar::EXP_Q[1]),
    );
    let q = _mm256_add_pd(_mm256_mul_pd(q, rr), _mm256_set1_pd(scalar::EXP_Q[2]));
    let q = _mm256_add_pd(_mm256_mul_pd(q, rr), _mm256_set1_pd(scalar::EXP_Q[3]));
    let e = _mm256_add_pd(
        one,
        _mm256_mul_pd(_mm256_set1_pd(2.0), _mm256_div_pd(p, _mm256_sub_pd(q, p))),
    );
    // ·2ⁿ in the scalar core's two exponent-field steps.
    let k1 = _mm_srai_epi32::<1>(n32);
    let k2 = _mm_sub_epi32(n32, k1);
    let bias = _mm_set1_epi32(1023);
    let s1 = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_cvtepi32_epi64(
        _mm_add_epi32(k1, bias),
    )));
    let s2 = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_cvtepi32_epi64(
        _mm_add_epi32(k2, bias),
    )));
    let core = _mm256_mul_pd(_mm256_mul_pd(e, s1), s2);
    let over = _mm256_cmp_pd::<_CMP_GT_OQ>(x, _mm256_set1_pd(scalar::EXP_MAX));
    let under = _mm256_cmp_pd::<_CMP_LT_OQ>(x, _mm256_set1_pd(scalar::EXP_MIN));
    let nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(x, x);
    let y = _mm256_blendv_pd(core, _mm256_set1_pd(f64::INFINITY), over);
    let y = _mm256_blendv_pd(y, _mm256_setzero_pd(), under);
    _mm256_blendv_pd(y, x, nan)
}

/// Vector twin of [`scalar::tanh_scalar`]: both branches computed on all
/// lanes, selected by blends in the scalar wrapper's order (split point,
/// exact zero, NaN).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tanh_pd(x: __m256d) -> __m256d {
    let sign_mask = _mm256_set1_pd(-0.0);
    let sign = _mm256_and_pd(x, sign_mask);
    let z = _mm256_andnot_pd(sign_mask, x);
    // Small-argument branch: rational in s = x².
    let s = _mm256_mul_pd(x, x);
    let pn = _mm256_add_pd(
        _mm256_mul_pd(_mm256_set1_pd(scalar::TANH_P[0]), s),
        _mm256_set1_pd(scalar::TANH_P[1]),
    );
    let pn = _mm256_add_pd(_mm256_mul_pd(pn, s), _mm256_set1_pd(scalar::TANH_P[2]));
    let qd = _mm256_add_pd(s, _mm256_set1_pd(scalar::TANH_Q[0]));
    let qd = _mm256_add_pd(_mm256_mul_pd(qd, s), _mm256_set1_pd(scalar::TANH_Q[1]));
    let qd = _mm256_add_pd(_mm256_mul_pd(qd, s), _mm256_set1_pd(scalar::TANH_Q[2]));
    let small = _mm256_add_pd(x, _mm256_mul_pd(_mm256_mul_pd(x, s), _mm256_div_pd(pn, qd)));
    // Large-argument branch: 1 − 2/(e^{2z}+1); r > 0, so restoring the
    // sign is exactly the scalar `-r` sign-bit flip.
    let one = _mm256_set1_pd(1.0);
    let e = exp_pd(_mm256_add_pd(z, z));
    let r = _mm256_sub_pd(
        one,
        _mm256_div_pd(_mm256_set1_pd(2.0), _mm256_add_pd(e, one)),
    );
    let big = _mm256_or_pd(r, sign);
    let use_big = _mm256_cmp_pd::<_CMP_GE_OQ>(z, _mm256_set1_pd(scalar::TANH_SPLIT));
    let zero = _mm256_cmp_pd::<_CMP_EQ_OQ>(x, _mm256_setzero_pd());
    let nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(x, x);
    let y = _mm256_blendv_pd(small, big, use_big);
    let y = _mm256_blendv_pd(y, x, zero);
    _mm256_blendv_pd(y, x, nan)
}

#[target_feature(enable = "avx2")]
pub unsafe fn exp_f64(xs: &[f64], out: &mut [f64]) {
    let n = xs.len();
    let mut i = 0usize;
    while i + 4 <= n {
        let x = _mm256_loadu_pd(xs.as_ptr().add(i));
        _mm256_storeu_pd(out.as_mut_ptr().add(i), exp_pd(x));
        i += 4;
    }
    while i < n {
        *out.get_unchecked_mut(i) = scalar::exp_scalar(*xs.get_unchecked(i));
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub unsafe fn tanh_f64(xs: &[f64], out: &mut [f64]) {
    let n = xs.len();
    let mut i = 0usize;
    while i + 4 <= n {
        let x = _mm256_loadu_pd(xs.as_ptr().add(i));
        _mm256_storeu_pd(out.as_mut_ptr().add(i), tanh_pd(x));
        i += 4;
    }
    while i < n {
        *out.get_unchecked_mut(i) = scalar::tanh_scalar(*xs.get_unchecked(i));
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub unsafe fn recip_f64(xs: &[f64], out: &mut [f64]) {
    let n = xs.len();
    let one = _mm256_set1_pd(1.0);
    let mut i = 0usize;
    while i + 4 <= n {
        let x = _mm256_loadu_pd(xs.as_ptr().add(i));
        // IEEE division is exactly rounded, so this is bit-identical to
        // the scalar `1.0 / x` for every input.
        _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_div_pd(one, x));
        i += 4;
    }
    while i < n {
        *out.get_unchecked_mut(i) = 1.0 / *xs.get_unchecked(i);
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub unsafe fn rsqrt_f64(xs: &[f64], out: &mut [f64]) {
    let n = xs.len();
    let one = _mm256_set1_pd(1.0);
    let mut i = 0usize;
    while i + 4 <= n {
        let x = _mm256_loadu_pd(xs.as_ptr().add(i));
        // sqrt and div are both exactly rounded — no rsqrt estimate here,
        // which would diverge from the scalar `1.0 / x.sqrt()`.
        _mm256_storeu_pd(
            out.as_mut_ptr().add(i),
            _mm256_div_pd(one, _mm256_sqrt_pd(x)),
        );
        i += 4;
    }
    while i < n {
        *out.get_unchecked_mut(i) = 1.0 / (*xs.get_unchecked(i)).sqrt();
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub unsafe fn relu_f32(xs: &[f32], out: &mut [f32]) {
    let n = xs.len();
    let zero = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 8 <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(i));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_max_ps(x, zero));
        i += 8;
    }
    while i < n {
        let x = *xs.get_unchecked(i);
        // Tail matches the maxps tie/NaN semantics of the vector body.
        *out.get_unchecked_mut(i) = if x > 0.0 { x } else { 0.0 };
        i += 1;
    }
}
