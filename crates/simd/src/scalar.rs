//! Scalar reference implementations of every kernel.
//!
//! These are not "slow paths" semantically: they *define* the results. The
//! AVX2 module mirrors each operation sequence exactly (separate mul/add,
//! the pinned four-lane reduction of [`sum_sq_diff`]), and the crate tests
//! assert bit-equality between the two modules on AVX2 machines.

pub fn axpy_f64(k: f64, b: f64, xs: &[f64], out: &mut [f64]) {
    for (y, &x) in out.iter_mut().zip(xs) {
        *y = k * x + b;
    }
}

/// `max(z, 0)` spelled to match `maxpd(z, 0)` bit for bit on every input:
/// `z` iff `z > 0`, else the second operand `+0.0` (ties at ±0.0 and NaN
/// both yield `+0.0`, exactly like the vector instruction — `f64::max`
/// would leave the sign of a `-0.0` tie unspecified).
#[inline]
fn relu_scalar(z: f64) -> f64 {
    if z > 0.0 {
        z
    } else {
        0.0
    }
}

pub fn relu_unit_accum(w1: f64, b1: f64, w2: f64, xs: &[f64], out: &mut [f64]) {
    for (y, &x) in out.iter_mut().zip(xs) {
        let z = w1 * x + b1;
        *y += w2 * relu_scalar(z);
    }
}

pub fn sum_sq_diff(a: &[f64], b: &[f64]) -> f64 {
    // Pinned reduction shape (see crate docs): four stride-4 lane
    // accumulators, (l0+l2)+(l1+l3) combine, sequential tail.
    let n4 = a.len() - a.len() % 4;
    let mut lanes = [0.0f64; 4];
    for (ca, cb) in a[..n4].chunks_exact(4).zip(b[..n4].chunks_exact(4)) {
        for l in 0..4 {
            let d = ca[l] - cb[l];
            lanes[l] += d * d;
        }
    }
    let mut acc = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    for (&x, &y) in a[n4..].iter().zip(&b[n4..]) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

pub fn relu_f64(xs: &[f64], out: &mut [f64]) {
    for (y, &x) in out.iter_mut().zip(xs) {
        *y = relu_scalar(x);
    }
}

pub fn hswish_f64(xs: &[f64], out: &mut [f64]) {
    for (y, &x) in out.iter_mut().zip(xs) {
        *y = x * (x + 3.0).clamp(0.0, 6.0) / 6.0;
    }
}

pub fn relu_f32(xs: &[f32], out: &mut [f32]) {
    for (y, &x) in out.iter_mut().zip(xs) {
        // Same maxps tie/NaN semantics as `relu_scalar`.
        *y = if x > 0.0 { x } else { 0.0 };
    }
}

// ---------------------------------------------------------------------------
// Pinned-order row reductions (the fused softmax/LayerNorm kernels).
//
// The kernels replay the eight-lane AVX2 shape: stride-8 lane
// accumulators over the aligned prefix, lanes combined pairwise as
// (l_j ⊕ l_{j+4}) for j = 0..4, those four partials combined as
// (p0 ⊕ p2) ⊕ (p1 ⊕ p3), then a sequential tail. The order is the
// contract — simd on/off must agree bit for bit.
// ---------------------------------------------------------------------------

/// `maxps` semantics: the accumulator wins only on a strict compare, so
/// ties at ±0.0 and NaN elements resolve to the second operand — exactly
/// the vector instruction's rule. `pub(crate)` so the AVX2 module's tail
/// loops reuse the one definition (a divergence here would split the
/// simd-on/simd-off contract).
#[inline]
pub(crate) fn maxps(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

pub fn sum_f32(xs: &[f32]) -> f32 {
    let n8 = xs.len() - xs.len() % 8;
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
    let mut acc = (p[0] + p[2]) + (p[1] + p[3]);
    for &x in &xs[n8..] {
        acc += x;
    }
    acc
}

pub fn sum_sq_f32(xs: &[f32]) -> f32 {
    let n8 = xs.len() - xs.len() % 8;
    let mut lanes = [0.0f32; 8];
    for c in xs[..n8].chunks_exact(8) {
        for (l, &x) in lanes.iter_mut().zip(c) {
            *l += x * x;
        }
    }
    let p = [
        lanes[0] + lanes[4],
        lanes[1] + lanes[5],
        lanes[2] + lanes[6],
        lanes[3] + lanes[7],
    ];
    let mut acc = (p[0] + p[2]) + (p[1] + p[3]);
    for &x in &xs[n8..] {
        acc += x * x;
    }
    acc
}

pub fn max_f32(xs: &[f32]) -> f32 {
    let n8 = xs.len() - xs.len() % 8;
    let mut lanes = [f32::NEG_INFINITY; 8];
    for c in xs[..n8].chunks_exact(8) {
        for (l, &x) in lanes.iter_mut().zip(c) {
            *l = maxps(*l, x);
        }
    }
    let p = [
        maxps(lanes[0], lanes[4]),
        maxps(lanes[1], lanes[5]),
        maxps(lanes[2], lanes[6]),
        maxps(lanes[3], lanes[7]),
    ];
    let mut acc = maxps(maxps(p[0], p[2]), maxps(p[1], p[3]));
    for &x in &xs[n8..] {
        acc = maxps(acc, x);
    }
    acc
}

pub fn sub_scalar_f32(c: f32, xs: &[f32], out: &mut [f32]) {
    for (y, &x) in out.iter_mut().zip(xs) {
        *y = x - c;
    }
}

pub fn add_scalar_f32(c: f32, xs: &[f32], out: &mut [f32]) {
    for (y, &x) in out.iter_mut().zip(xs) {
        *y = x + c;
    }
}

pub fn add_f32(xs: &[f32], ys: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
        *o = x + y;
    }
}

pub fn scale_f32(c: f32, xs: &[f32], out: &mut [f32]) {
    for (y, &x) in out.iter_mut().zip(xs) {
        *y = x * c;
    }
}

pub fn norm_affine_f32(inv: f32, gamma: &[f32], beta: &[f32], xs: &[f32], out: &mut [f32]) {
    for (j, (y, &x)) in out.iter_mut().zip(xs).enumerate() {
        *y = ((x * inv) * gamma[j]) + beta[j];
    }
}

// ---------------------------------------------------------------------------
// Polynomial transcendental kernels (the exact-backend EXP/TANH sweeps).
//
// Cephes-style rational approximations spelled as one fixed sequence of
// IEEE mul/add/div steps, so the AVX2 module can replay each element's
// exact operation order with vector blends in place of the branches
// below. These scalar functions are the definition; the vector path must
// agree bit for bit on every input, including ±0, ±inf and out-of-range
// arguments (NaN payloads excepted, as for the other kernels).
// ---------------------------------------------------------------------------

/// log₂(e), the argument-reduction multiplier of [`exp_scalar`].
pub(crate) const LOG2E: f64 = std::f64::consts::LOG2_E;
/// Arguments above this overflow `exp` to +inf …
pub(crate) const EXP_MAX: f64 = 709.782_712_893_384;
/// … and below this underflow it to 0.0 (≈ ln 2⁻¹⁰²²).
pub(crate) const EXP_MIN: f64 = -708.396_418_532_264_1;
/// Cody–Waite split of ln 2: high part …
pub(crate) const LN2_HI: f64 = 6.931_457_519_531_25e-1;
/// … and low part; `x − n·LN2_HI − n·LN2_LO` keeps the reduced argument
/// accurate to the last bit even though `n·ln 2` alone would not be.
pub(crate) const LN2_LO: f64 = 1.428_606_820_309_417_3e-6;
/// Numerator of the exp rational approximation (degree 2 in r²).
pub(crate) const EXP_P: [f64; 3] = [1.261_771_930_748_105_8e-4, 3.029_944_077_074_419_5e-2, 1.0];
/// Denominator of the exp rational approximation (degree 3 in r²).
pub(crate) const EXP_Q: [f64; 4] = [
    3.001_985_051_386_644_6e-6,
    2.524_483_403_496_841e-3,
    2.272_655_482_081_550_3e-1,
    2.0,
];
/// Numerator of the tanh small-argument rational (degree 2 in x²).
pub(crate) const TANH_P: [f64; 3] = [
    -9.643_991_794_250_523e-1,
    -9.928_772_310_019_185e1,
    -1.614_687_684_417_084_5e3,
];
/// Monic denominator of the tanh small-argument rational (degree 3 in
/// x², leading coefficient 1).
pub(crate) const TANH_Q: [f64; 3] = [
    1.128_116_784_916_329_3e2,
    2.235_488_390_601_004_5e3,
    4.844_063_053_251_255e3,
];
/// Boundary between the tanh rational (below) and the exp-based form
/// (at and above): Cephes' 0.625 split point.
pub(crate) const TANH_SPLIT: f64 = 0.625;

/// The exp core shared by [`exp_scalar`] and the tanh large-argument
/// branch: valid only for `EXP_MIN ≤ x ≤ EXP_MAX` (the public wrapper
/// handles the edges). One fixed mul/add/div sequence the AVX2 twin
/// replays lane for lane.
#[inline]
pub(crate) fn exp_core(x: f64) -> f64 {
    // n = round(x / ln 2), spelled floor(x·log₂e + ½); the reduced
    // argument r = x − n·ln 2 via the Cody–Waite split keeps |r| ≤ ln2/2
    // with no cancellation error.
    let px = (LOG2E * x + 0.5).floor();
    let n = px as i32;
    let r = (x - px * LN2_HI) - px * LN2_LO;
    let rr = r * r;
    // e^r = 1 + 2·rP(r²) / (Q(r²) − rP(r²)).
    let p = ((EXP_P[0] * rr + EXP_P[1]) * rr + EXP_P[2]) * r;
    let q = ((EXP_Q[0] * rr + EXP_Q[1]) * rr + EXP_Q[2]) * rr + EXP_Q[3];
    let e = 1.0 + 2.0 * (p / (q - p));
    // ·2ⁿ in two exponent-field steps so n = 1024 (x near EXP_MAX, where
    // e·2ⁿ is finite but 2ⁿ alone is not) stays representable.
    let k1 = n >> 1;
    let k2 = n - k1;
    let s1 = f64::from_bits(((1023 + k1) as u64) << 52);
    let s2 = f64::from_bits(((1023 + k2) as u64) << 52);
    (e * s1) * s2
}

/// `e^x` by Cephes-style reduction + rational approximation (accurate to
/// ~1 ulp over the full finite range). `exp_scalar(0.0)` is exactly
/// `1.0` — the fused-softmax one-element-row contract.
#[must_use]
pub fn exp_scalar(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x > EXP_MAX {
        return f64::INFINITY;
    }
    if x < EXP_MIN {
        return 0.0;
    }
    exp_core(x)
}

/// `tanh(x)` by the Cephes split: a rational in x² below 0.625, the
/// `1 − 2/(e^{2|x|}+1)` form (sharing [`exp_core`]'s bits) above.
/// Preserves ±0.0 and saturates to ±1.0 exactly, including at ±inf.
#[must_use]
pub fn tanh_scalar(x: f64) -> f64 {
    if x.is_nan() || x == 0.0 {
        return x;
    }
    let z = x.abs();
    if z >= TANH_SPLIT {
        let s = exp_scalar(z + z);
        let r = 1.0 - 2.0 / (s + 1.0);
        // r > 0 here, so restoring the sign is exactly a sign-bit OR —
        // the spelling the vector path uses.
        if x < 0.0 {
            -r
        } else {
            r
        }
    } else {
        let s = x * x;
        let pn = (TANH_P[0] * s + TANH_P[1]) * s + TANH_P[2];
        let qd = ((s + TANH_Q[0]) * s + TANH_Q[1]) * s + TANH_Q[2];
        x + (x * s) * (pn / qd)
    }
}

pub fn exp_f64(xs: &[f64], out: &mut [f64]) {
    for (y, &x) in out.iter_mut().zip(xs) {
        *y = exp_scalar(x);
    }
}

pub fn tanh_f64(xs: &[f64], out: &mut [f64]) {
    for (y, &x) in out.iter_mut().zip(xs) {
        *y = tanh_scalar(x);
    }
}

pub fn recip_f64(xs: &[f64], out: &mut [f64]) {
    for (y, &x) in out.iter_mut().zip(xs) {
        *y = 1.0 / x;
    }
}

pub fn rsqrt_f64(xs: &[f64], out: &mut [f64]) {
    for (y, &x) in out.iter_mut().zip(xs) {
        *y = 1.0 / x.sqrt();
    }
}
