//! Blocked, vectorized f32 matmul kernel family — the model-forward spine.
//!
//! Three accumulating products cover every matmul the tensor graph runs:
//!
//! * [`matmul_acc_f32`] — `out += A·B` (row-major `(m,k)·(k,n)`): the
//!   forward kernel behind `Graph::matmul` / `batch_matmul`, the im2col
//!   convolution, and both fused-attention score/context products.
//! * [`matmul_nt_f32`] — `out += A·Bᵀ` (`A: (m,n)`, `B: (k,n)`): the
//!   `dA = dY·Bᵀ` half of every matmul backward, as a row of pinned-order
//!   dot products.
//! * [`matmul_tn_f32`] — `out += Aᵀ·B` (`A: (m,k)`, `B: (m,n)`): the
//!   `dB = Aᵀ·dY` half, as broadcast-axpy row sweeps.
//!
//! [`gather_stride_f32`] is the shared strided-copy primitive the tensor
//! crate's transposes and strided im2col gathers are built from.
//!
//! ## The ordered-add contract, and what blocking may not change
//!
//! Each output element promises one exact f32 operation sequence: the
//! accumulator starts from the existing `out` value and applies
//! `v += a[i][p] · b[p][j]` for `p` ascending, with two deterministic
//! skip rules inherited from the original scalar loop — a chunk of four
//! consecutive `p` (aligned to `p % 4 == 0`) is skipped when all four
//! `a` values are `0.0`, and a lone tail `p` is skipped when its `a`
//! value is `0.0`. (With accumulators that can never be `-0.0`, adding a
//! `±0.0` product is bit-identical to skipping it — *except* when `b`
//! holds a NaN or infinity, which is why the skip predicate itself is
//! part of the contract and replayed identically on every path.)
//!
//! Everything else is schedule, free to change:
//!
//! * **Tiling over `(i, j)`** only reorders *which elements* are worked
//!   on when — each element still sees its own adds in ascending `p`.
//! * **Blocking over `p`** (in multiples of four, so the chunk grid
//!   stays aligned) stores the accumulator to `out` between blocks and
//!   reloads it; an f32 round-trips through memory bit-exactly, so the
//!   add sequence is unchanged.
//! * **Packing B panels** copies `b` values into contiguous scratch —
//!   the same bits feed the same multiplies.
//! * **Vectorizing across `j`** gives each lane one output element's
//!   scalar sequence; `mulps`/`addps` round each lane exactly like
//!   `mulss`/`addss` (and produce the same default NaN for `0·∞`).
//!   FMA contraction *would* break the contract (one rounding instead
//!   of two), so the kernels use separate multiply and add throughout.
//! * **Splitting rows across threads** (large products, more than one
//!   CPU) gives every output element exactly one owner.
//!
//! The blocked driver tiles `n` into [`JC`]-column panels and `k` into
//! [`KC`]-row blocks (`KC % 4 == 0`), packs each `(kc × jw)` panel of B
//! into thread-local scratch once, and reuses it across all `m` rows —
//! the classic L1/L2 panel schedule. The inner kernels register-block
//! across `j` (4 vectors wide) and hold the accumulators for the whole
//! `p` walk, so `out` is touched once per panel instead of once per
//! `p`-chunk.
//!
//! [`matmul_nt_f32`]'s dot product uses the crate's pinned eight-lane
//! reduction shape (stride-8 lane accumulators, `p_j = l_j + l_{j+4}`,
//! `(p0+p2)+(p1+p3)`, sequential tail — see [`crate::sum_f32`]); the
//! scalar twin replays it exactly, and the NEON path emulates the eight
//! lanes with two four-lane registers whose `vaddq` *is* the pairwise
//! combine. No AVX-512 variant exists for the dot — sixteen lanes would
//! be a different reduction shape — while [`matmul_acc_f32`] does get a
//! 16-lane AVX-512 kernel, because vectorizing across `j` never touches
//! any element's add order.

use std::num::NonZeroUsize;

/// Rows of the inner dimension per packed panel (the `p`-block size).
/// A multiple of four so blocking never moves the zero-skip chunk grid.
const KC: usize = 256;

/// Columns per packed B panel (the `j`-block width). `KC × JC` f32
/// panels are 128 KiB — L2-resident, with each 4-vector column tile's
/// working stripe comfortably inside L1.
const JC: usize = 128;

/// Minimum `m·k·n` before [`matmul_acc_f32`] fans rows out across
/// threads: below this the scope/join overhead outweighs the work.
const PAR_MIN_WORK: usize = 1 << 20;

/// Which inner kernel the dispatcher selected, decided once per call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    Scalar,
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx2,
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx512,
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    Neon,
}

fn detect() -> Path {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        // avx512f architecturally implies avx2, but the dispatch predicate
        // checks both so the SAFETY argument needs no implication.
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx2")
        {
            return Path::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Path::Avx2;
        }
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    {
        // NEON is baseline on aarch64; no runtime probe needed.
        return Path::Neon;
    }
    #[allow(unreachable_code)]
    Path::Scalar
}

/// Which matmul kernel path dispatches on this machine: `"avx512"`,
/// `"avx2"`, `"neon"` or `"scalar"`. Exposed so benches can label
/// measurements; results never depend on it.
#[must_use]
pub fn matmul_path() -> &'static str {
    match detect() {
        Path::Scalar => "scalar",
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Path::Avx2 => "avx2",
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Path::Avx512 => "avx512",
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        Path::Neon => "neon",
    }
}

/// `out += A·B` for row-major `A: (m,k)`, `B: (k,n)`, `out: (m,n)`,
/// through the blocked, vectorized kernel family (see the module docs).
///
/// Bit-identical for every input to the reference loop
/// `for p ascending { out[i][j] += a[i][p]·b[p][j] }` with the
/// documented aligned-chunk zero-skip — on every dispatch path, with
/// the `simd` feature on or off, on one thread or many.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`/`k`/`n`.
pub fn matmul_acc_f32(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    assert_eq!(out.len(), m * n, "out length mismatch");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let path = detect();
    if par_acc(path, a, b, out, m, k, n) {
        return;
    }
    acc_blocked(path, a, b, out, m, k, n);
}

/// `out += A·Bᵀ` for row-major `A: (m,n)`, `B: (k,n)`, `out: (m,k)` —
/// the `dA = dY·Bᵀ` kernel of every matmul backward. Each output element
/// is one pinned eight-lane dot product (the [`crate::sum_f32`] shape
/// with products in place of elements), bit-identical simd on/off.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`/`n`/`k`.
pub fn matmul_nt_f32(a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * n, "lhs length mismatch");
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    assert_eq!(out.len(), m * k, "out length mismatch");
    let path = detect();
    for i in 0..m {
        let arow = &a[i * n..(i + 1) * n];
        let orow = &mut out[i * k..(i + 1) * k];
        for (j, o) in orow.iter_mut().enumerate() {
            *o += dot_pinned(path, arow, &b[j * n..(j + 1) * n]);
        }
    }
}

/// `out += Aᵀ·B` for row-major `A: (m,k)`, `B: (m,n)`, `out: (k,n)` —
/// the `dB = Aᵀ·dY` kernel of every matmul backward. For each `p` (row
/// of A) in ascending order, row `i` of `out` accumulates
/// `a[p][i] · b[p][·]` as one broadcast-axpy sweep, skipping `p` when
/// the broadcast value is `0.0` (the original loop's skip, preserved as
/// part of the contract). Per output element the adds stay in ascending
/// `p`, so vectorizing across `j` keeps results bit-identical.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`/`k`/`n`.
pub fn matmul_tn_f32(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), m * n, "rhs length mismatch");
    assert_eq!(out.len(), k * n, "out length mismatch");
    let path = detect();
    for p in 0..m {
        let brow = &b[p * n..(p + 1) * n];
        for i in 0..k {
            let av = a[p * k + i];
            if av == 0.0 {
                continue;
            }
            axpy_acc(path, av, brow, &mut out[i * n..(i + 1) * n]);
        }
    }
}

/// `out[t] = src[t·stride]` — the strided gather every transpose and
/// strided im2col copy in the tensor crate reduces to (one output row of
/// a transpose is one stride-`stride` column walk of the source). Pure
/// data movement: no arithmetic, no dispatch, bit-exact by construction.
///
/// # Panics
///
/// Panics if `stride == 0`, or if `src` is shorter than the
/// `(out.len()-1)·stride + 1` elements the walk reads.
pub fn gather_stride_f32(src: &[f32], stride: usize, out: &mut [f32]) {
    assert!(stride >= 1, "stride must be >= 1");
    if out.is_empty() {
        return;
    }
    assert!(
        src.len() > (out.len() - 1) * stride,
        "source too short for gather"
    );
    for (o, &v) in out.iter_mut().zip(src.iter().step_by(stride)) {
        *o = v;
    }
}

// ---------------------------------------------------------------------------
// Blocked driver.
// ---------------------------------------------------------------------------

/// Runs `f` on a thread-local scratch buffer of at least `len` elements
/// (grown, never shrunk — the packed-panel allocation amortizes to zero
/// on the steady-state forward path).
fn with_panel<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }
    PANEL.with(|p| {
        let mut v = p.borrow_mut();
        if v.len() < len {
            v.resize(len, 0.0);
        }
        f(&mut v[..len])
    })
}

/// The panel schedule: `p` in [`KC`]-blocks (ascending, aligned to the
/// zero-skip chunk grid), `j` in [`JC`]-panels, B packed per `(pc, jc)`
/// block and reused across all `m` rows. When a block's columns span all
/// of `n` the B rows are already contiguous at stride `n`, so the kernel
/// reads B in place and the pack copy is skipped entirely.
fn acc_blocked(path: Path, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let mut pc = 0usize;
    while pc < k {
        let kc = KC.min(k - pc);
        let mut jc = 0usize;
        while jc < n {
            let jw = JC.min(n - jc);
            if jw == n {
                let bblk = &b[pc * n..(pc + kc) * n];
                for i in 0..m {
                    let arow = &a[i * k + pc..i * k + pc + kc];
                    kernel_acc(path, arow, bblk, n, &mut out[i * n..(i + 1) * n]);
                }
            } else {
                with_panel(kc * jw, |panel| {
                    for (t, prow) in panel.chunks_exact_mut(jw).enumerate() {
                        let brow = (pc + t) * n + jc;
                        prow.copy_from_slice(&b[brow..brow + jw]);
                    }
                    for i in 0..m {
                        let arow = &a[i * k + pc..i * k + pc + kc];
                        kernel_acc(path, arow, panel, jw, &mut out[i * n + jc..i * n + jc + jw]);
                    }
                });
            }
            jc += jw;
        }
        pc += kc;
    }
}

/// Row-parallel outer loop: contiguous `i`-ranges per thread, each
/// running the full blocked schedule on its disjoint slice of `out`.
/// Every output element keeps exactly one owner, so the per-element add
/// order — and therefore every bit of the result — is unchanged.
/// Returns false (caller falls back to single-thread) when the work is
/// too small or only one CPU is available.
fn par_acc(
    path: Path,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) -> bool {
    if m.saturating_mul(k).saturating_mul(n) < PAR_MIN_WORK {
        return false;
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(m);
    if threads < 2 {
        return false;
    }
    let rows_per = m.div_ceil(threads);
    std::thread::scope(|s| {
        for (ti, ochunk) in out.chunks_mut(rows_per * n).enumerate() {
            let rows = ochunk.len() / n;
            let achunk = &a[ti * rows_per * k..ti * rows_per * k + rows * k];
            s.spawn(move || acc_blocked(path, achunk, b, ochunk, rows, k, n));
        }
    });
    true
}

// ---------------------------------------------------------------------------
// Inner-kernel dispatch. `arow` holds the `kc` inner-dimension values for
// one output row; `b` holds `kc` rows of `orow.len()` columns at stride
// `bstride` (a packed panel, or B itself when unpacked).
// ---------------------------------------------------------------------------

#[inline]
fn kernel_acc(path: Path, arow: &[f32], b: &[f32], bstride: usize, orow: &mut [f32]) {
    debug_assert!(arow.is_empty() || b.len() >= (arow.len() - 1) * bstride + orow.len());
    match path {
        Path::Scalar => kernel_acc_scalar(arow, b, bstride, orow),
        // SAFETY: `detect` proved the feature; the driver sized `b` for
        // `kc` rows of `orow.len()` columns at stride `bstride`.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Path::Avx2 => unsafe { x86::kernel_acc_avx2(arow, b, bstride, orow) },
        // SAFETY: as above (avx512f + avx2 both detected).
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Path::Avx512 => unsafe { x86::kernel_acc_avx512(arow, b, bstride, orow) },
        // SAFETY: NEON is baseline on aarch64.
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        Path::Neon => unsafe { neon::kernel_acc_neon(arow, b, bstride, orow) },
    }
}

#[inline]
fn dot_pinned(path: Path, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    match path {
        Path::Scalar => dot_pinned_scalar(a, b),
        // SAFETY: avx2 detected; slices are equal-length.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Path::Avx2 => unsafe { x86::dot_avx2(a, b) },
        // SAFETY: avx2 detected alongside avx512f. The dot stays on the
        // eight-lane AVX2 kernel on purpose: sixteen lanes would change
        // the pinned reduction shape.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Path::Avx512 => unsafe { x86::dot_avx2(a, b) },
        // SAFETY: NEON is baseline on aarch64.
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        Path::Neon => unsafe { neon::dot_neon(a, b) },
    }
}

#[inline]
fn axpy_acc(path: Path, k: f32, xs: &[f32], out: &mut [f32]) {
    debug_assert_eq!(xs.len(), out.len());
    match path {
        Path::Scalar => axpy_acc_scalar(k, xs, out),
        // SAFETY: avx2 detected; slices are equal-length.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Path::Avx2 | Path::Avx512 => unsafe { x86::axpy_acc_avx2(k, xs, out) },
        // SAFETY: NEON is baseline on aarch64.
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        Path::Neon => unsafe { neon::axpy_acc_neon(k, xs, out) },
    }
}

// ---------------------------------------------------------------------------
// Scalar twins. These define the results; every vector kernel replays
// the same per-element operation sequences.
// ---------------------------------------------------------------------------

fn kernel_acc_scalar(arow: &[f32], b: &[f32], bstride: usize, orow: &mut [f32]) {
    let kc = arow.len();
    let n = orow.len();
    let mut p = 0usize;
    while p + 4 <= kc {
        let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
        if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
            let b0 = &b[p * bstride..][..n];
            let b1 = &b[(p + 1) * bstride..][..n];
            let b2 = &b[(p + 2) * bstride..][..n];
            let b3 = &b[(p + 3) * bstride..][..n];
            for (j, o) in orow.iter_mut().enumerate() {
                let mut v = *o;
                v += a0 * b0[j];
                v += a1 * b1[j];
                v += a2 * b2[j];
                v += a3 * b3[j];
                *o = v;
            }
        }
        p += 4;
    }
    while p < kc {
        let av = arow[p];
        if av != 0.0 {
            let brow = &b[p * bstride..][..n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
        p += 1;
    }
}

fn dot_pinned_scalar(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let n8 = n - n % 8;
    let mut lanes = [0.0f32; 8];
    for (ca, cb) in a[..n8].chunks_exact(8).zip(b[..n8].chunks_exact(8)) {
        for (l, (&x, &y)) in lanes.iter_mut().zip(ca.iter().zip(cb)) {
            *l += x * y;
        }
    }
    let p = [
        lanes[0] + lanes[4],
        lanes[1] + lanes[5],
        lanes[2] + lanes[6],
        lanes[3] + lanes[7],
    ];
    let mut acc = (p[0] + p[2]) + (p[1] + p[3]);
    for (&x, &y) in a[n8..].iter().zip(&b[n8..]) {
        acc += x * y;
    }
    acc
}

fn axpy_acc_scalar(k: f32, xs: &[f32], out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(xs) {
        *o += k * x;
    }
}

// ---------------------------------------------------------------------------
// x86-64 kernels (AVX2 + AVX-512F).
// ---------------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    //! # Safety
    //!
    //! Callable only after the matching `is_x86_feature_detected!` probe
    //! (the dispatchers in the parent module do exactly that). Pointer
    //! arithmetic stays inside the driver-validated bounds: `arow` has
    //! `kc` elements, `b` holds `kc` rows of `orow.len()` columns at
    //! stride `bstride`, and the dot/axpy slices are equal-length.
    //! Separate `mul`/`add` everywhere — FMA would merge two roundings
    //! into one and break the ordered-add contract.

    #![allow(unsafe_code)]

    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_loadu_ps,
        _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps, _mm512_add_ps,
        _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_storeu_ps, _mm_add_ps, _mm_add_ss,
        _mm_cvtss_f32, _mm_movehl_ps, _mm_shuffle_ps,
    };

    /// One output-row × panel accumulation, register-blocked four vectors
    /// (32 columns) wide: the accumulators live in ymm for the whole `p`
    /// walk and `out` is loaded/stored once per tile. Lane `j` replays
    /// the scalar element's adds in ascending `p`, chunk skip included.
    #[target_feature(enable = "avx2")]
    pub unsafe fn kernel_acc_avx2(arow: &[f32], b: &[f32], bstride: usize, orow: &mut [f32]) {
        let kc = arow.len();
        let n = orow.len();
        let ap = arow.as_ptr();
        let bp = b.as_ptr();
        let op = orow.as_mut_ptr();
        let mut j = 0usize;
        while j + 32 <= n {
            let mut v0 = _mm256_loadu_ps(op.add(j));
            let mut v1 = _mm256_loadu_ps(op.add(j + 8));
            let mut v2 = _mm256_loadu_ps(op.add(j + 16));
            let mut v3 = _mm256_loadu_ps(op.add(j + 24));
            let mut p = 0usize;
            while p + 4 <= kc {
                let (a0, a1, a2, a3) = (*ap.add(p), *ap.add(p + 1), *ap.add(p + 2), *ap.add(p + 3));
                if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                    let mut br = bp.add(p * bstride + j);
                    for av in [a0, a1, a2, a3] {
                        let avv = _mm256_set1_ps(av);
                        v0 = _mm256_add_ps(v0, _mm256_mul_ps(avv, _mm256_loadu_ps(br)));
                        v1 = _mm256_add_ps(v1, _mm256_mul_ps(avv, _mm256_loadu_ps(br.add(8))));
                        v2 = _mm256_add_ps(v2, _mm256_mul_ps(avv, _mm256_loadu_ps(br.add(16))));
                        v3 = _mm256_add_ps(v3, _mm256_mul_ps(avv, _mm256_loadu_ps(br.add(24))));
                        br = br.add(bstride);
                    }
                }
                p += 4;
            }
            while p < kc {
                let av = *ap.add(p);
                if av != 0.0 {
                    let br = bp.add(p * bstride + j);
                    let avv = _mm256_set1_ps(av);
                    v0 = _mm256_add_ps(v0, _mm256_mul_ps(avv, _mm256_loadu_ps(br)));
                    v1 = _mm256_add_ps(v1, _mm256_mul_ps(avv, _mm256_loadu_ps(br.add(8))));
                    v2 = _mm256_add_ps(v2, _mm256_mul_ps(avv, _mm256_loadu_ps(br.add(16))));
                    v3 = _mm256_add_ps(v3, _mm256_mul_ps(avv, _mm256_loadu_ps(br.add(24))));
                }
                p += 1;
            }
            _mm256_storeu_ps(op.add(j), v0);
            _mm256_storeu_ps(op.add(j + 8), v1);
            _mm256_storeu_ps(op.add(j + 16), v2);
            _mm256_storeu_ps(op.add(j + 24), v3);
            j += 32;
        }
        while j + 8 <= n {
            let mut v0 = _mm256_loadu_ps(op.add(j));
            let mut p = 0usize;
            while p + 4 <= kc {
                let (a0, a1, a2, a3) = (*ap.add(p), *ap.add(p + 1), *ap.add(p + 2), *ap.add(p + 3));
                if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                    let mut br = bp.add(p * bstride + j);
                    for av in [a0, a1, a2, a3] {
                        v0 = _mm256_add_ps(
                            v0,
                            _mm256_mul_ps(_mm256_set1_ps(av), _mm256_loadu_ps(br)),
                        );
                        br = br.add(bstride);
                    }
                }
                p += 4;
            }
            while p < kc {
                let av = *ap.add(p);
                if av != 0.0 {
                    v0 = _mm256_add_ps(
                        v0,
                        _mm256_mul_ps(_mm256_set1_ps(av), _mm256_loadu_ps(bp.add(p * bstride + j))),
                    );
                }
                p += 1;
            }
            _mm256_storeu_ps(op.add(j), v0);
            j += 8;
        }
        while j < n {
            scalar_column(ap, kc, bp, bstride, op, j);
            j += 1;
        }
    }

    /// The AVX-512F twin of [`kernel_acc_avx2`]: four zmm accumulators,
    /// 64 columns per tile, then an 8-wide AVX2-shaped pass and the
    /// scalar column tail. Same per-element add order — vector width
    /// across `j` is pure schedule.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub unsafe fn kernel_acc_avx512(arow: &[f32], b: &[f32], bstride: usize, orow: &mut [f32]) {
        let kc = arow.len();
        let n = orow.len();
        let ap = arow.as_ptr();
        let bp = b.as_ptr();
        let op = orow.as_mut_ptr();
        let mut j = 0usize;
        while j + 64 <= n {
            let mut v0 = _mm512_loadu_ps(op.add(j));
            let mut v1 = _mm512_loadu_ps(op.add(j + 16));
            let mut v2 = _mm512_loadu_ps(op.add(j + 32));
            let mut v3 = _mm512_loadu_ps(op.add(j + 48));
            let mut p = 0usize;
            while p + 4 <= kc {
                let (a0, a1, a2, a3) = (*ap.add(p), *ap.add(p + 1), *ap.add(p + 2), *ap.add(p + 3));
                if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                    let mut br = bp.add(p * bstride + j);
                    for av in [a0, a1, a2, a3] {
                        let avv = _mm512_set1_ps(av);
                        v0 = _mm512_add_ps(v0, _mm512_mul_ps(avv, _mm512_loadu_ps(br)));
                        v1 = _mm512_add_ps(v1, _mm512_mul_ps(avv, _mm512_loadu_ps(br.add(16))));
                        v2 = _mm512_add_ps(v2, _mm512_mul_ps(avv, _mm512_loadu_ps(br.add(32))));
                        v3 = _mm512_add_ps(v3, _mm512_mul_ps(avv, _mm512_loadu_ps(br.add(48))));
                        br = br.add(bstride);
                    }
                }
                p += 4;
            }
            while p < kc {
                let av = *ap.add(p);
                if av != 0.0 {
                    let br = bp.add(p * bstride + j);
                    let avv = _mm512_set1_ps(av);
                    v0 = _mm512_add_ps(v0, _mm512_mul_ps(avv, _mm512_loadu_ps(br)));
                    v1 = _mm512_add_ps(v1, _mm512_mul_ps(avv, _mm512_loadu_ps(br.add(16))));
                    v2 = _mm512_add_ps(v2, _mm512_mul_ps(avv, _mm512_loadu_ps(br.add(32))));
                    v3 = _mm512_add_ps(v3, _mm512_mul_ps(avv, _mm512_loadu_ps(br.add(48))));
                }
                p += 1;
            }
            _mm512_storeu_ps(op.add(j), v0);
            _mm512_storeu_ps(op.add(j + 16), v1);
            _mm512_storeu_ps(op.add(j + 32), v2);
            _mm512_storeu_ps(op.add(j + 48), v3);
            j += 64;
        }
        while j + 8 <= n {
            let mut v0 = _mm256_loadu_ps(op.add(j));
            let mut p = 0usize;
            while p + 4 <= kc {
                let (a0, a1, a2, a3) = (*ap.add(p), *ap.add(p + 1), *ap.add(p + 2), *ap.add(p + 3));
                if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                    let mut br = bp.add(p * bstride + j);
                    for av in [a0, a1, a2, a3] {
                        v0 = _mm256_add_ps(
                            v0,
                            _mm256_mul_ps(_mm256_set1_ps(av), _mm256_loadu_ps(br)),
                        );
                        br = br.add(bstride);
                    }
                }
                p += 4;
            }
            while p < kc {
                let av = *ap.add(p);
                if av != 0.0 {
                    v0 = _mm256_add_ps(
                        v0,
                        _mm256_mul_ps(_mm256_set1_ps(av), _mm256_loadu_ps(bp.add(p * bstride + j))),
                    );
                }
                p += 1;
            }
            _mm256_storeu_ps(op.add(j), v0);
            j += 8;
        }
        while j < n {
            scalar_column(ap, kc, bp, bstride, op, j);
            j += 1;
        }
    }

    /// One output column `j` in the exact scalar element order — the
    /// sub-vector-width tail shared by both x86 kernels.
    ///
    /// # Safety
    ///
    /// Bounds as for the kernels; `j < orow.len()`.
    #[inline]
    unsafe fn scalar_column(
        ap: *const f32,
        kc: usize,
        bp: *const f32,
        bstride: usize,
        op: *mut f32,
        j: usize,
    ) {
        let mut v = *op.add(j);
        let mut p = 0usize;
        while p + 4 <= kc {
            let (a0, a1, a2, a3) = (*ap.add(p), *ap.add(p + 1), *ap.add(p + 2), *ap.add(p + 3));
            if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                v += a0 * *bp.add(p * bstride + j);
                v += a1 * *bp.add((p + 1) * bstride + j);
                v += a2 * *bp.add((p + 2) * bstride + j);
                v += a3 * *bp.add((p + 3) * bstride + j);
            }
            p += 4;
        }
        while p < kc {
            let av = *ap.add(p);
            if av != 0.0 {
                v += av * *bp.add(p * bstride + j);
            }
            p += 1;
        }
        *op.add(j) = v;
    }

    /// Pinned eight-lane combine, `(p0+p2)+(p1+p3)` over `p_j = l_j +
    /// l_{j+4}` — the same spelling as the crate's `sum_f32` kernel.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_f32(accv: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(accv);
        let hi = _mm256_extractf128_ps::<1>(accv);
        let p = _mm_add_ps(lo, hi); // [l0+l4, l1+l5, l2+l6, l3+l7]
        let q = _mm_add_ps(p, _mm_movehl_ps(p, p)); // [p0+p2, p1+p3, ..]
        _mm_cvtss_f32(_mm_add_ss(q, _mm_shuffle_ps::<1>(q, q)))
    }

    /// Pinned eight-lane dot product (products accumulated stride-8,
    /// [`hsum_f32`] combine, sequential tail).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let n8 = n - n % 8;
        let mut accv = _mm256_setzero_ps();
        let mut i = 0usize;
        while i < n8 {
            let x = _mm256_loadu_ps(a.as_ptr().add(i));
            let y = _mm256_loadu_ps(b.as_ptr().add(i));
            accv = _mm256_add_ps(accv, _mm256_mul_ps(x, y));
            i += 8;
        }
        let mut acc = hsum_f32(accv);
        for j in n8..n {
            acc += *a.get_unchecked(j) * *b.get_unchecked(j);
        }
        acc
    }

    /// `out[j] += k·xs[j]` — element-wise, so any vector width replays
    /// the scalar spelling exactly.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_acc_avx2(k: f32, xs: &[f32], out: &mut [f32]) {
        let n = xs.len();
        let kv = _mm256_set1_ps(k);
        let mut i = 0usize;
        while i + 8 <= n {
            let v = _mm256_add_ps(
                _mm256_loadu_ps(out.as_ptr().add(i)),
                _mm256_mul_ps(kv, _mm256_loadu_ps(xs.as_ptr().add(i))),
            );
            _mm256_storeu_ps(out.as_mut_ptr().add(i), v);
            i += 8;
        }
        while i < n {
            *out.get_unchecked_mut(i) += k * *xs.get_unchecked(i);
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// aarch64 NEON kernels.
// ---------------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "aarch64"))]
mod neon {
    //! # Safety
    //!
    //! NEON is architecturally guaranteed on aarch64, so the only
    //! obligations are the driver-validated bounds (as for the x86
    //! module). Separate `vmulq`/`vaddq` — no `vfmaq` — keeps every
    //! lane's rounding sequence identical to the scalar twins.

    #![allow(unsafe_code)]

    use std::arch::aarch64::{
        float32x4_t, vaddq_f32, vdupq_n_f32, vgetq_lane_f32, vld1q_f32, vmulq_f32, vst1q_f32,
    };

    /// NEON twin of the x86 accumulate kernels: four q-registers (16
    /// columns) per tile, then a 4-wide pass, then the scalar column
    /// tail replaying the exact element order.
    #[target_feature(enable = "neon")]
    pub unsafe fn kernel_acc_neon(arow: &[f32], b: &[f32], bstride: usize, orow: &mut [f32]) {
        let kc = arow.len();
        let n = orow.len();
        let ap = arow.as_ptr();
        let bp = b.as_ptr();
        let op = orow.as_mut_ptr();
        let mut j = 0usize;
        while j + 16 <= n {
            let mut v0 = vld1q_f32(op.add(j));
            let mut v1 = vld1q_f32(op.add(j + 4));
            let mut v2 = vld1q_f32(op.add(j + 8));
            let mut v3 = vld1q_f32(op.add(j + 12));
            let mut p = 0usize;
            while p + 4 <= kc {
                let (a0, a1, a2, a3) = (*ap.add(p), *ap.add(p + 1), *ap.add(p + 2), *ap.add(p + 3));
                if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                    let mut br = bp.add(p * bstride + j);
                    for av in [a0, a1, a2, a3] {
                        let avv = vdupq_n_f32(av);
                        v0 = vaddq_f32(v0, vmulq_f32(avv, vld1q_f32(br)));
                        v1 = vaddq_f32(v1, vmulq_f32(avv, vld1q_f32(br.add(4))));
                        v2 = vaddq_f32(v2, vmulq_f32(avv, vld1q_f32(br.add(8))));
                        v3 = vaddq_f32(v3, vmulq_f32(avv, vld1q_f32(br.add(12))));
                        br = br.add(bstride);
                    }
                }
                p += 4;
            }
            while p < kc {
                let av = *ap.add(p);
                if av != 0.0 {
                    let br = bp.add(p * bstride + j);
                    let avv = vdupq_n_f32(av);
                    v0 = vaddq_f32(v0, vmulq_f32(avv, vld1q_f32(br)));
                    v1 = vaddq_f32(v1, vmulq_f32(avv, vld1q_f32(br.add(4))));
                    v2 = vaddq_f32(v2, vmulq_f32(avv, vld1q_f32(br.add(8))));
                    v3 = vaddq_f32(v3, vmulq_f32(avv, vld1q_f32(br.add(12))));
                }
                p += 1;
            }
            vst1q_f32(op.add(j), v0);
            vst1q_f32(op.add(j + 4), v1);
            vst1q_f32(op.add(j + 8), v2);
            vst1q_f32(op.add(j + 12), v3);
            j += 16;
        }
        while j + 4 <= n {
            let mut v0 = vld1q_f32(op.add(j));
            let mut p = 0usize;
            while p + 4 <= kc {
                let (a0, a1, a2, a3) = (*ap.add(p), *ap.add(p + 1), *ap.add(p + 2), *ap.add(p + 3));
                if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                    let mut br = bp.add(p * bstride + j);
                    for av in [a0, a1, a2, a3] {
                        v0 = vaddq_f32(v0, vmulq_f32(vdupq_n_f32(av), vld1q_f32(br)));
                        br = br.add(bstride);
                    }
                }
                p += 4;
            }
            while p < kc {
                let av = *ap.add(p);
                if av != 0.0 {
                    v0 = vaddq_f32(
                        v0,
                        vmulq_f32(vdupq_n_f32(av), vld1q_f32(bp.add(p * bstride + j))),
                    );
                }
                p += 1;
            }
            vst1q_f32(op.add(j), v0);
            j += 4;
        }
        while j < n {
            let mut v = *op.add(j);
            let mut p = 0usize;
            while p + 4 <= kc {
                let (a0, a1, a2, a3) = (*ap.add(p), *ap.add(p + 1), *ap.add(p + 2), *ap.add(p + 3));
                if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                    v += a0 * *bp.add(p * bstride + j);
                    v += a1 * *bp.add((p + 1) * bstride + j);
                    v += a2 * *bp.add((p + 2) * bstride + j);
                    v += a3 * *bp.add((p + 3) * bstride + j);
                }
                p += 4;
            }
            while p < kc {
                let av = *ap.add(p);
                if av != 0.0 {
                    v += av * *bp.add(p * bstride + j);
                }
                p += 1;
            }
            *op.add(j) = v;
            j += 1;
        }
    }

    /// Pinned eight-lane dot on four-lane hardware: two q-registers hold
    /// lanes 0–3 and 4–7, so one `vaddq` *is* the pairwise `p_j = l_j +
    /// l_{j+4}` combine, and the final `(p0+p2)+(p1+p3)` is spelled on
    /// extracted lanes. Bit-identical to the scalar twin by construction.
    #[target_feature(enable = "neon")]
    pub unsafe fn dot_neon(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let n8 = n - n % 8;
        let mut lo: float32x4_t = vdupq_n_f32(0.0);
        let mut hi: float32x4_t = vdupq_n_f32(0.0);
        let mut i = 0usize;
        while i < n8 {
            lo = vaddq_f32(
                lo,
                vmulq_f32(vld1q_f32(a.as_ptr().add(i)), vld1q_f32(b.as_ptr().add(i))),
            );
            hi = vaddq_f32(
                hi,
                vmulq_f32(
                    vld1q_f32(a.as_ptr().add(i + 4)),
                    vld1q_f32(b.as_ptr().add(i + 4)),
                ),
            );
            i += 8;
        }
        let p = vaddq_f32(lo, hi); // [p0, p1, p2, p3]
        let (p0, p1, p2, p3) = (
            vgetq_lane_f32::<0>(p),
            vgetq_lane_f32::<1>(p),
            vgetq_lane_f32::<2>(p),
            vgetq_lane_f32::<3>(p),
        );
        let mut acc = (p0 + p2) + (p1 + p3);
        for j in n8..n {
            acc += *a.get_unchecked(j) * *b.get_unchecked(j);
        }
        acc
    }

    /// `out[j] += k·xs[j]`, element-wise.
    #[target_feature(enable = "neon")]
    pub unsafe fn axpy_acc_neon(k: f32, xs: &[f32], out: &mut [f32]) {
        let n = xs.len();
        let kv = vdupq_n_f32(k);
        let mut i = 0usize;
        while i + 4 <= n {
            let v = vaddq_f32(
                vld1q_f32(out.as_ptr().add(i)),
                vmulq_f32(kv, vld1q_f32(xs.as_ptr().add(i))),
            );
            vst1q_f32(out.as_mut_ptr().add(i), v);
            i += 4;
        }
        while i < n {
            *out.get_unchecked_mut(i) += k * *xs.get_unchecked(i);
            i += 1;
        }
    }
}
