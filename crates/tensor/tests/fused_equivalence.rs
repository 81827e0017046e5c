//! The fused-equivalence contract, property-tested:
//!
//! * `Graph::softmax` / `Graph::layer_norm` / `Graph::layer_norm_affine`
//!   / `Graph::attention` are **bit-identical** to the unfused graph
//!   assemblies — forward values AND input/parameter gradients — across
//!   row shapes (including 1-element rows and rows straddling the
//!   256-element backend staging seam) and backends (exact,
//!   quantized-LUT-ish, call-scripted).
//! * `EvalMode::Inference` tapes — no saved state, no grad slots, pooled
//!   buffers — produce forward values bit-identical to training tapes.
//! * Both spellings make the same *sequence* of tensor-level backend
//!   calls, which is what makes the contract hold under hot-swapped
//!   datapaths (the swap-mid-node tests live in
//!   `crates/registry/tests/hotswap.rs`).
//!
//! CI runs this suite on both matrix legs (simd on / scalar fallback), so
//! the same assertions also pin fused-simd ≡ fused-scalar.

use std::sync::atomic::{AtomicU32, Ordering};

use gqa_tensor::{
    eval_many_f32_via_f64, BufferPool, EvalMode, ExactBackend, Graph, NodeId, Tensor, UnaryBackend,
    UnaryKind,
};
use proptest::prelude::*;

/// A crude LUT-ish backend: quantizes every input to a 1/16 grid before
/// exact evaluation. Deterministic and decidedly not the exact math, so
/// equivalence failures from skipping the backend would show immediately.
struct QuantBackend;

impl UnaryBackend for QuantBackend {
    fn eval(&self, kind: UnaryKind, x: f64) -> f64 {
        kind.exact((x * 16.0).round() / 16.0)
    }
}

/// A backend whose result depends on **how many tensor-level `f32` calls
/// preceded it** (call k is scaled by 1 + k/4). If the fused layer made
/// per-row backend calls — or a different number of stage calls than the
/// unfused assembly — outputs would diverge instantly.
struct ScriptedBackend {
    calls: AtomicU32,
}

impl ScriptedBackend {
    fn new() -> Self {
        Self {
            calls: AtomicU32::new(0),
        }
    }
}

impl UnaryBackend for ScriptedBackend {
    fn eval(&self, kind: UnaryKind, x: f64) -> f64 {
        kind.exact(x)
    }

    fn eval_many_f32(&self, kind: UnaryKind, xs: &[f32], out: &mut [f32]) {
        let k = self.calls.fetch_add(1, Ordering::Relaxed);
        eval_many_f32_via_f64(self, kind, xs, out);
        let scale = 1.0 + k as f32 * 0.25;
        for y in out {
            *y *= scale;
        }
    }
}

fn tensor_from(vals: &[f32], rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(vals.to_vec(), &[rows, cols])
}

/// Runs `build` on a fresh graph over `backend`, takes a scalar loss of
/// the produced node, and returns (value bits, input-grad bits).
fn run_graph(
    backend: &dyn UnaryBackend,
    input: &Tensor,
    build: impl Fn(&mut Graph<'_>, NodeId) -> NodeId,
) -> (Vec<u32>, Vec<u32>) {
    let mut g = Graph::new(backend);
    let x = g.input(input.clone());
    let y = build(&mut g, x);
    let sq = g.mul(y, y);
    let loss = g.mean_all(sq);
    g.backward(loss);
    (
        g.value(y).data.iter().map(|v| v.to_bits()).collect(),
        g.grad(x)
            .expect("input grad")
            .iter()
            .map(|v| v.to_bits())
            .collect(),
    )
}

fn assert_bits_eq(a: &[u32], b: &[u32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x, y, "{what}: element {i} differs");
    }
}

fn assert_fused_softmax_equiv(backend: &dyn UnaryBackend, t: &Tensor) {
    let (vf, gf) = run_graph(backend, t, |g, x| g.softmax(x));
    let (vu, gu) = run_graph(backend, t, |g, x| g.softmax_rows(x));
    assert_bits_eq(&vf, &vu, "softmax value");
    assert_bits_eq(&gf, &gu, "softmax grad");
}

fn assert_fused_layernorm_equiv(backend: &dyn UnaryBackend, t: &Tensor, eps: f32) {
    let (vf, gf) = run_graph(backend, t, |g, x| g.layer_norm(x, eps));
    let (vu, gu) = run_graph(backend, t, |g, x| g.layernorm_rows(x, eps));
    assert_bits_eq(&vf, &vu, "layernorm value");
    assert_bits_eq(&gf, &gu, "layernorm grad");
}

/// Builds q/k/v attention on a fresh graph over `backend` (fused node or
/// the five-node unfused assembly), backwards a scalar loss, and returns
/// (value, dq, dk, dv) as bits.
#[allow(clippy::type_complexity)]
fn run_attention(
    backend: &dyn UnaryBackend,
    tq: &Tensor,
    tk: &Tensor,
    tv: &Tensor,
    scale: f32,
    fused: bool,
) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut g = Graph::new(backend);
    let q = g.input(tq.clone());
    let k = g.input(tk.clone());
    let v = g.input(tv.clone());
    let y = if fused {
        g.attention(q, k, v, scale)
    } else {
        g.attention_unfused(q, k, v, scale)
    };
    let sq = g.mul(y, y);
    let loss = g.mean_all(sq);
    g.backward(loss);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (
        bits(&g.value(y).data),
        bits(g.grad(q).expect("dq")),
        bits(g.grad(k).expect("dk")),
        bits(g.grad(v).expect("dv")),
    )
}

fn assert_fused_attention_equiv(
    backend: &dyn UnaryBackend,
    tq: &Tensor,
    tk: &Tensor,
    tv: &Tensor,
    scale: f32,
) {
    let (yf, qf, kf, vf) = run_attention(backend, tq, tk, tv, scale, true);
    let (yu, qu, ku, vu) = run_attention(backend, tq, tk, tv, scale, false);
    assert_bits_eq(&yf, &yu, "attention value");
    assert_bits_eq(&qf, &qu, "attention dq");
    assert_bits_eq(&kf, &ku, "attention dk");
    assert_bits_eq(&vf, &vu, "attention dv");
}

proptest! {
    /// Fused softmax ≡ unfused assembly, bitwise, on arbitrary shapes
    /// (1-element rows included) and logits, with the exact backend and a
    /// quantized one.
    #[test]
    fn softmax_fused_equals_unfused(
        rows in 1usize..9,
        cols in 1usize..33,
        vals in proptest::collection::vec(-30.0f32..30.0, 9 * 33)
    ) {
        let t = tensor_from(&vals[..rows * cols], rows, cols);
        assert_fused_softmax_equiv(&ExactBackend, &t);
        assert_fused_softmax_equiv(&QuantBackend, &t);
    }

    /// Rows longer than the 256-element backend staging chunk: the EXP
    /// stage's internal seams fall mid-row, identically in both
    /// spellings (both hand the backend one whole-tensor buffer).
    #[test]
    fn softmax_rows_straddling_chunk_seams(
        rows in 1usize..4,
        extra in 0usize..80,
        seed in 0u32..1000
    ) {
        let cols = 230 + extra; // some rows cross the 256-element seam
        let vals: Vec<f32> = (0..rows * cols)
            .map(|i| (((i as u32).wrapping_mul(2654435761).wrapping_add(seed)) % 2000) as f32
                / 100.0 - 10.0)
            .collect();
        let t = tensor_from(&vals, rows, cols);
        assert_fused_softmax_equiv(&ExactBackend, &t);
    }

    /// Fused LayerNorm ≡ unfused assembly, bitwise, across eps values
    /// (zero included) and both backends.
    #[test]
    fn layernorm_fused_equals_unfused(
        rows in 1usize..9,
        cols in 1usize..33,
        eps_sel in 0usize..3,
        vals in proptest::collection::vec(-20.0f32..20.0, 9 * 33)
    ) {
        let eps = [0.0f32, 1e-5, 1e-2][eps_sel];
        let t = tensor_from(&vals[..rows * cols], rows, cols);
        assert_fused_layernorm_equiv(&ExactBackend, &t, eps);
        assert_fused_layernorm_equiv(&QuantBackend, &t, eps);
    }

    /// The affine-fused LayerNorm ≡ the unfused
    /// `layernorm_rows → tile_last(γ) → mul → add_bias_last(β)` assembly,
    /// bitwise — values, input grads, and γ/β grads.
    #[test]
    fn layernorm_affine_fused_equals_unfused(
        rows in 1usize..7,
        cols in 1usize..17,
        vals in proptest::collection::vec(-20.0f32..20.0, 7 * 17),
        gb in proptest::collection::vec(0.25f32..2.0, 2 * 17)
    ) {
        let t = tensor_from(&vals[..rows * cols], rows, cols);
        let gamma = Tensor::from_vec(gb[..cols].to_vec(), &[cols]);
        let beta = Tensor::from_vec(gb[17..17 + cols].to_vec(), &[cols]);
        let run = |fused: bool| {
            let mut g = Graph::new(&ExactBackend);
            let x = g.input(t.clone());
            let gn = g.input(gamma.clone());
            let bn = g.input(beta.clone());
            let y = if fused {
                g.layer_norm_affine(x, gn, bn, 1e-5)
            } else {
                let normed = g.layernorm_rows(x, 1e-5);
                let tiled = g.tile_last(gn, &[rows, cols]);
                let scaled = g.mul(normed, tiled);
                g.add_bias_last(scaled, bn)
            };
            let sq = g.mul(y, y);
            let loss = g.mean_all(sq);
            g.backward(loss);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (
                bits(&g.value(y).data),
                bits(g.grad(x).expect("x grad")),
                bits(g.grad(gn).expect("gamma grad")),
                bits(g.grad(bn).expect("beta grad")),
            )
        };
        let (vf, xf, gf, bf) = run(true);
        let (vu, xu, gu, bu) = run(false);
        assert_bits_eq(&vf, &vu, "affine value");
        assert_bits_eq(&xf, &xu, "affine x grad");
        assert_bits_eq(&gf, &gu, "gamma grad");
        assert_bits_eq(&bf, &bu, "beta grad");
    }

    /// Fused attention ≡ the five-node unfused assembly
    /// (`transpose → batch_matmul → scale → softmax_rows → batch_matmul`),
    /// bitwise — output values and q/k/v gradients — across batch sizes,
    /// asymmetric query/key counts, 1-wide edge shapes, and both the
    /// exact and a quantized-LUT-ish backend.
    #[test]
    fn attention_fused_equals_unfused(
        bsz in 1usize..4,
        nq in 1usize..7,
        nk in 1usize..8,
        c in 1usize..6,
        scale_sel in 0usize..3,
        vals in proptest::collection::vec(-4.0f32..4.0, 3 * (7 + 8 + 8) * 6)
    ) {
        let scale = [1.0f32, 0.5, 0.125][scale_sel];
        let (qn, kn) = (bsz * nq * c, bsz * nk * c);
        let tq = Tensor::from_vec(vals[..qn].to_vec(), &[bsz, nq, c]);
        let tk = Tensor::from_vec(vals[qn..qn + kn].to_vec(), &[bsz, nk, c]);
        let tv = Tensor::from_vec(vals[qn + kn..qn + 2 * kn].to_vec(), &[bsz, nk, c]);
        assert_fused_attention_equiv(&ExactBackend, &tq, &tk, &tv, scale);
        assert_fused_attention_equiv(&QuantBackend, &tq, &tk, &tv, scale);
    }

    /// The fused attention node must make the same backend call sequence
    /// as the unfused spelling: exactly one whole-tensor EXP and one DIV
    /// (a per-batch or per-row softmax inside the node would diverge
    /// under the call-indexed backend).
    #[test]
    fn attention_makes_the_same_backend_call_sequence(
        bsz in 1usize..4,
        n in 2usize..6,
        c in 1usize..5,
        vals in proptest::collection::vec(-3.0f32..3.0, 3 * 6 * 5 * 3)
    ) {
        let len = bsz * n * c;
        let tq = Tensor::from_vec(vals[..len].to_vec(), &[bsz, n, c]);
        let tk = Tensor::from_vec(vals[len..2 * len].to_vec(), &[bsz, n, c]);
        let tv = Tensor::from_vec(vals[2 * len..3 * len].to_vec(), &[bsz, n, c]);
        let f = run_attention(&ScriptedBackend::new(), &tq, &tk, &tv, 0.5, true);
        let u = run_attention(&ScriptedBackend::new(), &tq, &tk, &tv, 0.5, false);
        assert_bits_eq(&f.0, &u.0, "scripted attention value");
        assert_bits_eq(&f.1, &u.1, "scripted attention dq");
        assert_bits_eq(&f.2, &u.2, "scripted attention dk");
        assert_bits_eq(&f.3, &u.3, "scripted attention dv");
    }

    /// An `EvalMode::Inference` tape (no saved state, no grad slots,
    /// pooled buffers) must produce forward values bit-identical to the
    /// training tape over the same fused pipeline — and a recycled pool
    /// must not perturb a re-run.
    #[test]
    fn inference_forward_equals_train(
        bsz in 1usize..3,
        n in 1usize..6,
        c in 1usize..6,
        vals in proptest::collection::vec(-5.0f32..5.0, 2 * 6 * 6 * 3)
    ) {
        let len = bsz * n * c;
        let tq = Tensor::from_vec(vals[..len].to_vec(), &[bsz, n, c]);
        let tk = Tensor::from_vec(vals[len..2 * len].to_vec(), &[bsz, n, c]);
        let tv = Tensor::from_vec(vals[2 * len..3 * len].to_vec(), &[bsz, n, c]);
        let forward = |mode: EvalMode, pool: BufferPool| {
            let mut g = Graph::with_mode(&ExactBackend, mode, pool);
            let q = g.input(tq.clone());
            let k = g.input(tk.clone());
            let v = g.input(tv.clone());
            let a = g.attention(q, k, v, 0.25);
            let s = g.softmax(a);
            let l = g.layer_norm(s, 1e-5);
            let u = g.unary(l, UnaryKind::Gelu);
            let out: Vec<u32> = g.value(u).data.iter().map(|x| x.to_bits()).collect();
            (out, g.recycle())
        };
        let (train, _) = forward(EvalMode::Train, BufferPool::new());
        let (infer, pool) = forward(EvalMode::Inference, BufferPool::new());
        assert_bits_eq(&train, &infer, "train vs inference forward");
        let (pooled, _) = forward(EvalMode::Inference, pool);
        assert_bits_eq(&infer, &pooled, "fresh vs recycled-pool forward");
    }

    /// Both spellings must make the SAME sequence of tensor-level backend
    /// calls — proven with a backend whose output depends on the call
    /// index. A per-row fused implementation (or one folding the DIV into
    /// the EXP call) would diverge.
    #[test]
    fn fused_makes_the_same_backend_call_sequence(
        rows in 1usize..6,
        cols in 2usize..20,
        vals in proptest::collection::vec(-5.0f32..5.0, 6 * 20)
    ) {
        let t = tensor_from(&vals[..rows * cols], rows, cols);
        let (vf, gf) = run_graph(&ScriptedBackend::new(), &t, |g, x| g.softmax(x));
        let (vu, gu) = run_graph(&ScriptedBackend::new(), &t, |g, x| g.softmax_rows(x));
        assert_bits_eq(&vf, &vu, "scripted softmax value");
        assert_bits_eq(&gf, &gu, "scripted softmax grad");

        let (vf, gf) = run_graph(&ScriptedBackend::new(), &t, |g, x| g.layer_norm(x, 1e-5));
        let (vu, gu) = run_graph(&ScriptedBackend::new(), &t, |g, x| g.layernorm_rows(x, 1e-5));
        assert_bits_eq(&vf, &vu, "scripted layernorm value");
        assert_bits_eq(&gf, &gu, "scripted layernorm grad");
    }
}

/// A hot-swap-style delegate switch between two forward passes must give
/// the same before/after pair fused and unfused (the mid-node swap test
/// lives in the registry crate, next to `HotSwapBackend`).
#[test]
fn backend_switch_between_nodes_is_equivalent() {
    let t = Tensor::from_vec(
        (0..24).map(|i| (i as f32 * 0.7).sin() * 4.0).collect(),
        &[4, 6],
    );
    let exact = ExactBackend;
    let quant = QuantBackend;
    let run = |fused: bool| {
        let mut va = Vec::new();
        for backend in [&exact as &dyn UnaryBackend, &quant as &dyn UnaryBackend] {
            let (v, _) = run_graph(backend, &t, |g, x| {
                if fused {
                    g.softmax(x)
                } else {
                    g.softmax_rows(x)
                }
            });
            va.push(v);
        }
        va
    };
    let f = run(true);
    let u = run(false);
    assert_bits_eq(&f[0], &u[0], "exact pass");
    assert_bits_eq(&f[1], &u[1], "quant pass");
    assert_ne!(f[0], f[1], "the two backends must actually differ");
}
