//! `HotSwapBackend` swap-under-eval semantics, pinned directly (they were
//! previously only exercised indirectly through the registry bench):
//!
//! 1. a swap that lands while another thread is mid-`eval_many*` must not
//!    tear a tensor — every buffer comes out uniformly from ONE delegate;
//! 2. in-flight calls finish on the delegate they resolved, subsequent
//!    calls use the new one;
//! 3. `swap` returns the previous delegate so callers can restore it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use gqa_registry::HotSwapBackend;
use gqa_tensor::{UnaryBackend, UnaryKind};

/// A backend returning a constant, slow enough per element that a swap has
/// a wide window to land mid-buffer.
struct ConstBackend(f64);

impl UnaryBackend for ConstBackend {
    fn eval(&self, _kind: UnaryKind, _x: f64) -> f64 {
        // A few spins per element widen the race window without making
        // the test slow.
        std::hint::black_box((0..8).fold(self.0, |v, _| std::hint::black_box(v)))
    }
}

#[test]
fn tensor_evals_never_mix_delegates_across_a_swap() {
    let hs = Arc::new(HotSwapBackend::new(Arc::new(ConstBackend(1.0))));
    let stop = AtomicBool::new(false);
    // Longer than one staging chunk (256), so a per-chunk lock would give
    // a swap landing between chunks a mixed buffer.
    let xs64 = vec![0.5f64; 1000];
    let xs32 = vec![0.5f32; 1000];

    // The evaluator reports each finished evaluation, so the swapper can
    // wait for real overlap instead of hoping the scheduler provides it.
    let (done_tx, done) = mpsc::channel::<()>();

    std::thread::scope(|s| {
        let evaluator = s.spawn(|| {
            // Owned here, so an evaluator that panics drops the sender
            // and the swapper's `recv` fails instead of waiting forever.
            let done_tx = done_tx;
            let mut out64 = vec![0.0f64; xs64.len()];
            let mut out32 = vec![0.0f32; xs32.len()];
            let mut saw = [false; 2]; // which delegates were observed
            while !stop.load(Ordering::Relaxed) {
                hs.eval_many(UnaryKind::Gelu, &xs64, &mut out64);
                let first = out64[0];
                assert!(
                    out64.iter().all(|&y| y == first),
                    "eval_many mixed two delegates in one tensor"
                );
                hs.eval_many_f32(UnaryKind::Gelu, &xs32, &mut out32);
                let first32 = out32[0];
                assert!(
                    out32.iter().all(|&y| y == first32),
                    "eval_many_f32 mixed two delegates in one tensor"
                );
                saw[(first - 1.0) as usize] = true;
                let _ = done_tx.send(());
            }
            saw
        });

        // One whole evaluation before the first swap ...
        done.recv().expect("evaluator stopped");
        for i in 0..200 {
            let v = if i % 2 == 0 { 2.0 } else { 1.0 };
            hs.swap(Arc::new(ConstBackend(v)));
            std::thread::yield_now();
        }
        // ... and one after the last. Of the evaluations not yet reported,
        // the first may have begun before the last swap; the second cannot.
        while done.try_recv().is_ok() {}
        done.recv().expect("evaluator stopped");
        done.recv().expect("evaluator stopped");
        stop.store(true, Ordering::Relaxed);
        let saw = evaluator.join().expect("evaluator panicked");
        assert!(saw[0] || saw[1]);
    });
}

#[test]
fn swap_returns_previous_and_subsequent_calls_use_next() {
    let hs = HotSwapBackend::new(Arc::new(ConstBackend(7.0)));
    assert_eq!(hs.eval(UnaryKind::Relu, -3.0), 7.0);

    let prev = hs.swap(Arc::new(ConstBackend(9.0)));
    assert_eq!(hs.eval(UnaryKind::Relu, -3.0), 9.0);
    // The returned delegate is the one that was serving before.
    assert_eq!(prev.eval(UnaryKind::Relu, -3.0), 7.0);

    // Restoring it brings the old datapath back.
    hs.swap(prev);
    assert_eq!(hs.eval(UnaryKind::Relu, -3.0), 7.0);

    let mut out = [0.0f32; 3];
    hs.eval_many_f32(UnaryKind::Gelu, &[1.0, 2.0, 3.0], &mut out);
    assert_eq!(out, [7.0f32; 3]);
}

#[test]
fn graph_sees_the_swap_between_forward_passes() {
    use gqa_tensor::{ExactBackend, Graph, Tensor};

    let hs = HotSwapBackend::new(Arc::new(ExactBackend));
    let forward = |hs: &HotSwapBackend| {
        let mut g = Graph::new(hs);
        let x = g.input(Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]));
        let y = g.unary(x, UnaryKind::Relu);
        g.value(y).data.clone()
    };
    assert_eq!(forward(&hs), vec![0.0, 0.0, 2.0]);
    hs.swap(Arc::new(ConstBackend(5.0)));
    assert_eq!(forward(&hs), vec![5.0, 5.0, 5.0]);
}

// ---------------------------------------------------------------------------
// Swap-under-fused-eval semantics.
// ---------------------------------------------------------------------------

use std::sync::Mutex;

use gqa_tensor::{eval_many_f32_via_f64, ExactBackend, Graph, Tensor};

/// An exact-math delegate that fires one deferred [`HotSwapBackend::swap`]
/// from *inside* its own EXP evaluation — deterministically simulating an
/// operator swap landing while a softmax (fused or unfused) is mid-node,
/// after the EXP stage resolved its datapath but before the DIV stage
/// runs. Relies on `HotSwapBackend` releasing its lock before the
/// delegate runs.
type ArmedSwap = (Arc<HotSwapBackend>, Arc<dyn UnaryBackend>);

struct SwapDuringExp {
    cell: Mutex<Option<ArmedSwap>>,
}

impl SwapDuringExp {
    fn arm(cell: Arc<HotSwapBackend>, next: Arc<dyn UnaryBackend>) -> Self {
        Self {
            cell: Mutex::new(Some((cell, next))),
        }
    }
}

impl UnaryBackend for SwapDuringExp {
    fn eval(&self, kind: UnaryKind, x: f64) -> f64 {
        kind.exact(x)
    }

    fn eval_many_f32(&self, kind: UnaryKind, xs: &[f32], out: &mut [f32]) {
        eval_many_f32_via_f64(self, kind, xs, out);
        if kind == UnaryKind::Exp {
            if let Some((cell, next)) = self.cell.lock().expect("armed once").take() {
                cell.swap(next);
            }
        }
    }
}

/// A delegate whose reciprocal is deliberately wrong (off by ×2), so a
/// swap landing between a softmax's EXP and DIV stages is visible in the
/// output.
struct DoubledRecip;

impl UnaryBackend for DoubledRecip {
    fn eval(&self, kind: UnaryKind, x: f64) -> f64 {
        match kind {
            UnaryKind::Recip => 2.0 / x,
            other => other.exact(x),
        }
    }
}

/// A swap occurring between rows/stages of a fused softmax node must (a)
/// actually take effect for the later stage — never torn within a stage —
/// and (b) leave the fused output bit-identical to the unfused assembly
/// under the *same* scripted swap, because both spellings make the same
/// sequence of tensor-level backend calls.
#[test]
fn fused_softmax_swap_mid_node_matches_unfused() {
    let xs: Vec<f32> = (0..24).map(|i| (i as f32 * 0.61).sin() * 3.0).collect();
    let run = |fused: bool| {
        let hs = Arc::new(HotSwapBackend::new(Arc::new(ExactBackend)));
        hs.swap(Arc::new(SwapDuringExp::arm(
            Arc::clone(&hs),
            Arc::new(DoubledRecip),
        )));
        let mut g = Graph::new(hs.as_ref());
        let x = g.input(Tensor::from_vec(xs.clone(), &[4, 6]));
        let s = if fused {
            g.softmax(x)
        } else {
            g.softmax_rows(x)
        };
        g.value(s).data.clone()
    };
    let fused = run(true);
    let unfused = run(false);
    for (a, b) in fused.iter().zip(&unfused) {
        assert_eq!(a.to_bits(), b.to_bits(), "fused vs unfused under swap");
    }
    // The swap demonstrably landed mid-node: every row now sums to 2
    // (the doubled reciprocal served the DIV stage).
    for row in fused.chunks(6) {
        let sum: f32 = row.iter().sum();
        assert!((sum - 2.0).abs() < 1e-4, "row sum {sum}");
    }
}

/// Same contract one level up: a swap landing inside a **fused attention
/// node** — between its softmax's EXP and DIV stages — must take effect
/// for the DIV stage and leave the fused output bit-identical to the
/// unfused five-node assembly under the same scripted swap (both
/// spellings make exactly one whole-tensor EXP call and one DIV call).
#[test]
fn fused_attention_swap_mid_node_matches_unfused() {
    let qs: Vec<f32> = (0..24).map(|i| (i as f32 * 0.43).sin() * 2.0).collect();
    let ks: Vec<f32> = (0..32).map(|i| (i as f32 * 0.29).cos() * 2.0).collect();
    let vs: Vec<f32> = (0..32).map(|i| (i as f32 * 0.17).sin() + 0.5).collect();
    let run = |fused: bool| {
        let hs = Arc::new(HotSwapBackend::new(Arc::new(ExactBackend)));
        hs.swap(Arc::new(SwapDuringExp::arm(
            Arc::clone(&hs),
            Arc::new(DoubledRecip),
        )));
        let mut g = Graph::new(hs.as_ref());
        let q = g.input(Tensor::from_vec(qs.clone(), &[2, 3, 4]));
        let k = g.input(Tensor::from_vec(ks.clone(), &[2, 4, 4]));
        let v = g.input(Tensor::from_vec(vs.clone(), &[2, 4, 4]));
        let y = if fused {
            g.attention(q, k, v, 0.5)
        } else {
            let kt = g.transpose_last2(k);
            let scores = g.batch_matmul(q, kt);
            let scaled = g.scale(scores, 0.5);
            let attn = g.softmax(scaled);
            g.batch_matmul(attn, v)
        };
        g.value(y).data.clone()
    };
    let fused = run(true);
    let unfused = run(false);
    for (a, b) in fused.iter().zip(&unfused) {
        assert_eq!(a.to_bits(), b.to_bits(), "fused vs unfused under swap");
    }
    // The swap demonstrably landed mid-node: the doubled reciprocal
    // doubled every attention row's mass, so the context vectors are 2×
    // what an exact pass yields.
    let hs_exact = HotSwapBackend::new(Arc::new(ExactBackend));
    let mut g = Graph::new(&hs_exact);
    let q = g.input(Tensor::from_vec(qs, &[2, 3, 4]));
    let k = g.input(Tensor::from_vec(ks, &[2, 4, 4]));
    let v = g.input(Tensor::from_vec(vs, &[2, 4, 4]));
    let y = g.attention(q, k, v, 0.5);
    for (swapped, exact) in fused.iter().zip(&g.value(y).data) {
        assert!(
            (swapped - 2.0 * exact).abs() < 1e-4,
            "{swapped} vs 2×{exact}"
        );
    }
}

/// Same contract for the fused LayerNorm: its single RSQRT stage resolves
/// one delegate; a swap after the node's evaluation affects only later
/// nodes, identically in both spellings.
#[test]
fn fused_layernorm_swap_between_nodes_matches_unfused() {
    struct HalvedRsqrt;
    impl UnaryBackend for HalvedRsqrt {
        fn eval(&self, kind: UnaryKind, x: f64) -> f64 {
            match kind {
                UnaryKind::Rsqrt => 0.5 / x.sqrt(),
                other => other.exact(x),
            }
        }
    }
    let xs: Vec<f32> = (0..30).map(|i| (i as f32 * 0.37).cos() * 2.0).collect();
    let run = |fused: bool| {
        let hs = HotSwapBackend::new(Arc::new(ExactBackend));
        let mut g = Graph::new(&hs);
        let x = g.input(Tensor::from_vec(xs.clone(), &[5, 6]));
        let first = if fused {
            g.layer_norm(x, 1e-5)
        } else {
            g.layernorm_rows(x, 1e-5)
        };
        hs.swap(Arc::new(HalvedRsqrt));
        let second = if fused {
            g.layer_norm(x, 1e-5)
        } else {
            g.layernorm_rows(x, 1e-5)
        };
        (g.value(first).data.clone(), g.value(second).data.clone())
    };
    let (f1, f2) = run(true);
    let (u1, u2) = run(false);
    for (a, b) in f1.iter().zip(&u1) {
        assert_eq!(a.to_bits(), b.to_bits(), "pre-swap");
    }
    for (a, b) in f2.iter().zip(&u2) {
        assert_eq!(a.to_bits(), b.to_bits(), "post-swap");
    }
    // And the swap visibly halved the normalized scale.
    for (a, b) in f1.iter().zip(&f2) {
        assert!((a * 0.5 - b).abs() < 1e-5, "{a} vs {b}");
    }
}
