//! Microbenchmarks for the `gqa-simd` kernel layer.
//!
//! Each entry measures one dispatched kernel on a hot-path-shaped input
//! (the 800-point Algorithm-1 fitness grid).
//! `simd/dispatch_path` prints which path the dispatcher takes on this
//! machine so baseline JSONs are self-describing.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use gqa_funcs::{BatchEval, NonLinearOp};
use gqa_nnlut::ReluNet1d;
use gqa_pwl::{fit, FxpPwl, MultiRangeLut, MultiRangeScaling, QuantAwareLut, SegmentFit};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn grid800() -> Vec<f64> {
    let mut xs = Vec::new();
    gqa_funcs::fill_grid((-4.0, 4.0), 0.01, &mut xs);
    xs
}

fn bench_kernels(c: &mut Criterion) {
    println!(
        "simd dispatch path: {} (matmul: {})",
        if gqa_simd::simd_active() {
            "avx2"
        } else {
            "scalar"
        },
        gqa_simd::matmul_path()
    );

    let xs = grid800();
    let mut out = vec![0.0f64; xs.len()];
    c.bench_function("simd/axpy_f64_800", |b| {
        b.iter(|| {
            gqa_simd::axpy_f64(0.71875, -0.125, black_box(&xs), &mut out);
            out[0]
        })
    });

    let ys: Vec<f64> = xs.iter().map(|&x| x * 0.9 + 0.01).collect();
    c.bench_function("simd/sum_sq_diff_800", |b| {
        b.iter(|| gqa_simd::sum_sq_diff(black_box(&xs), black_box(&ys)))
    });

    // The full NN-LUT batched forward (direct path + 7 hidden-unit sweeps).
    let mut rng = StdRng::seed_from_u64(7);
    let net = ReluNet1d::init(7, (-4.0, 4.0), &mut rng);
    c.bench_function("simd/relunet7_forward_800", |b| {
        b.iter(|| {
            net.forward_batch(black_box(&xs), &mut out);
            out[0]
        })
    });

    // The batched multi-range DIV datapath on a buffer mixing in-IR and
    // scaled sub-range inputs (the shape Softmax normalizers produce).
    let div = fit::fit_pwl(
        &|x: f64| NonLinearOp::Div.eval(x),
        (0.5, 4.0),
        &[0.65, 0.85, 1.1, 1.5, 2.0, 2.6, 3.3],
        SegmentFit::LeastSquares,
    )
    .expect("fit");
    let unit = MultiRangeLut::new(
        FxpPwl::new(&QuantAwareLut::new(div, 5).expect("lut"), 8),
        MultiRangeScaling::div_paper(),
    );
    let mixed: Vec<f64> = (0..800).map(|i| 0.5 + (i as f64 * 0.37) % 250.0).collect();
    let mut div_out = vec![0.0f64; mixed.len()];
    c.bench_function("simd/multirange_div_batched_800", |b| {
        b.iter(|| {
            unit.eval_batch(black_box(&mixed), &mut div_out);
            div_out[0]
        })
    });

    // The blocked matmul family (PR 7). Inputs carry a sprinkle of zeros
    // like real activations so the chunk skip fires; `out` is reused
    // (the kernels accumulate) which is exactly the pooled hot path.
    let mk_vec = |len: usize, seed: u64| -> Vec<f32> {
        let mut s = seed | 1;
        (0..len)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if i % 13 == 12 {
                    0.0
                } else {
                    (s % 4000) as f32 / 1000.0 - 2.0
                }
            })
            .collect()
    };

    // Square headline shape.
    let (m, k, n) = (128usize, 128usize, 128usize);
    let a = mk_vec(m * k, 21);
    let bmat = mk_vec(k * n, 22);
    let mut mm_out = vec![0.0f32; m * n];
    c.bench_function("simd/matmul_128x128x128", |b| {
        b.iter(|| {
            mm_out.fill(0.0);
            gqa_simd::matmul_acc_f32(black_box(&a), black_box(&bmat), &mut mm_out, m, k, n);
            mm_out[0]
        })
    });

    // The im2col shape of the Segformer decode stage: Cout × (Cin·3·3)
    // patches against oh·ow = 512 output positions.
    let (m, k, n) = (16usize, 72usize, 512usize);
    let a = mk_vec(m * k, 23);
    let bmat = mk_vec(k * n, 24);
    let mut col_out = vec![0.0f32; m * n];
    c.bench_function("simd/matmul_im2col_16x72x512", |b| {
        b.iter(|| {
            col_out.fill(0.0);
            gqa_simd::matmul_acc_f32(black_box(&a), black_box(&bmat), &mut col_out, m, k, n);
            col_out[0]
        })
    });

    // The backward kernels: square, and the tall-skinny dY·Vᵀ shape the
    // attention backward produces (many rows, short dot, few columns).
    let (m, n, k) = (128usize, 128usize, 128usize);
    let a = mk_vec(m * n, 25);
    let bmat = mk_vec(k * n, 26);
    let mut nt_out = vec![0.0f32; m * k];
    c.bench_function("simd/matmul_nt_128x128x128", |b| {
        b.iter(|| {
            nt_out.fill(0.0);
            gqa_simd::matmul_nt_f32(black_box(&a), black_box(&bmat), &mut nt_out, m, n, k);
            nt_out[0]
        })
    });

    let (m, n, k) = (512usize, 16usize, 512usize);
    let a = mk_vec(m * n, 27);
    let bmat = mk_vec(k * n, 28);
    let mut nt2_out = vec![0.0f32; m * k];
    c.bench_function("simd/matmul_nt_512x16x512", |b| {
        b.iter(|| {
            nt2_out.fill(0.0);
            gqa_simd::matmul_nt_f32(black_box(&a), black_box(&bmat), &mut nt2_out, m, n, k);
            nt2_out[0]
        })
    });
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
