//! Criterion benchmarks: runtime of the core algorithms.
//!
//! Run with `cargo bench --workspace`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use gqa_funcs::NonLinearOp;
use gqa_fxp::{IntRange, PowerOfTwoScale};
use gqa_genetic::{FitnessEvaluator, GeneticSearch, SearchConfig};
use gqa_nnlut::{NnLutConfig, NnLutTrainer};
use gqa_pwl::eval::MseGrid;
use gqa_pwl::{fit, FxpPwl, MultiRangeLut, MultiRangeScaling, QuantAwareLut, SegmentFit};
use std::sync::Arc;

fn bench_fitness(c: &mut Criterion) {
    let ev = FitnessEvaluator::new(
        Arc::new(|x| NonLinearOp::Gelu.eval(x)),
        (-4.0, 4.0),
        0.01,
        SegmentFit::LeastSquares,
    );
    let bps = [-2.5f64, -1.5, -0.8, -0.3, 0.3, 0.9, 2.0];
    c.bench_function("fitness/gelu_8entry_plain", |b| {
        b.iter(|| ev.fitness(black_box(&bps)))
    });
    c.bench_function("fitness/gelu_8entry_fxp_aware", |b| {
        b.iter(|| ev.fitness_fxp(black_box(&bps), 5))
    });

    // Batched vs scalar grid MSE: the engine-level comparison. The scalar
    // variant reproduces the seed's hot loop exactly — one virtual
    // `dyn Fn(f64) -> f64` call plus a per-element breakpoint search per
    // grid point — while the batched variant is what `FitnessEvaluator::mse`
    // now runs (segment-walking BatchEval sweep).
    let pwl = ev.derive_pwl(&bps);
    let grid = MseGrid::new(&NonLinearOp::Gelu, (-4.0, 4.0), 0.01);
    let mut scratch = Vec::new();
    c.bench_function("fitness/grid_mse_batched", |b| {
        b.iter(|| grid.mse_of(black_box(&pwl), &mut scratch))
    });
    let scalar_eval: &dyn Fn(f64) -> f64 = &|x| pwl.eval(x);
    c.bench_function("fitness/grid_mse_scalar_dyn", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for (&x, &y) in grid.xs().iter().zip(grid.ys()) {
                let d = black_box(scalar_eval)(x) - y;
                acc += d * d;
            }
            acc / grid.len() as f64
        })
    });

    // Population-level scoring throughput (what one GA generation costs).
    let population: Vec<Vec<f64>> = (0..50)
        .map(|i| {
            let shift = i as f64 * 0.01;
            bps.iter().map(|&p| p + shift).collect()
        })
        .collect();
    c.bench_function("fitness/population50_fxp_aware", |b| {
        b.iter(|| {
            population
                .iter()
                .map(|p| ev.fitness_fxp(black_box(p), 5).1)
                .sum::<f64>()
        })
    });
}

fn bench_search(c: &mut Criterion) {
    c.bench_function("search/gelu_20gen_pop20", |b| {
        b.iter_batched(
            || {
                SearchConfig::for_op(NonLinearOp::Gelu)
                    .with_generations(20)
                    .with_population(20)
                    .with_seed(1)
            },
            |cfg| GeneticSearch::new(cfg).run(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_nnlut(c: &mut Criterion) {
    c.bench_function("nnlut/gelu_200steps", |b| {
        b.iter_batched(
            || {
                NnLutConfig::for_op(NonLinearOp::Gelu)
                    .with_steps(200)
                    .with_samples(2_000)
                    .with_seed(1)
            },
            |cfg| NnLutTrainer::new(cfg).train(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_lut_eval(c: &mut Criterion) {
    let f = |x: f64| NonLinearOp::Gelu.eval(x);
    let pwl = fit::fit_pwl(
        &f,
        (-4.0, 4.0),
        &[-2.5, -1.5, -0.8, -0.3, 0.3, 0.9, 2.0],
        SegmentFit::LeastSquares,
    )
    .expect("fit");
    let lut = QuantAwareLut::new(pwl, 5).expect("lut");
    let inst = lut.instantiate(PowerOfTwoScale::new(-4), IntRange::signed(8));
    c.bench_function("eval/int8_datapath_full_range", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for q in -128i64..=127 {
                acc = acc.wrapping_add(inst.eval_raw(black_box(q)));
            }
            acc
        })
    });
    // The same 256 codes through the run-by-run fill the engine's table
    // and the quant-aware search use.
    let mut out = vec![0.0f64; 256];
    c.bench_function("eval/int8_datapath_full_range_batched", |b| {
        b.iter(|| {
            inst.fill_codes(black_box(-128), &mut out);
            out[0]
        })
    });

    // INT4 sweep: same quantization-aware LUT instantiated on 4-bit input
    // codes (the hardware model's storage/comparator costs scale linearly
    // with word width, so the narrow datapath is a first-class workload).
    // Per-iteration work is 16 codes vs INT8's 256; iterate 16× so both
    // entries amortize the harness the same way.
    let inst4 = lut.instantiate(PowerOfTwoScale::new(-1), IntRange::signed(4));
    c.bench_function("eval/int4_datapath_full_range", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for _ in 0..16 {
                for q in -8i64..=7 {
                    acc = acc.wrapping_add(inst4.eval_raw(black_box(q)));
                }
            }
            acc
        })
    });
    let mut out4 = vec![0.0f64; 16 * 16];
    c.bench_function("eval/int4_datapath_full_range_batched", |b| {
        b.iter(|| {
            for run in out4.chunks_mut(16) {
                inst4.fill_codes(black_box(-8), run);
            }
            out4[0]
        })
    });

    let div = fit::fit_pwl(
        &|x: f64| 1.0 / x,
        (0.5, 4.0),
        &[0.65, 0.85, 1.1, 1.5, 2.0, 2.6, 3.3],
        SegmentFit::LeastSquares,
    )
    .expect("fit");
    let unit = MultiRangeLut::new(
        FxpPwl::new(&QuantAwareLut::new(div, 5).expect("lut"), 8),
        MultiRangeScaling::div_paper(),
    );
    c.bench_function("eval/multirange_div_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            let mut x = 0.5;
            while x < 200.0 {
                acc += unit.eval_f64(black_box(x));
                x += 0.25;
            }
            acc
        })
    });
}

criterion_group!(
    benches,
    bench_fitness,
    bench_search,
    bench_nnlut,
    bench_lut_eval
);
criterion_main!(benches);
