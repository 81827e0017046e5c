//! Golden regression tests: fixed configs must reproduce the `best_mse`
//! and breakpoint bit patterns captured from the first single-population
//! engine, whether scoring runs serially or on the worker pool.
//!
//! CI also runs this file under `taskset -c 0`: one CPU forces the serial
//! sweep, so the pooled goldens below (plain-grid and quant-aware) pin
//! serial ≡ pooled.

use gqa_funcs::NonLinearOp;
use gqa_genetic::{FitnessMode, GeneticSearch, SearchConfig};

/// Golden `best_mse` bit patterns captured from the first
/// single-population engine for three fixed configs. Each scores fewer
/// than 20 000 grid points per generation, so all three take the serial
/// scoring sweep.
const GOLDENS: [(NonLinearOp, usize, usize, u64, u64); 3] = [
    (NonLinearOp::Gelu, 60, 24, 7, 0x3f20_7dd9_a754_af1b),
    (NonLinearOp::Exp, 40, 16, 11, 0x3f30_16a9_5891_3196),
    (NonLinearOp::Div, 50, 20, 3, 0x3f29_64f7_8c88_dd46),
];

#[test]
fn serial_goldens_are_bit_exact() {
    for (op, gens, pop, seed, mse_bits) in GOLDENS {
        let cfg = SearchConfig::for_op(op)
            .with_generations(gens)
            .with_population(pop)
            .with_seed(seed);
        let r = GeneticSearch::new(cfg).run();
        assert_eq!(
            r.best_mse().to_bits(),
            mse_bits,
            "{op}: best MSE {:e} (bits 0x{:016x}) diverged from the \
             golden 0x{mse_bits:016x}",
            r.best_mse(),
            r.best_mse().to_bits(),
        );
    }
}

#[test]
fn golden_config_breakpoints_stable() {
    // Full breakpoint vector of the Gelu golden, bit-for-bit.
    let want: [u64; 7] = [
        0xc008_0000_0000_0000,
        0xbff8_0000_0000_0000,
        0xbfe4_0000_0000_0000,
        0x0000_0000_0000_0000,
        0x3fee_0000_0000_0000,
        0x4000_0000_0000_0000,
        0x400c_0000_0000_0000,
    ];
    let r = GeneticSearch::new(
        SearchConfig::for_op(NonLinearOp::Gelu)
            .with_generations(60)
            .with_population(24)
            .with_seed(7),
    )
    .run();
    let got: Vec<u64> = r.breakpoints().iter().map(|b| b.to_bits()).collect();
    assert_eq!(got, want);
}

#[test]
fn pooled_golden_is_bit_exact() {
    let cfg = SearchConfig::for_op(NonLinearOp::Gelu)
        .with_generations(20)
        .with_population(50)
        .with_seed(7);
    // 50 × 800 grid points per generation: past the pool's 20 000-point
    // threshold, so with two or more CPUs every generation is pooled.
    assert!(cfg.population * cfg.data_size() >= 20_000);
    let r = GeneticSearch::new(cfg).run();
    assert_eq!(
        r.best_mse().to_bits(),
        0x3f17_2b26_4f7e_6fb6,
        "pooled GELU golden diverged: {:e} (bits 0x{:016x})",
        r.best_mse(),
        r.best_mse().to_bits(),
    );
}

/// Golden `best_mse` and breakpoint bit patterns of the quant-aware
/// search (`FitnessMode::QuantAwareAverage`), the fitness every served
/// GELU/EXP artifact is searched with: 60 generations, population 50,
/// seed 7.
const QUANT_AWARE_GOLDENS: [(NonLinearOp, u64, [u64; 7]); 2] = [
    (
        NonLinearOp::Gelu,
        0x3f1f_9ef9_b5d2_fe60,
        [
            0xc008_0000_0000_0000,
            0xc003_0000_0000_0000,
            0xbff0_0000_0000_0000,
            0xbfc0_0000_0000_0000,
            0x3fe8_0000_0000_0000,
            0x4000_0000_0000_0000,
            0x400a_0000_0000_0000,
        ],
    ),
    (
        NonLinearOp::Exp,
        0x3f2b_2bef_e501_5d57,
        [
            0xc01f_4000_0000_0000,
            0xc01b_0000_0000_0000,
            0xc018_0000_0000_0000,
            0xc010_0000_0000_0000,
            0xbffd_8000_0000_0000,
            0xbff0_0000_0000_0000,
            0xbfdc_0000_0000_0000,
        ],
    ),
];

#[test]
fn quant_aware_goldens_are_bit_exact() {
    for (op, mse_bits, bps_bits) in QUANT_AWARE_GOLDENS {
        let cfg = SearchConfig::for_op(op)
            .with_generations(60)
            .with_population(50)
            .with_seed(7)
            .with_fitness(FitnessMode::QuantAwareAverage);
        // Past the pool's 20 000-point threshold, as for the pooled GELU
        // golden: with two or more CPUs every generation is pooled.
        assert!(cfg.population * cfg.data_size() >= 20_000);
        let r = GeneticSearch::new(cfg).run();
        assert_eq!(
            r.best_mse().to_bits(),
            mse_bits,
            "{op}: quant-aware best MSE {:e} (bits 0x{:016x}) diverged from \
             the golden 0x{mse_bits:016x}",
            r.best_mse(),
            r.best_mse().to_bits(),
        );
        let got: Vec<u64> = r.breakpoints().iter().map(|b| b.to_bits()).collect();
        assert_eq!(got, bps_bits, "{op}: quant-aware breakpoints diverged");
    }
}

#[test]
fn config_fingerprint_tracks_outcome_fields() {
    let base = SearchConfig::for_op(NonLinearOp::Gelu);
    let fp = base.fingerprint();
    assert_eq!(fp, base.clone().fingerprint(), "fingerprint is pure");
    assert_ne!(fp, base.clone().with_seed(1).fingerprint());
    assert_ne!(fp, base.clone().with_elitism(false).fingerprint());
    assert_ne!(fp, base.clone().with_entries_16().fingerprint());
    assert_ne!(
        fp,
        SearchConfig::for_op(NonLinearOp::Hswish).fingerprint(),
        "operator must enter the fingerprint"
    );
}
