//! Algorithm 1: the genetic piece-wise linear approximation search.
//!
//! One population evolves on one RNG stream seeded from
//! [`SearchConfig::seed`], so a search is fully determined by its config.
//!
//! Population scoring is offloaded to a persistent worker pool that is
//! spawned once per run, on the first generation with enough work, and
//! amortized across all generations. Scores are written back by index, so
//! the pooled sweep is bit-identical to the serial one.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gqa_funcs::BatchEval;
use gqa_fxp::IntRange;
use gqa_pwl::{eval, Pwl, QuantAwareLut};

use crate::config::{FitnessMode, MutationKind, SearchConfig};
use crate::fitness::FitnessEvaluator;
use crate::mutation::{gaussian_mutation, rounding_mutation};
use crate::pool::ScoringPool;
use crate::selection::tournament_select;

/// The genetic search engine (Algorithm 1).
///
/// Deterministic given the configured seed. See the crate docs for an
/// end-to-end example.
pub struct GeneticSearch {
    config: SearchConfig,
    scorer: Arc<Scorer>,
}

/// The pure fitness context shared by every worker: evaluator, fitness
/// mode, and the precomputed §4.1 grids. Immutable after construction, so
/// it can be handed to scoring workers as an `Arc`.
pub(crate) struct Scorer {
    fitness: FitnessMode,
    lambda: u32,
    evaluator: FitnessEvaluator,
    // Per-scale dequantized grids for QuantAwareAverage fitness, hoisted
    // out of the scoring loop: the codes and reference values depend only
    // on (scale, range, clip), never on the individual being scored.
    qaa_grids: Vec<DequantGrid>,
}

/// One precomputed §4.1 evaluation grid: the clip-surviving INT8 codes at
/// one scale, a contiguous span from `first`, plus the reference `f(q·S)`
/// value of each.
struct DequantGrid {
    scale: gqa_fxp::PowerOfTwoScale,
    first: i64,
    ys: Vec<f64>,
}

impl Scorer {
    /// Scores one individual per the configured fitness mode.
    pub(crate) fn score(&self, breakpoints: &[f64]) -> f64 {
        match self.fitness {
            FitnessMode::PlainGrid => self.evaluator.fitness_fxp(breakpoints, self.lambda).1,
            FitnessMode::QuantAwareAverage => {
                let pwl = self.evaluator.derive_pwl(breakpoints);
                let lut = match QuantAwareLut::new(pwl, self.lambda) {
                    Ok(l) => l,
                    Err(_) => return f64::INFINITY,
                };
                let range = IntRange::signed(8);
                // INT8 has at most 256 codes, so the output buffer lives
                // on the stack: scoring one individual allocates only the
                // per-scale LUT instantiation.
                let mut out = [0.0f64; 256];
                let total: f64 = self
                    .qaa_grids
                    .iter()
                    .map(|grid| {
                        if grid.ys.is_empty() {
                            // Every code clipped: defined as 0, matching
                            // eval::mse_dequantized.
                            return 0.0;
                        }
                        let inst = lut.instantiate(grid.scale, range);
                        let out = &mut out[..grid.ys.len()];
                        inst.fill_codes(grid.first, out);
                        let mut acc = 0.0f64;
                        for (&a, &r) in out.iter().zip(&grid.ys) {
                            let d = a - r;
                            acc += d * d;
                        }
                        acc / grid.ys.len() as f64
                    })
                    .sum();
                total / self.qaa_grids.len() as f64
            }
        }
    }
}

impl std::fmt::Debug for GeneticSearch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeneticSearch")
            .field("config", &self.config)
            .field("evaluator", &self.scorer.evaluator)
            .finish()
    }
}

impl GeneticSearch {
    /// Builds a search for the configured operator's reference function.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SearchConfig::validate`].
    #[must_use]
    pub fn new(config: SearchConfig) -> Self {
        let op = config.op;
        Self::with_function(config, Arc::new(move |x| op.eval(x)))
    }

    /// Builds a search over a custom target function (the `op` field of the
    /// config is then only used for labeling). This is how downstream users
    /// approximate functions outside the paper's set.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SearchConfig::validate`].
    #[must_use]
    pub fn with_function(
        config: SearchConfig,
        function: Arc<dyn Fn(f64) -> f64 + Send + Sync>,
    ) -> Self {
        config.validate();
        let evaluator = FitnessEvaluator::new(
            Arc::clone(&function),
            config.range,
            config.grid_step,
            config.segment_fit,
        );
        let qaa_grids = if config.fitness == FitnessMode::QuantAwareAverage {
            let range = IntRange::signed(8);
            let (lo, hi) = config.range;
            eval::paper_scale_sweep()
                .into_iter()
                .map(|scale| {
                    let s = scale.to_f64();
                    // S > 0, so the codes whose q·S lies in the search
                    // range form one span: from the first at or above
                    // `lo` while q·S stays at or below `hi`.
                    let first = range
                        .iter()
                        .find(|&q| q as f64 * s >= lo)
                        .unwrap_or(range.qp() + 1);
                    let xs: Vec<f64> = (first..=range.qp())
                        .map(|q| q as f64 * s)
                        .take_while(|&x| x <= hi)
                        .collect();
                    let mut ys = vec![0.0; xs.len()];
                    gqa_funcs::FnEval(|x| function(x)).eval_batch(&xs, &mut ys);
                    DequantGrid { scale, first, ys }
                })
                .collect()
        } else {
            Vec::new()
        };
        let scorer = Arc::new(Scorer {
            fitness: config.fitness,
            lambda: config.lambda,
            evaluator,
            qaa_grids,
        });
        Self { config, scorer }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Test-only access to the shared scorer (used by the pool tests).
    #[cfg(test)]
    pub(crate) fn scorer_for_tests(&self) -> &Arc<Scorer> {
        &self.scorer
    }

    /// Runs the full T-generation evolution and returns the best LUT.
    #[must_use]
    pub fn run(self) -> SearchResult {
        let Self { config, scorer } = self;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (rn, rp) = config.range;
        // Line 1: random FP32 breakpoint population.
        let mut population: Vec<Vec<f64>> = (0..config.population)
            .map(|_| {
                let mut p: Vec<f64> = (0..config.num_breakpoints)
                    .map(|_| rng.gen_range(rn..rp))
                    .collect();
                p.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                p
            })
            .collect();
        let mut scoring = Scoring {
            scorer,
            pool: None,
            scores: Vec::new(),
        };
        let mut history = Vec::with_capacity(config.generations);

        for _ in 0..config.generations {
            // Lines 9–16: stochastic crossover and mutation, in place.
            vary(&config, &mut population, &mut rng);

            // Lines 3–8 + 18: fitness, then 3-size tournament selection
            // onto the next generation (with optional elitism).
            let fitness_now = scoring.score(&mut population);
            let best_idx = argmin(fitness_now);
            history.push(fitness_now[best_idx]);

            let mut next: Vec<Vec<f64>> = Vec::with_capacity(config.population);
            if config.elitism {
                next.push(population[best_idx].clone());
            }
            while next.len() < config.population {
                let w = tournament_select(fitness_now, config.tournament, &mut rng);
                next.push(population[w].clone());
            }
            population = next;
        }

        // Line 20: score the final population and keep its best individual.
        let best_idx = argmin(scoring.score(&mut population));
        let best_breakpoints = population.swap_remove(best_idx);

        // Lines 21–22: derive K*, B* and round to FXP λ.
        let evaluator = &scoring.scorer.evaluator;
        let pwl = evaluator.derive_pwl(&best_breakpoints);
        let lut = QuantAwareLut::new(pwl, config.lambda).expect("valid pwl");
        let best_mse = evaluator.mse(lut.pwl());

        SearchResult {
            config,
            lut,
            best_breakpoints,
            best_mse,
            history,
        }
    }
}

/// Lines 9–16 of Algorithm 1: per individual, a segment-swap crossover
/// with a random partner (probability `θ_c`) and a mutation `M(P_i, θ_r)`
/// (probability `θ_m`).
fn vary(cfg: &SearchConfig, population: &mut [Vec<f64>], rng: &mut StdRng) {
    for i in 0..population.len() {
        let rand_c: f64 = rng.gen_range(0.0..1.0);
        let rand_m: f64 = rng.gen_range(0.0..1.0);
        if rand_c < cfg.crossover_prob && population.len() > 1 {
            // Line 11: random partner j ≠ i.
            let j = loop {
                let j = rng.gen_range(0..population.len());
                if j != i {
                    break j;
                }
            };
            // Line 12: swap a random contiguous segment.
            let nb = cfg.num_breakpoints;
            let a = rng.gen_range(0..nb);
            let b = rng.gen_range(a..nb) + 1;
            // Split-borrow the two individuals.
            let (lo, hi) = if i < j { (i, j) } else { (j, i) };
            let (left, right) = population.split_at_mut(hi);
            let (pi, pj) = (&mut left[lo], &mut right[0]);
            for t in a..b {
                std::mem::swap(&mut pi[t], &mut pj[t]);
            }
            pi.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
            pj.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
        }
        if rand_m < cfg.mutation_prob {
            // Line 15: M(P_i, θ_r).
            match cfg.mutation {
                MutationKind::Gaussian { std } => {
                    gaussian_mutation(&mut population[i], std, cfg.range, rng);
                }
                MutationKind::Rounding => {
                    rounding_mutation(
                        &mut population[i],
                        cfg.rounding_step_prob,
                        cfg.mutate_range,
                        rng,
                    );
                }
            }
        }
    }
}

/// Index of the first minimum fitness.
fn argmin(fitness: &[f64]) -> usize {
    fitness
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite fitness"))
        .map(|(i, _)| i)
        .expect("non-empty population")
}

/// Population scoring for one run: the shared scorer, the persistent
/// pool (spawned on first use) and a score buffer reused across
/// generations.
struct Scoring {
    scorer: Arc<Scorer>,
    pool: Option<ScoringPool>,
    scores: Vec<f64>,
}

impl Scoring {
    /// Scores `population`, returning one fitness per individual in index
    /// order. With enough work and more than one CPU the pool shards the
    /// population across workers; results are written back by index, so
    /// the output is identical to the serial sweep.
    fn score(&mut self, population: &mut Vec<Vec<f64>>) -> &[f64] {
        let n = population.len();
        self.scores.clear();
        self.scores.resize(n, 0.0);

        // Only shard when there is enough work to amortize the channel
        // round-trip: the default paper config (N_p = 50 × 800-point
        // grid) qualifies.
        let work = n * self.scorer.evaluator.data_size();
        let avail = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = avail.min(n / 8).min(8);
        if threads > 1 && work >= 20_000 {
            let pool = self
                .pool
                .get_or_insert_with(|| ScoringPool::spawn(avail.min(8)));
            // Hand the population to the workers as shared ownership,
            // then take it back (the pool drops its clones once every
            // chunk is scored).
            let shared = Arc::new(std::mem::take(population));
            pool.score_into(&self.scorer, &shared, threads, &mut self.scores);
            *population = Arc::try_unwrap(shared).unwrap_or_else(|arc| (*arc).clone());
        } else {
            for (out, p) in self.scores.iter_mut().zip(population.iter()) {
                *out = self.scorer.score(p);
            }
        }
        &self.scores
    }
}

/// The outcome of a genetic search: the FXP LUT plus provenance.
#[derive(Debug, Clone)]
pub struct SearchResult {
    config: SearchConfig,
    lut: QuantAwareLut,
    best_breakpoints: Vec<f64>,
    best_mse: f64,
    history: Vec<f64>,
}

impl SearchResult {
    /// The quantization-aware LUT (FXP slopes/intercepts, FP breakpoints).
    #[must_use]
    pub fn lut(&self) -> &QuantAwareLut {
        &self.lut
    }

    /// The FXP-rounded pwl.
    #[must_use]
    pub fn pwl(&self) -> &Pwl {
        self.lut.pwl()
    }

    /// The winning breakpoint set `P*` (before FXP parameter rounding).
    #[must_use]
    pub fn breakpoints(&self) -> &[f64] {
        &self.best_breakpoints
    }

    /// Grid MSE of the final FXP-rounded pwl (Algorithm 1's objective,
    /// evaluated on the returned artifact).
    #[must_use]
    pub fn best_mse(&self) -> f64 {
        self.best_mse
    }

    /// Best plain-grid fitness per generation (monotone-ish descent trace).
    #[must_use]
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// The configuration that produced this result.
    #[must_use]
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqa_funcs::NonLinearOp;

    fn quick(op: NonLinearOp) -> SearchConfig {
        SearchConfig::for_op(op)
            .with_generations(60)
            .with_population(24)
            .with_seed(7)
    }

    #[test]
    fn deterministic_under_seed() {
        let a = GeneticSearch::new(quick(NonLinearOp::Gelu)).run();
        let b = GeneticSearch::new(quick(NonLinearOp::Gelu)).run();
        assert_eq!(a.breakpoints(), b.breakpoints());
        assert_eq!(a.best_mse(), b.best_mse());
        let c = GeneticSearch::new(quick(NonLinearOp::Gelu).with_seed(8)).run();
        assert_ne!(a.breakpoints(), c.breakpoints());
    }

    #[test]
    fn beats_uniform_breakpoints() {
        let cfg = quick(NonLinearOp::Gelu)
            .with_generations(200)
            .with_population(50);
        let ev = FitnessEvaluator::new(
            Arc::new(|x| NonLinearOp::Gelu.eval(x)),
            cfg.range,
            cfg.grid_step,
            cfg.segment_fit,
        );
        let uniform: Vec<f64> = (1..=7).map(|i| -4.0 + i as f64).collect();
        let (_, uniform_mse) = ev.fitness(&uniform);
        let result = GeneticSearch::new(cfg).run();
        // Compare pre-FXP fitness with pre-FXP fitness (the FXP-rounded
        // artifact carries an additional λ-grid noise floor that the
        // dequantized-grid evaluation of §4.1, not this plain grid, washes
        // out in the tails).
        let (_, ga_mse) = ev.fitness(result.breakpoints());
        assert!(
            ga_mse < uniform_mse,
            "GA {ga_mse} should beat uniform {uniform_mse}"
        );
    }

    #[test]
    fn history_has_one_entry_per_generation() {
        let r = GeneticSearch::new(quick(NonLinearOp::Exp)).run();
        assert_eq!(r.history().len(), 60);
        // Fitness generally improves from start to end.
        assert!(r.history().last().unwrap() <= r.history().first().unwrap());
    }

    #[test]
    fn breakpoints_stay_in_range() {
        for &op in NonLinearOp::PAPER_OPS.iter() {
            let r = GeneticSearch::new(quick(op)).run();
            let (rn, rp) = r.config().range;
            for &p in r.pwl().breakpoints() {
                assert!((rn..=rp).contains(&p), "{op}: {p} outside [{rn}, {rp}]");
            }
        }
    }

    #[test]
    fn sixteen_entry_beats_eight_entry() {
        let r8 = GeneticSearch::new(quick(NonLinearOp::Gelu)).run();
        let r16 = GeneticSearch::new(quick(NonLinearOp::Gelu).with_entries_16()).run();
        assert_eq!(r16.pwl().num_entries(), 16);
        assert!(r16.best_mse() <= r8.best_mse() * 1.2);
    }

    #[test]
    fn rm_breakpoints_tend_to_fxp_grid() {
        // With RM, most winning breakpoints should sit on coarse
        // power-of-two fractions.
        let r = GeneticSearch::new(quick(NonLinearOp::Gelu).with_generations(120)).run();
        let on_grid = r
            .breakpoints()
            .iter()
            .filter(|&&p| {
                let s = p * 64.0; // 6 fractional bits, the finest RM grid
                (s - s.round()).abs() < 1e-9
            })
            .count();
        assert!(
            on_grid >= r.breakpoints().len() / 2,
            "only {on_grid}/{} on the RM grid",
            r.breakpoints().len()
        );
    }

    #[test]
    fn custom_function_search() {
        let cfg = quick(NonLinearOp::Sigmoid); // label only
        let r = GeneticSearch::with_function(cfg, Arc::new(|x: f64| x.abs())).run();
        // |x| is exactly representable with a breakpoint near 0.
        assert!(r.best_mse() < 1e-3, "mse = {}", r.best_mse());
    }

    #[test]
    fn quant_aware_fitness_runs() {
        let cfg = quick(NonLinearOp::Gelu)
            .with_generations(15)
            .with_fitness(FitnessMode::QuantAwareAverage);
        let r = GeneticSearch::new(cfg).run();
        assert!(r.best_mse().is_finite());
    }
}
