//! Search hyper-parameters (Table 1) and builder.

use gqa_funcs::NonLinearOp;
use gqa_pwl::SegmentFit;

/// Which mutation operator `M(·)` Algorithm 1 uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MutationKind {
    /// Additive zero-mean Gaussian noise — the conventional operator, i.e.
    /// "GQA-LUT w/o RM". `std` is the noise standard deviation in input
    /// units.
    Gaussian {
        /// Standard deviation of the additive noise.
        std: f64,
    },
    /// Rounding Mutation (Algorithm 2) — "GQA-LUT w/ RM". Each breakpoint
    /// is, with per-step probability `θ_r`, snapped to `i` fractional bits
    /// for `i ∈ [m_a, m_b]`.
    Rounding,
}

/// How fitness (the selection criterion) is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitnessMode {
    /// Uniform grid over `[Rn, Rp]` with step 0.01 (Algorithm 1, line 6).
    /// This is the paper's fitness.
    PlainGrid,
    /// Extension (ablation): average dequantized-grid MSE over the paper's
    /// scale sweep `S ∈ {2^0 … 2^-6}`; directly optimizes the quantized
    /// objective instead of relying on RM. Slower.
    QuantAwareAverage,
}

/// Full configuration of a GQA-LUT search run.
///
/// Construct with [`SearchConfig::for_op`] for the paper's Table 1 values,
/// then refine with the `with_*` builders.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Target operator (provides `f(·)` and default range).
    pub op: NonLinearOp,
    /// Number of breakpoints `N_b` (entries − 1). Paper default: 7.
    pub num_breakpoints: usize,
    /// Population size `N_p`. Paper default: 50.
    pub population: usize,
    /// Crossover probability `θ_c`. Paper default: 0.7.
    pub crossover_prob: f64,
    /// Mutation probability `θ_m` (per individual per generation).
    /// Paper default: 0.2.
    pub mutation_prob: f64,
    /// RM per-step probability `θ_r` (Table 1; 0 disables RM steps).
    pub rounding_step_prob: f64,
    /// RM mutate range `[m_a, m_b]` (Table 1 footnote rows).
    pub mutate_range: (u32, u32),
    /// Search range `[Rn, Rp]`.
    pub range: (f64, f64),
    /// Number of generations `T`. Paper default: 500.
    pub generations: usize,
    /// Decimal (fractional) bit-width λ of slopes and intercepts.
    /// Paper default: 5. Fitness always scores the λ-rounded pwl, so the
    /// evolution sees the FXP conversion error it will ship with.
    pub lambda: u32,
    /// Fitness grid step. Paper: 0.01.
    pub grid_step: f64,
    /// Mutation operator.
    pub mutation: MutationKind,
    /// Fitness mode.
    pub fitness: FitnessMode,
    /// Segment-parameter derivation.
    pub segment_fit: SegmentFit,
    /// RNG seed (searches are fully deterministic given the seed).
    pub seed: u64,
    /// Tournament size for selection. Paper: 3.
    pub tournament: usize,
    /// Whether the generation's best individual survives unchanged
    /// (elitism). Not spelled out in Algorithm 1; enabled by default as the
    /// standard stabilizer, ablatable via [`SearchConfig::with_elitism`].
    pub elitism: bool,
}

impl SearchConfig {
    /// Table 1 configuration for `op` with the 8-entry LUT
    /// (`N_b = 7`, `[m_a, m_b]_8`), RM enabled where the paper enables it.
    #[must_use]
    pub fn for_op(op: NonLinearOp) -> Self {
        let range = op.default_range();
        let (theta_r, mutate_range) = match op {
            NonLinearOp::Gelu | NonLinearOp::Hswish => (0.05, (0, 6)),
            NonLinearOp::Exp => (0.05, (2, 6)),
            // DIV / RSQRT: θr = 0 — RM degenerates to no-op; the paper runs
            // them as "w/o RM" (§4.1).
            NonLinearOp::Div | NonLinearOp::Rsqrt => (0.0, (0, 6)),
            _ => (0.05, (0, 6)),
        };
        Self {
            op,
            num_breakpoints: 7,
            population: 50,
            crossover_prob: 0.7,
            mutation_prob: 0.2,
            rounding_step_prob: theta_r,
            mutate_range,
            range,
            generations: 500,
            lambda: 5,
            grid_step: 0.01,
            mutation: MutationKind::Rounding,
            fitness: FitnessMode::PlainGrid,
            segment_fit: SegmentFit::LeastSquares,
            seed: 0xC0FFEE,
            tournament: 3,
            elitism: true,
        }
    }

    /// Switches to the 16-entry configuration: `N_b = 15` and the
    /// `[m_a, m_b]_16` row of Table 1.
    #[must_use]
    pub fn with_entries_16(mut self) -> Self {
        self.num_breakpoints = 15;
        self.mutate_range = match self.op {
            NonLinearOp::Gelu => (0, 6),
            NonLinearOp::Hswish => (2, 6),
            NonLinearOp::Exp => (0, 6),
            _ => self.mutate_range,
        };
        self
    }

    /// Uses Gaussian mutation instead of RM ("GQA-LUT w/o RM"); `std`
    /// defaults to 5 % of the range width via
    /// [`SearchConfig::gaussian_default_std`].
    #[must_use]
    pub fn without_rounding_mutation(mut self) -> Self {
        self.mutation = MutationKind::Gaussian {
            std: self.gaussian_default_std(),
        };
        self
    }

    /// Default Gaussian-mutation std: 5 % of the search-range width.
    #[must_use]
    pub fn gaussian_default_std(&self) -> f64 {
        0.05 * (self.range.1 - self.range.0)
    }

    /// Sets the number of generations `T`.
    #[must_use]
    pub fn with_generations(mut self, t: usize) -> Self {
        self.generations = t;
        self
    }

    /// Sets the population size `N_p`.
    #[must_use]
    pub fn with_population(mut self, np: usize) -> Self {
        self.population = np;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fitness mode.
    #[must_use]
    pub fn with_fitness(mut self, fitness: FitnessMode) -> Self {
        self.fitness = fitness;
        self
    }

    /// Sets the segment-fit method.
    #[must_use]
    pub fn with_segment_fit(mut self, fit: SegmentFit) -> Self {
        self.segment_fit = fit;
        self
    }

    /// Sets the tournament size.
    #[must_use]
    pub fn with_tournament(mut self, k: usize) -> Self {
        self.tournament = k;
        self
    }

    /// Enables or disables elitism.
    #[must_use]
    pub fn with_elitism(mut self, on: bool) -> Self {
        self.elitism = on;
        self
    }

    /// Number of LUT entries (`N_b + 1`).
    #[must_use]
    pub fn num_entries(&self) -> usize {
        self.num_breakpoints + 1
    }

    /// Number of fitness-grid points, the paper's "Data Size" row
    /// (0.8K for GELU, 0.35K for DIV, …). Delegates to
    /// [`gqa_funcs::grid_len`] so the reported size always matches the
    /// grid the evaluator actually builds (non-dyadic steps included).
    #[must_use]
    pub fn data_size(&self) -> usize {
        gqa_funcs::grid_len(self.range, self.grid_step)
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if any parameter is out of its
    /// documented domain. Called by [`crate::GeneticSearch::new`].
    pub fn validate(&self) {
        assert!(self.num_breakpoints >= 1, "need at least one breakpoint");
        assert!(self.population >= 2, "population must be at least 2");
        assert!(
            (0.0..=1.0).contains(&self.crossover_prob),
            "crossover probability must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.mutation_prob),
            "mutation probability must be in [0, 1]"
        );
        assert!(self.rounding_step_prob >= 0.0, "θr must be non-negative");
        assert!(
            self.mutate_range.0 <= self.mutate_range.1,
            "mutate range inverted"
        );
        let steps = (self.mutate_range.1 - self.mutate_range.0 + 1) as f64;
        assert!(
            steps * self.rounding_step_prob <= 1.0 + 1e-12,
            "RM total probability (m_b - m_a + 1)·θr = {} exceeds 1",
            steps * self.rounding_step_prob
        );
        assert!(self.range.0 < self.range.1, "empty search range");
        assert!(self.generations >= 1, "need at least one generation");
        assert!(self.grid_step > 0.0, "grid step must be positive");
        assert!(self.tournament >= 1, "tournament size must be at least 1");
        assert!(
            self.data_size() >= 2,
            "fitness grid too coarse for the range"
        );
    }

    /// Order-stable content hash of every field that affects the search
    /// outcome. Used by artifact registries to content-address compiled
    /// LUTs: two configs with equal fingerprints produce bit-identical
    /// results, and any change to a field (or to this encoding) changes
    /// the fingerprint and thus the cache identity.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a fixed field encoding; f64s enter as raw bits.
        let mut h = gqa_funcs::Fnv1a::new();
        h.eat_str(self.op.name());
        h.eat(self.num_breakpoints as u64);
        h.eat(self.population as u64);
        h.eat_f64(self.crossover_prob);
        h.eat_f64(self.mutation_prob);
        h.eat_f64(self.rounding_step_prob);
        h.eat(u64::from(self.mutate_range.0));
        h.eat(u64::from(self.mutate_range.1));
        h.eat_f64(self.range.0);
        h.eat_f64(self.range.1);
        h.eat(self.generations as u64);
        h.eat(u64::from(self.lambda));
        h.eat_f64(self.grid_step);
        match self.mutation {
            MutationKind::Gaussian { std } => {
                h.eat(1);
                h.eat_f64(std);
            }
            MutationKind::Rounding => h.eat(2),
        }
        h.eat(match self.fitness {
            FitnessMode::PlainGrid => 1,
            FitnessMode::QuantAwareAverage => 2,
        });
        h.eat(match self.segment_fit {
            SegmentFit::Interpolate => 1,
            SegmentFit::LeastSquares => 2,
        });
        h.eat(self.seed);
        h.eat(self.tournament as u64);
        h.eat(u64::from(self.elitism));
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = SearchConfig::for_op(NonLinearOp::Gelu);
        assert_eq!(c.num_breakpoints, 7);
        assert_eq!(c.population, 50);
        assert_eq!(c.crossover_prob, 0.7);
        assert_eq!(c.mutation_prob, 0.2);
        assert_eq!(c.generations, 500);
        assert_eq!(c.lambda, 5);
        assert_eq!(c.range, (-4.0, 4.0));
        assert_eq!(c.rounding_step_prob, 0.05);
        assert_eq!(c.mutate_range, (0, 6));
        assert_eq!(c.tournament, 3);
    }

    #[test]
    fn table1_per_op_rows() {
        assert_eq!(SearchConfig::for_op(NonLinearOp::Exp).mutate_range, (2, 6));
        assert_eq!(SearchConfig::for_op(NonLinearOp::Exp).range, (-8.0, 0.0));
        assert_eq!(
            SearchConfig::for_op(NonLinearOp::Div).rounding_step_prob,
            0.0
        );
        assert_eq!(SearchConfig::for_op(NonLinearOp::Rsqrt).range, (0.25, 4.0));
    }

    #[test]
    fn table1_16_entry_rows() {
        let gelu = SearchConfig::for_op(NonLinearOp::Gelu).with_entries_16();
        assert_eq!(gelu.num_breakpoints, 15);
        assert_eq!(gelu.mutate_range, (0, 6));
        let hswish = SearchConfig::for_op(NonLinearOp::Hswish).with_entries_16();
        assert_eq!(hswish.mutate_range, (2, 6));
        let exp = SearchConfig::for_op(NonLinearOp::Exp).with_entries_16();
        assert_eq!(exp.mutate_range, (0, 6));
    }

    #[test]
    fn data_sizes_match_table1() {
        assert_eq!(SearchConfig::for_op(NonLinearOp::Gelu).data_size(), 800);
        assert_eq!(SearchConfig::for_op(NonLinearOp::Hswish).data_size(), 800);
        assert_eq!(SearchConfig::for_op(NonLinearOp::Exp).data_size(), 800);
        assert_eq!(SearchConfig::for_op(NonLinearOp::Div).data_size(), 350);
        assert_eq!(SearchConfig::for_op(NonLinearOp::Rsqrt).data_size(), 375);
    }

    #[test]
    fn builders_compose() {
        let c = SearchConfig::for_op(NonLinearOp::Gelu)
            .with_generations(10)
            .with_population(8)
            .with_seed(1)
            .with_tournament(2);
        assert_eq!(
            (c.generations, c.population, c.seed, c.tournament),
            (10, 8, 1, 2)
        );
    }

    #[test]
    fn without_rm_switches_to_gaussian() {
        let c = SearchConfig::for_op(NonLinearOp::Gelu).without_rounding_mutation();
        assert_eq!(c.mutation, MutationKind::Gaussian { std: 0.4 });
    }

    #[test]
    fn validate_accepts_paper_configs() {
        for &op in NonLinearOp::PAPER_OPS.iter() {
            SearchConfig::for_op(op).validate();
            SearchConfig::for_op(op).with_entries_16().validate();
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 1")]
    fn validate_rejects_oversized_rm_probability() {
        let mut c = SearchConfig::for_op(NonLinearOp::Gelu);
        c.rounding_step_prob = 0.2; // 7 steps × 0.2 = 1.4 > 1
        c.validate();
    }
}
