//! Set-up: model init, calibration, cold LUT compile, engine build and
//! server start, timed phase by phase and repeated for a steady figure.

use std::sync::Arc;
use std::time::Instant;

use gqa::funcs::NonLinearOp;
use gqa::serve::{serve_kind, Engine, EngineBuilder, LutRegistry, OperatorPlan};
use gqa::tensor::{ExactBackend, UnaryBackend};

use crate::report::Values;
use crate::stats::median;

/// Set-ups before the timed phase, and again after it. The cold compile
/// runs the genetic search on every core, so one set-up's time swings by a
/// third with what else the host runs.
pub const SETUP_REPS: usize = 8;

/// The operators a plan may compile, with their metric names.
const COMPILED: [(NonLinearOp, &str); 4] = [
    (NonLinearOp::Gelu, "registry.compile_s.gelu"),
    (NonLinearOp::Exp, "registry.compile_s.exp"),
    (NonLinearOp::Div, "registry.compile_s.div"),
    (NonLinearOp::Rsqrt, "registry.compile_s.rsqrt"),
];

/// Points of the `lut_mse` grid per operator.
const MSE_GRID: usize = 4096;

/// Wall time of one set-up, phase by phase.
#[derive(Debug, Default, Clone)]
pub struct SetupTimes {
    pub init_ms: f64,
    pub calibrate_ms: f64,
    /// Cold compile per entry of [`COMPILED`]; 0 for an unplanned operator.
    pub compile_s: [f64; 4],
    pub engine_build_ms: f64,
    pub start_ms: f64,
    pub total_s: f64,
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Cold-compiles every planned operator on a fresh registry, one timed
/// `get_or_build` each, then builds the engine over the warm registry.
pub fn build_engine(plan: OperatorPlan, times: &mut SetupTimes) -> Engine {
    let registry = Arc::new(LutRegistry::new());
    for (op, p) in plan.iter() {
        let slot = COMPILED
            .iter()
            .position(|&(o, _)| o == op)
            .expect("the benchmark plans only these operators");
        let t = Instant::now();
        registry
            .get_or_build(&p.spec(op))
            .expect("planned operator compiles");
        times.compile_s[slot] = t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    let engine = EngineBuilder::new(plan)
        .with_registry(registry)
        .build()
        .expect("engine builds from a warm registry");
    times.engine_build_ms = ms_since(t);
    engine
}

/// Runs `setup` several times, tearing each result down before the next
/// starts, and keeps the last result.
pub fn repeat<T>(mut setup: impl FnMut() -> (T, SetupTimes)) -> (T, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for i in 0..SETUP_REPS {
        drop(kept.take());
        let (ready, t) = setup();
        println!("set-up {}: {:.3} s", i + 1, t.total_s);
        times.push(t);
        kept = Some(ready);
    }
    (kept.expect("at least one set-up"), times)
}

fn median_of(times: &[SetupTimes], field: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(field).collect::<Vec<_>>())
}

/// `setup_s`: the fastest set-up. Interference from the rest of the host
/// only adds time, so the least of many set-ups is the steadiest estimate
/// of what set-up costs.
pub fn setup_s(times: &[SetupTimes]) -> f64 {
    times
        .iter()
        .map(|t| t.total_s)
        .min_by(f64::total_cmp)
        .expect("at least one set-up")
}

/// The per-layer set-up metrics: each phase's median.
pub fn layer_values(times: &[SetupTimes], values: &mut Values) {
    for (i, &(_, name)) in COMPILED.iter().enumerate() {
        values.set(name, median_of(times, |t| t.compile_s[i]));
    }
    values.set(
        "serve.engine_build_ms",
        median_of(times, |t| t.engine_build_ms),
    );
    values.set("setup.calibrate_ms", median_of(times, |t| t.calibrate_ms));
    values.set("models.init_ms", median_of(times, |t| t.init_ms));
    values.set("served.start_ms", median_of(times, |t| t.start_ms));
}

/// `lut_mse`: the served datapath's mean squared error against the exact
/// backend on a fixed grid over each planned operator's input range,
/// averaged over the planned operators.
pub fn lut_mse(engine: &Engine) -> f64 {
    let session = engine.session();
    let plan = engine.plan();
    let mut total = 0.0;
    for (op, _) in plan.iter() {
        let kind = serve_kind(op).expect("planned operators are servable");
        let (lo, hi) = op.default_range();
        let xs: Vec<f32> = (0..MSE_GRID)
            .map(|i| (lo + (hi - lo) * i as f64 / (MSE_GRID - 1) as f64) as f32)
            .collect();
        let (mut got, mut want) = (vec![0.0; MSE_GRID], vec![0.0; MSE_GRID]);
        session.eval_many_f32(kind, &xs, &mut got);
        ExactBackend.eval_many_f32(kind, &xs, &mut want);
        let sse: f64 = got
            .iter()
            .zip(&want)
            .map(|(g, w)| (f64::from(*g) - f64::from(*w)).powi(2))
            .sum();
        total += sse / MSE_GRID as f64;
    }
    total / plan.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_s_is_the_fastest_set_up_and_phases_are_medians() {
        let times: Vec<SetupTimes> = [0.31, 0.27, 0.40]
            .iter()
            .zip([2.0, 1.0, 3.0])
            .map(|(&total_s, init_ms)| SetupTimes {
                total_s,
                init_ms,
                ..SetupTimes::default()
            })
            .collect();
        assert_eq!(setup_s(&times), 0.27);
        assert_eq!(median_of(&times, |t| t.init_ms), 2.0);
    }
}
