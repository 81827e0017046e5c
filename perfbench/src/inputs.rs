//! Seeded workload inputs: everything `--seed` drives, and nothing else.
//!
//! Model weights, calibration inputs, plan seeds and budgets are fixed
//! program configuration, so the set-up work and `lut_mse` never depend
//! on the seed; only the scenes, schedules, traces and prompts do.

use gqa::data::{SceneConfig, SynthScapes};
use gqa::funcs::Fnv1a;
use gqa::served::{generate_trace, LoadGenConfig, TraceEntry};
use gqa::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input families; each draws from its own stream of the seed.
const SCENES: u64 = 1;
const SCHEDULE: u64 = 2;
const PICKS: u64 = 3;
const SESSIONS: u64 = 4;

/// The generator of input family `family` under `seed`.
fn stream(seed: u64, family: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ family.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One open-loop arrival: when it is due (ns after its phase starts) and
/// which scene it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub scene: usize,
}

/// A Poisson arrival schedule at `rate_per_s` over `seconds`, drawing
/// scenes from `0..scenes`. It is built before the run, so a stall cannot
/// thin the offered load.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64, scenes: usize) -> Vec<Arrival> {
    let mut rng = stream(seed, SCHEDULE);
    let mut at = 0.0;
    let mut schedule = Vec::new();
    loop {
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate_per_s;
        if at >= seconds {
            return schedule;
        }
        schedule.push(Arrival {
            due_ns: (at * 1e9) as u64,
            scene: rng.gen_range(0..scenes),
        });
    }
}

/// `n` scene draws from `0..scenes`.
pub fn scene_picks(seed: u64, n: usize, scenes: usize) -> Vec<usize> {
    let mut rng = stream(seed, PICKS);
    (0..n).map(|_| rng.gen_range(0..scenes)).collect()
}

/// The seed's `n` SynthScapes 48×96 scenes (CHW).
pub fn scene_pool(seed: u64, n: usize) -> Vec<Tensor> {
    let scenes = SynthScapes::new(SceneConfig::benchmark(), stream(seed, SCENES).gen());
    (0..n as u64).map(|i| scenes.sample(i).image).collect()
}

/// One decode session: its prompt and how many tokens it generates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    pub prompt: Vec<usize>,
    pub gen_len: usize,
}

/// `n` decode sessions over a `vocab`-token vocabulary. Prompt and
/// generation lengths are spread evenly over their inclusive ranges, then
/// paired and ordered by the seed, so every seed offers the same amount of
/// work; prompt tokens are uniform.
pub fn session_specs(
    seed: u64,
    n: usize,
    vocab: usize,
    prompt: (usize, usize),
    gen_len: (usize, usize),
) -> Vec<SessionSpec> {
    let mut rng = stream(seed, SESSIONS);
    let spread = |(lo, hi): (usize, usize)| -> Vec<usize> {
        (0..n)
            .map(|i| lo + (hi - lo) * i / (n - 1).max(1))
            .collect()
    };
    let (mut prompts, mut gens) = (spread(prompt), spread(gen_len));
    for lens in [&mut prompts, &mut gens] {
        for i in (1..n).rev() {
            lens.swap(i, rng.gen_range(0..=i));
        }
    }
    prompts
        .into_iter()
        .zip(gens)
        .map(|(len, gen_len)| SessionSpec {
            prompt: (0..len).map(|_| rng.gen_range(0..vocab)).collect(),
            gen_len,
        })
        .collect()
}

/// The seed's Zipfian request trace over `tenants` tenants and one model.
pub fn rpc_trace(seed: u64, requests: usize, tenants: usize) -> Vec<TraceEntry> {
    generate_trace(&LoadGenConfig {
        seed,
        requests,
        tenants,
        models: 1,
        skew: 1.0,
        mean_gap: 0,
    })
}

/// Stacks same-shaped tensors into one `[n, ...shape]` batch.
pub fn stack(rows: &[Tensor]) -> Tensor {
    let mut shape = vec![rows.len()];
    shape.extend_from_slice(&rows[0].shape);
    let data = rows.iter().flat_map(|t| t.data.iter().copied()).collect();
    Tensor::from_vec(data, &shape)
}

/// A request's identity as a model adapter sees it: FNV-1a over up to 128
/// evenly strided elements of its input row — enough to tell generated
/// inputs apart, and cheap on a 13824-element scene.
pub fn row_key(row: &[f32]) -> u64 {
    let mut h = Fnv1a::new();
    for v in row.iter().step_by((row.len() / 128).max(1)) {
        h.eat(u64::from(v.to_bits()));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqa::served::trace_fingerprint;

    fn specs(seed: u64) -> Vec<SessionSpec> {
        session_specs(seed, 16, 256, (16, 128), (16, 64))
    }

    #[test]
    fn one_seed_gives_identical_inputs() {
        assert_eq!(
            poisson_schedule(9, 150.0, 2.0, 32),
            poisson_schedule(9, 150.0, 2.0, 32)
        );
        assert_eq!(scene_picks(9, 64, 32), scene_picks(9, 64, 32));
        assert_eq!(specs(9), specs(9));
        let (a, b) = (rpc_trace(9, 512, 8), rpc_trace(9, 512, 8));
        assert_eq!(a, b);
        assert_eq!(trace_fingerprint(&a), trace_fingerprint(&b));
        let bits = |ts: Vec<Tensor>| -> Vec<u32> {
            ts.iter()
                .flat_map(|t| t.data.iter().map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(bits(scene_pool(9, 2)), bits(scene_pool(9, 2)));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        assert_ne!(
            poisson_schedule(9, 150.0, 2.0, 32),
            poisson_schedule(10, 150.0, 2.0, 32)
        );
        assert_ne!(scene_picks(9, 64, 32), scene_picks(10, 64, 32));
        assert_ne!(specs(9), specs(10));
        assert_ne!(
            trace_fingerprint(&rpc_trace(9, 512, 8)),
            trace_fingerprint(&rpc_trace(10, 512, 8))
        );
        assert_ne!(
            row_key(&scene_pool(9, 1)[0].data),
            row_key(&scene_pool(10, 1)[0].data)
        );
    }

    #[test]
    fn schedule_offers_its_rate() {
        let s = poisson_schedule(3, 150.0, 20.0, 32);
        assert!((2700..=3300).contains(&s.len()), "{} arrivals", s.len());
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().all(|a| a.scene < 32 && a.due_ns < 20_000_000_000));
    }

    #[test]
    fn every_seed_offers_the_same_decode_work() {
        let lengths = |seed| {
            let s = specs(seed);
            assert!(s.iter().all(|x| x.prompt.iter().all(|&t| t < 256)));
            let mut p: Vec<usize> = s.iter().map(|x| x.prompt.len()).collect();
            let mut g: Vec<usize> = s.iter().map(|x| x.gen_len).collect();
            p.sort_unstable();
            g.sort_unstable();
            (p, g)
        };
        let (p, g) = lengths(1);
        assert_eq!((p[0], p[15], g[0], g[15]), (16, 128, 16, 64));
        assert_eq!(lengths(2), (p, g));
    }
}
