//! `gqa-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <segment|rpc|decode> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one named workload through the public APIs of the
//! `gqa` crates, checks every response bit for bit against references
//! computed before the timed phase, and prints as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. `METRICS.md` defines each metric and why each workload
//! exists.

mod decode;
mod inputs;
mod lutprof;
mod report;
mod rpc;
mod segment;
mod setup;
mod stats;
mod trace;

use std::sync::Arc;

use gqa::served::Served;
use gqa::tensor::Tensor;

use report::{Tally, Values};
use setup::SetupTimes;
use stats::Latencies;
use trace::{Batch, ModelSpan, Recorder, RequestSpan};

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Segment,
    Rpc,
    Decode,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Segment => "segment",
            Workload::Rpc => "rpc",
            Workload::Decode => "decode",
        }
    }
}

/// The command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    /// Seed of the generated inputs, and of nothing else.
    seed: u64,
    /// How long the run measures.
    seconds: f64,
    /// Whether this is the traced run, which reports per-layer metrics.
    trace: bool,
}

const USAGE: &str =
    "usage: gqa-perfbench --workload <segment|rpc|decode> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "segment" => Workload::Segment,
                        "rpc" => Workload::Rpc,
                        "decode" => Workload::Decode,
                        _ => return Err(format!("unknown workload {value:?}")),
                    });
                }
                "--seed" => {
                    seed = value
                        .parse()
                        .map_err(|e| format!("bad --seed {value:?}: {e}"))?;
                }
                "--seconds" => {
                    seconds = value
                        .parse()
                        .map_err(|e| format!("bad --seconds {value:?}: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 120.0) {
                        return Err(format!("--seconds {seconds} is outside (0, 120]"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    };
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// One measured pass of a workload.
#[derive(Debug, Default)]
struct Pass {
    tally: Tally,
    /// The samples behind `latency_p50_us` and `latency_p90_us`.
    latency: Latencies,
    /// `throughput_per_s`.
    throughput: f64,
    /// Every successful request, for the traced run's request trees.
    requests: Vec<RequestSpan>,
    /// Per-layer values the pass measured itself; the traced run reports
    /// the traced pass's.
    layer: Values,
}

/// What a workload supplies to [`run`].
trait Bench: Sized {
    /// The span name of a coalesced batch in the request trees.
    const BATCH_SPAN: &'static str;
    /// The per-layer metric that a request's median self time reports.
    const SELF_TIME: &'static str;
    /// The seed's inputs, with their references.
    type Inputs;

    /// One set-up: the serving stack, ready for load, and its phase times.
    fn setup(rec: &Arc<Recorder>) -> (Self, SetupTimes);
    /// The server under load.
    fn served(&self) -> &Served;
    /// Makes the seed's inputs for passes of up to `seconds` and computes
    /// every reference, before any timed phase.
    fn inputs(&self, seed: u64, seconds: f64) -> Self::Inputs;
    /// One pass of `seconds` under load.
    fn measure(&mut self, inp: &Self::Inputs, rec: &Recorder, seconds: f64) -> Pass;
    /// The workload's own per-layer values from the traced pass's model
    /// spans, grouped into `batches`, and from the stack.
    fn layer_values(&self, spans: &[ModelSpan], batches: &[Batch], values: &mut Values);
    /// The LUT profile of batch-1 model calls (see [`lutprof::profile`]).
    fn profile(&self, inp: &Self::Inputs, values: &mut Values);
}

/// What a workload run hands back: its operation counts and its metrics.
struct Outcome {
    tally: Tally,
    values: Values,
}

/// Runs workload `B`: [`setup::SETUP_REPS`] set-ups, the timed passes,
/// then as many set-ups again once the served stack is torn down, so
/// `setup_s` samples the host at both ends of the run.
///
/// An untraced run measures one pass and reports the end-to-end metrics
/// (`peak_rss_mb` is read at exit). A traced run measures an untraced
/// quarter, a traced half and an untraced quarter, and reports the
/// per-layer metrics: the traced half's, with `trace.overhead_pct`
/// against the mean of the untraced quarters.
fn run<B: Bench>(args: &Args) -> Outcome {
    let rec = Arc::new(Recorder::default());
    let (mut bench, mut setups) = setup::repeat(|| B::setup(&rec));
    let inp = bench.inputs(args.seed, args.seconds);
    let mut values = Values::default();
    let tally = if args.trace {
        let quarter = args.seconds / 4.0;
        let first = bench.measure(&inp, &rec, quarter);
        let before = bench.served().stats();
        rec.set_enabled(true);
        let traced = bench.measure(&inp, &rec, args.seconds / 2.0);
        rec.set_enabled(false);
        let after = bench.served().stats();
        let last = bench.measure(&inp, &rec, quarter);

        let spans = rec.take();
        let batches = trace::batches(&spans);
        bench.layer_values(&spans, &batches, &mut values);
        let tree = trace::request_trees(&traced.requests, &batches, B::BATCH_SPAN);
        values.set(B::SELF_TIME, tree.median_self_us("request"));
        values.set(
            "served.submit_us",
            trace::median_submit_us(&traced.requests),
        );
        report::served_stats(&before, &after, &mut values);
        let untraced_p50 = (first.latency.percentile(50) + last.latency.percentile(50)) / 2.0;
        values.set(
            "trace.overhead_pct",
            report::overhead_pct(untraced_p50, traced.latency.percentile(50)),
        );
        bench.profile(&inp, &mut values);
        tree.save(args.workload.name(), args.seed);
        values.extend(traced.layer);
        let mut tally = first.tally;
        tally.add(traced.tally);
        tally.add(last.tally);
        tally
    } else {
        let pass = bench.measure(&inp, &rec, args.seconds);
        values.set("lut_mse", setup::lut_mse(bench.served().engine()));
        values.set("latency_p50_us", pass.latency.percentile(50));
        values.set("latency_p90_us", pass.latency.percentile(90));
        values.set("throughput_per_s", pass.throughput);
        pass.tally
    };
    drop(bench);
    setups.extend(setup::repeat(|| B::setup(&rec)).1);
    if args.trace {
        setup::layer_values(&setups, &mut values);
    } else {
        values.set("setup_s", setup::setup_s(&setups));
    }
    Outcome { tally, values }
}

/// A tensor's raw bits: what "bit for bit" compares.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| v.to_bits()).collect()
}

/// Whether `t` holds exactly the bits `want`.
fn same_bits(t: &Tensor, want: &[u32]) -> bool {
    t.data.len() == want.len() && t.data.iter().zip(want).all(|(v, w)| v.to_bits() == *w)
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let mut outcome = match args.workload {
        Workload::Segment => run::<segment::Segment>(&args),
        Workload::Rpc => run::<rpc::Rpc>(&args),
        Workload::Decode => run::<decode::Decode>(&args),
    };
    outcome.tally.log(args.workload.name());
    if args.trace {
        report::print_result(outcome.tally, &outcome.values, &report::PER_LAYER);
    } else {
        outcome.values.set("peak_rss_mb", report::peak_rss_mb());
        report::print_result(outcome.tally, &outcome.values, &report::END_TO_END);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        assert_eq!(
            parse("--workload rpc --seed 7 --seconds 20 --trace 1"),
            Ok(Args {
                workload: Workload::Rpc,
                seed: 7,
                seconds: 20.0,
                trace: true,
            })
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 3").is_err());
        assert!(parse("--workload decode --trace 2").is_err());
        assert!(parse("--workload decode --seconds").is_err());
    }
}
