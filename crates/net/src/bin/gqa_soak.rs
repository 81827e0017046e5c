//! `gqa-soak`: a loopback soak/load binary for the network front door.
//!
//! Spins up the full stack in one process — LUT engine, `Served`
//! front-end, `NetServer` on an ephemeral loopback port — then replays
//! the deterministic seeded Zipfian trace through real `NetClient`
//! connections (one per tenant) until the deadline, printing the
//! Prometheus text export at a fixed cadence and once more at exit.
//!
//! CI runs `gqa-soak --duration 3s` on both SIMD legs and asserts the
//! final export is non-empty; the exit code is non-zero if the run
//! completed no requests (a wedged pipeline must fail the smoke, not
//! pass it silently).
//!
//! ```text
//! gqa-soak [--duration 3s] [--tenants 4] [--export-every 1s]
//!          [--seed 0xBE7C] [--skew 1.0] [--quota 64]
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gqa_net::{NetClient, NetConfig, NetError, NetServer, RemoteError};
use gqa_serve::{EngineBuilder, Method, NonLinearOp, OpPlan, OperatorPlan};
use gqa_served::{
    generate_trace, request_input, BatchConfig, LoadGenConfig, ModelSpec, ServedBuilder,
    ServedConfig,
};
use gqa_tensor::{Tensor, UnaryKind};

const DIM: usize = 32;

struct Args {
    duration: Duration,
    tenants: usize,
    export_every: Duration,
    seed: u64,
    skew: f64,
    quota: usize,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            duration: Duration::from_secs(3),
            tenants: 4,
            export_every: Duration::from_secs(1),
            seed: 0xBE7C,
            skew: 1.0,
            quota: 64,
        }
    }
}

/// Parses `<digits><unit>` with unit `ms`, `s` or `m` (`250ms`, `3s`,
/// `2m`). A duration too long to set a deadline with is rejected.
fn parse_duration(s: &str) -> Result<Duration, String> {
    let (digits, unit) = s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()));
    let n: u64 = digits.parse().map_err(|_| format!("bad duration: {s}"))?;
    let too_long = || format!("duration too long: {s}");
    let d = match unit {
        "ms" => Duration::from_millis(n),
        "s" => Duration::from_secs(n),
        "m" => Duration::from_secs(n.checked_mul(60).ok_or_else(too_long)?),
        _ => return Err(format!("bad duration unit in: {s} (use ms, s, or m)")),
    };
    Instant::now().checked_add(d).ok_or_else(too_long)?;
    Ok(d)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--duration" => args.duration = parse_duration(&value("--duration")?)?,
            "--export-every" => args.export_every = parse_duration(&value("--export-every")?)?,
            "--tenants" => {
                args.tenants = value("--tenants")?
                    .parse()
                    .map_err(|e| format!("bad --tenants: {e}"))?;
            }
            "--seed" => {
                let v = value("--seed")?;
                let v = v.strip_prefix("0x").unwrap_or(&v).to_string();
                args.seed = u64::from_str_radix(&v, 16)
                    .or_else(|_| v.parse())
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--skew" => {
                args.skew = value("--skew")?
                    .parse()
                    .map_err(|e| format!("bad --skew: {e}"))?;
            }
            "--quota" => {
                args.quota = value("--quota")?
                    .parse()
                    .map_err(|e| format!("bad --quota: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "gqa-soak [--duration 3s] [--tenants 4] [--export-every 1s] \
                     [--seed 0xBE7C] [--skew 1.0] [--quota 64]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.tenants == 0 {
        return Err("--tenants must be positive".into());
    }
    if args.quota == 0 {
        return Err("--quota must be positive".into());
    }
    Ok(args)
}

/// The soaked model: matmul, LUT-served GELU, row softmax — the same
/// transformer-block-shaped unit of work the serving benches use.
fn mlp_spec() -> ModelSpec {
    let weight: Vec<f32> = (0..DIM * DIM)
        .map(|i| ((i as f32) * 0.37).sin() * 0.5)
        .collect();
    ModelSpec::new("mlp", &[DIM], move |g, x| {
        let w = g.input(Tensor::from_vec(weight.clone(), &[DIM, DIM]));
        let h = g.matmul(x, w);
        let u = g.unary(h, UnaryKind::Gelu);
        g.softmax_rows(u)
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gqa-soak: {e}");
            std::process::exit(2);
        }
    };

    let engine = EngineBuilder::new(OperatorPlan::new().with(
        NonLinearOp::Gelu,
        OpPlan::new(Method::GqaRm).with_seed(7).with_budget(0.05),
    ))
    .build()
    .expect("engine build");
    let served = ServedBuilder::new(engine)
        .with_model(mlp_spec())
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 16,
                max_wait: 2,
                capacity: 4096,
                quota: args.quota,
            },
            workers: 2,
            tenants: args.tenants,
        })
        .build();
    let server =
        NetServer::spawn(served, "127.0.0.1:0", NetConfig::default()).expect("bind loopback");
    let addr = server.addr();
    println!("gqa-soak: serving on {addr}, {} tenants", args.tenants);

    let trace = generate_trace(&LoadGenConfig {
        seed: args.seed,
        requests: 4096,
        tenants: args.tenants,
        models: 1,
        skew: args.skew,
        mean_gap: 0,
    });
    let row_shape = [DIM];

    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let deadline = Instant::now() + args.duration;

    std::thread::scope(|scope| {
        for tenant in 0..args.tenants {
            let (trace, stop, completed, shed) = (&trace, &stop, &completed, &shed);
            scope.spawn(move || {
                let mut client =
                    NetClient::connect(addr, &format!("soak-{tenant}")).expect("connect");
                // Closed-loop replay of this tenant's slice, looped until
                // the deadline; backpressure (quota or shared-queue
                // rejection) is counted and shed, as a real client would.
                'soak: loop {
                    for e in trace.iter().filter(|e| e.tenant == tenant) {
                        if stop.load(Ordering::Relaxed) {
                            break 'soak;
                        }
                        let input = request_input(e, &row_shape);
                        match client.infer(tenant as u64, 0, input) {
                            Ok(_) => {
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(NetError::Remote(
                                RemoteError::QuotaExceeded { .. } | RemoteError::Rejected { .. },
                            )) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(NetError::Remote(RemoteError::ShuttingDown)) => break 'soak,
                            Err(e) => panic!("soak client error: {e}"),
                        }
                    }
                }
            });
        }

        // Exporter: periodic Prometheus dumps, then signal the clients.
        let mut next_export = Instant::now() + args.export_every;
        while Instant::now() < deadline {
            std::thread::sleep(args.export_every.min(Duration::from_millis(50)));
            if Instant::now() >= next_export {
                next_export += args.export_every;
                println!(
                    "--- export @ {:?} ---",
                    args.duration - (deadline - Instant::now())
                );
                print!("{}", server.prometheus());
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    let report = server.prometheus();
    println!("--- final export ---");
    print!("{report}");
    let done = completed.load(Ordering::Relaxed);
    println!(
        "gqa-soak: {} completed, {} shed, {} connections, {} quota rejections, {} protocol errors",
        done,
        shed.load(Ordering::Relaxed),
        server.stats().connections,
        server.stats().quota_rejections,
        server.stats().protocol_errors,
    );
    drop(server);
    if report.is_empty() || done == 0 {
        eprintln!("gqa-soak: FAILED — empty export or zero completed requests");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_duration_takes_digits_then_one_unit() {
        assert_eq!(parse_duration("250ms"), Ok(Duration::from_millis(250)));
        assert_eq!(parse_duration("3s"), Ok(Duration::from_secs(3)));
        assert_eq!(parse_duration("2m"), Ok(Duration::from_secs(120)));
        for bad in ["", "3", "s3", "1m30s", "1m5", "3 s", "-3s", "3h"] {
            assert!(parse_duration(bad).is_err(), "{bad:?} must be rejected");
        }
        // `n * 60` overflows u64, and u64::MAX seconds overflows a deadline.
        assert!(parse_duration(&format!("{}m", u64::MAX / 60 + 1)).is_err());
        assert!(parse_duration(&format!("{}s", u64::MAX)).is_err());
    }
}
