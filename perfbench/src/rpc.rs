//! `rpc`: a 64-wide MLP behind `NetServer` on loopback.
//!
//! The forward is tiny — one 64×64 matmul, GELU and a row softmax — so
//! the transport, fair admission and the coalescer deadline set the
//! latency: this is where the socket path and the adaptive batching
//! deadline show. Two `NetClient` connections, one thread each, replay
//! the seeded Zipfian trace back to back in a closed loop. Decode and
//! heavy forwards are never touched.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gqa::funcs::NonLinearOp;
use gqa::net::{NetClient, NetConfig, NetServer};
use gqa::serve::{CalibrationRecorder, Method, OpPlan, OperatorPlan};
use gqa::served::{
    dispatch_batch, request_input, ModelForward, ModelSpec, Served, ServedBuilder, ServedConfig,
    TraceEntry,
};
use gqa::tensor::{BufferPool, EvalMode, Graph, NodeId, Tensor, UnaryKind};

use crate::inputs::{row_key, rpc_trace, stack};
use crate::lutprof;
use crate::report::Values;
use crate::setup::{self, ms_since, SetupTimes};
use crate::trace::{self, Batch, ModelSpan, Recorder, RequestSpan};
use crate::{bits, same_bits, Bench, Pass};

const DIM: usize = 64;
const TENANTS: usize = 8;
const CONNECTIONS: usize = 2;
/// Length of the replayed trace; the connections cycle through it.
const TRACE_LEN: usize = 4096;
/// Calibration rows: a fixed trace, independent of the run seed.
const CALIBRATION_SEED: u64 = 0xCA11;
const CALIBRATION_ROWS: usize = 64;
/// Batch-1 forwards of the LUT profile.
const PROFILE_FORWARDS: usize = 1024;

/// The MLP, with one fixed weight (program configuration, not a seeded
/// input).
struct Net {
    weight: Vec<f32>,
}

impl Net {
    fn new() -> Self {
        let weight = (0..DIM * DIM)
            .map(|i| ((i as f32) * 0.37).sin() * 0.5)
            .collect();
        Self { weight }
    }

    fn forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        let w = g.input(Tensor::from_vec(self.weight.clone(), &[DIM, DIM]));
        let h = g.matmul(x, w);
        let u = g.unary(h, UnaryKind::Gelu);
        g.softmax_rows(u)
    }
}

/// The benchmark's `ModelForward` adapter: the MLP, timed when tracing.
struct Adapter {
    net: Arc<Net>,
    rec: Arc<Recorder>,
}

impl ModelForward for Adapter {
    fn forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        let start = self.rec.now_ns();
        let y = self.net.forward(g, x);
        self.rec.forward(start, g.value(x));
        y
    }
}

/// The running stack. The clients come first, so they hang up before the
/// server shuts down.
pub struct Rpc {
    clients: Vec<NetClient>,
    server: NetServer,
    spec: ModelSpec,
    net: Arc<Net>,
}

/// The seed's trace with its inputs, their keys and their references.
pub struct Inputs {
    trace: Vec<TraceEntry>,
    rows: Vec<Tensor>,
    keys: Vec<u64>,
    refs: Vec<Vec<u32>>,
}

/// One connection's closed loop over trace entries `c`, `c + 2`, `c + 4`,
/// …, cycling, until `deadline`.
fn replay(
    client: &mut NetClient,
    c: usize,
    inp: &Inputs,
    rec: &Recorder,
    deadline: Instant,
) -> Pass {
    let mut pass = Pass::default();
    let mut i = c;
    while Instant::now() < deadline {
        let j = i % inp.trace.len();
        i += CONNECTIONS;
        let input = inp.rows[j].clone();
        let start_ns = rec.now_ns();
        let out = client.infer(inp.trace[j].tenant as u64, 0, input);
        let end_ns = rec.now_ns();
        match out {
            Ok(out) if same_bits(&out, &inp.refs[j]) => {
                pass.tally.ok();
                pass.latency.record((end_ns - start_ns) as f64 / 1e3);
                pass.requests.push(RequestSpan {
                    start_ns,
                    submit: None,
                    end_ns,
                    key: inp.keys[j],
                });
            }
            Ok(_) => {
                pass.tally.mismatch();
                pass.latency.fail();
            }
            Err(_) => {
                pass.tally.fail();
                pass.latency.fail();
            }
        }
    }
    pass
}

impl Bench for Rpc {
    const BATCH_SPAN: &'static str = "models.forward";
    const SELF_TIME: &'static str = "net.non_forward_us";
    type Inputs = Inputs;

    fn setup(rec: &Arc<Recorder>) -> (Self, SetupTimes) {
        let mut times = SetupTimes::default();
        let t0 = Instant::now();
        let net = Arc::new(Net::new());
        times.init_ms = ms_since(t0);

        let t = Instant::now();
        let rows: Vec<Tensor> = rpc_trace(CALIBRATION_SEED, CALIBRATION_ROWS, TENANTS)
            .iter()
            .map(|e| request_input(e, &[DIM]))
            .collect();
        let calib = CalibrationRecorder::new();
        {
            let mut g = Graph::new_inference(&calib);
            let x = g.input(stack(&rows));
            let _ = net.forward(&mut g, x);
        }
        let base = OpPlan::new(Method::GqaRm);
        let plan = OperatorPlan::new()
            .with(NonLinearOp::Gelu, base)
            .with(NonLinearOp::Exp, base)
            .with(NonLinearOp::Div, base)
            .calibrated(&calib);
        times.calibrate_ms = ms_since(t);

        let engine = setup::build_engine(plan, &mut times);

        let t = Instant::now();
        let adapter = Adapter {
            net: Arc::clone(&net),
            rec: Arc::clone(rec),
        };
        let spec = ModelSpec::from_model("mlp", &[DIM], adapter);
        let served = ServedBuilder::new(engine)
            .with_model(spec.clone())
            .with_config(ServedConfig {
                tenants: TENANTS,
                ..ServedConfig::default()
            })
            .build();
        let server = NetServer::spawn(served, "127.0.0.1:0", NetConfig::default())
            .expect("bind a loopback port");
        let clients = (0..CONNECTIONS)
            .map(|_| NetClient::connect(server.addr(), "perfbench").expect("connect over loopback"))
            .collect();
        times.start_ms = ms_since(t);
        times.total_s = t0.elapsed().as_secs_f64();
        let rpc = Rpc {
            clients,
            server,
            spec,
            net,
        };
        (rpc, times)
    }

    fn served(&self) -> &Served {
        self.server.served()
    }

    fn inputs(&self, seed: u64, _seconds: f64) -> Inputs {
        let trace = rpc_trace(seed, TRACE_LEN, TENANTS);
        let rows: Vec<Tensor> = trace.iter().map(|e| request_input(e, &[DIM])).collect();
        let session = self.served().engine().session();
        let mut pool = BufferPool::new();
        let refs = rows
            .iter()
            .map(|x| {
                let out = dispatch_batch(&session, &self.spec, std::slice::from_ref(x), &mut pool);
                bits(&out[0])
            })
            .collect();
        Inputs {
            keys: rows.iter().map(|x| row_key(&x.data)).collect(),
            refs,
            rows,
            trace,
        }
    }

    fn measure(&mut self, inp: &Inputs, rec: &Recorder, seconds: f64) -> Pass {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let parts: Vec<Pass> = std::thread::scope(|s| {
            let loops: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| s.spawn(move || replay(client, c, inp, rec, deadline)))
                .collect();
            loops
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        let mut pass = Pass::default();
        for part in parts {
            pass.latency.merge(part.latency);
            pass.requests.extend(part.requests);
            pass.tally.add(part.tally);
        }
        pass.throughput = (pass.tally.attempted - pass.tally.failed) as f64 / elapsed;
        pass.tally.log("rpc (closed loop, 2 connections)");
        println!("rpc round trip: {}", pass.latency.describe("us"));
        println!("rpc: {:.1} req/s", pass.throughput);
        pass
    }

    fn layer_values(&self, _spans: &[ModelSpan], batches: &[Batch], values: &mut Values) {
        trace::forward_values(batches, values);
        let server = &self.server;
        let mut waits = server.admission_wait(0);
        for tenant in 1..TENANTS {
            waits.merge(&server.admission_wait(tenant));
        }
        values.set(
            "net.admission_wait_ticks",
            waits.quantile_ns(0.9).unwrap_or(0) as f64,
        );
        let net = server.stats();
        values.set("net.quota_rejections", net.quota_rejections as f64);
        values.set("net.protocol_errors", net.protocol_errors as f64);
    }

    fn profile(&self, inp: &Inputs, values: &mut Values) {
        let session = self.served().engine().session();
        let mut pool = BufferPool::new();
        lutprof::profile(
            &session,
            PROFILE_FORWARDS,
            |backend, i| {
                let mut g =
                    Graph::with_mode(backend, EvalMode::Inference, std::mem::take(&mut pool));
                let x = g.input(stack(std::slice::from_ref(&inp.rows[i % inp.rows.len()])));
                let _ = self.net.forward(&mut g, x);
                pool = g.recycle();
                1
            },
            values,
        );
    }
}
