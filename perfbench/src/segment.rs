//! `segment`: SegformerLite served in process by `Served`.
//!
//! The forward dominates this workload: a batch-1 forward takes a few
//! milliseconds, a large share of it in LUT sweeps, so changes to the LUT
//! datapath, the matmul and conv kernels, or the coalescer's queueing
//! show here. The network layer and decode are never touched.
//!
//! Phase A is an open loop: a seeded Poisson schedule at a fixed rate of
//! about half the saturation throughput, one thread submitting on time
//! and one collecting the tickets. Latency runs from each request's due
//! time, so a stall also charges the requests queued behind it. The two
//! serving workers can finish a later batch before an earlier one, so the
//! collector times each request when its own ticket resolves, sweeping the
//! open tickets rather than waiting on them in order. Phase B saturates
//! the server: one thread keeps `2 × max_batch` requests outstanding.

use std::collections::VecDeque;
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gqa::data::{SceneConfig, SynthScapes};
use gqa::models::{SegConfig, SegformerLite};
use gqa::serve::{CalibrationRecorder, Method, OpPlan, OperatorPlan};
use gqa::served::{
    dispatch_batch, ModelForward, ModelSpec, Request, Served, ServedBuilder, ServedConfig,
    ServedError, Ticket,
};
use gqa::tensor::{BufferPool, EvalMode, Graph, NodeId, ParamStore, Tensor};

use crate::inputs::{poisson_schedule, row_key, scene_picks, scene_pool, stack, Arrival};
use crate::lutprof;
use crate::report::{Tally, Values};
use crate::setup::{self, ms_since, SetupTimes};
use crate::stats::{median, percentile_of};
use crate::trace::{self, Batch, ModelSpan, Recorder, RequestSpan};
use crate::{bits, same_bits, Bench, Pass};

/// Phase A's offered load: about half the saturation throughput of a
/// 2-vCPU host, so queues form and drain.
const RATE_PER_S: f64 = 150.0;
/// Share of the measured time given to phase A; phase B gets the rest.
const PHASE_A_SHARE: f64 = 0.6;
/// Distinct scenes of a run. Requests draw from them, so every reference
/// forward runs before the timed phases.
const SCENES: usize = 32;
/// Scene draws of phase B, cycled.
const PICKS: usize = 4096;
/// The calibration batch: fixed scenes, independent of the run seed.
const CALIBRATION_SEED: u64 = 0xCA11;
const CALIBRATION_SCENES: u64 = 4;
const MODEL_SEED: u64 = 7;
const ROW: [usize; 3] = [3, 48, 96];
/// A ticket still unresolved after this long counts as failed.
const TIMEOUT: Duration = Duration::from_secs(10);
/// How long the phase-A collector waits on the oldest open ticket before
/// it sweeps the others again: about the most by which it can time late a
/// request that finished before an older one.
const SWEEP: Duration = Duration::from_micros(100);
/// Batch-1 forwards of the LUT profile.
const PROFILE_FORWARDS: usize = 16;

struct Net {
    model: SegformerLite,
    ps: ParamStore,
}

/// The benchmark's `ModelForward` adapter: the model's forward, timed
/// when tracing.
struct Adapter {
    net: Arc<Net>,
    rec: Arc<Recorder>,
}

impl ModelForward for Adapter {
    fn forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        let start = self.rec.now_ns();
        let y = self.net.model.forward(g, &self.net.ps, x);
        self.rec.forward(start, g.value(x));
        y
    }
}

/// The served stack of this workload.
pub struct Segment {
    served: Served,
    spec: ModelSpec,
    net: Arc<Net>,
}

/// A run's scenes with their keys and references, and its two load plans.
pub struct Inputs {
    scenes: Vec<Tensor>,
    keys: Vec<u64>,
    refs: Vec<Vec<u32>>,
    /// Phase A's arrivals for the longest pass; a shorter pass sends the
    /// ones due within it.
    schedule: Vec<Arrival>,
    picks: Vec<usize>,
}

/// A phase-A request the collector has not seen resolve yet.
struct Open {
    due_ns: u64,
    submit: (u64, u64),
    scene: usize,
    ticket: Ticket,
}

/// What phase A saw.
#[derive(Default)]
struct PhaseA {
    tally: Tally,
    late_ms: Vec<f64>,
    /// Requests that resolved while an older one was still open.
    overtook: u64,
}

impl PhaseA {
    /// Records request `o`, which resolved to `result` by `end_ns`.
    fn finish(
        &mut self,
        o: Open,
        result: Result<Tensor, ServedError>,
        end_ns: u64,
        inp: &Inputs,
        pass: &mut Pass,
    ) {
        match result {
            Ok(out) if same_bits(&out, &inp.refs[o.scene]) => {
                self.tally.ok();
                pass.latency
                    .record(end_ns.saturating_sub(o.due_ns) as f64 / 1e3);
                pass.requests.push(RequestSpan {
                    start_ns: o.due_ns,
                    submit: Some(o.submit),
                    end_ns,
                    key: inp.keys[o.scene],
                });
            }
            Ok(_) => {
                self.tally.mismatch();
                pass.latency.fail();
            }
            Err(_) => self.failed(pass),
        }
    }

    fn failed(&mut self, pass: &mut Pass) {
        self.tally.fail();
        pass.latency.fail();
    }
}

/// Phase A over the arrivals due within `seconds`: one thread submits on
/// the schedule while this one collects.
fn phase_a(served: &Served, inp: &Inputs, rec: &Recorder, seconds: f64, pass: &mut Pass) -> PhaseA {
    let start_ns = rec.now_ns();
    let span_ns = (seconds * 1e9) as u64;
    let timeout_ns = TIMEOUT.as_nanos() as u64;
    let mut a = PhaseA::default();
    let (tx, rx) = mpsc::channel::<(Arrival, (u64, u64), Option<Ticket>)>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for &arrival in inp.schedule.iter().take_while(|x| x.due_ns < span_ns) {
                let input = inp.scenes[arrival.scene].clone();
                rec.sleep_until(start_ns + arrival.due_ns);
                let submit_ns = rec.now_ns();
                let ticket = served
                    .submit(Request {
                        tenant: 0,
                        model: 0,
                        input,
                    })
                    .ok();
                if tx
                    .send((arrival, (submit_ns, rec.now_ns()), ticket))
                    .is_err()
                {
                    return;
                }
            }
        });
        let mut open: VecDeque<Open> = VecDeque::new();
        let mut submitting = true;
        loop {
            // Take every submission so far; block for one only when no
            // request is open.
            while submitting {
                let got = if open.is_empty() {
                    rx.recv().map_err(|_| TryRecvError::Disconnected)
                } else {
                    rx.try_recv()
                };
                match got {
                    Ok((arrival, submit, ticket)) => {
                        let due_ns = start_ns + arrival.due_ns;
                        a.late_ms.push(submit.0.saturating_sub(due_ns) as f64 / 1e6);
                        match ticket {
                            Some(ticket) => open.push_back(Open {
                                due_ns,
                                submit,
                                scene: arrival.scene,
                                ticket,
                            }),
                            None => a.failed(pass),
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => submitting = false,
                }
            }
            if open.is_empty() {
                break;
            }
            // Wait on the oldest for at most one sweep interval, then time
            // every open request whose ticket has resolved.
            if let Some(result) = open[0].ticket.wait_timeout(SWEEP) {
                let o = open.pop_front().expect("an open request");
                a.finish(o, result, rec.now_ns(), inp, pass);
            }
            let mut i = 0;
            while i < open.len() {
                if let Some(result) = open[i].ticket.try_consume() {
                    let o = open.remove(i).expect("an open request");
                    a.overtook += u64::from(i > 0);
                    a.finish(o, result, rec.now_ns(), inp, pass);
                } else if rec.now_ns().saturating_sub(open[i].submit.0) > timeout_ns {
                    open.remove(i);
                    a.failed(pass);
                } else {
                    i += 1;
                }
            }
        }
    });
    a
}

/// Phase B: keep `2 × max_batch` requests outstanding for `seconds`;
/// returns the completed requests per second.
fn phase_b(served: &Served, inp: &Inputs, seconds: f64, tally: &mut Tally) -> f64 {
    let outstanding = 2 * served.batch_config().max_batch;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut queue: VecDeque<(usize, Ticket)> = VecDeque::with_capacity(outstanding);
    let mut next = 0;
    let mut completed = 0u64;
    loop {
        while queue.len() < outstanding && Instant::now() < deadline {
            let scene = inp.picks[next % inp.picks.len()];
            next += 1;
            let input = inp.scenes[scene].clone();
            match served.submit(Request {
                tenant: 0,
                model: 0,
                input,
            }) {
                Ok(ticket) => queue.push_back((scene, ticket)),
                Err(_) => {
                    tally.fail();
                    break;
                }
            }
        }
        let Some((scene, mut ticket)) = queue.pop_front() else {
            break;
        };
        match ticket.wait_timeout(TIMEOUT) {
            Some(Ok(out)) if same_bits(&out, &inp.refs[scene]) => {
                completed += 1;
                tally.ok();
            }
            Some(Ok(_)) => tally.mismatch(),
            _ => tally.fail(),
        }
    }
    completed as f64 / start.elapsed().as_secs_f64()
}

impl Bench for Segment {
    const BATCH_SPAN: &'static str = "models.forward";
    const SELF_TIME: &'static str = "served.wait_us";
    type Inputs = Inputs;

    fn setup(rec: &Arc<Recorder>) -> (Self, SetupTimes) {
        let mut times = SetupTimes::default();
        let t0 = Instant::now();
        let mut ps = ParamStore::new();
        let model = SegformerLite::new(&mut ps, SegConfig::benchmark(), MODEL_SEED);
        times.init_ms = ms_since(t0);

        let t = Instant::now();
        let scenes = SynthScapes::new(SceneConfig::benchmark(), CALIBRATION_SEED);
        let images: Vec<Tensor> = (0..CALIBRATION_SCENES)
            .map(|i| scenes.sample(i).image)
            .collect();
        let calib = CalibrationRecorder::new();
        {
            let mut g = Graph::new_inference(&calib);
            let x = g.input(stack(&images));
            let _ = model.forward(&mut g, &ps, x);
        }
        let plan = OperatorPlan::segformer(OpPlan::new(Method::GqaRm)).calibrated(&calib);
        times.calibrate_ms = ms_since(t);

        let engine = setup::build_engine(plan, &mut times);

        let t = Instant::now();
        let net = Arc::new(Net { model, ps });
        let adapter = Adapter {
            net: Arc::clone(&net),
            rec: Arc::clone(rec),
        };
        let spec = ModelSpec::from_model("segformer", &ROW, adapter);
        let served = ServedBuilder::new(engine)
            .with_model(spec.clone())
            .with_config(ServedConfig::default())
            .build();
        times.start_ms = ms_since(t);
        times.total_s = t0.elapsed().as_secs_f64();
        (Segment { served, spec, net }, times)
    }

    fn served(&self) -> &Served {
        &self.served
    }

    fn inputs(&self, seed: u64, seconds: f64) -> Inputs {
        let scenes = scene_pool(seed, SCENES);
        let session = self.served.engine().session();
        let mut pool = BufferPool::new();
        let refs = scenes
            .iter()
            .map(|s| {
                let out = dispatch_batch(&session, &self.spec, std::slice::from_ref(s), &mut pool);
                bits(&out[0])
            })
            .collect();
        Inputs {
            keys: scenes.iter().map(|s| row_key(&s.data)).collect(),
            refs,
            schedule: poisson_schedule(seed, RATE_PER_S, seconds * PHASE_A_SHARE, SCENES),
            picks: scene_picks(seed, PICKS, SCENES),
            scenes,
        }
    }

    fn measure(&mut self, inp: &Inputs, rec: &Recorder, seconds: f64) -> Pass {
        let mut pass = Pass::default();
        let a = phase_a(&self.served, inp, rec, seconds * PHASE_A_SHARE, &mut pass);
        let mut b = Tally::default();
        pass.throughput = phase_b(&self.served, inp, seconds * (1.0 - PHASE_A_SHARE), &mut b);
        a.tally.log("segment phase A (open loop)");
        println!(
            "segment phase A latency from due time: {}",
            pass.latency.describe("us")
        );
        println!(
            "segment phase A: {} of {} requests finished while an older one was open \
             (timed to within a {} us sweep)",
            a.overtook,
            a.tally.attempted,
            SWEEP.as_micros()
        );
        let late_p99 = percentile_of(&a.late_ms, 99);
        println!(
            "segment phase A generator lateness: median {:.3} ms, p99 {late_p99:.3} ms",
            median(&a.late_ms)
        );
        b.log("segment phase B (saturation)");
        println!("segment phase B: {:.1} req/s", pass.throughput);
        pass.layer.set("loadgen.late_ms", late_p99);
        pass.tally = a.tally;
        pass.tally.add(b);
        pass
    }

    fn layer_values(&self, _spans: &[ModelSpan], batches: &[Batch], values: &mut Values) {
        trace::forward_values(batches, values);
    }

    fn profile(&self, inp: &Inputs, values: &mut Values) {
        let session = self.served.engine().session();
        let mut pool = BufferPool::new();
        lutprof::profile(
            &session,
            PROFILE_FORWARDS,
            |backend, i| {
                let mut g =
                    Graph::with_mode(backend, EvalMode::Inference, std::mem::take(&mut pool));
                let x = g.input(stack(std::slice::from_ref(&inp.scenes[i % SCENES])));
                let _ = self.net.model.forward(&mut g, &self.net.ps, x);
                pool = g.recycle();
                1
            },
            values,
        );
    }
}
