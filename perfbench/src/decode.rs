//! `decode`: TinyDecoder served in process through `DecodeSession`s.
//!
//! This workload uses the served layer statefully: KV appends, the
//! per-session state hand-off around every coalesced step, and a prefill
//! that takes one step per prompt token. Eight sessions run in a closed
//! loop driven from one thread; each greedy-decodes a seeded prompt, then
//! is reset and restarts with the next one. Batched prefill and stacked
//! steps would show here. The network layer is never touched.
//!
//! One load thread resubmits all eight sessions' steps within
//! microseconds of each other, so every round coalesces the same way. Two load
//! threads let the rounds split across the workers in patterns that
//! persist for a whole run, and the per-token latency then differs by a
//! third from run to run.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gqa::models::{argmax, DecoderConfig, TinyDecoder};
use gqa::serve::{CalibrationRecorder, Method, OpPlan, OperatorPlan};
use gqa::served::{
    DecodeSession, DecodeState, ModelDecode, ModelForward, ModelSpec, Served, ServedBuilder,
    ServedConfig, Ticket,
};
use gqa::tensor::{BufferPool, Graph, KvCache, NodeId, ParamStore, Tensor};

use crate::inputs::{session_specs, SessionSpec};
use crate::lutprof;
use crate::report::Values;
use crate::setup::{self, ms_since, SetupTimes};
use crate::stats::{median, Latencies};
use crate::trace::{Batch, ModelSpan, Recorder, RequestSpan};
use crate::{Bench, Pass};

const SESSIONS: usize = 8;
const PROMPT_LEN: (usize, usize) = (16, 128);
const GEN_LEN: (usize, usize) = (16, 64);
/// KV capacity: the longest prompt plus the longest generation.
const MAX_LEN: usize = PROMPT_LEN.1 + GEN_LEN.1;
/// Distinct sessions of a run. Sessions take them in turn, so every
/// reference decode runs before the timed phase.
const POOL: usize = 48;
/// The calibration prompt: fixed tokens, independent of the run seed.
const CALIBRATION_TOKENS: usize = 64;
const MODEL_SEED: u64 = 7;
/// A step still unresolved after this long counts as failed.
const TIMEOUT: Duration = Duration::from_secs(10);
/// Sessions greedy-decoded by the LUT profile.
const PROFILE_SESSIONS: usize = 4;

struct Net {
    model: TinyDecoder,
    ps: ParamStore,
}

/// A session's decode state: the layer KV caches, plus the identity the
/// traced run keys its steps by.
struct State {
    caches: Vec<KvCache>,
    tag: u64,
    steps: u64,
}

thread_local! {
    /// The tag of the last state made on this thread. `open_decode` and
    /// `reset` make states on the calling thread, which reads it back.
    static LAST_TAG: Cell<u64> = const { Cell::new(0) };
}

/// The trace key of step `step` of the state tagged `tag`.
fn step_key(tag: u64, step: u64) -> u64 {
    (tag << 24) | step
}

/// The benchmark's adapter: KV-cached decode steps, timed when tracing.
struct Adapter {
    net: Arc<Net>,
    rec: Arc<Recorder>,
    tags: AtomicU64,
}

impl ModelForward for Adapter {
    fn forward(&self, _g: &mut Graph<'_>, _x: NodeId) -> NodeId {
        unreachable!("the decode workload only steps")
    }

    fn decode(&self) -> Option<&dyn ModelDecode> {
        Some(self)
    }
}

impl ModelDecode for Adapter {
    fn new_state(&self) -> DecodeState {
        let tag = self.tags.fetch_add(1, Ordering::Relaxed) + 1;
        LAST_TAG.set(tag);
        let mut pool = BufferPool::new();
        Box::new(State {
            caches: self.net.model.new_caches(MAX_LEN, &mut pool),
            tag,
            steps: 0,
        })
    }

    fn step(&self, g: &mut Graph<'_>, input: &Tensor, state: &mut DecodeState) -> Tensor {
        // A worker records all the steps of a coalesced batch on one tape.
        let first_on_tape = g.is_empty();
        let start = self.rec.now_ns();
        let state = state
            .downcast_mut::<State>()
            .expect("decode state comes from new_state");
        let token = input.data[0] as usize;
        let logits = self
            .net
            .model
            .step_logits(g, &self.net.ps, token, &mut state.caches);
        let out = g.value(logits).clone();
        self.rec
            .step(start, first_on_tape, step_key(state.tag, state.steps));
        state.steps += 1;
        out
    }
}

/// The served stack of this workload.
pub struct Decode {
    served: Served,
    net: Arc<Net>,
}

/// The seed's sessions and their reference generations.
pub struct Inputs {
    specs: Vec<SessionSpec>,
    refs: Vec<Vec<usize>>,
}

/// What the closed loop counts besides the common [`Pass`], whose
/// latencies are the inter-token gaps.
#[derive(Default)]
struct Counts {
    ttft: Latencies,
    tokens: u64,
    prefill_steps: u64,
    prefilled: u64,
}

/// One session of the loop and where it stands.
struct Slot {
    session: DecodeSession,
    tenant: usize,
    /// The tag of the session's current state.
    tag: u64,
    /// The running session spec.
    spec: usize,
    /// Steps completed in the running sequence.
    fed: usize,
    /// The token the next step feeds.
    token: usize,
    started_ns: u64,
    last_token_ns: u64,
    pending: Option<(Ticket, (u64, u64))>,
}

impl Slot {
    fn open(served: &Served, tenant: usize) -> Self {
        let session = served
            .open_decode(tenant, 0)
            .expect("open a decode session");
        Self {
            session,
            tenant,
            tag: LAST_TAG.get(),
            spec: 0,
            fed: 0,
            token: 0,
            started_ns: 0,
            last_token_ns: 0,
            pending: None,
        }
    }

    /// Starts sequence `spec` from its first prompt token.
    fn begin(&mut self, spec: usize, inp: &Inputs, now_ns: u64) {
        self.spec = spec;
        self.fed = 0;
        self.token = inp.specs[spec].prompt[0];
        self.started_ns = now_ns;
    }

    /// Gives the session a fresh state: `reset`, or a new session when a
    /// timed-out step still holds the old state.
    fn renew(&mut self, served: &Served, timed_out: bool) {
        if timed_out || self.session.reset().is_err() {
            self.session = served
                .open_decode(self.tenant, 0)
                .expect("open a decode session");
        }
        self.tag = LAST_TAG.get();
    }

    fn submit(&mut self, rec: &Recorder, pass: &mut Pass) {
        let input = Tensor::from_vec(vec![self.token as f32], &[1]);
        let start_ns = rec.now_ns();
        match self.session.step(input) {
            Ok(ticket) => self.pending = Some((ticket, (start_ns, rec.now_ns()))),
            Err(_) => pass.tally.fail(),
        }
    }
}

/// The closed loop: waits on each session's step in turn, checks it, and
/// submits that session's next step, for `seconds`.
fn closed_loop(served: &Served, inp: &Inputs, rec: &Recorder, seconds: f64) -> Pass {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut next = 0;
    let mut next_spec = || {
        next += 1;
        (next - 1) % inp.specs.len()
    };
    let mut pass = Pass::default();
    let mut c = Counts::default();
    let mut slots: Vec<Slot> = (0..SESSIONS)
        .map(|tenant| Slot::open(served, tenant))
        .collect();
    for slot in &mut slots {
        slot.begin(next_spec(), inp, rec.now_ns());
        slot.submit(rec, &mut pass);
    }
    while slots.iter().any(|s| s.pending.is_some()) {
        for slot in &mut slots {
            let Some((mut ticket, submit)) = slot.pending.take() else {
                continue;
            };
            let result = ticket.wait_timeout(TIMEOUT);
            let now = rec.now_ns();
            let timed_out = result.is_none();
            let spec = &inp.specs[slot.spec];
            let step = slot.fed;
            // Step `step` feeds token `step`; from the last prompt token on,
            // its logits give generated token `k`.
            let k = (step + 1).checked_sub(spec.prompt.len());
            let finished = match result {
                Some(Ok(logits)) => {
                    slot.fed += 1;
                    if step < spec.prompt.len() {
                        c.prefill_steps += 1;
                    }
                    pass.requests.push(RequestSpan {
                        start_ns: submit.0,
                        submit: Some(submit),
                        end_ns: now,
                        key: step_key(slot.tag, step as u64),
                    });
                    match k {
                        None => {
                            pass.tally.ok();
                            slot.token = spec.prompt[step + 1];
                            false
                        }
                        Some(k) => {
                            let token = argmax(&logits.data);
                            if token == inp.refs[slot.spec][k] {
                                pass.tally.ok();
                                c.tokens += 1;
                                if k == 0 {
                                    c.prefilled += 1;
                                    c.ttft.record((now - slot.started_ns) as f64 / 1e6);
                                } else {
                                    pass.latency.record((now - slot.last_token_ns) as f64 / 1e3);
                                }
                                slot.last_token_ns = now;
                                slot.token = token;
                                k + 1 == spec.gen_len
                            } else {
                                pass.tally.mismatch();
                                if k == 0 {
                                    c.ttft.fail();
                                } else {
                                    pass.latency.fail();
                                }
                                true
                            }
                        }
                    }
                }
                _ => {
                    pass.tally.fail();
                    match k {
                        Some(k) if k > 0 => pass.latency.fail(),
                        _ => c.ttft.fail(),
                    }
                    true
                }
            };
            if Instant::now() >= deadline {
                continue;
            }
            if finished {
                slot.renew(served, timed_out);
                slot.begin(next_spec(), inp, rec.now_ns());
            }
            slot.submit(rec, &mut pass);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    pass.throughput = c.tokens as f64 / elapsed;
    pass.tally.log("decode (closed loop, 8 sessions)");
    println!(
        "decode inter-token latency: {}",
        pass.latency.describe("us")
    );
    println!("decode time to first token: {}", c.ttft.describe("ms"));
    println!("decode: {:.1} generated tokens/s", pass.throughput);
    pass.layer.set(
        "models.prefill_steps",
        c.prefill_steps as f64 / c.prefilled.max(1) as f64,
    );
    pass.layer.set("session.ttft_p50_ms", c.ttft.percentile(50));
    pass.layer.set("session.ttft_p90_ms", c.ttft.percentile(90));
    pass
}

impl Bench for Decode {
    const BATCH_SPAN: &'static str = "models.step_batch";
    const SELF_TIME: &'static str = "served.wait_us";
    type Inputs = Inputs;

    fn setup(rec: &Arc<Recorder>) -> (Self, SetupTimes) {
        let mut times = SetupTimes::default();
        let t0 = Instant::now();
        let mut ps = ParamStore::new();
        let model = TinyDecoder::new(&mut ps, DecoderConfig::benchmark(), MODEL_SEED);
        times.init_ms = ms_since(t0);

        let t = Instant::now();
        let vocab = model.config().vocab;
        let tokens: Vec<usize> = (0..CALIBRATION_TOKENS)
            .map(|i| (i * 37 + 11) % vocab)
            .collect();
        let calib = CalibrationRecorder::new();
        {
            let mut g = Graph::new_inference(&calib);
            let _ = model.forward_logits(&mut g, &ps, &tokens);
        }
        let plan = OperatorPlan::segformer(OpPlan::new(Method::GqaRm)).calibrated(&calib);
        times.calibrate_ms = ms_since(t);

        let engine = setup::build_engine(plan, &mut times);

        let t = Instant::now();
        let net = Arc::new(Net { model, ps });
        let adapter = Adapter {
            net: Arc::clone(&net),
            rec: Arc::clone(rec),
            tags: AtomicU64::new(0),
        };
        let served = ServedBuilder::new(engine)
            .with_model(ModelSpec::from_model("tiny-decoder", &[1], adapter))
            .with_config(ServedConfig {
                tenants: SESSIONS,
                ..ServedConfig::default()
            })
            .build();
        times.start_ms = ms_since(t);
        times.total_s = t0.elapsed().as_secs_f64();
        (Decode { served, net }, times)
    }

    fn served(&self) -> &Served {
        &self.served
    }

    fn inputs(&self, seed: u64, _seconds: f64) -> Inputs {
        let vocab = self.net.model.config().vocab;
        let specs = session_specs(seed, POOL, vocab, PROMPT_LEN, GEN_LEN);
        let session = self.served.engine().session();
        let refs = specs
            .iter()
            .map(|s| {
                let seq = self.net.model.greedy_decode(
                    &session,
                    &self.net.ps,
                    &s.prompt,
                    s.gen_len,
                    MAX_LEN,
                );
                seq[s.prompt.len()..].to_vec()
            })
            .collect();
        Inputs { specs, refs }
    }

    fn measure(&mut self, inp: &Inputs, rec: &Recorder, seconds: f64) -> Pass {
        closed_loop(&self.served, inp, rec, seconds)
    }

    fn layer_values(&self, spans: &[ModelSpan], _batches: &[Batch], values: &mut Values) {
        let step_us: Vec<f64> = spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        values.set("models.step_us", median(&step_us));
    }

    fn profile(&self, inp: &Inputs, values: &mut Values) {
        let session = self.served.engine().session();
        lutprof::profile(
            &session,
            PROFILE_SESSIONS,
            |backend, i| {
                let s = &inp.specs[i];
                let _ = self.net.model.greedy_decode(
                    backend,
                    &self.net.ps,
                    &s.prompt,
                    s.gen_len,
                    MAX_LEN,
                );
                (s.prompt.len() + s.gen_len) as u64
            },
            values,
        );
    }
}
