//! Loopback equivalence: the socket adds nothing and loses nothing.
//!
//! Every test runs the full stack — engine, `Served` front-end on a
//! virtual clock, `NetServer` on an ephemeral loopback port, a real
//! `NetClient` — and pins the load-bearing transport contract: a
//! response read off the socket is `to_bits`-identical to a
//! batch-of-one [`dispatch_batch`] reference on the same engine state.
//! That holds on the exact backend, the LUT backend, across a
//! mid-trace [`Engine::swap`] and a mid-trace [`Engine::refresh`], and
//! step-for-step for KV-cached decode sessions. Typed server errors
//! survive the wire with their payloads intact, and a client that
//! disconnects mid-flight wedges nothing.

use std::io::Read;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use gqa_funcs::NonLinearOp;
use gqa_models::{DecoderConfig, ServedDecoder, TinyDecoder};
use gqa_net::{
    decode_response, encode_request, write_frame, NetClient, NetConfig, NetError, NetServer,
    RemoteError, RequestFrame, ResponseFrame,
};
use gqa_serve::{
    shard_file_name, Engine, EngineBuilder, LutRegistry, Method, OpPlan, OperatorPlan, Session,
};
use gqa_served::{
    dispatch_batch, generate_trace, request_input, BatchConfig, LoadGenConfig, ModelSpec,
    ServedBuilder, ServedConfig,
};
use gqa_tensor::{BufferPool, EvalMode, Graph, KvCache, ParamStore, Tensor, UnaryKind};

const DIM: usize = 8;
const MAX_LEN: usize = 32;

fn base_plan() -> OpPlan {
    OpPlan::new(Method::GqaRm).with_seed(1).with_budget(0.05)
}

fn exact_engine() -> Engine {
    EngineBuilder::new(OperatorPlan::new()).build().unwrap()
}

/// An engine serving GELU through the GQA-RM LUT built with `seed`.
fn gelu_engine(seed: u64) -> Engine {
    EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, base_plan().with_seed(seed)))
        .build()
        .unwrap()
}

/// The same transformer-ish block the served-level suites pin: matmul,
/// GELU (whatever datapath the engine serves), row softmax, layer norm.
fn mlp_spec() -> ModelSpec {
    let weight: Vec<f32> = (0..DIM * DIM)
        .map(|i| ((i as f32) * 0.37).sin() * 0.5)
        .collect();
    ModelSpec::new("mlp", &[DIM], move |g, x| {
        let w = g.input(Tensor::from_vec(weight.clone(), &[DIM, DIM]));
        let h = g.matmul(x, w);
        let u = g.unary(h, UnaryKind::Gelu);
        let s = g.softmax_rows(u);
        g.layernorm_rows(s, 1e-5)
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| v.to_bits()).collect()
}

/// Virtual-clock server behind a loopback socket. `max_wait = 0` keeps
/// every poll deadline-ready so nothing waits on clock movement.
fn loopback(engine: Engine, spec: ModelSpec) -> NetServer {
    let served = ServedBuilder::new(engine)
        .with_model(spec)
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 4,
                max_wait: 0,
                capacity: 64,
                ..BatchConfig::default()
            },
            workers: 2,
            tenants: 4,
        })
        .with_virtual_clock()
        .build();
    NetServer::spawn(served, "127.0.0.1:0", NetConfig::default()).expect("bind loopback")
}

/// Batch-of-one reference bits on `session` — what every socket
/// response must equal.
fn reference(session: &Session, spec: &ModelSpec, x: &Tensor, pool: &mut BufferPool) -> Vec<u32> {
    bits(&dispatch_batch(session, spec, std::slice::from_ref(x), pool)[0])
}

/// Replays the deterministic Zipf trace through a socket client and
/// checks every response against the batch-of-one reference.
fn assert_socket_equivalence(engine: Engine, tag: &str) {
    let spec = mlp_spec();
    let server = loopback(engine, spec.clone());
    let session = server.served().engine().session();
    let mut pool = BufferPool::new();
    let mut client = NetClient::connect(server.addr(), tag).unwrap();
    assert_eq!(client.server_info().models, 1);
    assert_eq!(client.server_info().tenants, 4);

    let trace = generate_trace(&LoadGenConfig {
        seed: 0x5EED,
        requests: 24,
        tenants: 4,
        models: 1,
        skew: 1.0,
        mean_gap: 1,
    });
    for (i, e) in trace.iter().enumerate() {
        let input = request_input(e, &[DIM]);
        let want = reference(&session, &spec, &input, &mut pool);
        let got = client.infer(e.tenant as u64, 0, input).unwrap();
        assert_eq!(
            bits(&got),
            want,
            "socket response {i} ({tag}) diverges from batch-of-one"
        );
    }
    assert_eq!(server.served().stats().completed, trace.len() as u64);
}

#[test]
fn socket_responses_match_batch_of_one_on_the_exact_backend() {
    assert_socket_equivalence(exact_engine(), "exact");
}

#[test]
fn socket_responses_match_batch_of_one_on_the_lut_backend() {
    assert_socket_equivalence(gelu_engine(1), "lut");
}

/// A mid-trace [`Engine::swap`] under live socket traffic: responses
/// before the swap match the old artifact, responses after match the
/// new one, and the two artifacts observably differ.
#[test]
fn socket_equivalence_holds_across_a_mid_trace_swap() {
    let spec = mlp_spec();
    let server = loopback(gelu_engine(1), spec.clone());
    let session = server.served().engine().session();
    let mut pool = BufferPool::new();
    let mut client = NetClient::connect(server.addr(), "swap").unwrap();

    let inputs: Vec<Tensor> = (0..6)
        .map(|i| {
            Tensor::from_vec(
                (0..DIM)
                    .map(|j| ((i * DIM + j) as f32 * 0.13).sin())
                    .collect(),
                &[DIM],
            )
        })
        .collect();

    // Phase 1: old artifact.
    let before: Vec<Vec<u32>> = inputs[..3]
        .iter()
        .map(|x| reference(&session, &spec, x, &mut pool))
        .collect();
    for (x, want) in inputs[..3].iter().zip(&before) {
        assert_eq!(&bits(&client.infer(0, 0, x.clone()).unwrap()), want);
    }

    // Mid-trace retune through the co-located control plane. The
    // blocking client is lockstep, so the server is quiesced here.
    server
        .served()
        .engine()
        .swap(NonLinearOp::Gelu, base_plan().with_seed(2))
        .unwrap();

    // Phase 2: new artifact.
    for x in &inputs[3..] {
        let want = reference(&session, &spec, x, &mut pool);
        assert_eq!(bits(&client.infer(0, 0, x.clone()).unwrap()), want);
    }
    let after_on_old_input = reference(&session, &spec, &inputs[0], &mut pool);
    assert_ne!(before[0], after_on_old_input, "the swap must be observable");
    assert_eq!(server.served().engine().stats().swaps, 1);
}

/// A mid-trace [`Engine::refresh`] from a republished shard under live
/// socket traffic — the offline-rebuilder handoff, over the wire.
#[test]
fn socket_equivalence_holds_across_a_mid_trace_refresh() {
    let dir: PathBuf = std::env::temp_dir().join(format!("gqa-net-refresh-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, base_plan()))
        .with_snapshot_dir(&dir)
        .build()
        .unwrap();
    engine.save_shards().unwrap();

    let spec = mlp_spec();
    let server = loopback(engine, spec.clone());
    let session = server.served().engine().session();
    let mut pool = BufferPool::new();
    let mut client = NetClient::connect(server.addr(), "refresh").unwrap();

    let input = Tensor::from_vec((0..DIM).map(|j| (j as f32 * 0.29).cos()).collect(), &[DIM]);
    let before_ref = reference(&session, &spec, &input, &mut pool);
    assert_eq!(
        bits(&client.infer(0, 0, input.clone()).unwrap()),
        before_ref
    );

    // Republish the shard with a different artifact under the same key,
    // newer mtime, then refresh under traffic (the offline-rebuilder
    // technique the served-level refresh test pins).
    let rebuilt = LutRegistry::new()
        .get_or_build(&base_plan().with_seed(9).spec(NonLinearOp::Gelu))
        .unwrap();
    let publish = LutRegistry::new();
    publish.insert(
        base_plan().spec(NonLinearOp::Gelu).key().unwrap(),
        (*rebuilt).clone(),
    );
    let shard = dir.join(shard_file_name(NonLinearOp::Gelu));
    std::fs::write(&shard, publish.snapshot_json()).unwrap();
    std::fs::File::options()
        .write(true)
        .open(&shard)
        .unwrap()
        .set_modified(SystemTime::now() + Duration::from_secs(3))
        .unwrap();
    assert_eq!(server.served().engine().refresh().unwrap(), 1);

    let after_ref = reference(&session, &spec, &input, &mut pool);
    assert_ne!(before_ref, after_ref, "the refresh must be observable");
    assert_eq!(bits(&client.infer(0, 0, input).unwrap()), after_ref);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Decode over the wire
// ---------------------------------------------------------------------

/// The decoder under test, served through the one `TinyDecoder`
/// adapter.
fn decoder(seed: u64) -> ServedDecoder {
    let mut ps = ParamStore::new();
    let model = TinyDecoder::new(&mut ps, DecoderConfig::tiny(), seed);
    ServedDecoder::new(model, Arc::new(ps), MAX_LEN)
}

fn decoder_loopback(engine_seed: u64, model_seed: u64) -> NetServer {
    let spec = ModelSpec::from_model("tiny-decoder", &[1], decoder(model_seed));
    loopback(gelu_engine(engine_seed), spec)
}

fn token_input(tok: usize) -> Tensor {
    Tensor::from_vec(vec![tok as f32], &[1])
}

/// One direct models-level step — the bits every wire decode step must
/// reproduce.
fn direct_step_bits(
    session: &Session,
    dm: &ServedDecoder,
    caches: &mut [KvCache],
    tok: usize,
) -> Vec<u32> {
    let mut g = Graph::with_mode(session, EvalMode::Inference, BufferPool::new());
    let logits = dm.model().step_logits(&mut g, dm.params(), tok, caches);
    bits(g.value(logits))
}

#[test]
fn wire_decode_steps_match_the_direct_model_loop() {
    let tokens = [3usize, 1, 4, 1, 5, 9, 2, 6];
    let server = decoder_loopback(7, 11);
    let mut client = NetClient::connect(server.addr(), "decode").unwrap();
    let session_id = client.open_decode(0, 0).unwrap();

    // Identically-planned reference engine. Each engine owns a private
    // registry; the artifacts match because seeded builds are
    // deterministic.
    let reference = decoder(11);
    let ref_session = gelu_engine(7).session();
    let mut ref_caches = reference
        .model()
        .new_caches(MAX_LEN, &mut BufferPool::new());

    for (t, &tok) in tokens.iter().enumerate() {
        let got = client.decode_step(session_id, token_input(tok)).unwrap();
        assert_eq!(
            bits(&got),
            direct_step_bits(&ref_session, &reference, &mut ref_caches, tok),
            "wire decode step {t} diverges from the direct model loop"
        );
    }
}

/// Decode sessions are connection-scoped: an id from one connection
/// means nothing on another, and a dropped connection's session state
/// is released, never leaked into a worker.
#[test]
fn decode_sessions_scope_to_their_connection() {
    let server = decoder_loopback(3, 21);

    // First connection: open, step twice, then vanish abruptly.
    {
        let mut first = NetClient::connect(server.addr(), "first").unwrap();
        let sid = first.open_decode(0, 0).unwrap();
        first.decode_step(sid, token_input(5)).unwrap();
        first.decode_step(sid, token_input(2)).unwrap();
        // Drop: TCP close with the session open.
    }

    // Second connection: the first connection's id is unknown here, and
    // a fresh session replays a fresh sequence (fresh KV caches), not
    // the dead connection's prefix.
    let mut second = NetClient::connect(server.addr(), "second").unwrap();
    match second.decode_step(0, token_input(5)) {
        Err(NetError::Remote(RemoteError::UnknownSession(0))) => {}
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    let sid = second.open_decode(0, 0).unwrap();

    let reference = decoder(21);
    let ref_session = gelu_engine(3).session();
    let mut fresh = reference
        .model()
        .new_caches(MAX_LEN, &mut BufferPool::new());
    let got = bits(&second.decode_step(sid, token_input(5)).unwrap());
    assert_eq!(
        got,
        direct_step_bits(&ref_session, &reference, &mut fresh, 5),
        "a fresh wire session must start from fresh KV caches"
    );
}

/// A decode step the decoder cannot run crosses the wire as a typed
/// `InvalidStep`, and the session's next step is answered as if the
/// refused one had never been sent.
#[test]
fn invalid_wire_decode_steps_are_refused_typed() {
    let server = decoder_loopback(5, 13);
    let reference = decoder(13);
    let ref_session = gelu_engine(5).session();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut s = timed_connection(&server);
        let open = RequestFrame::DecodeOpen {
            tenant: 0,
            model: 0,
        };
        let Some(ResponseFrame::DecodeOpened { session }) = exchange(&mut s, &open) else {
            panic!("DecodeOpen was not answered with a session");
        };
        let bad = RequestFrame::DecodeStep {
            session,
            input: Tensor::from_vec(vec![1e9], &[1]),
        };
        match exchange(&mut s, &bad) {
            Some(ResponseFrame::Error(RemoteError::InvalidStep(reason))) => {
                assert!(reason.contains("token"), "{reason}");
            }
            other => panic!("a step with token 1e9 got {other:?}"),
        }
        let good = RequestFrame::DecodeStep {
            session,
            input: token_input(6),
        };
        let Some(ResponseFrame::Output { output }) = exchange(&mut s, &good) else {
            panic!("the valid step after a refused one was not answered");
        };
        let mut fresh = reference
            .model()
            .new_caches(MAX_LEN, &mut BufferPool::new());
        assert_eq!(
            bits(&output),
            direct_step_bits(&ref_session, &reference, &mut fresh, 6),
            "a refused step must append nothing to the session"
        );
    }));
    if let Err(panic) = outcome {
        // A dead worker leaves a ticket unresolved, and dropping the
        // server would wait on it.
        std::mem::forget(server);
        std::panic::resume_unwind(panic);
    }
}

// ---------------------------------------------------------------------
// Typed errors and disconnect behavior
// ---------------------------------------------------------------------

/// Validation failures cross the wire typed, payloads intact.
#[test]
fn typed_errors_survive_the_wire() {
    let server = loopback(exact_engine(), mlp_spec());
    let mut client = NetClient::connect(server.addr(), "errors").unwrap();

    match client.infer(9, 0, Tensor::from_vec(vec![0.0; DIM], &[DIM])) {
        Err(NetError::Remote(RemoteError::UnknownTenant(9))) => {}
        other => panic!("expected UnknownTenant(9), got {other:?}"),
    }
    match client.infer(0, 7, Tensor::from_vec(vec![0.0; DIM], &[DIM])) {
        Err(NetError::Remote(RemoteError::UnknownModel(7))) => {}
        other => panic!("expected UnknownModel(7), got {other:?}"),
    }
    match client.infer(0, 0, Tensor::from_vec(vec![0.0; 3], &[3])) {
        Err(NetError::Remote(RemoteError::BadShape {
            model: 0,
            expected,
            got,
        })) => {
            assert_eq!((expected, got), (vec![DIM as u64], vec![3]));
        }
        other => panic!("expected BadShape, got {other:?}"),
    }
    match client.open_decode(0, 0) {
        Err(NetError::Remote(RemoteError::DecodeUnsupported(0))) => {}
        other => panic!("expected DecodeUnsupported, got {other:?}"),
    }
    // The connection survives typed errors — it is protocol errors that
    // close it.
    client
        .infer(0, 0, Tensor::from_vec(vec![0.5; DIM], &[DIM]))
        .unwrap();
}

/// Shared-queue backpressure propagates to the socket client as a typed
/// [`RemoteError::Rejected`] with the real depth and capacity.
#[test]
fn queue_rejection_reaches_the_client_typed() {
    // Zero workers, capacity 1: the first infer parks in the queue, the
    // second is rejected by admission control.
    let served = ServedBuilder::new(exact_engine())
        .with_model(mlp_spec())
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 4,
                max_wait: 0,
                capacity: 1,
                ..BatchConfig::default()
            },
            workers: 0,
            tenants: 4,
        })
        .with_virtual_clock()
        .build();
    let server = NetServer::spawn(served, "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.addr();

    let parked = std::thread::spawn(move || {
        let mut c = NetClient::connect(addr, "parked").unwrap();
        c.infer(0, 0, Tensor::from_vec(vec![0.1; DIM], &[DIM]))
    });
    // Deterministic ordering: wait until the first request is IN the
    // served queue before submitting the second.
    while server.served().stats().submitted < 1 {
        std::thread::yield_now();
    }
    let mut second = NetClient::connect(addr, "second").unwrap();
    match second.infer(1, 0, Tensor::from_vec(vec![0.2; DIM], &[DIM])) {
        Err(NetError::Remote(RemoteError::Rejected {
            depth: 1,
            capacity: 1,
        })) => {}
        other => panic!("expected Rejected{{1,1}}, got {other:?}"),
    }
    // Shutdown drains the parked request typed.
    drop(server);
    match parked.join().unwrap() {
        Err(NetError::Remote(RemoteError::ShuttingDown)) => {}
        other => panic!("expected ShuttingDown for the parked request, got {other:?}"),
    }
}

/// A client that fires a request and vanishes wedges nothing: the
/// server finishes the work, shrugs off the dead socket, and keeps
/// serving everyone else.
#[test]
fn mid_flight_disconnect_wedges_nothing() {
    let server = loopback(exact_engine(), mlp_spec());
    let spec = mlp_spec();
    let session = server.served().engine().session();
    let mut pool = BufferPool::new();

    {
        // Raw connection: send a valid Infer and close without reading
        // the response.
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let frame = encode_request(&RequestFrame::Infer {
            tenant: 0,
            model: 0,
            input: Tensor::from_vec(vec![0.3; DIM], &[DIM]),
        });
        write_frame(&mut s, &frame).unwrap();
        // Drop: abrupt close with the response still in flight.
    }

    // The abandoned request still completes server-side, and a new
    // client gets exact service.
    while server.served().stats().completed < 1 {
        std::thread::yield_now();
    }
    let mut client = NetClient::connect(server.addr(), "alive").unwrap();
    let input = Tensor::from_vec(vec![0.7; DIM], &[DIM]);
    let want = reference(&session, &spec, &input, &mut pool);
    assert_eq!(bits(&client.infer(0, 0, input).unwrap()), want);
    assert_eq!(server.served().stats().completed, 2);
}

/// A fresh raw connection whose reads time out, so a request that never
/// resolves fails the test instead of hanging it.
fn timed_connection(server: &NetServer) -> TcpStream {
    let s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// Sends `frame` on `s` and reads the response; `None` if the socket
/// fails or times out first.
fn exchange(s: &mut TcpStream, frame: &RequestFrame) -> Option<ResponseFrame> {
    write_frame(s, &encode_request(frame)).ok()?;
    let mut len = [0u8; 4];
    s.read_exact(&mut len).ok()?;
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    s.read_exact(&mut payload).ok()?;
    decode_response(&payload).ok()
}

/// One `Infer` on a [`timed_connection`]; `None` unless the server
/// answers with an `Output`.
fn infer_with_timeout(server: &NetServer, input: &Tensor) -> Option<Tensor> {
    let frame = RequestFrame::Infer {
        tenant: 0,
        model: 0,
        input: input.clone(),
    };
    match exchange(&mut timed_connection(server), &frame)? {
        ResponseFrame::Output { output } => Some(output),
        _ => None,
    }
}

/// Tensors cross the wire as raw `f32` bits, so a peer can hand a
/// LUT-served GELU NaN, +∞ or 1e30. Each such frame is answered with an
/// `Output` (NaN exactly where the input was NaN), bit-identical to the
/// in-process path, and both workers survive: a benign client afterwards
/// gets bit-exact service.
#[test]
fn non_finite_payloads_are_answered_and_the_workers_survive() {
    let spec = ModelSpec::new("gelu", &[DIM], |g, x| g.unary(x, UnaryKind::Gelu));
    let server = loopback(gelu_engine(1), spec.clone());
    let session = server.served().engine().session();
    let mut pool = BufferPool::new();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for v in [f32::NAN, f32::INFINITY, 1e30] {
            let data = (0..DIM).map(|j| if j % 2 == 0 { v } else { j as f32 * 0.25 });
            let input = Tensor::from_vec(data.collect(), &[DIM]);
            let output = infer_with_timeout(&server, &input)
                .unwrap_or_else(|| panic!("a frame carrying {v} got no Output"));
            for (x, y) in input.data.iter().zip(&output.data) {
                assert_eq!(y.is_nan(), x.is_nan(), "gelu({x}) = {y}");
            }
            let want = reference(&session, &spec, &input, &mut pool);
            assert_eq!(bits(&output), want, "a frame carrying {v}");
        }
        let benign = Tensor::from_vec(vec![0.7; DIM], &[DIM]);
        let output = infer_with_timeout(&server, &benign).expect("benign request unanswered");
        assert_eq!(
            bits(&output),
            reference(&session, &spec, &benign, &mut pool)
        );
    }));
    if let Err(panic) = outcome {
        // A dead worker leaves a ticket unresolved, and dropping the
        // server would wait on it.
        std::mem::forget(server);
        std::panic::resume_unwind(panic);
    }
}
