//! The serving-level decode suite: [`DecodeSession`] end to end.
//!
//! Properties pinned here:
//!
//! * **Prefix equivalence through the front-end**: every step a
//!   [`DecodeSession`] answers is `to_bits`-identical to (a) a direct
//!   models-level `step_logits` loop on an identically-planned engine and
//!   (b) the last row of the model's full-prefix causal forward over the
//!   tokens so far — on a *LUT-served* engine, so the whole approximate
//!   datapath is under test, not just exact math.
//! * **Mid-decode hot swaps**: an [`Engine::swap`] between steps retunes
//!   the remaining steps exactly as it does a direct loop with the same
//!   swap schedule (the KV cache keeps the pre-swap prefix bits).
//! * **Decode coalescing invisibility**: steps of two sessions coalesced
//!   into one batch return each session's solo bits.
//! * **Ticket lifecycle** (`wait_timeout` / `try_consume`) and the
//!   session state machine (`StepPending`, `reset`, backpressure and
//!   shutdown check the state back in — a session never bricks).
//! * **Typed refusal**: a step [`ServedDecoder`] cannot run (a token
//!   outside the vocabulary, a full context) fails with `InvalidStep`
//!   before it is queued, appends nothing, and leaves the workers
//!   serving.

use std::sync::Arc;
use std::time::Duration;

use gqa_funcs::NonLinearOp;
use gqa_models::{DecoderConfig, ServedDecoder, TinyDecoder};
use gqa_serve::{Engine, EngineBuilder, Method, OpPlan, OperatorPlan, Session};
use gqa_served::{BatchConfig, ModelSpec, Request, ServedBuilder, ServedConfig, ServedError};
use gqa_tensor::{BufferPool, EvalMode, Graph, KvCache, ParamStore, Tensor};

const MAX_LEN: usize = 32;

/// The decoder under test, served through the one `TinyDecoder`
/// adapter.
fn decoder(seed: u64) -> ServedDecoder {
    let mut ps = ParamStore::new();
    let model = TinyDecoder::new(&mut ps, DecoderConfig::tiny(), seed);
    ServedDecoder::new(model, Arc::new(ps), MAX_LEN)
}

fn decoder_spec(seed: u64) -> ModelSpec {
    ModelSpec::from_model("tiny-decoder", &[1], decoder(seed))
}

fn gelu_plan(seed: u64) -> OpPlan {
    OpPlan::new(Method::GqaRm).with_seed(seed).with_budget(0.05)
}

/// An engine whose GELU (the decoder FFN activation, hit twice per step)
/// is LUT-served; the other non-linear stages run exact.
fn lut_engine(seed: u64) -> Engine {
    EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, gelu_plan(seed)))
        .build()
        .unwrap()
}

fn token_input(tok: usize) -> Tensor {
    Tensor::from_vec(vec![tok as f32], &[1])
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| v.to_bits()).collect()
}

/// One direct models-level step on `session` — the reference the served
/// path must match bit for bit.
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

/// Last row of the full-prefix causal forward over `tokens` on `session`.
fn prefix_last_row_bits(session: &Session, dm: &ServedDecoder, tokens: &[usize]) -> Vec<u32> {
    let mut g = Graph::with_mode(session, EvalMode::Inference, BufferPool::new());
    let logits = dm.model().forward_logits(&mut g, dm.params(), tokens);
    let v = g.value(logits);
    let w = v.shape[1];
    v.data[(tokens.len() - 1) * w..]
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

#[test]
fn decode_session_is_prefix_equivalent_on_a_lut_engine() {
    let tokens = [3usize, 1, 4, 1, 5, 9, 2, 6];
    let served = ServedBuilder::new(lut_engine(7))
        .with_model(decoder_spec(11))
        .build();
    let session = served.open_decode(0, 0).unwrap();

    // Reference: a second engine with the identical plan driving the
    // model directly. Each engine owns a private registry; the artifacts
    // match because seeded builds are deterministic.
    let reference = decoder(11);
    let ref_session = lut_engine(7).session();
    let mut ref_caches = reference
        .model()
        .new_caches(MAX_LEN, &mut BufferPool::new());

    for (t, &tok) in tokens.iter().enumerate() {
        let got = bits(&session.step(token_input(tok)).unwrap().wait().unwrap());
        assert_eq!(
            got,
            direct_step_bits(&ref_session, &reference, &mut ref_caches, tok),
            "served step {t} diverges from the direct model loop"
        );
        assert_eq!(
            got,
            prefix_last_row_bits(&ref_session, &reference, &tokens[..=t]),
            "served step {t} diverges from the full-prefix causal forward"
        );
    }
    let stats = served.stats();
    assert_eq!(stats.completed, tokens.len() as u64);
}

#[test]
fn mid_decode_swap_retunes_the_remaining_steps_exactly() {
    let tokens = [2usize, 7, 1, 8, 2, 8, 1, 4];
    let swap_at = 4;
    let served = ServedBuilder::new(lut_engine(1))
        .with_model(decoder_spec(5))
        .build();
    let session = served.open_decode(0, 0).unwrap();

    let reference = decoder(5);
    let ref_engine = lut_engine(1);
    let ref_session = ref_engine.session();
    let mut ref_caches = reference
        .model()
        .new_caches(MAX_LEN, &mut BufferPool::new());

    for (t, &tok) in tokens.iter().enumerate() {
        if t == swap_at {
            // Steps are strictly sequential and every ticket has been
            // waited on, so the swap lands on a quiesced session; both
            // datapaths change plans at the same step boundary while the
            // KV caches keep the pre-swap prefix bits.
            served
                .engine()
                .swap(NonLinearOp::Gelu, gelu_plan(2))
                .unwrap();
            ref_engine.swap(NonLinearOp::Gelu, gelu_plan(2)).unwrap();
        }
        let got = bits(&session.step(token_input(tok)).unwrap().wait().unwrap());
        assert_eq!(
            got,
            direct_step_bits(&ref_session, &reference, &mut ref_caches, tok),
            "served step {t} diverges from the direct loop under the same swap schedule"
        );
    }
    assert_eq!(served.engine().stats().swaps, 1);
}

#[test]
fn decode_coalescing_is_invisible_across_sessions() {
    let tok_a = [1usize, 6, 1, 8];
    let tok_b = [9usize, 2, 4, 5];

    // Coalescing server: two sessions' steps are forced into shared
    // batches (max_batch 2, deadline far away on a virtual clock, so the
    // only way a batch forms is size-readiness: both sessions queued).
    let served = ServedBuilder::new(lut_engine(3))
        .with_model(decoder_spec(21))
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 2,
                max_wait: 1_000_000,
                capacity: 64,
                ..BatchConfig::default()
            },
            workers: 2,
            tenants: 2,
        })
        .with_virtual_clock()
        .build();
    let sess_a = served.open_decode(0, 0).unwrap();
    let sess_b = served.open_decode(1, 0).unwrap();

    // Solo reference: each sequence stepped alone through the direct
    // model loop on an identically-planned engine.
    let reference = decoder(21);
    let ref_session = lut_engine(3).session();
    let solo = |toks: &[usize]| -> Vec<Vec<u32>> {
        let mut caches = reference
            .model()
            .new_caches(MAX_LEN, &mut BufferPool::new());
        toks.iter()
            .map(|&t| direct_step_bits(&ref_session, &reference, &mut caches, t))
            .collect()
    };
    let (want_a, want_b) = (solo(&tok_a), solo(&tok_b));

    for t in 0..tok_a.len() {
        // Submit both before either can flush: one item is not
        // size-ready and the deadline is unreachable, so the second
        // submit is what forms the (width-2) batch.
        let ticket_a = sess_a.step(token_input(tok_a[t])).unwrap();
        let ticket_b = sess_b.step(token_input(tok_b[t])).unwrap();
        assert_eq!(
            bits(&ticket_a.wait().unwrap()),
            want_a[t],
            "session A step {t}"
        );
        assert_eq!(
            bits(&ticket_b.wait().unwrap()),
            want_b[t],
            "session B step {t}"
        );
    }
    let stats = served.stats();
    assert_eq!(
        (stats.batches, stats.batched_rows),
        (tok_a.len() as u64, (2 * tok_a.len()) as u64),
        "every step pair must coalesce into one width-2 batch: {stats}"
    );
}

#[test]
fn forward_requests_still_work_on_a_decodable_model() {
    let served = ServedBuilder::new(lut_engine(9))
        .with_model(decoder_spec(13))
        .build();
    let reference = decoder(13);
    let ref_session = lut_engine(9).session();
    let out = served
        .serve(Request {
            tenant: 0,
            model: 0,
            input: token_input(5),
        })
        .unwrap();
    assert_eq!(
        bits(&out),
        prefix_last_row_bits(&ref_session, &reference, &[5]),
        "a plain forward on a decodable model is the fresh-context single-token logits"
    );
}

#[test]
fn open_decode_validates_model_tenant_and_capability() {
    let served = ServedBuilder::new(lut_engine(4))
        .with_model(ModelSpec::new("double", &[2], |g, x| g.scale(x, 2.0)))
        .with_model(decoder_spec(17))
        .build();
    assert!(matches!(
        served.open_decode(0, 0),
        Err(ServedError::DecodeUnsupported(0))
    ));
    assert!(matches!(
        served.open_decode(0, 9),
        Err(ServedError::UnknownModel(9))
    ));
    assert!(matches!(
        served.open_decode(3, 1),
        Err(ServedError::UnknownTenant(3))
    ));
    let session = served.open_decode(0, 1).unwrap();
    assert_eq!((session.tenant(), session.model()), (0, 1));
    assert!(matches!(
        session.step(Tensor::from_vec(vec![0.0; 2], &[2])),
        Err(ServedError::BadShape { model: 1, .. })
    ));
}

#[test]
fn steps_are_strictly_sequential_per_session() {
    // Zero workers: nothing executes, so the first step stays in flight.
    let served = ServedBuilder::new(lut_engine(6))
        .with_model(decoder_spec(19))
        .with_config(ServedConfig {
            workers: 0,
            ..ServedConfig::default()
        })
        .with_virtual_clock()
        .build();
    let session = served.open_decode(0, 0).unwrap();
    assert!(!session.is_step_pending());
    let mut ticket = session.step(token_input(1)).unwrap();
    assert!(session.is_step_pending());
    assert!(matches!(
        session.step(token_input(2)),
        Err(ServedError::StepPending)
    ));
    assert!(matches!(session.reset(), Err(ServedError::StepPending)));

    // Ticket lifecycle on an unresolved response: bounded waits time out
    // and leave the ticket usable.
    assert!(ticket.wait_timeout(Duration::from_millis(5)).is_none());
    assert!(ticket.try_consume().is_none());

    // Dropping the server drains the queued step: it fails typed AND the
    // session's state comes home — the session reports ShuttingDown (the
    // server is gone), never StepPending (which would mean a bricked
    // session).
    drop(served);
    assert!(matches!(ticket.wait(), Err(ServedError::ShuttingDown)));
    assert!(!session.is_step_pending());
    assert!(matches!(
        session.step(token_input(3)),
        Err(ServedError::ShuttingDown)
    ));
    assert!(
        session.reset().is_ok(),
        "reset still works for reuse audits"
    );
}

#[test]
fn backpressure_checks_the_state_back_in() {
    let served = ServedBuilder::new(lut_engine(8))
        .with_model(decoder_spec(23))
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 16,
                max_wait: 1_000_000,
                capacity: 1,
                ..BatchConfig::default()
            },
            workers: 0,
            tenants: 2,
        })
        .with_virtual_clock()
        .build();
    let sess_a = served.open_decode(0, 0).unwrap();
    let sess_b = served.open_decode(1, 0).unwrap();
    let _held = sess_a.step(token_input(1)).unwrap();
    assert!(matches!(
        sess_b.step(token_input(2)),
        Err(ServedError::Rejected(_))
    ));
    assert!(
        !sess_b.is_step_pending(),
        "a rejected step must return the session state"
    );
    assert_eq!(served.stats().rejected, 1);
}

#[test]
fn reset_starts_a_fresh_sequence() {
    let served = ServedBuilder::new(lut_engine(2))
        .with_model(decoder_spec(29))
        .build();
    let session = served.open_decode(0, 0).unwrap();
    let first = bits(&session.step(token_input(4)).unwrap().wait().unwrap());
    let _ = session.step(token_input(6)).unwrap().wait().unwrap();
    session.reset().unwrap();
    let again = bits(&session.step(token_input(4)).unwrap().wait().unwrap());
    assert_eq!(
        first, again,
        "a reset session replays the first step bit-identically"
    );
}

/// Steps the decoder cannot run — a token outside `0..vocab`, a negative,
/// non-integer or non-finite token, a step past the KV capacity — are
/// refused at submit with a typed `InvalidStep`. A refused step is never
/// queued and leaves the session as it was, and the workers keep serving.
#[test]
fn invalid_steps_are_refused_typed_and_the_workers_survive() {
    let served = ServedBuilder::new(lut_engine(12))
        .with_model(decoder_spec(31))
        .build();
    let reference = decoder(31);
    let ref_session = lut_engine(12).session();
    let vocab = reference.model().config().vocab;
    let fresh_step = |tok| {
        let mut caches = reference
            .model()
            .new_caches(MAX_LEN, &mut BufferPool::new());
        direct_step_bits(&ref_session, &reference, &mut caches, tok)
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let session = served.open_decode(0, 0).unwrap();
        for bad in [vocab as f32, -1.0, f32::NAN, 2.5, 1e9] {
            match session.step(Tensor::from_vec(vec![bad], &[1])) {
                Err(ServedError::InvalidStep(reason)) => {
                    assert!(reason.contains("token"), "{reason}");
                }
                other => panic!("a step with token {bad} got {other:?}"),
            }
            assert!(!session.is_step_pending());
        }
        let first = bits(&session.step(token_input(4)).unwrap().wait().unwrap());
        assert_eq!(first, fresh_step(4), "a refused step must append nothing");

        for t in 1..MAX_LEN {
            session
                .step(token_input(t % vocab))
                .unwrap()
                .wait()
                .unwrap();
        }
        match session.step(token_input(3)) {
            Err(ServedError::InvalidStep(reason)) => {
                assert!(reason.contains("reset()"), "{reason}");
            }
            other => panic!("a step past the context got {other:?}"),
        }
        session.reset().unwrap();
        let again = bits(&session.step(token_input(4)).unwrap().wait().unwrap());
        assert_eq!(again, first, "a reset session steps again");

        let stats = served.stats();
        assert_eq!(
            (stats.submitted, stats.rejected),
            (MAX_LEN as u64 + 1, 0),
            "refused steps are never queued: {stats}"
        );
        let out = served
            .serve(Request {
                tenant: 0,
                model: 0,
                input: token_input(5),
            })
            .unwrap();
        assert_eq!(
            bits(&out),
            prefix_last_row_bits(&ref_session, &reference, &[5])
        );
    }));
    if let Err(panic) = outcome {
        // A dead worker leaves a ticket unresolved, and dropping the
        // server would wait on it.
        std::mem::forget(served);
        std::panic::resume_unwind(panic);
    }
}
