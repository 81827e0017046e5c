//! Engine semantics: plan validation, session dispatch, swap-under-load
//! bit-stability, and the sharded store's two-tier (metadata, then
//! content-hash) invalidation.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use gqa_funcs::NonLinearOp;
use gqa_registry::LutRegistry;
use gqa_serve::{
    shard_file_name, EngineBuilder, EngineError, Method, OpPlan, OperatorPlan, Session,
};
use gqa_tensor::{ExactBackend, UnaryBackend, UnaryKind};

fn base_plan() -> OpPlan {
    OpPlan::new(Method::GqaRm).with_seed(1).with_budget(0.05)
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gqa-engine-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn eval_gelu(session: &Session, xs: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; xs.len()];
    session.eval_many_f32(UnaryKind::Gelu, xs, &mut out);
    out
}

#[test]
fn unplanned_kinds_are_exact_and_planned_kinds_are_lut_served() {
    let engine = EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, base_plan()))
        .build()
        .unwrap();
    let session = engine.session();
    // Unplanned: bit-identical to the exact backend.
    let xs: Vec<f32> = (0..300).map(|i| (i as f32 - 150.0) * 0.01).collect();
    let mut got = vec![0.0f32; xs.len()];
    let mut want = vec![0.0f32; xs.len()];
    for kind in [UnaryKind::Exp, UnaryKind::Relu] {
        session.eval_many_f32(kind, &xs, &mut got);
        ExactBackend.eval_many_f32(kind, &xs, &mut want);
        assert_eq!(got, want, "{kind:?} must be exact");
    }
    // Rsqrt on its positive domain (negative inputs are NaN ≠ NaN).
    let pos: Vec<f32> = (1..300).map(|i| i as f32 * 0.01).collect();
    let mut got_pos = vec![0.0f32; pos.len()];
    let mut want_pos = vec![0.0f32; pos.len()];
    session.eval_many_f32(UnaryKind::Rsqrt, &pos, &mut got_pos);
    ExactBackend.eval_many_f32(UnaryKind::Rsqrt, &pos, &mut want_pos);
    assert_eq!(got_pos, want_pos, "unplanned Rsqrt must be exact");
    // Planned: close to exact but not identical (it is an 8-entry LUT).
    session.eval_many_f32(UnaryKind::Gelu, &xs, &mut got);
    ExactBackend.eval_many_f32(UnaryKind::Gelu, &xs, &mut want);
    assert_ne!(got, want, "GELU must run the LUT datapath");
    for (&g, &w) in got.iter().zip(&want) {
        assert!((g - w).abs() < 0.2, "LUT GELU within tolerance: {g} vs {w}");
    }
}

#[test]
fn div_and_rsqrt_are_served_through_the_multirange_datapath() {
    let wide = OpPlan::new(Method::GqaNoRm).with_seed(6).with_budget(0.1);
    let session = EngineBuilder::new(
        OperatorPlan::new()
            .with(NonLinearOp::Div, wide)
            .with(NonLinearOp::Rsqrt, wide),
    )
    .build()
    .unwrap()
    .session();
    // Inputs inside and well outside the pwl core's interval, so both the
    // direct and the pre-scaled sub-ranges are exercised.
    for x in [0.7, 1.5, 3.0, 10.0, 50.0] {
        let recip = session.eval(UnaryKind::Recip, x);
        assert!((recip - 1.0 / x).abs() < 0.15, "recip {x}: {recip}");
        let rsqrt = session.eval(UnaryKind::Rsqrt, x);
        assert!((rsqrt - 1.0 / x.sqrt()).abs() < 0.2, "rsqrt {x}: {rsqrt}");
    }
}

#[test]
fn plan_validation_is_typed_and_upfront() {
    // Unservable operator.
    let err = EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Silu, base_plan()))
        .build()
        .unwrap_err();
    assert_eq!(err, EngineError::Unservable(NonLinearOp::Silu));
    // Invalid budget surfaces as a typed build error before any search.
    let err = EngineBuilder::new(
        OperatorPlan::new().with(NonLinearOp::Gelu, base_plan().with_budget(0.0)),
    )
    .build()
    .unwrap_err();
    assert!(matches!(err, EngineError::Build(_)));
    // Out-of-domain serving precision is caught before any search runs
    // (it would otherwise panic inside IntRange::signed post-compile).
    let err =
        EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, base_plan().with_bits(0)))
            .build()
            .unwrap_err();
    assert_eq!(err, EngineError::InvalidBits(0));
    // Past 16 bits a scale-dependent operator's code table would exceed
    // 65,536 entries (and a wide word lets the multiply-add wrap).
    let err =
        EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, base_plan().with_bits(17)))
            .build()
            .unwrap_err();
    assert_eq!(err, EngineError::InvalidBits(17));
    // `swap` refuses the same precisions.
    let engine = EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, base_plan()))
        .build()
        .unwrap();
    for bits in [17, 64] {
        assert_eq!(
            engine
                .swap(NonLinearOp::Gelu, base_plan().with_bits(bits))
                .unwrap_err(),
            EngineError::InvalidBits(bits)
        );
    }
    // 16 bits is served, and saturates: every input past Qp·S gets Qp's
    // output, however large.
    engine
        .swap(NonLinearOp::Gelu, base_plan().with_bits(16))
        .unwrap();
    let session = engine.session();
    let edge = session.eval(UnaryKind::Gelu, 32767.0 / 16.0);
    assert!(edge > 2000.0, "GELU(Qp·S) = {edge}");
    for x in [1e18, 1e30, f64::INFINITY] {
        assert_eq!(session.eval(UnaryKind::Gelu, x), edge, "GELU({x:e})");
    }
    // Control-plane calls on unplanned operators.
    assert_eq!(
        engine.swap(NonLinearOp::Exp, base_plan()).unwrap_err(),
        EngineError::Unplanned(NonLinearOp::Exp)
    );
    assert_eq!(
        engine.artifact(NonLinearOp::Exp).unwrap_err(),
        EngineError::Unplanned(NonLinearOp::Exp)
    );
    // Storage calls without a store.
    assert_eq!(engine.refresh().unwrap_err(), EngineError::NoSnapshotDir);
    assert_eq!(
        engine.save_shards().unwrap_err(),
        EngineError::NoSnapshotDir
    );
}

#[test]
fn swap_retunes_every_live_session_and_updates_the_plan() {
    let engine = EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, base_plan()))
        .build()
        .unwrap();
    let s1 = engine.session();
    let s2 = s1.clone(); // clones share the control plane
    let xs: Vec<f32> = (0..128).map(|i| (i as f32 - 64.0) * 0.05).collect();
    let before = eval_gelu(&s1, &xs);
    let retuned = base_plan().with_seed(2);
    engine.swap(NonLinearOp::Gelu, retuned).unwrap();
    let after1 = eval_gelu(&s1, &xs);
    let after2 = eval_gelu(&s2, &xs);
    assert_ne!(before, after1, "seed-2 artifact must serve different bits");
    assert_eq!(after1, after2, "every live session observes the swap");
    assert_eq!(engine.plan().get(NonLinearOp::Gelu).unwrap().seed, 2);
    let stats = engine.stats();
    assert_eq!((stats.swaps, stats.sessions, stats.ops), (1, 1, 1));
}

/// The HotSwap contract at engine level: sessions evaluating concurrently
/// with `Engine::swap` retunes never observe a torn tensor — every buffer
/// is entirely the old artifact's bits or entirely the new one's.
#[test]
fn concurrent_sessions_stay_bit_stable_under_swaps() {
    let plan_a = base_plan();
    let plan_b = base_plan().with_seed(2);
    let engine = EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, plan_a))
        .build()
        .unwrap();
    let session = engine.session();
    let xs: Vec<f32> = (0..512).map(|i| (i as f32 - 256.0) * 0.01).collect();

    let out_a = eval_gelu(&session, &xs);
    engine.swap(NonLinearOp::Gelu, plan_b).unwrap();
    let out_b = eval_gelu(&session, &xs);
    engine.swap(NonLinearOp::Gelu, plan_a).unwrap();
    assert_ne!(out_a, out_b, "the two artifacts must be distinguishable");

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let session = session.clone();
            let (xs, out_a, out_b) = (&xs, &out_a, &out_b);
            scope.spawn(move || {
                for i in 0..300 {
                    let got = eval_gelu(&session, xs);
                    assert!(
                        got == *out_a || got == *out_b,
                        "iteration {i}: tensor mixed two datapaths"
                    );
                }
            });
        }
        // Retune under load; both artifacts are registry hits by now.
        for i in 0..60 {
            let plan = if i % 2 == 0 { plan_b } else { plan_a };
            engine.swap(NonLinearOp::Gelu, plan).unwrap();
            std::thread::yield_now();
        }
    });
    assert_eq!(engine.stats().swaps, 2 + 60);
}

#[test]
fn sharded_store_round_trips_and_warm_starts() {
    let dir = test_dir("roundtrip");
    let plan = OperatorPlan::new()
        .with(NonLinearOp::Gelu, base_plan())
        .with(NonLinearOp::Div, base_plan());
    let cold = EngineBuilder::new(plan.clone())
        .with_snapshot_dir(&dir)
        .build()
        .unwrap();
    assert_eq!(cold.stats().registry.builds, 2, "cold start compiles");
    let paths = cold.save_shards().unwrap();
    assert_eq!(paths.len(), 2);
    assert!(dir.join(shard_file_name(NonLinearOp::Gelu)).is_file());
    assert!(dir.join(shard_file_name(NonLinearOp::Div)).is_file());

    // A second engine on the same store warm-starts: zero builds, and the
    // served artifacts are bit-identical.
    let warm = EngineBuilder::new(plan)
        .with_snapshot_dir(&dir)
        .build()
        .unwrap();
    assert_eq!(warm.stats().registry.builds, 0, "warm start never compiles");
    for op in [NonLinearOp::Gelu, NonLinearOp::Div] {
        assert_eq!(
            *cold.artifact(op).unwrap(),
            *warm.artifact(op).unwrap(),
            "{op} must round-trip bit-exactly through its shard"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn refresh_reloads_only_invalidated_shards() {
    let dir = test_dir("refresh");
    let plan = OperatorPlan::new()
        .with(NonLinearOp::Gelu, base_plan())
        .with(NonLinearOp::Div, base_plan());
    let engine = EngineBuilder::new(plan)
        .with_snapshot_dir(&dir)
        .build()
        .unwrap();
    engine.save_shards().unwrap();
    let session = engine.session();
    let xs: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) * 0.02).collect();
    let before = eval_gelu(&session, &xs);

    // Nothing changed on disk → pure stat pass, zero reloads.
    assert_eq!(engine.refresh().unwrap(), 0);

    // Simulate an offline rebuilder republishing GELU's shard with a
    // DIFFERENT artifact under the same key (e.g. the pipeline recompiled
    // after a data fix): the seed-2 artifact's parameters stored under
    // the seed-1 key.
    let other = LutRegistry::new();
    let rebuilt = other
        .get_or_build(&base_plan().with_seed(2).spec(NonLinearOp::Gelu))
        .unwrap();
    let publish = LutRegistry::new();
    publish.insert(
        base_plan().spec(NonLinearOp::Gelu).key().unwrap(),
        (*rebuilt).clone(),
    );
    let shard = dir.join(shard_file_name(NonLinearOp::Gelu));
    std::fs::write(&shard, publish.snapshot_json()).unwrap();
    // Force a metadata change even on coarse-mtime filesystems.
    std::fs::File::options()
        .write(true)
        .open(&shard)
        .unwrap()
        .set_modified(SystemTime::now() + Duration::from_secs(3))
        .unwrap();

    // Exactly the invalidated shard reloads; the live session now serves
    // the rebuilt artifact's bits — no restart, no recompilation.
    let builds_before = engine.stats().registry.builds;
    assert_eq!(engine.refresh().unwrap(), 1);
    assert_eq!(engine.stats().registry.builds, builds_before);
    let after = eval_gelu(&session, &xs);
    assert_ne!(before, after, "rebuilt artifact must be live");
    assert_eq!(
        *engine.artifact(NonLinearOp::Gelu).unwrap(),
        *rebuilt,
        "served artifact is the republished one"
    );
    let stats = engine.stats();
    assert_eq!((stats.refreshes, stats.shard_reloads), (2, 1));

    // A corrupt shard is skipped (the engine keeps serving), counted in
    // shard_errors, and not re-parsed until it changes again.
    std::fs::write(&shard, "not json").unwrap();
    std::fs::File::options()
        .write(true)
        .open(&shard)
        .unwrap()
        .set_modified(SystemTime::now() + Duration::from_secs(6))
        .unwrap();
    assert_eq!(engine.refresh().unwrap(), 0);
    assert_eq!(engine.stats().shard_errors, 1);
    assert_eq!(eval_gelu(&session, &xs), after, "still serving");
    assert_eq!(engine.refresh().unwrap(), 0, "corrupt shard observed once");
    assert_eq!(engine.stats().shard_errors, 1);

    // A deleted shard is likewise skipped-with-error, NOT a phantom
    // reload: nothing new was picked up and the engine keeps serving.
    std::fs::remove_file(&shard).unwrap();
    let reloads_before = engine.stats().shard_reloads;
    assert_eq!(engine.refresh().unwrap(), 0);
    assert_eq!(engine.stats().shard_reloads, reloads_before);
    assert_eq!(engine.stats().shard_errors, 2);
    assert_eq!(
        eval_gelu(&session, &xs),
        after,
        "still serving after delete"
    );
    assert_eq!(engine.refresh().unwrap(), 0, "absence observed once");
    assert_eq!(engine.stats().shard_errors, 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Content-hash tier of shard invalidation at engine level: a republish
/// of **identical** artifacts under fresh file metadata (what another
/// process's atomic `save_shards` produces) is absorbed — no reload, no
/// hot swap — while refresh stays pollable.
#[test]
fn refresh_absorbs_same_content_republish() {
    let dir = test_dir("samecontent");
    let engine = EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, base_plan()))
        .with_snapshot_dir(&dir)
        .build()
        .unwrap();
    engine.save_shards().unwrap();
    assert_eq!(engine.refresh().unwrap(), 0);

    // Republish byte-identical content with a bumped mtime.
    let shard = dir.join(shard_file_name(NonLinearOp::Gelu));
    let bytes = std::fs::read(&shard).unwrap();
    std::fs::write(&shard, &bytes).unwrap();
    std::fs::File::options()
        .write(true)
        .open(&shard)
        .unwrap()
        .set_modified(SystemTime::now() + Duration::from_secs(3))
        .unwrap();

    assert_eq!(
        engine.refresh().unwrap(),
        0,
        "identical content must not reload"
    );
    let stats = engine.stats();
    assert_eq!(stats.shard_reloads, 0);
    assert_eq!(stats.shard_errors, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// An inference-mode session graph must produce forward values
/// bit-identical to the training tape over the same LUT-served backend.
#[test]
fn session_inference_graph_matches_train_forward() {
    use gqa_tensor::{Graph, Tensor};
    let engine = EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, base_plan()))
        .build()
        .unwrap();
    let session = engine.session();
    let xs: Vec<f32> = (0..60).map(|i| ((i as f32) * 0.37).sin()).collect();
    let forward = |mut g: Graph<'_>| {
        let x = g.input(Tensor::from_vec(xs.clone(), &[1, 5, 12]));
        let a = g.attention(x, x, x, 0.3);
        let s = g.softmax(a);
        let u = g.unary(s, UnaryKind::Gelu);
        let l = g.layer_norm(u, 1e-5);
        g.value(l).data.clone()
    };
    let train = forward(Graph::new(&session));
    let infer = forward(session.inference_graph());
    for (a, b) in train.iter().zip(&infer) {
        assert_eq!(a.to_bits(), b.to_bits(), "inference ≡ train forward");
    }
    // A recycled pool round-trips bit-stably too.
    let mut g = session.inference_graph();
    let x = g.input(Tensor::from_vec(xs.clone(), &[1, 5, 12]));
    let a = g.attention(x, x, x, 0.3);
    let _ = g.value(a);
    let pool = g.recycle();
    assert!(pool.free_buffers() > 0, "recycle harvests buffers");
    let infer2 = forward(session.inference_graph_with_pool(pool));
    assert_eq!(infer, infer2);
}

/// The serving types must stay thread-safe: engines are shared across
/// threads and sessions are handed to worker pools.
#[test]
fn serving_types_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<gqa_serve::Engine>();
    assert_send_sync::<Session>();
    assert_send_sync::<gqa_tensor::Graph<'static>>();
}

#[test]
fn engines_can_share_one_registry() {
    let registry = Arc::new(LutRegistry::new());
    let plan = OperatorPlan::new().with(NonLinearOp::Gelu, base_plan());
    let a = EngineBuilder::new(plan.clone())
        .with_registry(Arc::clone(&registry))
        .build()
        .unwrap();
    let b = EngineBuilder::new(plan)
        .with_registry(Arc::clone(&registry))
        .build()
        .unwrap();
    assert_eq!(registry.stats().builds, 1, "second engine hits the cache");
    assert!(Arc::ptr_eq(
        &a.artifact(NonLinearOp::Gelu).unwrap(),
        &b.artifact(NonLinearOp::Gelu).unwrap()
    ));
}
