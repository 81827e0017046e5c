//! Registry semantics: same-key hits, LRU capacity eviction, single-flight
//! build deduplication, and snapshot round-tripping.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gqa_funcs::NonLinearOp;
use gqa_registry::{LutRegistry, LutSpec, Method};

fn quick_spec(op: NonLinearOp, seed: u64) -> LutSpec {
    LutSpec::new(Method::GqaNoRm, op, 8, seed).with_budget(0.05)
}

#[test]
fn same_key_is_a_hit_and_shares_the_artifact() {
    let reg = LutRegistry::new();
    let spec = quick_spec(NonLinearOp::Gelu, 1);
    let a = reg.get_or_build(&spec).unwrap();
    let b = reg.get_or_build(&spec).unwrap();
    assert!(Arc::ptr_eq(&a, &b), "hit must share the cached Arc");
    let stats = reg.stats();
    assert_eq!((stats.hits, stats.misses, stats.builds), (1, 1, 1));
    assert!(stats.build_ns > 0, "build time must be recorded");
    assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
    assert_eq!(reg.len(), 1);
}

#[test]
fn different_seeds_are_different_artifacts() {
    let reg = LutRegistry::new();
    let a = reg.get_or_build(&quick_spec(NonLinearOp::Exp, 1)).unwrap();
    let b = reg.get_or_build(&quick_spec(NonLinearOp::Exp, 2)).unwrap();
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(reg.stats().builds, 2);
    assert_eq!(reg.len(), 2);
}

#[test]
fn capacity_bound_evicts_least_recently_used() {
    let reg = LutRegistry::with_capacity(2);
    let s1 = quick_spec(NonLinearOp::Gelu, 1);
    let s2 = quick_spec(NonLinearOp::Gelu, 2);
    let s3 = quick_spec(NonLinearOp::Gelu, 3);
    reg.get_or_build(&s1).unwrap();
    reg.get_or_build(&s2).unwrap();
    // Touch s1 so s2 becomes the LRU victim.
    reg.get_or_build(&s1).unwrap();
    reg.get_or_build(&s3).unwrap();
    assert_eq!(reg.len(), 2);
    assert_eq!(reg.stats().evictions, 1);
    // s1 and s3 survive as cache hits; s2 must rebuild.
    let builds_before = reg.stats().builds;
    reg.get_or_build(&s1).unwrap();
    reg.get_or_build(&s3).unwrap();
    assert_eq!(reg.stats().builds, builds_before, "s1/s3 must be hits");
    reg.get_or_build(&s2).unwrap();
    assert_eq!(reg.stats().builds, builds_before + 1, "s2 was evicted");
}

#[test]
fn single_flight_deduplicates_concurrent_builds() {
    let reg = Arc::new(LutRegistry::new());
    let spec = quick_spec(NonLinearOp::Hswish, 7);
    let key = spec.key().unwrap();
    let cold_builds = Arc::new(AtomicUsize::new(0));

    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let counter = Arc::clone(&cold_builds);
                s.spawn(move || {
                    reg.get_or_build_with(key, || {
                        counter.fetch_add(1, Ordering::SeqCst);
                        spec.compile().unwrap()
                    })
                    .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        cold_builds.load(Ordering::SeqCst),
        1,
        "exactly one thread must run the cold build"
    );
    for r in &results[1..] {
        assert!(
            Arc::ptr_eq(&results[0], r),
            "all threads must share one artifact"
        );
    }
    let stats = reg.stats();
    assert_eq!(stats.builds, 1);
    assert!(
        stats.dedup_waits >= 1 || stats.hits >= 1,
        "joiners must either wait on the in-flight build or hit the \
         finished entry: {stats}"
    );
}

#[test]
fn snapshot_round_trips_bit_exactly() {
    let reg = LutRegistry::new();
    reg.get_or_build(&quick_spec(NonLinearOp::Gelu, 11))
        .unwrap();
    reg.get_or_build(&quick_spec(NonLinearOp::Div, 13)).unwrap();
    reg.get_or_build(&LutSpec::new(Method::NnLut, NonLinearOp::Exp, 8, 5).with_budget(0.02))
        .unwrap();
    let json = reg.snapshot_json();

    let warm = LutRegistry::new();
    assert_eq!(warm.load_snapshot_json(&json), Ok(3));
    assert_eq!(warm.len(), 3);

    // Every artifact must now be served warm, bit-identical to the
    // original, with zero builds.
    for spec in [
        quick_spec(NonLinearOp::Gelu, 11),
        quick_spec(NonLinearOp::Div, 13),
        LutSpec::new(Method::NnLut, NonLinearOp::Exp, 8, 5).with_budget(0.02),
    ] {
        let orig = reg.get_or_build(&spec).unwrap();
        let loaded = warm.get_or_build(&spec).unwrap();
        assert_eq!(*orig, *loaded, "{spec:?} must round-trip bit-exactly");
    }
    assert_eq!(warm.stats().builds, 0, "warm registry never compiles");
    assert_eq!(warm.stats().hits, 3);

    // The snapshot of the warm registry is identical (deterministic
    // serialization).
    assert_eq!(json, warm.snapshot_json());
}

#[test]
fn snapshot_file_round_trips_through_typed_path_api() {
    use gqa_registry::SnapshotError;
    let dir = std::env::temp_dir().join(format!("gqa-registry-path-api-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.json"); // PathBuf, not &str: the typed API
    let reg = LutRegistry::new();
    reg.get_or_build(&quick_spec(NonLinearOp::Gelu, 31))
        .unwrap();
    reg.save_snapshot(&path).unwrap();

    let warm = LutRegistry::new();
    assert_eq!(warm.load_snapshot(&path), Ok(1));
    let orig = reg
        .get_or_build(&quick_spec(NonLinearOp::Gelu, 31))
        .unwrap();
    let loaded = warm
        .get_or_build(&quick_spec(NonLinearOp::Gelu, 31))
        .unwrap();
    assert_eq!(*orig, *loaded);
    assert_eq!(warm.stats().builds, 0);

    // Both directions surface I/O failures as the typed variant, not a
    // bare io::Result.
    assert!(matches!(
        warm.load_snapshot(dir.join("missing.json")),
        Err(SnapshotError::Io(_))
    ));
    assert!(matches!(
        reg.save_snapshot(dir.join("no-such-dir").join("snap.json")),
        Err(SnapshotError::Io(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_content_hash_tracks_entries() {
    use gqa_registry::{fnv1a_64, snapshot_content_hash};
    let reg = LutRegistry::new();
    reg.get_or_build(&quick_spec(NonLinearOp::Gelu, 45))
        .unwrap();
    let json = reg.snapshot_json();
    let hash = snapshot_content_hash(&json).expect("header carries a content hash");
    // The hash covers the serialized entries section verbatim.
    let entries_at = json.find("  \"entries\"").expect("entries section");
    assert_eq!(hash, fnv1a_64(&json.as_bytes()[entries_at..]));
    // Reading only a file-sized prefix of the header is enough.
    assert_eq!(snapshot_content_hash(&json[..120]), Some(hash));
    // Same artifacts → same hash; different artifacts → different hash.
    reg.get_or_build(&quick_spec(NonLinearOp::Div, 45)).unwrap();
    let grown = snapshot_content_hash(&reg.snapshot_json()).unwrap();
    assert_ne!(hash, grown, "hash must change when the entry set changes");
    // Pre-hash snapshots (no header field) read as None, and the loader
    // still accepts hash-bearing snapshots.
    assert_eq!(
        snapshot_content_hash("{\"version\": 1, \"entries\": []}"),
        None
    );
    let warm = LutRegistry::new();
    assert_eq!(warm.load_snapshot_json(&json), Ok(1));
}

#[test]
fn filtered_snapshot_keeps_only_matching_keys() {
    let reg = LutRegistry::new();
    reg.get_or_build(&quick_spec(NonLinearOp::Gelu, 41))
        .unwrap();
    reg.get_or_build(&quick_spec(NonLinearOp::Div, 41)).unwrap();

    let gelu_only = reg.snapshot_json_where(|k| k.op == NonLinearOp::Gelu);
    let warm = LutRegistry::new();
    assert_eq!(warm.load_snapshot_json(&gelu_only), Ok(1));
    let builds_before = warm.stats().builds;
    warm.get_or_build(&quick_spec(NonLinearOp::Gelu, 41))
        .unwrap();
    assert_eq!(warm.stats().builds, builds_before, "gelu must be warm");
    warm.get_or_build(&quick_spec(NonLinearOp::Div, 41))
        .unwrap();
    assert_eq!(warm.stats().builds, builds_before + 1, "div was filtered");

    // A filter admitting everything is the plain snapshot.
    assert_eq!(reg.snapshot_json_where(|_| true), reg.snapshot_json());
}

#[test]
fn snapshot_rejects_garbage() {
    let reg = LutRegistry::new();
    assert!(reg.load_snapshot_json("not json").is_err());
    assert!(reg
        .load_snapshot_json("{\"version\": 99, \"entries\": []}")
        .is_err());
    assert!(reg.load_snapshot_json("{\"version\": 1}").is_err());
    // A snapshot without a pipeline marker is malformed.
    assert!(reg
        .load_snapshot_json("{\"version\": 1, \"entries\": []}")
        .is_err());
    let empty = format!(
        "{{\"version\": 1, \"pipeline\": {}, \"entries\": []}}",
        gqa_registry::PIPELINE_VERSION
    );
    assert_eq!(reg.load_snapshot_json(&empty), Ok(0));
}

#[test]
fn snapshot_from_another_pipeline_revision_is_refused() {
    use gqa_registry::SnapshotError;
    let reg = LutRegistry::new();
    let stale = format!(
        "{{\"version\": 1, \"pipeline\": {}, \"entries\": []}}",
        gqa_registry::PIPELINE_VERSION + 1
    );
    assert_eq!(
        reg.load_snapshot_json(&stale),
        Err(SnapshotError::StalePipeline(
            gqa_registry::PIPELINE_VERSION + 1
        ))
    );
    assert!(reg.is_empty(), "stale snapshot must load nothing");
}

#[test]
fn clear_preserves_stats() {
    let reg = LutRegistry::new();
    reg.get_or_build(&quick_spec(NonLinearOp::Gelu, 21))
        .unwrap();
    assert_eq!(reg.len(), 1);
    reg.clear();
    assert!(reg.is_empty());
    assert_eq!(reg.stats().builds, 1);
}
