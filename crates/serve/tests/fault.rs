//! Fault-injection integration tests for the persistence layer.
//!
//! Every test follows the same shape: script a crash (or corrupt the media
//! post-hoc), let the store hit it, "reboot the machine" by opening a fresh
//! store over the same paths, and check the two contracts the design
//! promises — every *acknowledged* ingest survives, and corrupt snapshots
//! are detected, never silently loaded.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sem_serve::fault::{flip_bit, truncate_file};
use sem_serve::{
    shard_snapshot_path, AnnIndex, EngineConfig, FaultPlan, IndexConfig, IndexStore, QueryEngine,
    ServeError, ShardConfig, ShardRouter,
};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory per test case (proptest runs many cases).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sem-fault-{name}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
}

fn build(n: usize, dim: usize, seed: u64) -> AnnIndex {
    AnnIndex::build(random_vectors(n, dim, seed), IndexConfig::default())
}

/// A torn snapshot write (crash mid temp-file) leaves the previous
/// snapshot fully intact: the rename never happened.
#[test]
fn torn_snapshot_write_preserves_previous_snapshot() {
    let dir = scratch("torn-write");
    let path = dir.join("index.snap");
    let old = build(40, 8, 1);
    IndexStore::open(&path).save_snapshot(&old).unwrap();

    let newer = build(90, 8, 2);
    let mut store = IndexStore::open(&path).with_fault_plan(FaultPlan::torn_snapshot(60));
    let err = store.save_snapshot(&newer).unwrap_err();
    assert!(err.is_injected(), "{err}");
    // the store is poisoned until "rebooted"
    assert!(store.save_snapshot(&newer).is_err());

    // reboot: the old snapshot loads cleanly, the new one never landed
    let recovery = IndexStore::open(&path).load().unwrap();
    assert_eq!(recovery.index.len(), 40);
    assert_eq!(recovery.replayed, 0);
    let report = IndexStore::open(&path).verify();
    assert!(report.ok, "{report:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot truncated after a clean save (lost tail) is detected by the
/// checksums and refused — never silently loaded short.
#[test]
fn truncated_snapshot_is_detected_not_loaded() {
    let dir = scratch("truncate");
    let path = dir.join("index.snap");
    IndexStore::open(&path).save_snapshot(&build(60, 6, 3)).unwrap();
    let full = std::fs::metadata(&path).unwrap().len();
    truncate_file(&path, full / 2).unwrap();

    let err = IndexStore::open(&path).load().unwrap_err();
    assert!(matches!(err, ServeError::CorruptSnapshot { .. }), "{err}");
    let report = IndexStore::open(&path).verify();
    assert!(!report.ok);
    assert!(!report.snapshot.payload_ok);
    std::fs::remove_dir_all(&dir).ok();
}

/// A single flipped bit anywhere — payload, header or magic — fails the
/// checksum (or format sniff) and the snapshot is refused.
#[test]
fn bit_flips_fail_checksum_verification() {
    for (name, byte_from_end, label) in [
        ("flip-payload", 1u64, "payload"),
        ("flip-header", 0, "header"),
        ("flip-magic", 0, "magic"),
    ] {
        let dir = scratch(name);
        let path = dir.join("index.snap");
        IndexStore::open(&path).save_snapshot(&build(50, 5, 4)).unwrap();
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        let byte = match label {
            "payload" => len - byte_from_end as usize, // last payload byte
            "header" => 9,                             // inside the version field
            _ => 0,                                    // first magic byte
        };
        flip_bit(&path, byte, 3).unwrap();
        let err = IndexStore::open(&path).load().unwrap_err();
        assert!(matches!(err, ServeError::CorruptSnapshot { .. }), "{label}: {err}");
        assert!(!IndexStore::open(&path).verify().ok, "{label}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Crash right after journal append #n: every *acknowledged* ingest (0..n)
/// survives the reboot. Record n itself was synced before the crash, so
/// replay may legitimately resurrect it — durability is "at least every
/// ack", never less.
#[test]
fn acknowledged_ingests_survive_crash_after_append() {
    let dir = scratch("after-append");
    let path = dir.join("index.snap");
    let base = build(30, 6, 5);
    IndexStore::open(&path).save_snapshot(&base).unwrap();

    let engine =
        QueryEngine::new(IndexStore::open(&path).load().unwrap().index, EngineConfig::default());
    engine.attach_store(IndexStore::open(&path).with_fault_plan(FaultPlan::crash_after_append(2)));
    let extras = random_vectors(3, 6, 6);
    let mut acked = Vec::new();
    for (i, v) in extras.iter().enumerate() {
        match engine.ingest_vector(v.clone()) {
            Ok(ack) => {
                assert!(ack.durable);
                acked.push((ack.id, v.clone()));
            }
            Err(e) => {
                assert!(e.is_injected(), "{e}");
                assert_eq!(i, 2, "crash was scripted at append #2");
            }
        }
    }
    assert_eq!(acked.len(), 2);

    // reboot: snapshot + journal replay
    let recovery = IndexStore::open(&path).load().unwrap();
    assert!(recovery.index.len() >= 30 + acked.len());
    assert_eq!(recovery.skipped, 0);
    for (id, v) in &acked {
        let top = recovery.index.search(v, 1);
        assert_eq!(top[0].id, *id, "acked ingest {id} must survive the crash");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash with records sitting in the unflushed batch buffer: those records
/// are lost — and that is correct, because they were never acknowledged as
/// durable.
#[test]
fn buffered_records_lost_on_crash_were_never_acked_durable() {
    let dir = scratch("buffered");
    let path = dir.join("index.snap");
    let base = build(25, 5, 7);
    IndexStore::open(&path).save_snapshot(&base).unwrap();

    let engine =
        QueryEngine::new(IndexStore::open(&path).load().unwrap().index, EngineConfig::default());
    engine.attach_store(
        IndexStore::open(&path)
            .with_flush_every(4)
            .with_fault_plan(FaultPlan::crash_with_buffered(2)),
    );
    let extras = random_vectors(2, 5, 8);
    let first = engine.ingest_vector(extras[0].clone()).unwrap();
    assert!(!first.durable, "a buffered record must not be acked as durable");
    let err = engine.ingest_vector(extras[1].clone()).unwrap_err();
    assert!(err.is_injected(), "{err}");

    // reboot: the buffer evaporated with the "page cache"; only the base
    // snapshot remains — exactly what was durably acknowledged
    let recovery = IndexStore::open(&path).load().unwrap();
    assert_eq!(recovery.index.len(), 25);
    assert_eq!(recovery.replayed, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash between the snapshot rename and the journal truncation: the
/// journal still holds records the snapshot already contains, and replay
/// must skip them idempotently instead of double-inserting.
#[test]
fn crash_mid_compaction_replays_idempotently() {
    let dir = scratch("mid-compaction");
    let path = dir.join("index.snap");
    let base = build(20, 6, 9);
    IndexStore::open(&path).save_snapshot(&base).unwrap();

    let engine =
        QueryEngine::new(IndexStore::open(&path).load().unwrap().index, EngineConfig::default());
    engine.attach_store(IndexStore::open(&path).with_fault_plan(FaultPlan::crash_mid_compaction()));
    for v in random_vectors(3, 6, 10) {
        assert!(engine.ingest_vector(v).unwrap().durable);
    }
    // compaction writes the new snapshot, then dies before truncating
    let err = engine.persist().unwrap_err();
    assert!(err.is_injected(), "{err}");
    assert!(IndexStore::open(&path).journal_path().exists());

    // reboot: snapshot already holds all 23; the 3 journal records are
    // recognised as already-applied and skipped
    let recovery = IndexStore::open(&path).load().unwrap();
    assert_eq!(recovery.index.len(), 23);
    assert_eq!(recovery.replayed, 0);
    assert_eq!(recovery.skipped, 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// After an injected crash the engine can rebuild itself from the store
/// (poisoned-state recovery) and keep serving — no process restart needed.
#[test]
fn engine_recovers_from_store_after_injected_crash() {
    let dir = scratch("engine-recover");
    let path = dir.join("index.snap");
    let base = build(35, 7, 11);
    IndexStore::open(&path).save_snapshot(&base).unwrap();

    let engine =
        QueryEngine::new(IndexStore::open(&path).load().unwrap().index, EngineConfig::default());
    engine.attach_store(IndexStore::open(&path).with_fault_plan(FaultPlan::crash_after_append(0)));
    let v = random_vectors(1, 7, 12).pop().unwrap();
    assert!(engine.ingest_vector(v.clone()).unwrap_err().is_injected());
    // the poisoned store refuses everything until recovery
    assert!(engine.persist().is_err());

    // swap in a fresh store over the same paths and recover through it
    engine.attach_store(IndexStore::open(&path));
    let stats = engine.recover_from_store().unwrap();
    assert!(!engine.is_recovering());
    // the crashed append was synced before the injected crash, so replay
    // resurrects it — at-least-every-ack, and queries work again
    assert_eq!(stats.recovered_len, 36);
    let top = engine.query(v, 1).unwrap();
    assert!(!top.degraded);
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash mid-online-compaction leaves `snapshot + journal + side
/// journal` behind. The family must survive not just the first restart
/// but the second: ingests acknowledged after the first recovery have to
/// replay *after* the side journal's records, not into the middle of them.
#[test]
fn ingests_after_an_interrupted_compaction_survive_the_next_restart() {
    let dir = scratch("second-restart");
    let family = dir.join("family.snap");
    let config = ShardConfig { shards: 1, ..Default::default() };
    let extras = random_vectors(9, 6, 14);
    let mut reference = build(40, 6, 13);
    for v in &extras {
        reference.try_insert(v.clone()).unwrap();
    }

    let router = ShardRouter::try_build(random_vectors(40, 6, 13), config).unwrap();
    router.attach_stores(&family).unwrap();
    router.persist_all().unwrap();
    for v in &extras[..3] {
        assert!(router.ingest_vector(v.clone()).unwrap().durable);
    }
    drop(router);
    // the compaction that never committed: side-journal mode entered, three
    // more ingests acknowledged into the side journal, then the machine died
    let mut store = IndexStore::open(shard_snapshot_path(&family, 0));
    store.begin_online_compaction().unwrap();
    for (i, v) in extras[3..6].iter().enumerate() {
        store.append_journal(43 + i, v).unwrap();
    }
    drop(store);

    // first restart recovers all six, and serves three more ingests
    let (router, recoveries) = ShardRouter::open(&family, config).unwrap();
    assert_eq!(recoveries[0].replayed, 6);
    for v in &extras[6..] {
        assert!(router.ingest_vector(v.clone()).unwrap().durable);
    }
    drop(router);

    // second restart: every acknowledged ingest, in order
    let (router, recoveries) = ShardRouter::open(&family, config).unwrap();
    assert_eq!(recoveries[0].replayed, 9);
    let recovered = router.shard(0).with_index(|i| i.to_json().unwrap()).unwrap();
    assert_eq!(recovered, reference.to_json().unwrap());
    // and the interrupted compaction completes when retried
    router.compact_shard_online(0).unwrap();
    assert_eq!(router.shard(0).journal_tail(), Some(0));
    assert!(!router.maintenance_status()[0].compacting);
    std::fs::remove_dir_all(&dir).ok();
}

/// A compaction that fails *without* crashing (the snapshot temp path is
/// unwritable) must not wedge the shard: ingest keeps flowing and the
/// next attempt completes.
#[test]
fn a_failed_online_compaction_can_be_retried() {
    let dir = scratch("compaction-retry");
    let family = dir.join("family.snap");
    let router = ShardRouter::try_build(
        random_vectors(40, 6, 15),
        ShardConfig { shards: 1, ..Default::default() },
    )
    .unwrap();
    router.attach_stores(&family).unwrap();
    router.persist_all().unwrap();
    let extras = random_vectors(3, 6, 16);
    assert!(router.ingest_vector(extras[0].clone()).unwrap().durable);

    let blocker = sem_train::atomic::tmp_path(&shard_snapshot_path(&family, 0));
    std::fs::create_dir(&blocker).unwrap();
    let err = router.compact_shard_online(0).unwrap_err();
    assert!(matches!(err, ServeError::Io { .. }), "{err}");
    assert!(router.ingest_vector(extras[1].clone()).unwrap().durable, "ingest is not wedged");
    std::fs::remove_dir(&blocker).unwrap();

    let report = router.compact_shard_online(0).unwrap();
    assert_eq!(report.base_len, 42);
    assert_eq!(router.shard(0).journal_tail(), Some(0));
    assert!(router.ingest_vector(extras[2].clone()).unwrap().durable);
    drop(router);
    let (reopened, _) =
        ShardRouter::open(&family, ShardConfig { shards: 1, ..Default::default() }).unwrap();
    assert_eq!(reopened.len(), 43);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The satellite property: snapshot → journal-append × N → simulated
    /// crash (no compaction) → recovery yields an index whose query
    /// results are identical to a never-crashed reference that performed
    /// the same build + inserts purely in memory.
    #[test]
    fn recovery_matches_never_crashed_reference(
        n in 30usize..120,
        dim in 4usize..12,
        extra in 0usize..10,
        seed in 0u64..1_000,
    ) {
        let dir = scratch("prop-recovery");
        let path = dir.join("index.snap");
        let base = random_vectors(n, dim, seed);
        let extras = random_vectors(extra, dim, seed ^ 0xfeed);

        // reference: same build + same inserts, never touches disk
        let mut reference = AnnIndex::build(base.clone(), IndexConfig::default());
        for v in &extras {
            reference.try_insert(v.clone()).unwrap();
        }

        // crashed path: snapshot, journal every ingest, then "crash"
        // (drop the engine without compacting)
        IndexStore::open(&path).save_snapshot(
            &AnnIndex::build(base, IndexConfig::default()),
        ).unwrap();
        let engine = QueryEngine::new(
            IndexStore::open(&path).load().unwrap().index,
            EngineConfig::default(),
        );
        engine.attach_store(IndexStore::open(&path));
        for v in &extras {
            prop_assert!(engine.ingest_vector(v.clone()).unwrap().durable);
        }
        drop(engine);

        // reboot + replay
        let recovery = IndexStore::open(&path).load().unwrap();
        prop_assert_eq!(recovery.replayed, extra);
        prop_assert_eq!(recovery.index.len(), reference.len());

        // identical query results, for queries aimed at both the base and
        // the journaled region of the index
        let queries = random_vectors(8, dim, seed ^ 0xc0de);
        for q in queries.iter().chain(extras.iter()) {
            let got: Vec<usize> = recovery.index.search(q, 5).iter().map(|h| h.id).collect();
            let want: Vec<usize> = reference.search(q, 5).iter().map(|h| h.id).collect();
            prop_assert_eq!(&got, &want);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Crash mid-online-compaction, with queries hammering the shard the
    /// whole time. Three contracts, at every scripted crash point:
    ///
    /// 1. no torn views — every concurrent (and post-crash) query serves
    ///    the full corpus from the intact in-memory index;
    /// 2. recovery equals a never-compacted, never-crashed reference —
    ///    the reopened store's index is byte-identical to a pure in-memory
    ///    run of the same build + inserts;
    /// 3. the interrupted compaction is resumable — a fresh store over
    ///    the same paths compacts to a clean zero-tail state.
    #[test]
    fn crash_mid_online_compaction_recovers_byte_identical(
        n in 30usize..90,
        dim in 4usize..10,
        extra in 1usize..8,
        seed in 0u64..1_000,
        fault_kind in 0usize..3,
    ) {
        let dir = scratch("prop-online-compaction");
        let base = random_vectors(n, dim, seed);
        let extras = random_vectors(extra, dim, seed ^ 0xfeed);

        // reference: same build + same inserts, never touches disk and
        // never compacts
        let mut reference = AnnIndex::build(base.clone(), IndexConfig::default());
        for v in &extras {
            reference.try_insert(v.clone()).unwrap();
        }
        let want = reference.to_json().unwrap();

        // live path: one shard over a real store, extras journalled
        let router = ShardRouter::try_build(
            base,
            ShardConfig { shards: 1, ..Default::default() },
        ).unwrap();
        let family = dir.join("family.snap");
        router.attach_stores(&family).unwrap();
        router.persist_all().unwrap();
        for v in &extras {
            prop_assert!(router.ingest_vector(v.clone()).unwrap().durable);
        }

        // swap in a store scripted to die mid-commit at one of the
        // online-compaction crash points
        let snap = shard_snapshot_path(&family, 0);
        let plan = match fault_kind {
            0 => FaultPlan::torn_snapshot(60),
            1 => FaultPlan::crash_mid_compaction(),
            _ => FaultPlan::crash_before_side_truncate(),
        };
        router.shard(0).attach_store(IndexStore::open(&snap).with_fault_plan(plan));

        let stop = std::sync::atomic::AtomicBool::new(false);
        let crash_seen = std::thread::scope(|scope| {
            let querier = scope.spawn(|| {
                // no torn views: the self-query stays exact throughout
                let mut served = 0u64;
                while served == 0 || !stop.load(Ordering::Acquire) {
                    let response = router.query(extras[0].clone(), 1).unwrap();
                    assert!(!response.degraded);
                    assert_eq!(response.hits[0].id, n);
                    served += 1;
                }
                served
            });
            let err = router.compact_shard_online(0).unwrap_err();
            let crashed = err.is_injected();
            stop.store(true, Ordering::Release);
            assert!(querier.join().unwrap() > 0, "queries must flow during compaction");
            crashed
        });
        prop_assert!(crash_seen, "the scripted crash point must fire");
        // the in-memory view is still whole after the crash
        prop_assert_eq!(router.len(), n + extra);

        // reboot: whatever mix of old/new snapshot + journals the crash
        // left behind recovers to exactly the reference
        let recovery = IndexStore::open(&snap).load().unwrap();
        prop_assert_eq!(recovery.index.len(), n + extra);
        prop_assert_eq!(recovery.index.to_json().unwrap(), want.clone());

        // and the interrupted compaction is resumable: a fresh store
        // (same paths) folds everything into a clean zero-tail snapshot
        router.shard(0).attach_store(IndexStore::open(&snap));
        router.compact_shard_online(0).unwrap();
        prop_assert_eq!(router.shard(0).journal_tail(), Some(0));
        let compacted = IndexStore::open(&snap).load().unwrap();
        prop_assert_eq!(compacted.index.to_json().unwrap(), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Zero-drift handover safety: forcing a re-cluster on an unchanged
    /// corpus is a no-swap — the k-means re-train is deterministic, so the
    /// rebuilt table is bit-identical, `changed` is false, and no handover
    /// epoch is burned.
    #[test]
    fn recluster_without_drift_is_bit_identical_no_swap(
        n in 40usize..160,
        dim in 4usize..12,
        nlist in 2usize..6,
        seed in 0u64..1_000,
    ) {
        let router = ShardRouter::try_build(
            random_vectors(n, dim, seed),
            ShardConfig {
                shards: 1,
                index: IndexConfig { nlist, nprobe: nlist, flat_threshold: 1, ..Default::default() },
                ..Default::default()
            },
        ).unwrap();
        let before = router.shard(0).with_index(|i| i.to_json().unwrap()).unwrap();
        let report = router.recluster_shard(0).unwrap();
        prop_assert!(!report.changed, "{report:?}");
        prop_assert_eq!(router.shard(0).epoch(), 0);
        let after = router.shard(0).with_index(|i| i.to_json().unwrap()).unwrap();
        prop_assert_eq!(before, after);
    }
}
