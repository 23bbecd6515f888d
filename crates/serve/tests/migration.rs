//! Legacy-store migration tests over byte-exact fixtures written by the
//! last pre-v4 commit (`tests/fixtures/`, ~40 vectors × 8 dims each):
//!
//! * `legacy-json.snap` — bare `AnnIndex::to_json`, flat, fused;
//! * `v1.snap` + `.journal` — headered v1, flat, fused, two journal
//!   records;
//! * `v2.snap` — headered v2, IVF (4 cells) with a 4-facet layout;
//! * `v3.snap` + `.journal` + `.journal.side` — headered v3, IVF, layout
//!   and SQ8 sidecar, caught mid-online-compaction (three main-journal
//!   records, two side-journal records).
//!
//! Each `X.expected.json` is `to_json()` of the index the old reader
//! recovered from `X` — the reference the migrated store must reproduce
//! bit for bit. The serving reader must refuse all of them with an error
//! naming `sem index migrate`; `migrate` must convert them in place,
//! folding in the journals (whose format v4 did not change).

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sem_serve::store::crc32;
use sem_serve::{
    migrate, migrate_store, shard_snapshot_path, verify_sharded, AnnIndex, IndexStore, ServeError,
    ShardConfig, ShardManifest, ShardRouter,
};

/// (fixture, format `migrate` must report, journal records it must fold).
const FIXTURES: [(&str, &str, usize); 4] = [
    ("legacy-json.snap", "legacy-json", 0),
    ("v1.snap", "v1", 2),
    ("v2.snap", "v2", 0),
    ("v3.snap", "v3", 5),
];

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sem-migration-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Copies fixture `name` and whichever journals it has to `to`.
fn install(name: &str, to: &Path) {
    for suffix in ["", ".journal", ".journal.side"] {
        let from = fixtures().join(format!("{name}{suffix}"));
        if from.exists() {
            let mut target = to.as_os_str().to_os_string();
            target.push(suffix);
            std::fs::copy(from, target).unwrap();
        }
    }
}

fn expected(name: &str) -> String {
    std::fs::read_to_string(fixtures().join(format!("{name}.expected.json"))).unwrap()
}

#[test]
fn the_serving_reader_refuses_every_legacy_fixture_and_names_the_converter() {
    let dir = tmp_dir("refuse");
    for (name, _, _) in FIXTURES {
        let path = dir.join(name);
        install(name, &path);
        let before = std::fs::read(&path).unwrap();
        let err = IndexStore::open(&path).load().unwrap_err();
        assert!(matches!(err, ServeError::CorruptSnapshot { .. }), "{name}: {err}");
        assert!(err.to_string().contains("sem index migrate"), "{name}: {err}");
        let report = IndexStore::open(&path).verify();
        assert!(!report.ok, "{name}");
        assert!(report.snapshot.error.unwrap().contains("sem index migrate"), "{name}");
        assert_eq!(std::fs::read(&path).unwrap(), before, "{name}: reading must not rewrite");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn migrate_reproduces_each_fixture_bit_for_bit_as_v4() {
    let dir = tmp_dir("convert");
    for (name, from, journalled) in FIXTURES {
        let path = dir.join(name);
        install(name, &path);
        let report = migrate_store(&path).unwrap();
        assert_eq!(report.from, from);
        assert!(report.migrated);
        assert_eq!((report.replayed, report.skipped), (journalled, 0), "{name}");
        assert_eq!(report.count, 40 + journalled);

        // the journals were folded in and retired; the store is clean v4
        let store = IndexStore::open(&path);
        assert!(!store.journal_path().exists() && !store.side_journal_path().exists());
        let verify = store.verify();
        assert!(verify.ok, "{name}: {verify:?}");
        assert_eq!(verify.snapshot.format, "v4");
        assert_eq!(verify.tail_records, 0);

        // vectors, centroids, lists, layout, scales and codes: the JSON
        // form prints every f32 exactly, so string equality is bit equality
        let recovery = store.load().unwrap();
        assert_eq!(recovery.replayed, 0);
        assert_eq!(recovery.index.to_json().unwrap(), expected(name), "{name}");
        let reference = AnnIndex::from_json(&expected(name)).unwrap();
        for q in random_vectors(5, 8, 9) {
            assert_eq!(recovery.index.search(&q, 10), reference.search(&q, 10), "{name}");
        }
    }
    // what the fixtures were chosen to cover actually got covered
    let v3 = IndexStore::open(dir.join("v3.snap")).load().unwrap().index;
    assert!(v3.is_quantized() && v3.has_facets() && !v3.is_flat());
    let v2 = IndexStore::open(dir.join("v2.snap")).load().unwrap().index;
    assert!(!v2.is_quantized() && v2.has_facets() && !v2.is_flat());
    let v1 = IndexStore::open(dir.join("v1.snap")).load().unwrap().index;
    assert!(!v1.has_facets() && v1.is_flat());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn migrate_on_a_v4_store_is_a_no_op() {
    let dir = tmp_dir("noop");
    let path = dir.join("v3.snap");
    install("v3.snap", &path);
    migrate_store(&path).unwrap();
    // a live v4 store: snapshot plus one journal record
    let mut store = IndexStore::open(&path);
    store.append_journal(45, &random_vectors(1, 8, 3)[0]).unwrap();
    let (snapshot, journal) =
        (std::fs::read(&path).unwrap(), std::fs::read(store.journal_path()).unwrap());
    let report = migrate_store(&path).unwrap();
    assert_eq!(report.from, "v4");
    assert!(!report.migrated);
    assert_eq!(report.count, 46);
    assert_eq!(std::fs::read(&path).unwrap(), snapshot);
    assert_eq!(std::fs::read(store.journal_path()).unwrap(), journal);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_families_migrate_shard_by_shard() {
    let dir = tmp_dir("family");
    let base = dir.join("family.snap");
    ShardManifest { version: 1, shards: 2, dim: 8 }.save(&base).unwrap();
    install("v3.snap", &shard_snapshot_path(&base, 0));
    install("v2.snap", &shard_snapshot_path(&base, 1));

    let Err(err) = ShardRouter::open(&base, ShardConfig::default()) else {
        panic!("a legacy family must not open");
    };
    assert!(err.to_string().contains("sem index migrate"), "{err}");

    let reports = migrate(&base).unwrap();
    let found: Vec<(&str, usize)> = reports.iter().map(|r| (r.from.as_str(), r.count)).collect();
    assert_eq!(found, vec![("v3", 45), ("v2", 40)]);
    assert!(verify_sharded(&base).unwrap().ok);
    let (router, _) = ShardRouter::open(&base, ShardConfig::default()).unwrap();
    assert_eq!(router.len(), 85);
    for (shard, name) in [(0, "v3.snap"), (1, "v2.snap")] {
        let json = router.shard(shard).with_index(|i| i.to_json().unwrap()).unwrap();
        assert_eq!(json, expected(name));
    }
    // second pass: nothing left to do
    assert!(migrate(&base).unwrap().iter().all(|r| !r.migrated && r.from == "v4"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `migrate` lands the v4 snapshot before it deletes the journals it
/// folded in. A crash between the two leaves a v4 snapshot beside
/// journals whose every record it already holds; replay skips them, so the
/// store opens as it is and nothing needs re-running.
#[test]
fn an_interrupted_migrate_leaves_a_store_that_opens() {
    let dir = tmp_dir("interrupted");
    let done = dir.join("done.snap");
    install("v1.snap", &done);
    migrate_store(&done).unwrap();
    let path = dir.join("crashed.snap");
    install("v1.snap", &path);
    std::fs::copy(&done, &path).unwrap();

    let recovery = IndexStore::open(&path).load().unwrap();
    assert_eq!((recovery.replayed, recovery.skipped), (0, 2));
    assert_eq!(recovery.index.to_json().unwrap(), expected("v1.snap"));
    let report = migrate_store(&path).unwrap();
    assert_eq!((report.from.as_str(), report.migrated, report.count), ("v4", false, 42));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_legacy_stores_stay_typed_errors_and_untouched() {
    let dir = tmp_dir("corrupt");
    let path = dir.join("v3.snap");
    install("v3.snap", &path);
    let pristine = std::fs::read(&path).unwrap();

    // one flipped payload byte: the legacy payload checksum catches it
    let mut bytes = pristine.clone();
    *bytes.last_mut().unwrap() ^= 0x08;
    std::fs::write(&path, &bytes).unwrap();
    let err = migrate_store(&path).unwrap_err();
    assert!(matches!(err, ServeError::CorruptSnapshot { .. }), "{err}");
    assert!(err.to_string().contains("payload checksum mismatch"), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "a failed migrate writes nothing");

    // a version from the future (valid checksums) is rejected, not guessed at
    let mut bytes = pristine;
    bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
    let header_crc = crc32(&bytes[..40]);
    bytes[40..44].copy_from_slice(&header_crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = migrate_store(&path).unwrap_err();
    assert!(matches!(err, ServeError::CorruptSnapshot { .. }), "{err}");
    assert!(err.to_string().contains("unsupported format version 9"), "{err}");
    assert!(IndexStore::open(&path).journal_path().exists());
    std::fs::remove_dir_all(&dir).ok();
}
