//! Hostile-bytes tests for the store's decoders: whatever is on disk — bit
//! rot, truncation, or a *forged* file whose checksums were recomputed to
//! match — the snapshot reader answers with a typed
//! [`ServeError::CorruptSnapshot`] and the journal reader with a typed
//! [`ServeError::JournalReplay`], never a panic. Forged lengths are the
//! sharp case: an allocation sized from an unvalidated count near
//! `u64::MAX` aborts the process, so these tests merely *finishing* is
//! the assertion that every length is bounded by the file before use.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sem_serve::store::crc32;
use sem_serve::{AnnIndex, FacetLayout, IndexConfig, IndexStore, ServeError};

// the v4 header geometry (DESIGN.md §9.1)
const HEADER_LEN: usize = 184;
const TABLE_AT: usize = 32;
const ENTRY_LEN: usize = 24;
const SECTIONS: usize = 6;
const VECTORS: usize = 4; // table position of the `vectors` section
const QUANT: usize = 5;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sem-hostile-{name}-{}-{}",
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

/// A store exercising every section and both journals: a 60×8 snapshot
/// with IVF cells, a facet layout and SQ8 codes, three main-journal
/// records, two side-journal records. Returns the snapshot path.
fn valid_store(dir: &Path) -> PathBuf {
    let path = dir.join("index.snap");
    let config = IndexConfig { flat_threshold: 16, nlist: 4, ..Default::default() };
    let index = AnnIndex::try_build(random_vectors(60, 8, 1), config)
        .unwrap()
        .with_layout(FacetLayout::sem_nprec(2, 2))
        .unwrap()
        .with_sq8()
        .unwrap();
    let mut store = IndexStore::open(&path);
    store.save_snapshot(&index).unwrap();
    let extra = random_vectors(5, 8, 2);
    for (i, v) in extra[..3].iter().enumerate() {
        store.append_journal(60 + i, v).unwrap();
    }
    store.begin_online_compaction().unwrap();
    for (i, v) in extra[3..].iter().enumerate() {
        store.append_journal(63 + i, v).unwrap();
    }
    path
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// What a forger does after editing a snapshot: recompute the CRC of every
/// section whose (declared) range still lies inside the file, then the
/// header CRC — so only shape validation stands between the forged
/// lengths and the decoder.
fn reseal(bytes: &mut [u8]) {
    for i in 0..SECTIONS {
        let entry = TABLE_AT + i * ENTRY_LEN;
        let (offset, len) = (u64_at(bytes, entry + 8), u64_at(bytes, entry + 16));
        let end = offset.checked_add(len).and_then(|e| e.checked_next_multiple_of(8));
        if let Some(end) = end.filter(|&e| e <= bytes.len() as u64) {
            let crc = crc32(&bytes[offset as usize..end as usize]);
            bytes[entry + 4..entry + 8].copy_from_slice(&crc.to_le_bytes());
        }
    }
    let crc = crc32(&bytes[..HEADER_LEN - 4]);
    bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// Loads and verifies the store at `path`; the snapshot was tampered
/// with, so the only acceptable failure is `CorruptSnapshot`. A store
/// that still loads must be fully usable.
fn assert_snapshot_verdict_is_typed(path: &Path) -> bool {
    let report = IndexStore::open(path).verify();
    match IndexStore::open(path).load() {
        Ok(recovery) => {
            assert!(report.ok, "load succeeded but verify did not: {report:?}");
            let q = vec![0.5f32; recovery.index.dim()];
            assert!(!recovery.index.search(&q, 10).is_empty());
            true
        }
        Err(ServeError::CorruptSnapshot { .. }) => {
            assert!(!report.ok);
            assert!(report.snapshot.error.is_some());
            false
        }
        Err(other) => panic!("expected CorruptSnapshot, got {other}"),
    }
}

/// Values a forger would try in a length, offset or count field: entry
/// `pick` of a fixed list, or `raw` itself past its end.
fn hostile_u64(pick: usize, raw: u64, file_len: u64) -> u64 {
    let list = [
        0,
        1,
        7,
        8,
        file_len,
        file_len + 1,
        file_len - 8,
        u32::MAX as u64,
        u32::MAX as u64 + 1,
        u64::MAX,
        u64::MAX - 7,
        u64::MAX / 2,
        u64::MAX / 4 + 1, // × dim(8) × 4 wraps to a small number
        1 << 61,          // × 8 wraps to zero
        raw % 4096,
    ];
    list.get(pick).copied().unwrap_or(raw)
}

/// The same for a 32-bit field.
fn hostile_u32(pick: usize, raw: u64) -> u32 {
    [0, 1, 9, 1 << 31, u32::MAX].get(pick).copied().unwrap_or(raw as u32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every byte of a snapshot is under a checksum: any single flipped
    /// bit anywhere in the file is caught.
    #[test]
    fn any_flipped_snapshot_bit_is_caught(at in 0usize..1 << 20, bit in 0u8..8) {
        let dir = scratch("flip");
        let path = valid_store(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(!assert_snapshot_verdict_is_typed(&path), "flip at byte {} loaded", at);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot cut short at any length is refused.
    #[test]
    fn any_truncated_snapshot_is_refused(keep in 0usize..1 << 20) {
        let dir = scratch("truncate");
        let path = valid_store(&dir);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..keep % bytes.len()]).unwrap();
        prop_assert!(!assert_snapshot_verdict_is_typed(&path));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Forged header: one geometry field (dim, nlist, count, section
    /// count, or any section's kind / offset / length) rewritten to a
    /// hostile value and every checksum recomputed. Past-EOF offsets,
    /// overlapping sections, `count·dim` overflow and lengths near
    /// `u64::MAX` must all come back as `CorruptSnapshot`.
    #[test]
    fn forged_headers_are_refused_not_trusted(
        field in 0usize..(4 + 3 * SECTIONS),
        pick in 0usize..20,
        raw in 0u64..=u64::MAX,
    ) {
        let dir = scratch("forge-header");
        let path = valid_store(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let pristine = bytes.clone();
        let value = hostile_u64(pick, raw, bytes.len() as u64);
        match field {
            0 => bytes[12..16].copy_from_slice(&(value as u32).to_le_bytes()), // dim
            1 => bytes[16..20].copy_from_slice(&(value as u32).to_le_bytes()), // nlist
            2 => bytes[20..28].copy_from_slice(&value.to_le_bytes()),          // count
            3 => bytes[28..32].copy_from_slice(&(value as u32).to_le_bytes()), // sections
            f => {
                let entry = TABLE_AT + (f - 4) / 3 * ENTRY_LEN;
                match (f - 4) % 3 {
                    0 => bytes[entry..entry + 4].copy_from_slice(&(value as u32).to_le_bytes()),
                    1 => bytes[entry + 8..entry + 16].copy_from_slice(&value.to_le_bytes()),
                    _ => bytes[entry + 16..entry + 24].copy_from_slice(&value.to_le_bytes()),
                }
            }
        }
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let loaded = assert_snapshot_verdict_is_typed(&path);
        // the geometry is fully redundant: only writing a field's own
        // value back leaves a loadable file
        prop_assert_eq!(loaded, bytes == pristine);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Forged section bodies: a hostile u32 written anywhere inside any
    /// section (cell lengths, ids, facet counts, name lengths, segment
    /// counts, widths, scales…) with every checksum recomputed. The
    /// decoder may accept the file only if the result is a valid index.
    #[test]
    fn forged_section_bodies_are_validated(
        section in 0usize..SECTIONS,
        at in 0usize..1 << 16,
        pick in 0usize..8,
        raw in 0u64..=u64::MAX,
    ) {
        let value = hostile_u32(pick, raw);
        let dir = scratch("forge-body");
        let path = valid_store(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let entry = TABLE_AT + section * ENTRY_LEN;
        let (offset, len) = (u64_at(&bytes, entry + 8) as usize, u64_at(&bytes, entry + 16) as usize);
        let at = offset + (at % (len / 4)) * 4;
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        assert_snapshot_verdict_is_typed(&path);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Journals and side journals under bit flips, truncation and forged
    /// frames (length or four payload bytes rewritten, frame CRC
    /// recomputed): recovery, verify and the live side-record read-back
    /// either succeed or fail with `JournalReplay`.
    #[test]
    fn mutated_journals_fail_typed(
        side in any::<bool>(),
        damage in 0usize..3,
        at in 0usize..1 << 16,
        bit in 0u8..8,
        pick in 0usize..8,
        raw in 0u64..=u64::MAX,
    ) {
        let value = hostile_u32(pick, raw);
        let dir = scratch("journal");
        let path = valid_store(&dir);
        let store = IndexStore::open(&path);
        let journal =
            if side { store.side_journal_path() } else { store.journal_path() }.to_path_buf();
        let mut bytes = std::fs::read(&journal).unwrap();
        // frames are `len u32 | crc32 u32 | payload`: (start, end) of each
        let mut frames = Vec::new();
        let mut start = 0;
        while start < bytes.len() {
            let len = u32::from_le_bytes(bytes[start..start + 4].try_into().unwrap()) as usize;
            frames.push((start, start + 8 + len));
            start += 8 + len;
        }
        prop_assert_eq!(frames.len(), if side { 2 } else { 3 });
        let len = bytes.len();
        match damage {
            0 => bytes[at % len] ^= 1 << bit,
            1 => bytes.truncate(at % len),
            _ => {
                // forge one frame — its length field, or four bytes
                // anywhere in its payload — and recompute its checksum
                let (start, end) = frames[at % frames.len()];
                let word = if at % 4 == 0 { start } else { start + 8 + at % (end - start - 11) };
                bytes[word..word + 4].copy_from_slice(&value.to_le_bytes());
                let crc = crc32(&bytes[start + 8..end]);
                bytes[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
            }
        }
        std::fs::write(&journal, &bytes).unwrap();
        let report = IndexStore::open(&path).verify();
        match IndexStore::open(&path).load() {
            Ok(recovery) => prop_assert!(recovery.index.len() >= 60),
            Err(ServeError::JournalReplay { .. }) => {}
            Err(other) => panic!("expected JournalReplay, got {other}"),
        }
        prop_assert!(report.snapshot.error.is_none(), "the snapshot was not touched");
        // the store reopens in side-journal mode (the side file exists)
        match IndexStore::open(&path).side_records() {
            Ok(records) => prop_assert!(records.len() <= 2),
            Err(ServeError::JournalReplay { .. }) => prop_assert!(side),
            Err(other) => panic!("expected JournalReplay, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `index verify` localises damage: a flipped bit inside the vector
/// matrix fails exactly the `vectors` section and the error names it.
#[test]
fn verify_names_the_failing_section() {
    let dir = scratch("name-section");
    let path = valid_store(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let offset = u64_at(&bytes, TABLE_AT + VECTORS * ENTRY_LEN + 8) as usize;
    bytes[offset + 100] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    let report = IndexStore::open(&path).verify();
    assert!(!report.ok);
    assert!(report.snapshot.header_ok && !report.snapshot.payload_ok);
    let failing: Vec<&str> =
        report.snapshot.sections.iter().filter(|s| !s.ok).map(|s| s.name.as_str()).collect();
    assert_eq!(failing, vec!["vectors"]);
    assert_eq!(report.snapshot.error.as_deref(), Some("section `vectors` checksum mismatch"));
    let err = IndexStore::open(&path).load().unwrap_err();
    assert!(err.to_string().contains("section `vectors` checksum mismatch"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Damage the checksums cannot see (a buggy or malicious writer computed
/// them over bad data) is caught by the shape validator the v4 decoder
/// shares with `AnnIndex::from_json`.
#[test]
fn forged_quant_scales_and_counts_reach_the_shared_validator() {
    let dir = scratch("validator");
    let path = valid_store(&dir);
    let pristine = std::fs::read(&path).unwrap();
    let quant = u64_at(&pristine, TABLE_AT + QUANT * ENTRY_LEN + 8) as usize;

    // a negative quantization step in the first segment record
    // (rescore u64 | segments u32 | 0 u32 | width u32 | min f32 | delta f32 | 0 u32)
    let mut bytes = pristine.clone();
    bytes[quant + 24..quant + 28].copy_from_slice(&(-1.0f32).to_le_bytes());
    reseal(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    let err = IndexStore::open(&path).load().unwrap_err();
    assert!(matches!(err, ServeError::CorruptSnapshot { .. }), "{err}");
    assert!(err.to_string().contains("negative step"), "{err}");

    // a zero rescore depth
    let mut bytes = pristine.clone();
    bytes[quant..quant + 8].copy_from_slice(&0u64.to_le_bytes());
    reseal(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    let err = IndexStore::open(&path).load().unwrap_err();
    assert!(err.to_string().contains("rescore depth"), "{err}");

    // one more vector declared than the matrix holds
    let mut bytes = pristine.clone();
    bytes[20..28].copy_from_slice(&61u64.to_le_bytes());
    reseal(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    let err = IndexStore::open(&path).load().unwrap_err();
    assert!(matches!(err, ServeError::CorruptSnapshot { .. }), "{err}");
    assert!(err.to_string().contains("section `vectors` is too short"), "{err}");

    std::fs::write(&path, &pristine).unwrap();
    assert_eq!(IndexStore::open(&path).load().unwrap().index.len(), 65);
    std::fs::remove_dir_all(&dir).ok();
}
