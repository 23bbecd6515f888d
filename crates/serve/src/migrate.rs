//! Offline conversion of legacy stores to SEMSNAP v4 (`sem index
//! migrate`).
//!
//! Before v4 a snapshot was `AnnIndex::to_json` output, either bare
//! (pre-v1) or behind a 44-byte `SEMSNAP1` header (v1: fused vectors; v2
//! added the facet layout, v3 the SQ8 sidecar — optional payload keys
//! that deserialise to their defaults when absent). The serving path no
//! longer reads any of that; this module is the one place that does. It
//! decodes a legacy snapshot exactly as the old reader did — checksums,
//! shape validation — replays the journals beside it with the store's own
//! replay (the journal format did not change), and writes the result back
//! through [`IndexStore::save_snapshot`], which lands the v4 snapshot
//! atomically and only then deletes the journals it folded in.

use std::path::Path;

use serde::Serialize;

use crate::error::ServeError;
use crate::index::snapshot::{self, u32_at, u64_at};
use crate::index::AnnIndex;
use crate::router::{shard_snapshot_path, ShardManifest};
use crate::store::{crc32, IndexStore};

const LEGACY_HEADER_LEN: usize = 44;

/// What [`migrate_store`] found and did.
#[derive(Debug, Default, Serialize)]
pub struct MigrateReport {
    /// Snapshot path of the store.
    pub path: String,
    /// Format found: `"legacy-json"`, `"v1"`, `"v2"`, `"v3"`, or `"v4"`
    /// (already current — nothing converted).
    pub from: String,
    /// `true` when anything on disk was rewritten or removed.
    pub migrated: bool,
    /// Vectors in the store afterwards.
    pub count: usize,
    /// Journal records folded into the snapshot.
    pub replayed: usize,
    /// Journal records the snapshot already held.
    pub skipped: usize,
    /// A torn (never-acknowledged) journal tail was dropped.
    pub discarded_tail: bool,
}

/// Decodes a bare-JSON or v1–v3 snapshot with every check the old reader
/// made; returns the format's name and the index.
fn decode_legacy(bytes: &[u8], path: &Path) -> Result<(String, AnnIndex), ServeError> {
    let corrupt = |detail: String| ServeError::corrupt(path, detail);
    let header = match snapshot::version_of(bytes) {
        None => None,
        Some(version @ 1..=3) if bytes.len() >= LEGACY_HEADER_LEN => Some(version),
        Some(version) => return Err(corrupt(format!("unsupported format version {version}"))),
    };
    let payload = match header {
        None => bytes,
        Some(_) => {
            if crc32(&bytes[..40]) != u32_at(bytes, 40) {
                return Err(corrupt("header checksum mismatch".into()));
            }
            let payload = &bytes[LEGACY_HEADER_LEN..];
            let declared = u64_at(bytes, 28);
            if declared != payload.len() as u64 {
                return Err(corrupt(format!(
                    "payload length mismatch: header says {declared}, file holds {}",
                    payload.len()
                )));
            }
            if crc32(payload) != u32_at(bytes, 36) {
                return Err(corrupt("payload checksum mismatch".into()));
            }
            payload
        }
    };
    let index = std::str::from_utf8(payload)
        .map_err(|_| "payload is not UTF-8".to_string())
        .and_then(AnnIndex::from_json)
        .map_err(|e| corrupt(format!("JSON payload rejected: {e}")))?;
    let Some(version) = header else { return Ok(("legacy-json".into(), index)) };
    let declared = (u32_at(bytes, 12) as usize, u32_at(bytes, 16) as usize, u64_at(bytes, 20));
    if declared != (index.dim(), index.nlist(), index.len() as u64) {
        return Err(corrupt(format!(
            "header/payload disagreement: header {declared:?} vs payload ({}, {}, {})",
            index.dim(),
            index.nlist(),
            index.len()
        )));
    }
    Ok((format!("v{version}"), index))
}

/// Converts the store at `path` (snapshot plus its journals) to v4 in
/// place. A store that is already v4 is left untouched.
///
/// # Errors
/// An unreadable or corrupt snapshot, a journal that cannot be replayed,
/// or the v4 write failing. The legacy files are only replaced once the
/// new snapshot is durable.
pub fn migrate_store(path: &Path) -> Result<MigrateReport, ServeError> {
    let bytes = std::fs::read(path).map_err(|e| ServeError::io(path, e))?;
    let mut store = IndexStore::open(path);
    let mut report = MigrateReport { path: path.display().to_string(), ..Default::default() };
    if snapshot::version_of(&bytes) == Some(snapshot::VERSION) {
        report.from = format!("v{}", snapshot::VERSION);
        report.count = store.load()?.index.len();
        return Ok(report);
    }
    let (from, mut index) = decode_legacy(&bytes, path)?;
    report.from = from;
    (report.replayed, report.skipped, report.discarded_tail) = store.replay_journals(&mut index)?;
    store.save_snapshot(&index)?;
    report.migrated = true;
    report.count = index.len();
    Ok(report)
}

/// [`migrate_store`] over whatever lives at `path`: each shard of a
/// sharded family (manifest present), or the single store.
///
/// # Errors
/// A corrupt manifest, or the first store that fails to migrate (stores
/// before it stay migrated; re-running is safe).
pub fn migrate(path: &Path) -> Result<Vec<MigrateReport>, ServeError> {
    if !ShardManifest::exists(path) {
        return Ok(vec![migrate_store(path)?]);
    }
    let manifest = ShardManifest::load(path)?;
    (0..manifest.shards).map(|i| migrate_store(&shard_snapshot_path(path, i))).collect()
}
