//! Crash-safe index persistence: checksummed binary snapshots plus a
//! write-ahead journal.
//!
//! **Snapshot.** SEMSNAP v4 (DESIGN.md §9.1): a checksummed header with a
//! section table over 8-byte-aligned, individually checksummed binary
//! sections. Written to a temp file in the same directory, fsynced,
//! atomically renamed over the target and the directory fsynced, so a
//! crash at any point leaves either the old snapshot or the new one.
//! Torn or bit-flipped snapshots fail a checksum and are **rejected**,
//! never silently loaded. This is the only format the store reads or
//! writes; bare-JSON and v1–v3 stores are refused with an error naming
//! the offline converter, `sem index migrate` ([`mod@crate::migrate`]).
//!
//! **Journal.** Each acknowledged ingest appends one frame — `len u32 |
//! crc32 u32 | payload`, little-endian, payload the record as JSON text
//! (`{"seq":…,"vector":[…]}`, the framing and payload every earlier store
//! version wrote, so their journals replay as they are) — and fsyncs
//! before reporting durability. Recovery loads the snapshot and
//! replays the journal in order; a torn tail (partial final record) is
//! discarded — it was never acknowledged — while corruption *before*
//! valid records is an error, because it would silently drop acknowledged
//! data. Records whose `seq` precedes the snapshot's vector count are
//! skipped, which makes replay idempotent when a crash lands between the
//! snapshot rename and the journal truncation. Saving a snapshot compacts
//! the journal back to empty.
//!
//! **Online compaction.** [`IndexStore::begin_online_compaction`] flushes
//! the batch buffer and redirects appends to a *side journal*
//! (`<snapshot>.journal.side`) so ingest continues while the caller
//! encodes a point-in-time clone off-lock; the side records are replayed
//! into the clone ([`IndexStore::side_records`]) and
//! [`IndexStore::commit_online_compaction`] renames the fresh snapshot in
//! and deletes first the main journal, then the side journal.
//! [`IndexStore::load`] replays main then side, skipping records the
//! snapshot already holds, so every step is crash-safe — and has a
//! [`FaultPlan`] crash point proving it. A side journal that outlives its
//! compaction (a crash or a failed commit) stays the append target until
//! the next snapshot retires it, so records always replay in the order
//! they were written.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sem_obs::{Counter, Histogram, Registry};
use sem_train::atomic::{fsync_parent_dir, tmp_path, write_atomic_retry};
use sem_train::retry::{retry, RetryPolicy};
use serde::{Deserialize, Serialize};

use crate::error::ServeError;
use crate::facet::FacetChecksum;
use crate::fault::{CrashPoint, FaultPlan};
pub use crate::index::snapshot::SectionReport;
use crate::index::snapshot::{self, u32_at};
use crate::index::AnnIndex;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3) of `bytes`, eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Whether an append has reached disk or still sits in the batch buffer.
///
/// Only [`Durability::Synced`] counts as *acknowledged*: a crash may
/// legitimately lose `Buffered` records, and the recovery invariant —
/// every acknowledged ingest survives — is stated over synced records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Durability {
    /// Record and everything before it are fsynced to the journal.
    Synced,
    /// Record is in the in-memory batch buffer; a crash loses it.
    Buffered,
}

/// One write-ahead journal record: the vector that was ingested and the id
/// (`seq`) the index assigned it.
#[derive(Serialize, Deserialize)]
struct JournalRecord {
    seq: u64,
    vector: Vec<f32>,
}

/// Outcome of [`IndexStore::load`]: the recovered index plus what the
/// journal replay saw.
#[derive(Debug)]
pub struct Recovery {
    /// The recovered index (snapshot + replayed journal).
    pub index: AnnIndex,
    /// Journal records inserted on top of the snapshot.
    pub replayed: usize,
    /// Records skipped because the snapshot already contained them
    /// (compaction crashed before the journal was truncated).
    pub skipped: usize,
    /// `true` when a torn (partial, never-acknowledged) tail record was
    /// discarded.
    pub discarded_tail: bool,
}

/// Snapshot half of a [`VerifyReport`].
#[derive(Debug, Default, Serialize)]
pub struct SnapshotReport {
    /// Snapshot file path.
    pub path: String,
    /// `"v4"`, `"missing"` or `"corrupt"` (which includes every legacy
    /// format: the error names `sem index migrate`).
    pub format: String,
    /// Format version from the header (0 without the snapshot magic).
    pub version: u32,
    /// Vector width from the header.
    pub dim: usize,
    /// IVF cell count from the header (0 = flat).
    pub nlist: usize,
    /// Vector count from the header.
    pub count: u64,
    /// Header checksum and section-table verdict.
    pub header_ok: bool,
    /// `true` when every section checksum matches.
    pub payload_ok: bool,
    /// Total file size in bytes.
    pub bytes: u64,
    /// Per-section checksum verdicts (empty until the header parses).
    pub sections: Vec<SectionReport>,
    /// Per-facet segment checksums from the decoded payload (empty until
    /// every integrity check passes). Fused stores report the single
    /// `fused` segment.
    pub facets: Vec<FacetChecksum>,
    /// Per-segment checksums over the SQ8 code matrix (empty for
    /// unquantized stores or until every integrity check passes).
    pub quant: Vec<FacetChecksum>,
    /// First failed check, when any.
    pub error: Option<String>,
}

/// Journal half of a [`VerifyReport`]: what one pass over a journal file
/// saw.
#[derive(Debug, Default, Serialize)]
pub struct JournalReport {
    /// Journal file path.
    pub path: String,
    /// Whether the journal file exists.
    pub present: bool,
    /// Frame-complete, checksum-valid records.
    pub valid_records: usize,
    /// Journal size in bytes.
    pub bytes: u64,
    /// A partial or checksum-failing *final* record was found: a torn
    /// write of a record that was never acknowledged (tolerated on
    /// recovery).
    pub torn_tail: bool,
    /// Corruption *before* valid records, or a record that cannot be
    /// replayed (fatal on recovery), when any.
    pub error: Option<String>,
}

/// Operator-facing integrity report (`sem index verify`).
#[derive(Debug, Serialize)]
pub struct VerifyReport {
    /// Snapshot checks.
    pub snapshot: SnapshotReport,
    /// Journal checks.
    pub journal: JournalReport,
    /// Side-journal checks (present only while an online compaction is in
    /// flight or was interrupted; normally absent).
    pub side_journal: JournalReport,
    /// Journal tail length: records across both journals whose `seq` is
    /// at or past the snapshot's vector count — i.e. entries since the
    /// last snapshot, the work a compaction would fold in. This is the
    /// signal the maintenance layer's compaction scheduler (and `index
    /// probe --max-journal-entries`) keys off.
    pub tail_records: usize,
    /// `true` when the trio would recover cleanly.
    pub ok: bool,
}

/// Pre-registered handles for the store's observability: journal traffic,
/// fsync latency, snapshot writes (time next to bytes written) and
/// recovery behaviour. `None` until a registry is attached —
/// instrumentation must cost nothing when unused.
struct StoreMetrics {
    journal_appends: Arc<Counter>,
    journal_flushes: Arc<Counter>,
    journal_bytes: Arc<Counter>,
    fsync_ns: Arc<Histogram>,
    snapshot_saves: Arc<Counter>,
    snapshot_bytes: Arc<Counter>,
    snapshot_save_ns: Arc<Histogram>,
    compactions: Arc<Counter>,
    loads: Arc<Counter>,
    replayed: Arc<Counter>,
    skipped: Arc<Counter>,
    discarded_tails: Arc<Counter>,
}

impl StoreMetrics {
    fn new(registry: &Registry) -> Self {
        StoreMetrics {
            journal_appends: registry.counter("store.journal.appends"),
            journal_flushes: registry.counter("store.journal.flushes"),
            journal_bytes: registry.counter("store.journal.bytes"),
            fsync_ns: registry.histogram("store.journal.fsync.ns"),
            snapshot_saves: registry.counter("store.snapshot.saves"),
            snapshot_bytes: registry.counter("store.snapshot.bytes"),
            snapshot_save_ns: registry.histogram("store.snapshot.save.ns"),
            compactions: registry.counter("store.journal.compactions"),
            loads: registry.counter("store.loads"),
            replayed: registry.counter("store.replay.replayed"),
            skipped: registry.counter("store.replay.skipped"),
            discarded_tails: registry.counter("store.replay.discarded_tails"),
        }
    }
}

/// Durable home of one index: a snapshot file plus its write-ahead journal
/// (`<snapshot>.journal`), with an optional [`FaultPlan`] driving
/// deterministic crash tests.
pub struct IndexStore {
    snapshot_path: PathBuf,
    journal_path: PathBuf,
    side_path: PathBuf,
    /// `true` while appends land in the side journal instead of the main
    /// one: from [`IndexStore::begin_online_compaction`] (or from opening
    /// a store whose side journal outlived a crash) until the next
    /// snapshot retires both journals.
    side_mode: bool,
    flush_every: usize,
    buffer: Vec<u8>,
    buffered: usize,
    plan: FaultPlan,
    crashed: bool,
    retry: RetryPolicy,
    metrics: Option<StoreMetrics>,
}

impl IndexStore {
    /// A store over `snapshot_path`; the journal lives alongside it. When
    /// an interrupted online compaction left a side journal behind, it
    /// stays the append target: its records are newer than everything in
    /// the main journal, so appending to the main journal again would
    /// replay out of order.
    pub fn open(snapshot_path: impl Into<PathBuf>) -> Self {
        let snapshot_path = snapshot_path.into();
        let journal_path = journal_path_for(&snapshot_path);
        let side_path = side_journal_path_for(&snapshot_path);
        IndexStore {
            side_mode: side_path.exists(),
            snapshot_path,
            journal_path,
            side_path,
            flush_every: 1,
            buffer: Vec::new(),
            buffered: 0,
            plan: FaultPlan::none(),
            crashed: false,
            retry: RetryPolicy::default(),
            metrics: None,
        }
    }

    /// Points the store's instrumentation (journal appends, fsync latency,
    /// snapshot writes, replay counters) at `registry`. Attaching a store
    /// to a [`crate::QueryEngine`] does this automatically with the
    /// engine's registry.
    pub fn set_metrics(&mut self, registry: &Arc<Registry>) {
        self.metrics = Some(StoreMetrics::new(registry));
    }

    /// Batches journal appends: fsync once every `n` records instead of
    /// per record. Records in a partial batch report
    /// [`Durability::Buffered`] and are *not* crash-durable until
    /// [`IndexStore::sync`].
    pub fn with_flush_every(mut self, n: usize) -> Self {
        self.flush_every = n.max(1);
        self
    }

    /// Arms a [`FaultPlan`] (tests only; the default plan never fires).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Overrides the retry policy snapshot writes and journal flushes use
    /// for transient I/O errors (default: [`RetryPolicy::default`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Path of the snapshot file.
    pub fn snapshot_path(&self) -> &Path {
        &self.snapshot_path
    }

    /// Path of the journal file.
    pub fn journal_path(&self) -> &Path {
        &self.journal_path
    }

    /// Path of the side journal used while an online compaction runs.
    pub fn side_journal_path(&self) -> &Path {
        &self.side_path
    }

    /// `true` while appends are landing in the side journal (an online
    /// compaction is in flight, or one was interrupted and not yet
    /// retried).
    pub fn compacting(&self) -> bool {
        self.side_mode
    }

    /// Overrides the journal batch size in place (the owning shard uses
    /// this when streaming ingest switches to buffered durability).
    pub fn set_flush_every(&mut self, n: usize) {
        self.flush_every = n.max(1);
    }

    /// Number of records currently buffered (not yet crash-durable).
    pub fn buffered_records(&self) -> usize {
        self.buffered
    }

    fn check_alive(&self) -> Result<(), ServeError> {
        if self.crashed {
            return Err(ServeError::Invalid(
                "store hit an injected crash; open a fresh store to recover".into(),
            ));
        }
        Ok(())
    }

    fn crash(&mut self, point: CrashPoint) -> ServeError {
        self.crashed = true;
        ServeError::InjectedCrash(point.name())
    }

    /// Atomically persists `index` and compacts the journal.
    ///
    /// # Errors
    /// IO failures, an index too large for the format, or an armed fault
    /// firing.
    pub fn save_snapshot(&mut self, index: &AnnIndex) -> Result<(), ServeError> {
        self.check_alive()?;
        let t0 = Instant::now();
        let bytes = snapshot::encode(index)?;
        self.install_snapshot(&bytes, t0)
    }

    /// Makes `bytes` the live snapshot — temp file, fsync, atomic rename,
    /// directory fsync — then retires the main journal and the side
    /// journal, in that order. Each step has a crash point; all are
    /// recoverable because replay skips records the snapshot already
    /// holds.
    fn install_snapshot(&mut self, bytes: &[u8], t0: Instant) -> Result<(), ServeError> {
        if let Some(survives) = self.plan.torn_write_survives(bytes.len()) {
            // a real torn write: only a prefix of the temp file reaches
            // disk and the rename never happens
            let tmp = tmp_path(&self.snapshot_path);
            std::fs::write(&tmp, &bytes[..survives]).map_err(|e| ServeError::io(&tmp, e))?;
            return Err(self.crash(CrashPoint::SnapshotTempWrite));
        }
        write_atomic_retry(&self.snapshot_path, bytes, &self.retry)
            .map_err(|e| ServeError::io(&self.snapshot_path, e))?;
        if self.plan.crash_before_journal_truncate {
            return Err(self.crash(CrashPoint::BeforeJournalTruncate));
        }
        // the snapshot now contains everything both journals hold
        self.buffer.clear();
        self.buffered = 0;
        let mut compacted = remove_if_present(&self.journal_path)?;
        if self.plan.crash_before_side_truncate {
            return Err(self.crash(CrashPoint::BeforeSideJournalTruncate));
        }
        compacted |= remove_if_present(&self.side_path)?;
        self.side_mode = false;
        if let Some(m) = &self.metrics {
            m.snapshot_saves.inc();
            m.snapshot_bytes.add(bytes.len() as u64);
            m.snapshot_save_ns.record(t0.elapsed().as_nanos() as u64);
            if compacted {
                m.compactions.inc();
            }
        }
        Ok(())
    }

    /// Enters side-journal mode: the batch buffer is flushed to the
    /// current journal, and every subsequent append lands in the side
    /// journal while the caller compacts a point-in-time clone off-lock.
    /// Nothing on disk is modified beyond the flush, so a crash here
    /// costs nothing — recovery sees the old snapshot plus the journals.
    ///
    /// Calling it while already in side-journal mode — a retry after a
    /// failed commit, or a store opened over an interrupted compaction —
    /// resumes: the side journal keeps its records (the caller's clone
    /// already holds them, so [`IndexStore::side_records`] replays them
    /// as skips) and the next commit retires it.
    ///
    /// # Errors
    /// IO failures; an armed fault firing.
    pub fn begin_online_compaction(&mut self) -> Result<(), ServeError> {
        self.check_alive()?;
        self.flush_buffer()?;
        self.side_mode = true;
        if self.plan.crash_on_side_install {
            return Err(self.crash(CrashPoint::SideJournalInstall));
        }
        Ok(())
    }

    /// Flushes and reads back every record the side journal accumulated
    /// while the compaction ran, as `(seq, raw_vector)` pairs for the
    /// caller to replay into its clone before the commit.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] when no online compaction is in flight; IO
    /// or parse failures (the process is alive, so unlike recovery a torn
    /// or corrupt side record is an error, never tolerated).
    pub fn side_records(&mut self) -> Result<Vec<(usize, Vec<f32>)>, ServeError> {
        self.check_alive()?;
        if !self.side_mode {
            return Err(ServeError::Invalid("no online compaction in progress".into()));
        }
        self.flush_buffer()?;
        let mut records = Vec::new();
        let walk = walk_journal(&self.side_path, |payload| {
            let record = parse_record(payload)?;
            records.push((record.seq as usize, record.vector));
            Ok(())
        })?;
        match walk.error.or(walk.torn_tail.then(|| "partial final frame".into())) {
            Some(detail) => Err(ServeError::JournalReplay {
                record: walk.valid_records,
                detail: format!("side journal of a live store: {detail}"),
            }),
            None => Ok(records),
        }
    }

    /// Commits an online compaction: atomically renames the pre-encoded
    /// snapshot (which must already contain every side record — see
    /// [`IndexStore::side_records`]) over the live one, then deletes the
    /// main journal and the side journal, in that order.
    ///
    /// The caller holds whatever lock blocks new appends for the duration
    /// of this call — it is the only "pause" the protocol takes, and it
    /// does no encoding work. A failed commit leaves the store in
    /// side-journal mode; retry from
    /// [`IndexStore::begin_online_compaction`].
    ///
    /// # Errors
    /// [`ServeError::Invalid`] when no online compaction is in flight; IO
    /// failures; an armed fault firing.
    pub fn commit_online_compaction(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        self.check_alive()?;
        if !self.side_mode {
            return Err(ServeError::Invalid("no online compaction in progress".into()));
        }
        if self.buffered > 0 {
            // the caller must read side_records() and block appends until
            // the commit lands — a buffered record here would be absent
            // from the snapshot it is about to delete the journals of
            return Err(ServeError::Invalid(
                "records appended between side_records() and commit".into(),
            ));
        }
        self.install_snapshot(bytes, Instant::now())
    }

    /// Appends one ingest record (`seq` = the id the index assigned,
    /// `vector` = the raw pre-normalisation vector). Returns whether the
    /// record is already crash-durable.
    ///
    /// # Errors
    /// IO failures or an armed fault firing — in both cases the record is
    /// **not** acknowledged.
    pub fn append_journal(&mut self, seq: usize, vector: &[f32]) -> Result<Durability, ServeError> {
        self.check_alive()?;
        let payload =
            serde_json::to_string(&JournalRecord { seq: seq as u64, vector: vector.to_vec() })
                .map_err(|e| ServeError::Invalid(format!("journal record serialisation: {e}")))?
                .into_bytes();
        let len = u32::try_from(payload.len())
            .map_err(|_| ServeError::Invalid("vector too wide for a journal frame".into()))?;
        self.buffer.extend_from_slice(&len.to_le_bytes());
        self.buffer.extend_from_slice(&crc32(&payload).to_le_bytes());
        self.buffer.extend_from_slice(&payload);
        self.buffered += 1;
        if let Some(m) = &self.metrics {
            m.journal_appends.inc();
        }
        if self.buffered < self.flush_every {
            if let Err(e) = self.plan.on_buffered(self.buffered) {
                // crash with the buffer unflushed: the buffered records
                // are gone, exactly like a lost page cache
                self.buffer.clear();
                self.buffered = 0;
                self.crashed = true;
                return Err(e);
            }
            return Ok(Durability::Buffered);
        }
        self.flush_buffer()?;
        if let Err(e) = self.plan.on_append() {
            self.crashed = true;
            return Err(e);
        }
        Ok(Durability::Synced)
    }

    /// Forces any buffered journal records to disk.
    ///
    /// # Errors
    /// IO failures; afterwards every previously buffered record is synced.
    pub fn sync(&mut self) -> Result<(), ServeError> {
        self.check_alive()?;
        self.flush_buffer()
    }

    fn flush_buffer(&mut self) -> Result<(), ServeError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let path = if self.side_mode { &self.side_path } else { &self.journal_path };
        let plan = &self.plan;
        let buffer = &self.buffer;
        // Journal length before this flush. A failed attempt may have
        // appended a partial frame; each retry truncates back to this
        // length first, so retries can never leave garbage mid-journal
        // (and a re-appended full batch stays replay-idempotent).
        let start_len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let fsync_ns = retry(&self.retry, ServeError::is_retryable_io, |_attempt| {
            plan.on_flush_attempt().map_err(|e| ServeError::io(path, e))?;
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| ServeError::io(path, e))?;
            let len = f.metadata().map_err(|e| ServeError::io(path, e))?.len();
            if len > start_len {
                f.set_len(start_len).map_err(|e| ServeError::io(path, e))?;
            }
            f.write_all(buffer).map_err(|e| ServeError::io(path, e))?;
            let t0 = Instant::now();
            f.sync_all().map_err(|e| ServeError::io(path, e))?;
            Ok(t0.elapsed().as_nanos() as u64)
        })?;
        if let Some(m) = &self.metrics {
            m.journal_flushes.inc();
            m.journal_bytes.add(self.buffer.len() as u64);
            m.fsync_ns.record(fsync_ns);
        }
        self.buffer.clear();
        self.buffered = 0;
        Ok(())
    }

    /// Recovers the index to the last durable state: snapshot, then main
    /// journal replay, then side journal replay (in the order records
    /// were written — the side journal only ever holds records appended
    /// *after* everything in the main journal). A torn tail record is
    /// discarded (it was never acknowledged); corruption anywhere else is
    /// an error.
    ///
    /// # Errors
    /// Missing/corrupt snapshot or a journal that cannot be replayed.
    pub fn load(&self) -> Result<Recovery, ServeError> {
        let bytes = std::fs::read(&self.snapshot_path)
            .map_err(|e| ServeError::io(&self.snapshot_path, e))?;
        let mut index = decode_snapshot(&self.snapshot_path, &bytes)?;
        drop(bytes);
        let (replayed, skipped, discarded_tail) = self.replay_journals(&mut index)?;
        if let Some(m) = &self.metrics {
            m.loads.inc();
            m.replayed.add(replayed as u64);
            m.skipped.add(skipped as u64);
            if discarded_tail {
                m.discarded_tails.inc();
            }
        }
        Ok(Recovery { index, replayed, skipped, discarded_tail })
    }

    /// Replays the main journal, then the side journal, onto `index` under
    /// the idempotency rule of [`replay_record`]; returns `(replayed,
    /// skipped, discarded_tail)` as [`Recovery`] reports them.
    ///
    /// # Errors
    /// A journal that cannot be read, or [`ServeError::JournalReplay`] at
    /// the first record that is corrupt or does not follow the index.
    pub(crate) fn replay_journals(
        &self,
        index: &mut AnnIndex,
    ) -> Result<(usize, usize, bool), ServeError> {
        let (mut replayed, mut skipped, mut discarded_tail) = (0usize, 0usize, false);
        for path in [&self.journal_path, &self.side_path] {
            let walk = walk_journal(path, |payload| {
                let record = parse_record(payload)?;
                match replay_record(index, record.seq, record.vector)? {
                    true => replayed += 1,
                    false => skipped += 1, // already compacted into the snapshot
                }
                Ok(())
            })?;
            if let Some(detail) = walk.error {
                return Err(ServeError::JournalReplay { record: walk.valid_records, detail });
            }
            discarded_tail |= walk.torn_tail;
        }
        Ok((replayed, skipped, discarded_tail))
    }

    /// Integrity check without mutating anything: header, section table
    /// and per-section checksums of the snapshot, a frame scan of the main
    /// and side journals, and the journal tail length (records not yet
    /// folded into a snapshot).
    pub fn verify(&self) -> VerifyReport {
        let snapshot = match std::fs::read(&self.snapshot_path) {
            Ok(bytes) => {
                let (mut report, index) = read_snapshot(&self.snapshot_path, &bytes);
                if let Some(index) = index {
                    report.facets = index.facet_checksums();
                    report.quant = index.quant_checksums();
                }
                report
            }
            Err(e) => SnapshotReport {
                path: self.snapshot_path.display().to_string(),
                format: "missing".into(),
                error: Some(e.to_string()),
                ..Default::default()
            },
        };
        let readable = snapshot.error.is_none();
        let mut tail_records = 0usize;
        // an unreadable journal reports as absent, like the snapshot above
        let mut scan = |path: &Path| {
            walk_journal(path, |payload| {
                let seq = parse_record(payload)?.seq;
                tail_records += usize::from(readable && seq >= snapshot.count);
                Ok(())
            })
            .unwrap_or_default()
        };
        let journal = scan(&self.journal_path);
        let side_journal = scan(&self.side_path);
        let ok = readable && journal.error.is_none() && side_journal.error.is_none();
        VerifyReport { snapshot, journal, side_journal, tail_records, ok }
    }
}

/// `<snapshot>.journal`, preserving the original extension as part of the
/// file name (`index.json` → `index.json.journal`).
pub fn journal_path_for(snapshot: &Path) -> PathBuf {
    let mut name = snapshot.as_os_str().to_os_string();
    name.push(".journal");
    PathBuf::from(name)
}

/// `<snapshot>.journal.side` — where appends land while an online
/// compaction is in flight.
pub fn side_journal_path_for(snapshot: &Path) -> PathBuf {
    let mut name = journal_path_for(snapshot).into_os_string();
    name.push(".side");
    PathBuf::from(name)
}

/// Deletes `path` (and fsyncs its directory) when it exists; returns
/// whether it did.
fn remove_if_present(path: &Path) -> Result<bool, ServeError> {
    if !path.exists() {
        return Ok(false);
    }
    std::fs::remove_file(path).map_err(|e| ServeError::io(path, e))?;
    fsync_parent_dir(path);
    Ok(true)
}

/// The one journal reader: walks the `len u32 | crc32 u32 | payload`
/// frames of the file at `path` in order, handing each frame-complete,
/// checksum-valid payload to `each`, and reports how the walk ended
/// (`error` also carries the first record `each` rejected). A missing
/// file is an empty walk.
///
/// # Errors
/// Only a file that exists but cannot be read.
pub(crate) fn walk_journal(
    path: &Path,
    mut each: impl FnMut(&[u8]) -> Result<(), String>,
) -> Result<JournalReport, ServeError> {
    let mut walk = JournalReport { path: path.display().to_string(), ..Default::default() };
    let journal = match std::fs::read(path) {
        Ok(j) => j,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(walk),
        Err(e) => return Err(ServeError::io(path, e)),
    };
    walk.present = true;
    walk.bytes = journal.len() as u64;
    let mut rest = &journal[..];
    while !rest.is_empty() {
        let payload = (rest.len() >= 8)
            .then(|| u32_at(rest, 0) as usize)
            .and_then(|len| rest.get(8..len.checked_add(8)?));
        let Some(payload) = payload else {
            walk.torn_tail = true; // the frame does not fit what is left
            break;
        };
        let next = &rest[8 + payload.len()..];
        if crc32(payload) != u32_at(rest, 4) {
            if next.is_empty() {
                // a torn write of the last (unacknowledged) record
                walk.torn_tail = true;
            } else {
                // acknowledged records follow: dropping them silently
                // would break the durability contract
                walk.error = Some("checksum mismatch before end of journal".into());
            }
            break;
        }
        if let Err(detail) = each(payload) {
            walk.error = Some(detail);
            break;
        }
        walk.valid_records += 1;
        rest = next;
    }
    Ok(walk)
}

/// Parses a journal payload.
fn parse_record(payload: &[u8]) -> Result<JournalRecord, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("bad payload: {e}"))
}

/// Applies one journal record under the idempotency rule: a `seq` the
/// index already holds is skipped (`Ok(false)`), the next `seq` is
/// inserted (`Ok(true)`), anything later is a gap.
pub(crate) fn replay_record(
    index: &mut AnnIndex,
    seq: u64,
    vector: Vec<f32>,
) -> Result<bool, String> {
    let n = index.len() as u64;
    if seq < n {
        return Ok(false);
    }
    if seq > n {
        return Err(format!("sequence gap: record {seq} onto {n} vectors"));
    }
    index.try_insert(vector).map_err(|e| e.to_string())?;
    Ok(true)
}

/// Decodes the v4 snapshot image `bytes` read from `path`.
///
/// # Errors
/// [`ServeError::CorruptSnapshot`] naming the first failed check.
fn decode_snapshot(path: &Path, bytes: &[u8]) -> Result<AnnIndex, ServeError> {
    let (report, index) = read_snapshot(path, bytes);
    index.ok_or_else(|| {
        ServeError::corrupt(path, report.error.unwrap_or_else(|| "snapshot rejected".into()))
    })
}

/// The one snapshot reader, shared by [`IndexStore::load`] (which turns
/// the first failed check into an error) and [`IndexStore::verify`]
/// (which reports it): header and section table, per-section checksums,
/// decode, shape validation. The index is `Some` only when all pass.
fn read_snapshot(path: &Path, bytes: &[u8]) -> (SnapshotReport, Option<AnnIndex>) {
    let mut r = SnapshotReport {
        path: path.display().to_string(),
        format: "corrupt".into(),
        version: snapshot::version_of(bytes).unwrap_or(0),
        bytes: bytes.len() as u64,
        ..Default::default()
    };
    let header = match snapshot::parse(bytes) {
        Ok((header, sections)) => {
            r.sections = sections;
            header
        }
        Err(e) => {
            r.error = Some(e);
            return (r, None);
        }
    };
    r.header_ok = true;
    (r.dim, r.nlist, r.count) = (header.dim, header.nlist, header.count);
    if let Some(bad) = r.sections.iter().find(|s| !s.ok) {
        r.error = Some(format!("section `{}` checksum mismatch", bad.name));
        return (r, None);
    }
    r.payload_ok = true;
    match header.decode(bytes) {
        Ok(index) => {
            r.format = format!("v{}", snapshot::VERSION);
            (r, Some(index))
        }
        Err(e) => {
            r.error = Some(format!("checksums pass but the payload is rejected: {e}"));
            (r, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sem-store-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // standard test vector for CRC-32/IEEE
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop the sliced implementation replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    proptest::proptest! {
        /// Slicing-by-8 equals the bytewise reference at every length and
        /// at every offset into the buffer (so every alignment of the
        /// 8-byte steps against the data is exercised).
        #[test]
        fn crc32_sliced_equals_bytewise(
            len in 0usize..=4096,
            offset in 0usize..=4096,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let data: Vec<u8> = (0..offset + len).map(|_| rng.gen()).collect();
            proptest::prop_assert_eq!(crc32(&data[offset..]), crc32_bytewise(&data[offset..]));
        }
    }

    #[test]
    fn snapshot_roundtrip_and_verify() {
        let dir = tmp_dir("roundtrip");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(300, 8, 1), IndexConfig::default());
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        let rec = store.load().unwrap();
        assert_eq!(rec.replayed, 0);
        assert!(!rec.discarded_tail);
        let q = random_vectors(1, 8, 2).pop().unwrap();
        assert_eq!(rec.index.search(&q, 5), idx.search(&q, 5));
        let report = store.verify();
        assert!(report.ok, "{report:?}");
        assert_eq!(report.snapshot.format, "v4");
        assert_eq!(report.snapshot.version, 4);
        assert_eq!(report.snapshot.count, 300);
        // every section is listed with its verdict; the absent ones
        // (no layout, flat-threshold 256 < 300 so IVF, unquantized) are empty
        let sections: Vec<(&str, bool, bool)> =
            report.snapshot.sections.iter().map(|s| (s.name.as_str(), s.ok, s.bytes > 0)).collect();
        assert_eq!(
            sections,
            vec![
                ("config", true, true),
                ("layout", true, false),
                ("centroids", true, true),
                ("lists", true, true),
                ("vectors", true, true),
                ("quant", true, false),
            ]
        );
        assert_eq!(report.snapshot.sections[4].bytes, 300 * 8 * 4, "the flat f32 matrix");
        // an un-faceted index reports the single fused segment checksum
        assert_eq!(report.snapshot.facets.len(), 1);
        assert_eq!(report.snapshot.facets[0].name, "fused");
        assert_eq!(report.snapshot.facets[0].dim, 8);
        // unquantized stores carry no code checksums
        assert!(report.snapshot.quant.is_empty());
        assert!(!report.journal.present);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantized_snapshot_survives_roundtrip_and_verify_reports_codes() {
        let dir = tmp_dir("quantized");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(200, 9, 60), IndexConfig::default())
            .with_layout(crate::facet::FacetLayout::sem(3))
            .unwrap()
            .with_sq8()
            .unwrap();
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        let rec = store.load().unwrap();
        assert!(rec.index.is_quantized());
        let q = random_vectors(1, 9, 61).pop().unwrap();
        assert_eq!(rec.index.search(&q, 5), idx.search(&q, 5));
        let report = store.verify();
        assert!(report.ok, "{report:?}");
        let names: Vec<&str> = report.snapshot.quant.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["bg", "method", "result"]);
        assert_eq!(report.snapshot.quant, idx.quant_checksums());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faceted_layout_survives_snapshot_and_verify_reports_segments() {
        let dir = tmp_dir("faceted");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(120, 9, 40), IndexConfig::default())
            .with_layout(crate::facet::FacetLayout::sem(3))
            .unwrap();
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        let rec = store.load().unwrap();
        assert!(rec.index.has_facets());
        assert_eq!(rec.index.layout(), idx.layout());
        let report = store.verify();
        assert!(report.ok, "{report:?}");
        let names: Vec<&str> = report.snapshot.facets.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["bg", "method", "result"]);
        assert_eq!(report.snapshot.facets, idx.facet_checksums());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_replay_restores_every_synced_append() {
        let dir = tmp_dir("replay");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(50, 6, 3), IndexConfig::default());
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        let extra = random_vectors(7, 6, 4);
        let mut reference = idx.clone();
        for v in &extra {
            let seq = reference.len();
            assert_eq!(store.append_journal(seq, v).unwrap(), Durability::Synced);
            reference.try_insert(v.clone()).unwrap();
        }
        // "crash": drop the store, recover from disk
        drop(store);
        let rec = IndexStore::open(&snap).load().unwrap();
        assert_eq!(rec.replayed, 7);
        assert_eq!(rec.index.len(), 57);
        let q = random_vectors(1, 6, 5).pop().unwrap();
        assert_eq!(rec.index.search(&q, 10), reference.search(&q, 10));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_appends_are_buffered_until_sync() {
        let dir = tmp_dir("batch");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(40, 4, 6), IndexConfig::default());
        let mut store = IndexStore::open(&snap).with_flush_every(3);
        store.save_snapshot(&idx).unwrap();
        let vs = random_vectors(4, 4, 7);
        assert_eq!(store.append_journal(40, &vs[0]).unwrap(), Durability::Buffered);
        assert_eq!(store.append_journal(41, &vs[1]).unwrap(), Durability::Buffered);
        assert_eq!(store.append_journal(42, &vs[2]).unwrap(), Durability::Synced);
        assert_eq!(store.append_journal(43, &vs[3]).unwrap(), Durability::Buffered);
        assert_eq!(store.buffered_records(), 1);
        // a crash here may lose the buffered record 43 — it was never
        // acknowledged as durable
        let rec = IndexStore::open(&snap).load().unwrap();
        assert_eq!(rec.index.len(), 43);
        // sync makes it durable
        store.sync().unwrap();
        let rec = IndexStore::open(&snap).load().unwrap();
        assert_eq!(rec.index.len(), 44);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_flush_failures_are_absorbed_by_retry() {
        let dir = tmp_dir("transient-flush");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(30, 4, 10), IndexConfig::default());
        let policy = RetryPolicy { base_delay_ms: 0, ..RetryPolicy::with_attempts(3) };
        let mut store = IndexStore::open(&snap)
            .with_fault_plan(FaultPlan::transient_flush(2))
            .with_retry(policy);
        store.save_snapshot(&idx).unwrap();
        // Two injected transient failures fit inside the three-attempt
        // budget: the append still acknowledges durable.
        let v = random_vectors(1, 4, 11).pop().unwrap();
        assert_eq!(store.append_journal(30, &v).unwrap(), Durability::Synced);
        let rec = IndexStore::open(&snap).load().unwrap();
        assert_eq!(rec.replayed, 1);
        assert_eq!(rec.index.len(), 31);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_flush_retries_fail_without_poisoning_the_store() {
        let dir = tmp_dir("flush-exhausted");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(30, 4, 12), IndexConfig::default());
        let policy = RetryPolicy { base_delay_ms: 0, ..RetryPolicy::with_attempts(2) };
        let mut store = IndexStore::open(&snap)
            .with_fault_plan(FaultPlan::transient_flush(3))
            .with_retry(policy);
        store.save_snapshot(&idx).unwrap();
        let v = random_vectors(1, 4, 13).pop().unwrap();
        let err = store.append_journal(30, &v).unwrap_err();
        assert!(!err.is_injected(), "transient exhaustion is an Io error, not a crash");
        assert!(err.is_retryable_io());
        // Unlike a crash fault, a transient failure does not poison the
        // store: the record is still buffered and the next sync (third
        // injected failure consumed, budget refreshed) lands it.
        store.sync().unwrap();
        let rec = IndexStore::open(&snap).load().unwrap();
        assert_eq!(rec.index.len(), 31);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_snapshot_compacts_the_journal() {
        let dir = tmp_dir("compact");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(30, 4, 8), IndexConfig::default());
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        let v = random_vectors(1, 4, 9).pop().unwrap();
        store.append_journal(30, &v).unwrap();
        assert!(store.journal_path().exists());
        let rec = store.load().unwrap();
        store.save_snapshot(&rec.index).unwrap();
        assert!(!store.journal_path().exists());
        let rec2 = store.load().unwrap();
        assert_eq!(rec2.index.len(), 31);
        assert_eq!(rec2.replayed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_stores_are_refused_with_the_migration_command() {
        let dir = tmp_dir("legacy");
        let snap = dir.join("index.json");
        let idx = AnnIndex::build(random_vectors(20, 4, 10), IndexConfig::default());
        std::fs::write(&snap, idx.to_json().unwrap()).unwrap();
        let store = IndexStore::open(&snap);
        let err = store.load().unwrap_err();
        assert!(matches!(err, ServeError::CorruptSnapshot { .. }), "{err}");
        assert!(err.to_string().contains("sem index migrate"), "{err}");
        let report = store.verify();
        assert!(!report.ok);
        assert!(report.snapshot.error.unwrap().contains("sem index migrate"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_and_snapshot_bytes_are_counted() {
        let dir = tmp_dir("journal-bytes");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(30, 32, 14), IndexConfig::default());
        let registry = Arc::new(Registry::new());
        let mut store = IndexStore::open(&snap);
        store.set_metrics(&registry);
        store.save_snapshot(&idx).unwrap();
        let vectors = random_vectors(3, 32, 15);
        for (i, v) in vectors.iter().enumerate() {
            store.append_journal(30 + i, v).unwrap();
        }
        // len u32 | crc32 u32 | the record as JSON text
        let journal = std::fs::read(store.journal_path()).unwrap();
        let len = u32_at(&journal, 0) as usize;
        assert_eq!(crc32(&journal[8..8 + len]), u32_at(&journal, 4));
        let first = parse_record(&journal[8..8 + len]).unwrap();
        assert_eq!((first.seq, &first.vector), (30, &vectors[0]));
        let counters = registry.snapshot();
        assert_eq!(counters.counter("store.journal.bytes"), Some(journal.len() as u64));
        assert_eq!(
            counters.counter("store.snapshot.bytes"),
            Some(std::fs::metadata(&snap).unwrap().len())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Drives one full online compaction: 3 records already in the main
    /// journal, 4 more appended into the side journal while the compaction
    /// "runs". Returns the in-memory reference index over every
    /// *acknowledged* operation, plus the injected crash when `plan` fired
    /// — the recovery contract is stated over acknowledged records only.
    fn online_compaction_roundtrip(dir: &Path, plan: FaultPlan) -> (AnnIndex, Option<ServeError>) {
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(60, 6, 70), IndexConfig::default());
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        let mut live = idx;
        // records already in the main journal before compaction starts
        for v in random_vectors(3, 6, 71) {
            store.append_journal(live.len(), &v).unwrap();
            live.try_insert(v).unwrap();
        }
        drop(store);
        let mut store = IndexStore::open(&snap).with_fault_plan(plan);
        let mut clone = store.load().unwrap().index;
        if let Err(e) = store.begin_online_compaction() {
            return (live, Some(e));
        }
        // ingest continues while the encode runs: these land in the side
        // journal (acknowledged one by one)
        for v in random_vectors(4, 6, 72) {
            if let Err(e) = store.append_journal(live.len(), &v) {
                return (live, Some(e));
            }
            live.try_insert(v).unwrap();
        }
        let records = match store.side_records() {
            Ok(r) => r,
            Err(e) => return (live, Some(e)),
        };
        for (seq, v) in records {
            assert_eq!(seq, clone.len());
            clone.try_insert(v).unwrap();
        }
        let bytes = snapshot::encode(&clone).unwrap();
        if let Err(e) = store.commit_online_compaction(&bytes) {
            return (live, Some(e));
        }
        assert!(!store.compacting());
        assert!(!store.journal_path().exists());
        assert!(!store.side_journal_path().exists());
        (live, None)
    }

    #[test]
    fn online_compaction_folds_main_and_side_journals() {
        let dir = tmp_dir("online-compact");
        let (live, err) = online_compaction_roundtrip(&dir, FaultPlan::none());
        assert!(err.is_none());
        let rec = IndexStore::open(dir.join("index.bin")).load().unwrap();
        assert_eq!(rec.replayed, 0, "everything is inside the snapshot");
        assert_eq!(rec.index.len(), live.len());
        // the compacted store is byte-identical to the never-compacted
        // in-memory run
        assert_eq!(rec.index.to_json().unwrap(), live.to_json().unwrap());
        let q = random_vectors(1, 6, 73).pop().unwrap();
        assert_eq!(rec.index.search(&q, 10), live.search(&q, 10));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_at_every_online_compaction_step_recovers_identically() {
        for (name, plan) in [
            ("side-install", FaultPlan::crash_on_side_install()),
            ("torn-temp", FaultPlan::torn_snapshot(20)),
            ("before-main-truncate", FaultPlan::crash_mid_compaction()),
            ("before-side-truncate", FaultPlan::crash_before_side_truncate()),
        ] {
            let dir = tmp_dir(&format!("online-crash-{name}"));
            let (live, err) = online_compaction_roundtrip(&dir, plan);
            let err = err.expect(name);
            assert!(err.is_injected(), "{name}: {err}");
            // reboot: a fresh store over the same wreckage must recover
            // exactly the acknowledged state, byte for byte
            let rec = IndexStore::open(dir.join("index.bin")).load().unwrap();
            assert_eq!(rec.index.len(), live.len(), "{name} lost acknowledged records");
            assert_eq!(
                rec.index.to_json().unwrap(),
                live.to_json().unwrap(),
                "{name}: recovery must be byte-identical to the never-crashed reference"
            );
            // and the wreckage itself verifies as recoverable
            assert!(IndexStore::open(dir.join("index.bin")).verify().ok, "{name}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn verify_reports_journal_tail_and_side_journal() {
        let dir = tmp_dir("tail");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(40, 4, 75), IndexConfig::default());
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        assert_eq!(store.verify().tail_records, 0);
        let mut live = idx;
        for v in random_vectors(5, 4, 76) {
            store.append_journal(live.len(), &v).unwrap();
            live.try_insert(v).unwrap();
        }
        let report = store.verify();
        assert_eq!(report.tail_records, 5, "five entries since the last snapshot");
        assert!(!report.side_journal.present);
        // mid-compaction, side records count toward the tail too
        store.begin_online_compaction().unwrap();
        for v in random_vectors(2, 4, 77) {
            store.append_journal(live.len(), &v).unwrap();
            live.try_insert(v).unwrap();
        }
        let report = store.verify();
        assert!(report.side_journal.present);
        assert_eq!(report.side_journal.valid_records, 2);
        assert_eq!(report.tail_records, 7);
        assert!(report.ok);
        // a blocking save folds everything and clears both journals
        store.save_snapshot(&live).unwrap();
        let report = store.verify();
        assert_eq!(report.tail_records, 0);
        assert!(!report.journal.present);
        assert!(!report.side_journal.present);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn online_compaction_misuse_is_typed() {
        let dir = tmp_dir("online-misuse");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(30, 4, 78), IndexConfig::default());
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        // commit/side_records without begin
        assert!(matches!(store.side_records(), Err(ServeError::Invalid(_))));
        assert!(matches!(store.commit_online_compaction(&[]), Err(ServeError::Invalid(_))));
        store.begin_online_compaction().unwrap();
        let mut clone = idx.clone();
        store.append_journal(30, &random_vectors(1, 4, 79)[0]).unwrap();
        for (seq, vec) in store.side_records().unwrap() {
            assert_eq!(seq, clone.len());
            clone.try_insert(vec).unwrap();
        }
        let bytes = snapshot::encode(&clone).unwrap();
        // a record still buffered between side_records() and commit is
        // refused — the snapshot about to land would not contain it
        let mut batched = IndexStore::open(dir.join("other.bin")).with_flush_every(8);
        batched.save_snapshot(&idx).unwrap();
        batched.begin_online_compaction().unwrap();
        batched.append_journal(30, &random_vectors(1, 4, 80)[0]).unwrap();
        assert!(matches!(batched.commit_online_compaction(&bytes), Err(ServeError::Invalid(_))));
        // the well-behaved store commits fine
        store.commit_online_compaction(&bytes).unwrap();
        let rec = IndexStore::open(&snap).load().unwrap();
        assert_eq!(rec.index.len(), 31);
        assert_eq!(rec.replayed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash mid-online-compaction leaves `snapshot + journal(a..b) +
    /// journal.side(b+1..c)`. The store reopened over that wreckage must
    /// keep one append target that replays in order, so the *second*
    /// recovery — after new acknowledged appends — still equals the
    /// never-crashed reference.
    #[test]
    fn appends_after_an_interrupted_compaction_survive_a_second_recovery() {
        for (name, plan) in [
            ("side-install", FaultPlan::crash_on_side_install()),
            ("torn-temp", FaultPlan::torn_snapshot(20)),
            ("before-main-truncate", FaultPlan::crash_mid_compaction()),
            ("before-side-truncate", FaultPlan::crash_before_side_truncate()),
        ] {
            let dir = tmp_dir(&format!("second-recovery-{name}"));
            let snap = dir.join("index.bin");
            let (mut live, err) = online_compaction_roundtrip(&dir, plan);
            assert!(err.expect(name).is_injected());
            // first reboot: recover, then keep ingesting
            let mut store = IndexStore::open(&snap);
            let recovered = store.load().unwrap().index;
            assert_eq!(recovered.to_json().unwrap(), live.to_json().unwrap(), "{name}");
            for v in random_vectors(3, 6, 74) {
                assert_eq!(store.append_journal(live.len(), &v).unwrap(), Durability::Synced);
                live.try_insert(v).unwrap();
            }
            drop(store);
            // second reboot: every acknowledged ingest is still there
            let mut store = IndexStore::open(&snap);
            let rec = store.load().unwrap();
            assert_eq!(rec.index.to_json().unwrap(), live.to_json().unwrap(), "{name}");
            // and the next blocking snapshot returns to the plain layout
            store.save_snapshot(&rec.index).unwrap();
            assert!(!store.compacting());
            assert!(!store.journal_path().exists() && !store.side_journal_path().exists());
            assert_eq!(IndexStore::open(&snap).load().unwrap().replayed, 0);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A commit that fails without crashing (here: the temp path is
    /// occupied by a directory) leaves the store in side-journal mode;
    /// retrying the compaction from `begin` resumes and completes.
    #[test]
    fn a_failed_commit_can_be_retried() {
        let dir = tmp_dir("commit-retry");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(30, 4, 81), IndexConfig::default());
        let mut store = IndexStore::open(&snap)
            .with_retry(RetryPolicy { base_delay_ms: 0, ..RetryPolicy::with_attempts(1) });
        store.save_snapshot(&idx).unwrap();
        let mut live = idx;
        let mut ingest = |store: &mut IndexStore, seed| {
            let v = random_vectors(1, 4, seed).pop().unwrap();
            store.append_journal(live.len(), &v).unwrap();
            live.try_insert(v).unwrap();
            live.clone()
        };
        ingest(&mut store, 82);
        store.begin_online_compaction().unwrap();
        let clone = ingest(&mut store, 83);
        assert_eq!(store.side_records().unwrap().len(), 1);
        let blocker = tmp_path(&snap);
        std::fs::create_dir(&blocker).unwrap();
        let err = store.commit_online_compaction(&snapshot::encode(&clone).unwrap()).unwrap_err();
        assert!(matches!(err, ServeError::Io { .. }), "{err}");
        assert!(store.compacting(), "the failed commit stays resumable");
        std::fs::remove_dir(&blocker).unwrap();
        // ingest continues, then the retry: begin resumes instead of refusing
        let clone = ingest(&mut store, 84);
        store.begin_online_compaction().unwrap();
        let stale: Vec<usize> = store.side_records().unwrap().iter().map(|r| r.0).collect();
        assert_eq!(stale, vec![31, 32], "the clone already holds the side records");
        store.commit_online_compaction(&snapshot::encode(&clone).unwrap()).unwrap();
        assert!(!store.compacting());
        let rec = IndexStore::open(&snap).load().unwrap();
        assert_eq!((rec.index.len(), rec.replayed), (33, 0));
        assert_eq!(rec.index.to_json().unwrap(), clone.to_json().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_is_a_typed_io_error() {
        let store = IndexStore::open("/nonexistent/dir/index.bin");
        match store.load() {
            Err(ServeError::Io { path, .. }) => {
                assert!(path.to_string_lossy().contains("index.bin"));
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        assert!(!store.verify().ok);
    }
}
