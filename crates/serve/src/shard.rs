//! One shard of a partitioned index: a slice of the corpus behind its own
//! lock, cache, metrics and (optionally) crash-safe store.
//!
//! **Partitioning scheme.** Papers are round-robin partitioned by global
//! id: paper `g` lives in shard `g % N` at local position `g / N`, so
//! `global = local * N + shard` holds by construction — no id map is
//! stored, and a shard's local insertion order is exactly the global order
//! restricted to its residue class.
//!
//! **Per-shard caching.** Each shard caches its *local* top-K for a query.
//! An ingested paper lands in exactly one shard, so it can only ever
//! change that shard's local results — every other shard's cached entries
//! remain *provably correct* (not merely "probably fresh") and survive the
//! write. This is the invalidation-granularity fix over the single-engine
//! cache, which had to drop any entry the newcomer might crack.
//!
//! **Merging.** [`merge_top_k`] combines per-shard sorted top-K lists with
//! a bounded binary heap (one head per list, `k` pops), preserving the
//! index's total order: score descending, global id ascending on ties.

use std::collections::BinaryHeap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use sem_obs::{Counter, Gauge, Histogram, Registry};
use serde::Serialize;

use crate::cache::LruCache;
use crate::engine::{dot, LatencySummary};
use crate::error::ServeError;
use crate::index::{AnnIndex, DriftStats, Hit, IndexConfig, ReclusterReport};
use crate::store::{Durability, IndexStore};

/// Shard that owns global id `g` under an `n`-way partition.
pub fn shard_of(global: usize, n: usize) -> usize {
    global % n
}

/// Global id of local position `local` in shard `shard` of `n`.
pub fn global_id(shard: usize, local: usize, n: usize) -> usize {
    local * n + shard
}

/// Sharded-serving construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Per-shard ANN index parameters.
    pub index: IndexConfig,
    /// Per-shard result-cache capacity (entries).
    pub cache_capacity: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 4, index: IndexConfig::default(), cache_capacity: 1024 }
    }
}

/// Exact f32 bit-pattern cache key (same contract as the engine cache: two
/// queries share an entry only when their normalised vectors and `k`
/// match bit for bit).
#[derive(Clone, PartialEq, Eq, Hash)]
struct ShardCacheKey {
    bits: Vec<u32>,
    k: usize,
}

impl ShardCacheKey {
    fn new(vector: &[f32], k: usize) -> Self {
        ShardCacheKey { bits: vector.iter().map(|v| v.to_bits()).collect(), k }
    }
}

struct ShardCacheEntry {
    /// Normalised query, kept for targeted invalidation.
    query: Vec<f32>,
    k: usize,
    /// Local top-K with ids already mapped to global.
    hits: Vec<Hit>,
}

/// Live or dead: a shard that lost its store (injected crash, corrupt
/// journal) goes `Down` and keeps refusing work until
/// [`Shard::recover_from_store`] heals it.
// `Ready` is the steady state; boxing the index to shrink the rare `Down`
// variant would cost a pointer chase on every scan.
#[allow(clippy::large_enum_variant)]
enum ShardState {
    Ready(AnnIndex),
    Down(String),
}

/// Pre-registered per-shard metric handles (`serve.shard<i>.*`).
struct ShardMetrics {
    scan_ns: Arc<Histogram>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    ingested: Arc<Counter>,
    invalidated: Arc<Counter>,
    len: Arc<Gauge>,
    inflight: Arc<Gauge>,
    downs: Arc<Counter>,
    recoveries: Arc<Counter>,
    reclusters: Arc<Counter>,
    /// Ingest-pause duration of the online compaction's commit phase —
    /// the only window in which the protocol blocks writes.
    compact_pause_ns: Arc<Histogram>,
    // serve.quant.* is deliberately unprefixed by shard: every shard
    // resolves the same registry handle, so the counters aggregate
    // across the whole router
    quant_scans: Arc<Counter>,
    quant_rescored: Arc<Counter>,
}

impl ShardMetrics {
    fn new(registry: &Registry, ordinal: usize) -> Self {
        let name = |suffix: &str| format!("serve.shard{ordinal}.{suffix}");
        ShardMetrics {
            scan_ns: registry.histogram(&name("scan.ns")),
            cache_hits: registry.counter(&name("cache.hits")),
            cache_misses: registry.counter(&name("cache.misses")),
            ingested: registry.counter(&name("ingested")),
            invalidated: registry.counter(&name("cache.invalidated")),
            len: registry.gauge(&name("len")),
            inflight: registry.gauge(&name("inflight")),
            downs: registry.counter(&name("downs")),
            recoveries: registry.counter(&name("recoveries")),
            reclusters: registry.counter(&name("reclusters")),
            compact_pause_ns: registry.histogram(&name("compact.pause.ns")),
            quant_scans: registry.counter("serve.quant.scans"),
            quant_rescored: registry.counter("serve.quant.rescored"),
        }
    }
}

/// Point-in-time view of one shard (part of the router's stats report).
#[derive(Clone, Debug, Serialize)]
pub struct ShardStatsSnapshot {
    /// Shard ordinal.
    pub shard: usize,
    /// Vectors this shard holds (last known length while down).
    pub len: usize,
    /// `true` when the shard is refusing work.
    pub down: bool,
    /// Why, when down.
    pub down_reason: Option<String>,
    /// Local cache hits.
    pub cache_hits: u64,
    /// Local cache misses (scans).
    pub cache_misses: u64,
    /// Entries currently cached.
    pub cache_len: u64,
    /// Papers routed to this shard.
    pub ingested: u64,
    /// Cache entries dropped by targeted invalidation.
    pub invalidated: u64,
    /// Per-query local scan latency.
    pub scan: LatencySummary,
}

/// Outcome of a [`Shard::probe`] health check.
#[derive(Clone, Debug, Serialize)]
pub struct ProbeReport {
    /// Shard probed.
    pub shard: usize,
    /// `true` when the cheap self-query (search for the shard's own first
    /// vector) returned that vector as the top hit.
    pub self_query_ok: bool,
    /// On-disk integrity verdict: `None` when no store is attached or the
    /// check was skipped, otherwise [`crate::store::IndexStore::verify`]'s
    /// overall `ok`.
    pub store_ok: Option<bool>,
    /// Journal tail length (records appended since the last snapshot,
    /// main + side journal), from the same store check as `store_ok`.
    /// `None` when no store is attached or the check was skipped. A
    /// growing tail means recovery replay — and therefore time-to-heal —
    /// is growing unboundedly; the supervisor alarms past its
    /// `max_journal_tail`.
    pub journal_tail: Option<usize>,
}

impl ProbeReport {
    /// `true` when the serving path is healthy. A failing *store* check is
    /// deliberately excluded: while the shard is `Ready` its in-memory
    /// index is the best remaining authority, and tearing it down over a
    /// durability alarm would trade availability for nothing (the
    /// supervisor raises a store alarm instead).
    pub fn serving_ok(&self) -> bool {
        self.self_query_ok
    }
}

/// Outcome of one [`Shard::compact_online`] run.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CompactionReport {
    /// Shard compacted.
    pub shard: usize,
    /// Vectors in the point-in-time clone the compaction started from.
    pub base_len: usize,
    /// Side-journal records folded into the clone before the commit
    /// (ingest that landed while the compaction ran).
    pub folded: usize,
    /// Of `folded`, how many arrived in the final ingest-paused catch-up —
    /// the only records whose fold happened under the pause.
    pub pause_catchup: usize,
    /// How long ingest was paused for the catch-up + commit,
    /// microseconds. Queries are never paused.
    pub pause_us: u64,
}

/// Point-in-time maintenance view of one shard (drift, handover epoch,
/// journal tail) — what `index maintain --status` and the maintenance
/// scheduler read.
#[derive(Clone, Debug, Serialize)]
pub struct MaintenanceStatus {
    /// Shard described.
    pub shard: usize,
    /// Vectors held (last known length while down).
    pub len: usize,
    /// Centroid-handover epoch: bumped once per re-cluster that actually
    /// changed the table. A zero-drift re-train leaves it untouched.
    pub epoch: u64,
    /// Index mutation generation (see [`AnnIndex::generation`]).
    pub generation: u64,
    /// `true` when the shard scans SQ8 codes.
    pub quantized: bool,
    /// Clustering health, `None` while the shard is down.
    pub drift: Option<DriftStats>,
    /// Journal tail length (records not yet folded into a snapshot),
    /// `None` when no store is attached.
    pub journal_tail: Option<usize>,
    /// `true` while an online compaction is in flight on the store.
    pub compacting: bool,
}

/// Replays `(seq, raw_vector)` side-journal records into `clone` under
/// recovery's idempotency rule ([`crate::store::replay_record`]): seqs
/// the clone already holds are skipped, the next seq is inserted, a gap
/// is a replay error. Returns how many records were inserted.
fn fold_side_records(
    clone: &mut AnnIndex,
    records: Vec<(usize, Vec<f32>)>,
) -> Result<usize, ServeError> {
    let mut folded = 0usize;
    for (record, (seq, vector)) in records.into_iter().enumerate() {
        folded += usize::from(
            crate::store::replay_record(clone, seq as u64, vector)
                .map_err(|detail| ServeError::JournalReplay { record, detail })?,
        );
    }
    Ok(folded)
}

/// What a local search produced.
pub(crate) struct LocalHits {
    /// Local top-K, ids mapped to global, sorted score desc / id asc.
    pub hits: Vec<Hit>,
    /// `true` when a deadline truncated the scan.
    pub deadline_degraded: bool,
    /// `true` when served from the shard cache.
    pub cached: bool,
}

/// One partition of the corpus: an [`AnnIndex`] over the local vectors, an
/// LRU cache of local results, optional crash-safe persistence, and
/// per-shard metrics. Global ids are derived positionally (see the module
/// docs), so hits leave the shard already globally addressed.
pub struct Shard {
    ordinal: usize,
    n_shards: usize,
    state: RwLock<ShardState>,
    /// Last known length, readable while the state is `Down`.
    last_len: Mutex<usize>,
    cache: Mutex<LruCache<ShardCacheKey, ShardCacheEntry>>,
    store: Mutex<Option<IndexStore>>,
    /// Serialises the whole-store maintenance operations (persist, online
    /// compaction, re-cluster, recovery) against each other. Ingest and
    /// search never touch it — only one maintenance actor runs at a time,
    /// and the lock order is always maintenance → state → store.
    maintenance: Mutex<()>,
    /// Centroid-handover epoch: bumped once per re-cluster that actually
    /// changed the table, so tests and the maintenance scheduler can
    /// observe handovers without inspecting centroids.
    epoch: AtomicU64,
    /// Chaos/test hook: `(delay, remaining_scans)` — the next
    /// `remaining_scans` cache-missing searches sleep `delay` before
    /// scanning, simulating a straggler shard.
    scan_delay: Mutex<Option<(Duration, usize)>>,
    metrics: ShardMetrics,
}

impl Shard {
    /// Wraps a built local index as shard `ordinal` of `n_shards`.
    pub(crate) fn new(
        ordinal: usize,
        n_shards: usize,
        index: AnnIndex,
        cache_capacity: usize,
        registry: &Registry,
    ) -> Self {
        let metrics = ShardMetrics::new(registry, ordinal);
        metrics.len.set(index.len() as f64);
        Shard {
            ordinal,
            n_shards,
            last_len: Mutex::new(index.len()),
            state: RwLock::new(ShardState::Ready(index)),
            cache: Mutex::new(LruCache::new(cache_capacity)),
            store: Mutex::new(None),
            maintenance: Mutex::new(()),
            epoch: AtomicU64::new(0),
            scan_delay: Mutex::new(None),
            metrics,
        }
    }

    /// Shard ordinal (also the residue class of the global ids it owns).
    pub fn ordinal(&self) -> usize {
        self.ordinal
    }

    /// Vectors held (last known length while down).
    pub fn len(&self) -> usize {
        match &*self.state.read() {
            ShardState::Ready(index) => index.len(),
            ShardState::Down(_) => *self.last_len.lock(),
        }
    }

    /// Whether the shard holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` while the shard is refusing work.
    pub fn is_down(&self) -> bool {
        matches!(&*self.state.read(), ShardState::Down(_))
    }

    /// Why the shard is down, when it is.
    pub fn down_reason(&self) -> Option<String> {
        match &*self.state.read() {
            ShardState::Down(reason) => Some(reason.clone()),
            ShardState::Ready(_) => None,
        }
    }

    /// Attaches a durable store; subsequent ingests journal through it.
    pub fn attach_store(&self, store: IndexStore) {
        *self.store.lock() = Some(store);
    }

    /// Snapshot path of the attached store, when any.
    pub fn store_path(&self) -> Option<PathBuf> {
        self.store.lock().as_ref().map(|s| s.snapshot_path().to_path_buf())
    }

    /// Local search. The query is passed **unnormalised** so the shard's
    /// internal normalise-then-dot is the same arithmetic (bit for bit) as
    /// a single index's — sharded scores equal single-index scores
    /// exactly, which the equivalence proptest pins down. Ids in the
    /// returned hits are global. Serves from the shard cache when
    /// possible; only full-fidelity results are cached.
    pub(crate) fn search_local(
        &self,
        query: &[f32],
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<LocalHits, ServeError> {
        let key = ShardCacheKey::new(query, k);
        if let Some(entry) = self.cache.lock().get(&key) {
            self.metrics.cache_hits.inc();
            return Ok(LocalHits {
                hits: entry.hits.clone(),
                deadline_degraded: false,
                cached: true,
            });
        }
        self.metrics.cache_misses.inc();
        // chaos hook: a straggling shard sleeps before it scans
        let delay = {
            let mut slot = self.scan_delay.lock();
            match &mut *slot {
                Some((d, remaining)) if *remaining > 0 => {
                    *remaining -= 1;
                    let d = *d;
                    if *remaining == 0 {
                        *slot = None;
                    }
                    Some(d)
                }
                _ => None,
            }
        };
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        let guard = self.state.read();
        let ShardState::Ready(index) = &*guard else {
            let reason = self.down_reason().unwrap_or_default();
            return Err(ServeError::ShardDown { shard: self.ordinal, detail: reason });
        };
        self.metrics.inflight.add(1.0);
        if index.is_quantized() {
            self.metrics.quant_scans.inc();
            self.metrics.quant_rescored.add(index.rescore_depth(k) as u64);
        }
        let t0 = Instant::now();
        let result = index.search_deadline(query, k, deadline);
        self.metrics.scan_ns.record(t0.elapsed().as_nanos() as u64);
        self.metrics.inflight.add(-1.0);
        let (local, deadline_degraded) = result?;
        drop(guard);
        let hits: Vec<Hit> = local
            .into_iter()
            .map(|h| Hit { id: global_id(self.ordinal, h.id, self.n_shards), score: h.score })
            .collect();
        if !deadline_degraded {
            // the entry keeps the *normalised* query: the invalidation
            // rule's dot-product bound is a cosine bound only then
            self.cache.lock().insert(
                key,
                ShardCacheEntry { query: crate::engine::normalized(query), k, hits: hits.clone() },
            );
        }
        Ok(LocalHits { hits, deadline_degraded, cached: false })
    }

    /// Ingests the vector owning global id `global` (must satisfy
    /// `global % n == ordinal`). Journals first when a store is attached;
    /// a journal failure marks the shard down — exactly like a machine
    /// whose disk died mid-write — and the error is returned unacked.
    pub(crate) fn ingest_local(
        &self,
        global: usize,
        vector: Vec<f32>,
    ) -> Result<Option<Durability>, ServeError> {
        debug_assert_eq!(shard_of(global, self.n_shards), self.ordinal);
        let durability = {
            let mut guard = self.state.write();
            let ShardState::Ready(index) = &mut *guard else {
                let reason = match &*guard {
                    ShardState::Down(r) => r.clone(),
                    ShardState::Ready(_) => unreachable!(),
                };
                return Err(ServeError::ShardDown { shard: self.ordinal, detail: reason });
            };
            let local = index.len();
            debug_assert_eq!(global_id(self.ordinal, local, self.n_shards), global);
            let durability = match &mut *self.store.lock() {
                Some(store) => match store.append_journal(local, &vector) {
                    Ok(d) => Some(d),
                    Err(e) => {
                        // the store is wrecked: take the shard down so the
                        // router serves the rest and this one can be healed
                        let reason = format!("journal append failed: {e}");
                        *self.last_len.lock() = index.len();
                        *guard = ShardState::Down(reason);
                        self.metrics.downs.inc();
                        return Err(e);
                    }
                },
                None => None,
            };
            let inserted = index.try_insert(vector.clone())?;
            debug_assert_eq!(inserted, local);
            self.metrics.len.set(index.len() as f64);
            durability
        };
        // targeted invalidation, scoped to this shard: drop exactly the
        // local entries the newcomer could crack
        let v = crate::engine::normalized(&vector);
        let dropped = self.cache.lock().retain(|_, entry| {
            if entry.hits.len() < entry.k {
                return false;
            }
            let kth = entry.hits.last().map_or(f32::NEG_INFINITY, |h| h.score);
            dot(&v, &entry.query) < kth
        });
        self.metrics.ingested.inc();
        self.metrics.invalidated.add(dropped as u64);
        Ok(durability)
    }

    /// Atomically snapshots the shard through its store (compacting the
    /// journal).
    ///
    /// # Errors
    /// No store attached, shard down, or the store's own failures.
    pub fn persist(&self) -> Result<(), ServeError> {
        let _maint = self.maintenance.lock();
        let guard = self.state.read();
        let ShardState::Ready(index) = &*guard else {
            return Err(ServeError::ShardDown {
                shard: self.ordinal,
                detail: self.down_reason().unwrap_or_default(),
            });
        };
        let mut store = self.store.lock();
        let Some(store) = store.as_mut() else {
            return Err(ServeError::Invalid(format!(
                "shard {} has no store attached",
                self.ordinal
            )));
        };
        store.save_snapshot(index)
    }

    /// Compacts the shard's journal **online**: queries keep serving the
    /// whole time, and ingest is paused only for the final catch-up and
    /// the commit rename — never for the snapshot encoding.
    ///
    /// Protocol (lock order maintenance → state → store throughout):
    ///
    /// 1. **Install** — under a brief state read lock, flip the store into
    ///    side-journal mode and clone the index. Ingest that lands from
    ///    here on journals to the side file.
    /// 2. **Fold + encode (no pause)** — off the state lock, replay the
    ///    side records accumulated so far into the clone and pre-encode
    ///    the snapshot bytes. Ingest and queries run concurrently.
    /// 3. **Catch-up + commit (ingest paused)** — re-take the state read
    ///    lock (writers block, readers don't), fold the handful of records
    ///    that arrived during step 2 — re-encoding only when there were
    ///    any — and atomically commit. Both journals are then gone.
    ///
    /// A crash at any step is recoverable to exactly the acknowledged
    /// state: the side journal's seqs continue the main journal's, so
    /// recovery replay folds main-then-side idempotently (the store-level
    /// fault tests pin this at every crash point).
    ///
    /// # Errors
    /// No store attached, shard down, the store's own failures, or an
    /// armed fault firing (the store is then poisoned and the next ingest
    /// trips the shard down for the supervisor to heal).
    pub fn compact_online(&self) -> Result<CompactionReport, ServeError> {
        let _maint = self.maintenance.lock();
        // step 1: enter side-journal mode and take a point-in-time clone
        let mut clone = {
            let guard = self.state.read();
            let ShardState::Ready(index) = &*guard else {
                return Err(ServeError::ShardDown {
                    shard: self.ordinal,
                    detail: self.down_reason().unwrap_or_default(),
                });
            };
            let mut store = self.store.lock();
            let Some(store) = store.as_mut() else {
                return Err(ServeError::Invalid(format!(
                    "shard {} has no store attached",
                    self.ordinal
                )));
            };
            store.begin_online_compaction()?;
            index.clone()
        };
        let base_len = clone.len();
        // step 2: fold what already accumulated and pre-encode, with
        // ingest still flowing (into the side journal)
        let mut folded = {
            let mut store = self.store.lock();
            let records = match store.as_mut() {
                Some(store) => store.side_records()?,
                None => Vec::new(),
            };
            drop(store);
            fold_side_records(&mut clone, records)?
        };
        let mut bytes = crate::index::snapshot::encode(&clone)?;
        // step 3: pause ingest (state read lock blocks writers only),
        // catch up on the records step 2 raced with, commit
        let guard = self.state.read();
        let t0 = Instant::now();
        let mut store = self.store.lock();
        let Some(store_ref) = store.as_mut() else {
            return Err(ServeError::Invalid(format!(
                "shard {} store detached mid-compaction",
                self.ordinal
            )));
        };
        let pause_catchup = fold_side_records(&mut clone, store_ref.side_records()?)?;
        if pause_catchup > 0 {
            folded += pause_catchup;
            bytes = crate::index::snapshot::encode(&clone)?;
        }
        store_ref.commit_online_compaction(&bytes)?;
        let pause_us = t0.elapsed().as_micros() as u64;
        drop(store);
        drop(guard);
        self.metrics.compact_pause_ns.record(pause_us.saturating_mul(1000));
        Ok(CompactionReport { shard: self.ordinal, base_len, folded, pause_catchup, pause_us })
    }

    /// Re-trains the IVF centroid table against the live corpus and swaps
    /// it in with epoch-based handover: training runs off-lock against a
    /// point-in-time clone, the install takes the write lock only to route
    /// the since-trained tail and swap pointers, and in-flight queries —
    /// which hold the read lock — finish on the old table. When the
    /// re-trained table is bit-identical (zero drift) nothing is swapped:
    /// epoch, generation and the warm cache all survive.
    ///
    /// # Errors
    /// [`ServeError::ShardDown`] while the shard is down.
    pub fn recluster(&self) -> Result<ReclusterReport, ServeError> {
        let _maint = self.maintenance.lock();
        // train off-lock: the expensive k-means holds no shard lock
        let clone = self.with_index(|index| index.clone())?;
        let plan = clone.train_recluster();
        drop(clone);
        let report = {
            let mut guard = self.state.write();
            let ShardState::Ready(index) = &mut *guard else {
                return Err(ServeError::ShardDown {
                    shard: self.ordinal,
                    detail: self.down_reason().unwrap_or_default(),
                });
            };
            index.install_recluster(plan)?
        };
        if report.changed {
            self.epoch.fetch_add(1, Ordering::SeqCst);
            self.metrics.reclusters.inc();
            // a new centroid table changes which cells a query probes, so
            // cached approximate results are stale
            let dropped = self.cache.lock().retain(|_, _| false);
            self.metrics.invalidated.add(dropped as u64);
        }
        Ok(report)
    }

    /// Centroid-handover epoch (see [`MaintenanceStatus::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Clustering health of the shard's index.
    ///
    /// # Errors
    /// [`ServeError::ShardDown`] while the shard is down.
    pub fn drift_stats(&self) -> Result<DriftStats, ServeError> {
        self.with_index(|index| index.drift_stats())
    }

    /// Journal tail length (records not yet folded into a snapshot, main
    /// + side journal), `None` when no store is attached.
    pub fn journal_tail(&self) -> Option<usize> {
        self.store.lock().as_ref().map(|s| s.verify().tail_records)
    }

    /// Point-in-time maintenance view of the shard.
    pub fn maintenance_status(&self) -> MaintenanceStatus {
        let (len, generation, quantized, drift) = match &*self.state.read() {
            ShardState::Ready(index) => {
                (index.len(), index.generation(), index.is_quantized(), Some(index.drift_stats()))
            }
            ShardState::Down(_) => (*self.last_len.lock(), 0, false, None),
        };
        let (journal_tail, compacting) = {
            let store = self.store.lock();
            match store.as_ref() {
                Some(s) => (Some(s.verify().tail_records), s.compacting()),
                None => (None, false),
            }
        };
        MaintenanceStatus {
            shard: self.ordinal,
            len,
            epoch: self.epoch(),
            generation,
            quantized,
            drift,
            journal_tail,
            compacting,
        }
    }

    /// Switches the attached store's journal batching: `1` flushes every
    /// append ([`Durability::Synced`]), larger values batch appends into
    /// one fsync per `n` records ([`Durability::Buffered`]) — the
    /// streaming-ingest mode. A no-op without a store.
    pub fn set_journal_batch(&self, flush_every: usize) {
        if let Some(store) = self.store.lock().as_mut() {
            store.set_flush_every(flush_every);
        }
    }

    /// Flushes any buffered journal records to disk (makes every
    /// previously `Buffered` ack `Synced`-durable). A no-op without a
    /// store.
    ///
    /// # Errors
    /// The store's own flush failures.
    pub fn sync_store(&self) -> Result<(), ServeError> {
        match self.store.lock().as_mut() {
            Some(store) => store.sync(),
            None => Ok(()),
        }
    }

    /// Forces the shard `Down` with the given reason — the supervisor's
    /// trip action, and the chaos harness's "kill" fault. A no-op when the
    /// shard is already down (the original reason is kept).
    pub fn force_down(&self, reason: impl Into<String>) {
        let mut guard = self.state.write();
        if let ShardState::Ready(index) = &*guard {
            *self.last_len.lock() = index.len();
            *guard = ShardState::Down(reason.into());
            self.metrics.downs.inc();
        }
    }

    /// Arms the chaos/test latency hook: the next `scans` cache-missing
    /// searches on this shard sleep `delay` before scanning, simulating a
    /// straggler (GC pause, cold page cache, noisy neighbour).
    pub fn inject_scan_delay(&self, delay: Duration, scans: usize) {
        *self.scan_delay.lock() = if scans == 0 { None } else { Some((delay, scans)) };
    }

    /// Cheap health probe: searches the shard for its own first vector and
    /// expects it back as the top hit (an exact self-match under
    /// normalise-then-dot), optionally also verifying the attached store's
    /// on-disk integrity. Empty shards pass trivially.
    ///
    /// # Errors
    /// [`ServeError::ShardDown`] while the shard is down — which is itself
    /// a probe outcome the supervisor acts on.
    pub fn probe(&self, check_store: bool) -> Result<ProbeReport, ServeError> {
        let self_query_ok = self.with_index(|index| {
            if index.is_empty() {
                return true;
            }
            let q = index.vector(0).to_vec();
            index.search(&q, 1).first().map(|h| h.id == 0).unwrap_or(false)
        })?;
        let (store_ok, journal_tail) = if check_store {
            match self.store.lock().as_ref().map(|s| s.verify()) {
                Some(report) => (Some(report.ok), Some(report.tail_records)),
                None => (None, None),
            }
        } else {
            (None, None)
        };
        Ok(ProbeReport { shard: self.ordinal, self_query_ok, store_ok, journal_tail })
    }

    /// Heals this shard — and only this shard — from its store: reopens
    /// the snapshot+journal pair fresh (a crashed store object models a
    /// dead machine and cannot be reused), replays, swaps `Ready` back in
    /// and clears the local cache. Other shards are untouched.
    ///
    /// **Idempotent on a healthy shard**: when the shard is already
    /// `Ready` this returns immediately without reopening the store,
    /// without re-replaying the journal and — crucially — without wiping
    /// the warm cache, so a redundant heal (operator race, supervisor vs.
    /// manual `recover_shard`) costs nothing.
    ///
    /// When replay discarded a torn journal tail, the healed index is
    /// immediately re-snapshotted (compacting the journal) so fresh
    /// appends can never land *after* the garbage and poison a later
    /// replay.
    ///
    /// # Errors
    /// No store attached, or recovery itself failing (the shard then stays
    /// down with the failure as its reason).
    pub fn recover_from_store(&self) -> Result<crate::engine::RecoveryStats, ServeError> {
        let _maint = self.maintenance.lock();
        if let ShardState::Ready(index) = &*self.state.read() {
            return Ok(crate::engine::RecoveryStats {
                recovered_len: index.len(),
                replayed: 0,
                skipped: 0,
                discarded_tail: false,
            });
        }
        let path = {
            let store = self.store.lock();
            let Some(store) = store.as_ref() else {
                return Err(ServeError::Invalid(format!(
                    "shard {} has no store attached",
                    self.ordinal
                )));
            };
            store.snapshot_path().to_path_buf()
        };
        let mut fresh = IndexStore::open(&path);
        let recovery = match fresh.load() {
            Ok(r) => r,
            Err(e) => {
                let mut guard = self.state.write();
                if let ShardState::Ready(index) = &*guard {
                    *self.last_len.lock() = index.len();
                }
                *guard = ShardState::Down(format!("recovery failed: {e}"));
                return Err(e);
            }
        };
        if recovery.discarded_tail {
            // a torn tail was skipped but its bytes are still on disk;
            // compact now so fresh appends can't land after the garbage
            if let Err(e) = fresh.save_snapshot(&recovery.index) {
                *self.state.write() =
                    ShardState::Down(format!("post-recovery compaction failed: {e}"));
                return Err(e);
            }
        }
        *self.store.lock() = Some(fresh);
        let stats = crate::engine::RecoveryStats {
            recovered_len: recovery.index.len(),
            replayed: recovery.replayed,
            skipped: recovery.skipped,
            discarded_tail: recovery.discarded_tail,
        };
        let mut guard = self.state.write();
        *self.last_len.lock() = recovery.index.len();
        self.metrics.len.set(recovery.index.len() as f64);
        *guard = ShardState::Ready(recovery.index);
        drop(guard);
        self.cache.lock().clear();
        self.metrics.recoveries.inc();
        Ok(stats)
    }

    /// Attaches a facet layout to the shard's index (pure metadata — see
    /// [`AnnIndex::with_layout`]). Local search results are unchanged.
    ///
    /// # Errors
    /// [`ServeError::ShardDown`] while the shard is down, or a width
    /// mismatch between the layout and the shard's vectors.
    pub fn set_layout(&self, layout: crate::facet::FacetLayout) -> Result<(), ServeError> {
        let mut guard = self.state.write();
        match &mut *guard {
            ShardState::Ready(index) => index.set_layout(layout),
            ShardState::Down(reason) => {
                Err(ServeError::ShardDown { shard: self.ordinal, detail: reason.clone() })
            }
        }
    }

    /// Switches the shard's index to SQ8 quantized scan mode (see
    /// [`AnnIndex::enable_sq8`]). Final top-k scores stay exact because
    /// candidates are rescored in f32 before the merge.
    ///
    /// # Errors
    /// [`ServeError::ShardDown`] while the shard is down, or
    /// [`ServeError::Invalid`] when the vectors cannot be scaled
    /// (non-finite values).
    pub fn enable_sq8(&self) -> Result<(), ServeError> {
        let mut guard = self.state.write();
        match &mut *guard {
            ShardState::Ready(index) => index.enable_sq8(),
            ShardState::Down(reason) => {
                Err(ServeError::ShardDown { shard: self.ordinal, detail: reason.clone() })
            }
        }
    }

    /// Read access to the shard's index (tests/diagnostics).
    ///
    /// # Errors
    /// [`ServeError::ShardDown`] while the shard is down.
    pub fn with_index<R>(&self, f: impl FnOnce(&AnnIndex) -> R) -> Result<R, ServeError> {
        match &*self.state.read() {
            ShardState::Ready(index) => Ok(f(index)),
            ShardState::Down(reason) => {
                Err(ServeError::ShardDown { shard: self.ordinal, detail: reason.clone() })
            }
        }
    }

    /// Current per-shard counters.
    pub fn stats(&self) -> ShardStatsSnapshot {
        ShardStatsSnapshot {
            shard: self.ordinal,
            len: self.len(),
            down: self.is_down(),
            down_reason: self.down_reason(),
            cache_hits: self.metrics.cache_hits.get(),
            cache_misses: self.metrics.cache_misses.get(),
            cache_len: self.cache.lock().len() as u64,
            ingested: self.metrics.ingested.get(),
            invalidated: self.metrics.invalidated.get(),
            scan: LatencySummary::of(&self.metrics.scan_ns),
        }
    }
}

/// A heap head during the k-way merge: ordered so the heap pops the best
/// hit first (score descending, global id ascending on ties — the same
/// total order the index's `top_k` uses).
struct Head {
    score: f32,
    id: usize,
    list: usize,
    pos: usize,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.score.to_bits() == other.score.to_bits() && self.id == other.id
    }
}
impl Eq for Head {}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // max-heap: "greater" = served earlier = higher score, smaller id
        self.score.total_cmp(&other.score).then(other.id.cmp(&self.id))
    }
}
impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Merges per-shard sorted top-K lists into the global top-`k` with a
/// bounded binary heap: at most one head per list lives in the heap, and
/// exactly `k` pops happen — O((L + k) · log L) for L lists, independent
/// of corpus size.
pub fn merge_top_k(lists: &[Vec<Hit>], k: usize) -> Vec<Hit> {
    let mut heap: BinaryHeap<Head> = lists
        .iter()
        .enumerate()
        .filter_map(|(l, hits)| {
            hits.first().map(|h| Head { score: h.score, id: h.id, list: l, pos: 0 })
        })
        .collect();
    let mut out = Vec::with_capacity(k.min(lists.iter().map(Vec::len).sum()));
    while out.len() < k {
        let Some(head) = heap.pop() else { break };
        out.push(Hit { id: head.id, score: head.score });
        if let Some(next) = lists[head.list].get(head.pos + 1) {
            heap.push(Head { score: next.score, id: next.id, list: head.list, pos: head.pos + 1 });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
    }

    #[test]
    fn id_arithmetic_round_trips() {
        for n in [1usize, 2, 4, 8] {
            for g in 0..40 {
                let s = shard_of(g, n);
                assert!(s < n);
                assert_eq!(global_id(s, g / n, n), g);
            }
        }
    }

    #[test]
    fn merge_matches_flat_sort() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let lists: Vec<Vec<Hit>> = (0..rng.gen_range(1..6))
                .map(|l| {
                    let mut hits: Vec<Hit> = (0..rng.gen_range(0..12))
                        .map(|i| Hit {
                            id: i * 4 + l,
                            // quantised scores force plenty of ties
                            score: (rng.gen_range(0..5) as f32) / 4.0,
                        })
                        .collect();
                    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
                    hits
                })
                .collect();
            let k = rng.gen_range(0..15);
            let merged = merge_top_k(&lists, k);
            let mut reference: Vec<Hit> = lists.iter().flatten().copied().collect();
            reference.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
            reference.truncate(k);
            assert_eq!(merged, reference);
        }
    }

    #[test]
    fn merge_of_empty_lists_is_empty() {
        assert!(merge_top_k(&[], 5).is_empty());
        assert!(merge_top_k(&[Vec::new(), Vec::new()], 5).is_empty());
    }

    #[test]
    fn shard_search_maps_ids_to_global_and_caches() {
        let registry = Registry::new();
        // shard 1 of 3: locals 0..9 are globals 1, 4, 7, ...
        let index = AnnIndex::build(random_vectors(10, 6, 1), IndexConfig::default());
        let shard = Shard::new(1, 3, index, 64, &registry);
        let q = crate::engine::normalized(&random_vectors(1, 6, 2).pop().unwrap());
        let first = shard.search_local(&q, 4, None).unwrap();
        assert!(!first.cached);
        for h in &first.hits {
            assert_eq!(h.id % 3, 1, "global ids carry the shard residue");
        }
        let second = shard.search_local(&q, 4, None).unwrap();
        assert!(second.cached);
        assert_eq!(second.hits, first.hits);
        let s = shard.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sem-shard-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn online_compaction_folds_journal_and_matches_recovery() {
        let registry = Registry::new();
        let dir = scratch("compact");
        let index = AnnIndex::build(random_vectors(20, 6, 3), IndexConfig::default());
        let shard = Shard::new(0, 2, index, 64, &registry);
        // without a store the operation is a typed usage error
        assert!(matches!(shard.compact_online(), Err(ServeError::Invalid(_))));
        let mut store = IndexStore::open(dir.join("shard0.snap"));
        let snap = shard.with_index(|i| i.clone()).unwrap();
        store.save_snapshot(&snap).unwrap();
        shard.attach_store(store);
        for (i, v) in random_vectors(3, 6, 8).into_iter().enumerate() {
            shard.ingest_local(global_id(0, 20 + i, 2), v).unwrap();
        }
        assert_eq!(shard.journal_tail(), Some(3));
        let report = shard.compact_online().unwrap();
        assert_eq!(report.base_len, 23, "clone taken after the appends");
        assert_eq!(report.folded, 0, "nothing landed while compacting single-threaded");
        assert_eq!(shard.journal_tail(), Some(0), "both journals gone after the commit");
        let recovered = IndexStore::open(shard.store_path().unwrap()).load().unwrap();
        assert_eq!(recovered.replayed, 0);
        let live = shard.with_index(|i| i.to_json().unwrap()).unwrap();
        assert_eq!(recovered.index.to_json().unwrap(), live);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn online_compaction_runs_under_concurrent_ingest_and_queries() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let registry = Registry::new();
        let dir = scratch("compact-live");
        let index = AnnIndex::build(random_vectors(30, 6, 7), IndexConfig::default());
        let shard = Arc::new(Shard::new(0, 1, index, 64, &registry));
        let mut store = IndexStore::open(dir.join("s.snap"));
        let snap = shard.with_index(|i| i.clone()).unwrap();
        store.save_snapshot(&snap).unwrap();
        shard.attach_store(store);
        let stop = Arc::new(AtomicBool::new(false));
        let ingester = {
            let (shard, stop) = (Arc::clone(&shard), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut next = 30usize;
                let mut rng = StdRng::seed_from_u64(42);
                while !stop.load(Ordering::SeqCst) {
                    let v: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    shard.ingest_local(next, v).unwrap();
                    next += 1;
                }
            })
        };
        let querier = {
            let (shard, stop) = (Arc::clone(&shard), Arc::clone(&stop));
            std::thread::spawn(move || {
                let q = crate::engine::normalized(&[0.3, -0.2, 0.5, 0.1, -0.4, 0.2]);
                while !stop.load(Ordering::SeqCst) {
                    assert!(!shard.search_local(&q, 5, None).unwrap().hits.is_empty());
                }
            })
        };
        for _ in 0..5 {
            shard.compact_online().unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        ingester.join().unwrap();
        querier.join().unwrap();
        // every acknowledged ingest survives: recovery from disk is
        // byte-identical to the live index
        let recovered = IndexStore::open(shard.store_path().unwrap()).load().unwrap().index;
        let live = shard.with_index(|i| i.to_json().unwrap()).unwrap();
        assert_eq!(recovered.to_json().unwrap(), live);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recluster_bumps_epoch_only_when_the_table_changes() {
        let registry = Registry::new();
        let config =
            IndexConfig { nlist: 4, nprobe: 4, flat_threshold: 1, kmeans_iters: 4, seed: 9 };
        let index = AnnIndex::build(random_vectors(60, 8, 5), config);
        let shard = Shard::new(0, 1, index, 64, &registry);
        // zero drift: the same corpus re-trains to the bit-identical table
        let r0 = shard.recluster().unwrap();
        assert!(!r0.changed);
        assert_eq!(shard.epoch(), 0);
        // warm the cache, then drift the corpus well past its trained shape
        let q = crate::engine::normalized(&random_vectors(1, 8, 6).pop().unwrap());
        shard.search_local(&q, 5, None).unwrap();
        for (i, mut v) in random_vectors(120, 8, 99).into_iter().enumerate() {
            v[0] += 2.0; // shifted distribution
            shard.ingest_local(60 + i, v).unwrap();
        }
        let drift = shard.drift_stats().unwrap();
        assert!(drift.len == 180 && drift.nlist == 4);
        let r1 = shard.recluster().unwrap();
        assert!(r1.changed, "a drifted corpus must re-train to a different table");
        assert_eq!(shard.epoch(), 1);
        assert_eq!(shard.stats().cache_len, 0, "handover drops stale approximate results");
        assert!(shard.probe(false).unwrap().self_query_ok, "still healthy after handover");
        let status = shard.maintenance_status();
        assert_eq!(status.epoch, 1);
        assert_eq!(status.len, 180);
        assert!(!status.compacting);
        assert!(status.drift.is_some());
    }

    #[test]
    fn ingest_local_keeps_unaffected_entries() {
        let registry = Registry::new();
        let index = AnnIndex::build(
            vec![vec![1.0, 0.0], vec![0.9, 0.1], vec![0.8, 0.2]],
            IndexConfig::default(),
        );
        let shard = Shard::new(0, 2, index, 64, &registry);
        let hot = crate::engine::normalized(&[1.0, 0.0]);
        let cold = crate::engine::normalized(&[-1.0, 0.0]);
        shard.search_local(&hot, 2, None).unwrap();
        shard.search_local(&cold, 2, None).unwrap();
        // global 6 = local 3 of shard 0 (n=2); aligned with `hot` only
        shard.ingest_local(6, vec![10.0, 0.0]).unwrap();
        let s = shard.stats();
        assert_eq!(s.invalidated, 1);
        assert_eq!(s.cache_len, 1);
        assert!(shard.search_local(&cold, 2, None).unwrap().cached);
        assert!(!shard.search_local(&hot, 2, None).unwrap().cached);
    }
}
