//! # sem-serve
//!
//! The online serving subsystem: everything between a trained SEM/NPRec
//! stack and a stream of top-K requests.
//!
//! * [`PaperEmbedder`] composes index vectors — SEM subspace embeddings
//!   `c_p^k` concatenated with the NPRec interest/influence representations
//!   when a trained recommendation model is attached.
//! * [`AnnIndex`] is an IVF-flat approximate-nearest-neighbour index with
//!   rayon-parallel construction and an exact brute-force fallback for
//!   small corpora; insertion routes a new vector to its nearest cell
//!   without rebuilding. [`AnnIndex::enable_sq8`] switches the scan to
//!   SQ8 quantized codes (~4x smaller) with an exact f32 rescore of the
//!   top candidates, so final scores stay exact.
//! * [`QueryEngine`] coalesces concurrently enqueued queries into
//!   rayon-parallel batches, caches results in an LRU keyed by the exact
//!   normalised query, invalidates precisely the entries an ingested paper
//!   could change, enforces per-request deadlines with graceful
//!   degradation, and exposes per-stage latency/throughput counters.
//! * [`IndexStore`] is crash-safe persistence: checksummed binary
//!   snapshots (SEMSNAP v4) written atomically, plus a write-ahead journal
//!   so every acknowledged ingest survives a crash; [`FaultPlan`] drives
//!   deterministic fault-injection tests of exactly those guarantees, and
//!   [`migrate()`] converts pre-v4 (JSON) stores offline.
//! * [`ShardRouter`] scales the query path out: the corpus is partitioned
//!   round-robin across N [`Shard`]s, each with its own index, LRU cache
//!   and crash-safe store; queries fan out shard-parallel and merge via a
//!   bounded binary-heap, ingests route to exactly one shard (and only
//!   that shard's cache), and a dead shard degrades responses instead of
//!   failing them until [`ShardRouter::recover_shard`] heals it. The
//!   [`loadgen`] module (and `loadgen` binary) drive it with open-loop,
//!   coordinated-omission-free load and report p50/p90/p99 as JSON.
//! * [`ShardSupervisor`] closes the healing loop: periodic health probes
//!   (cheap self-query, optional store integrity check) trip a broken
//!   shard down after consecutive failures and re-run crash recovery in
//!   the background under deterministic jittered backoff. The router adds
//!   admission control ([`ShardRouter::set_admission`] shedding with
//!   typed [`ServeError::Overloaded`]) and hedged scatter-gather
//!   ([`ShardRouter::set_hedge`]) for tail-latency control; `loadgen
//!   --chaos` soaks the whole stack under seeded shard kills, journal
//!   corruption and latency spikes.
//!
//! The intended flow for a brand-new (zero-citation) paper: CRF sentence
//! labels → sentence encoding → SEM subspace pooling → [`PaperEmbedder::embed_new`]
//! → [`QueryEngine::ingest_vector`] — after which the paper is immediately
//! retrievable, no retraining or index rebuild involved.
//!
//! Failures are typed end-to-end: every fallible serve operation returns
//! [`ServeError`] (corrupt snapshot, dimension mismatch, deadline
//! exceeded, journal replay failure, …) instead of panicking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod embed;
pub mod engine;
pub mod error;
pub mod facet;
pub mod fault;
pub mod index;
pub mod loadgen;
pub mod maintenance;
pub mod migrate;
pub mod rerank;
pub mod router;
pub mod shard;
pub mod store;
pub mod supervisor;

pub use cache::LruCache;
pub use embed::{NpRecContext, PaperEmbedder};
pub use engine::{
    DegradeReason, EngineConfig, IngestAck, QueryEngine, QueryRequest, QueryResponse,
    RecoveryStats, StatsSnapshot,
};
pub use error::ServeError;
pub use facet::{
    parse_weights, FacetChecksum, FacetLayout, RerankParams, DEFAULT_CANDIDATES, NPREC_FACET_NAME,
    SEM_FACET_NAMES,
};
pub use fault::{CrashPoint, FaultPlan};
pub use index::{AnnIndex, Hit, IndexConfig, DEFAULT_RESCORE};
pub use index::{DriftStats, ReclusterPlan, ReclusterReport};
pub use loadgen::{
    ChaosConfig, ChaosEvent, ChaosKind, ChaosRunReport, ChurnConfig, ChurnRunReport,
    DegradeBreakdown, LoadReport, LoadgenConfig,
};
pub use maintenance::{
    DrainReport, IngestQueue, Maintainer, MaintainerStatus, MaintenanceConfig, TickReport,
};
pub use migrate::{migrate, migrate_store, MigrateReport};
pub use router::{
    manifest_path, shard_snapshot_path, verify_sharded, HedgeConfig, RouterStatsSnapshot,
    ShardManifest, ShardRouter, ShardVerifyEntry, ShardedVerifyReport,
};
pub use shard::{
    merge_top_k, shard_of, CompactionReport, MaintenanceStatus, ProbeReport, Shard, ShardConfig,
    ShardStatsSnapshot,
};
pub use store::{Durability, IndexStore, Recovery, VerifyReport};
pub use supervisor::{
    ShardHealth, ShardSupervisor, SupervisorConfig, SupervisorEvent, SupervisorSnapshot,
};
