//! The four workloads. Every workload runs the same phases and reports the
//! same metrics; they differ in the serving configuration, the request
//! mix, the size of the paper pipeline and where the time goes. Names are
//! fixed: later issues cite them.

/// Results asked for per query.
pub const K: usize = 10;

/// How a client picks its next query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryMix {
    /// Every query is new, so the result cache always misses.
    Unique,
    /// Zipf-distributed picks from a hot pool that fits the result cache.
    ZipfHot {
        /// Queries in the pool.
        pool: usize,
        /// Zipf exponent.
        exponent: f64,
    },
}

/// Which phase the query-latency metrics come from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LatencyFrom {
    /// One client, nothing else running.
    Lat,
    /// The reader of the `mixed` phase, beside a durable writer.
    Mixed,
}

/// Where the serving corpus comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CorpusFrom {
    /// `vectors` draws of the seeded topic mixture (`gen::Mixture`).
    Synthetic {
        /// Corpus size.
        vectors: usize,
    },
    /// The index the paper pipeline built; requests are embedded held-out
    /// papers.
    Paper,
}

/// Serving configuration of a synthetic-corpus workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    /// Shards of the router.
    pub shards: usize,
    /// IVF cells (`flat_threshold: 1`) or one exact scan (`usize::MAX`).
    pub ivf: bool,
    /// SQ8 codes for stage 0 with exact f32 rescore.
    pub sq8: bool,
    /// Attach the four-facet layout.
    pub facets: bool,
    /// Every request carries rerank parameters (weights 2:1:1:1, lambda
    /// 0.3, 200 candidates).
    pub rerank: bool,
}

/// Size of the paper pipeline a workload runs.
#[derive(Clone, Copy, Debug)]
pub struct PaperSpec {
    /// Papers in the `presets::acm_like` training corpus.
    pub n_papers: usize,
    /// Authors in it.
    pub n_authors: usize,
    /// SEM epochs.
    pub sem_epochs: usize,
    /// SEM triplets per epoch.
    pub sem_triplets: usize,
    /// NPRec training pairs kept after the seeded shuffle.
    pub pairs_cap: usize,
    /// NPRec epochs.
    pub nprec_epochs: usize,
    /// Held-out new papers that arrive after the index is built.
    pub n_new: usize,
    /// Training workers: `0` = one per core (the library's default, what
    /// `paper-pipeline` measures), `1` = serial. The small pipeline trains
    /// serially: two workers make half a second of training a measure of
    /// how the host places this guest's two vCPUs.
    pub train_workers: usize,
    /// Times the pipeline runs; `pipeline_wall_s` is the lower quartile.
    /// A pipeline of half a second is one sample of the host's mood, so
    /// the small one repeats; the real one is too long to.
    pub repeats: usize,
    /// Fail the run unless nDCG@10 beats `RandomRecommender`. Only a
    /// pipeline trained long enough to learn can be held to that.
    pub ndcg_must_beat_random: bool,
}

/// Where a run's `--seconds` go. Shares are fractions of `--seconds` for
/// the time-boxed phases; the counted phases scale with `--seconds / 20`.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// `lat`: one query client.
    pub lat: f64,
    /// `thr`: one query client per core.
    pub thr: f64,
    /// `mixed`: one durable writer beside one reader.
    pub mixed: f64,
    /// `stream`: batches of 64 submissions through the `Maintainer`.
    pub stream_batches: usize,
    /// `maintain`: cycles of {ingest 256, compact every shard online}.
    pub maintain_cycles: usize,
    /// `recover`: cycles of {ingest 128 synced, drop, reopen, query}.
    pub recover_cycles: usize,
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists: which layers it loads and which it bypasses.
    pub why: &'static str,
    /// Source of the serving corpus.
    pub corpus: CorpusFrom,
    /// Serving configuration. For `CorpusFrom::Paper` it describes the
    /// router the pipeline builds: 1 shard, embedder layout, exact f32.
    pub serve: ServeSpec,
    /// Request mix.
    pub mix: QueryMix,
    /// Source of `query_p50_us` / `query_p95_us`.
    pub latency_from: LatencyFrom,
    /// Paper pipeline size.
    pub paper: PaperSpec,
    /// Time plan.
    pub plan: Plan,
}

/// The small pipeline the three serving workloads run so that every
/// workload reports every metric. Too short to learn: its `ndcg_at_10`
/// guards arithmetic, not quality.
const SMALL_PAPER: PaperSpec = PaperSpec {
    n_papers: 150,
    n_authors: 50,
    sem_epochs: 2,
    sem_triplets: 100,
    pairs_cap: 500,
    nprec_epochs: 1,
    n_new: 100,
    train_workers: 1,
    repeats: 3,
    ndcg_must_beat_random: false,
};

const QUERY_PLAN: Plan = Plan {
    lat: 0.28,
    thr: 0.22,
    mixed: 0.15,
    stream_batches: 256,
    maintain_cycles: 8,
    recover_cycles: 8,
};

/// Vectors in the synthetic serving corpora. The issue sized them at
/// 100k; 20k is what lets three set-ups and six phases fit the driver's
/// per-run budget (see README, "Budget").
const VECTORS: usize = 20_000;

/// All workloads, in `BENCHMARK.json` order.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "flat-f32-unique",
        why: "1-shard exact f32 scan, every query unique: scan + Hit materialisation + select do the work; cache, merge, rerank bypassed",
        corpus: CorpusFrom::Synthetic { vectors: VECTORS },
        serve: ServeSpec { shards: 1, ivf: false, sq8: false, facets: false, rerank: false },
        mix: QueryMix::Unique,
        latency_from: LatencyFrom::Lat,
        paper: SMALL_PAPER,
        plan: QUERY_PLAN,
    },
    Workload {
        name: "sharded-sq8-faceted",
        why: "8 shards, IVF, SQ8 stage 0 + exact rescore, merge, post-merge facet rerank on every unique query: the production path, no f32 flat scan",
        corpus: CorpusFrom::Synthetic { vectors: VECTORS },
        serve: ServeSpec { shards: 8, ivf: true, sq8: true, facets: true, rerank: true },
        mix: QueryMix::Unique,
        latency_from: LatencyFrom::Lat,
        paper: SMALL_PAPER,
        plan: QUERY_PLAN,
    },
    Workload {
        name: "churn-durable",
        why: "2 durable shards under writes: fsync-per-append ingest beside Zipf hot-pool reads (cache hits), streaming ingest, online compaction, recovery; the scan does little",
        corpus: CorpusFrom::Synthetic { vectors: VECTORS },
        serve: ServeSpec { shards: 2, ivf: true, sq8: true, facets: true, rerank: false },
        mix: QueryMix::ZipfHot { pool: 256, exponent: 1.0 },
        latency_from: LatencyFrom::Mixed,
        paper: SMALL_PAPER,
        plan: Plan {
            lat: 0.0,
            thr: 0.12,
            mixed: 0.30,
            stream_batches: 384,
            maintain_cycles: 10,
            recover_cycles: 10,
        },
    },
    Workload {
        name: "paper-pipeline",
        why: "the paper end to end: SGNS+CRF, SEM and NPRec training, embed, build, persist, then new papers embed -> top-10 -> ingest; text/tensor/nn/train do the work, serve does little",
        corpus: CorpusFrom::Paper,
        serve: ServeSpec { shards: 1, ivf: false, sq8: false, facets: true, rerank: false },
        mix: QueryMix::Unique,
        latency_from: LatencyFrom::Lat,
        paper: PaperSpec {
            n_papers: 400,
            n_authors: 120,
            sem_epochs: 4,
            sem_triplets: 200,
            pairs_cap: 4000,
            nprec_epochs: 3,
            n_new: 600,
            train_workers: 0,
            repeats: 1,
            ndcg_must_beat_random: true,
        },
        plan: Plan {
            lat: 0.10,
            thr: 0.08,
            mixed: 0.10,
            stream_batches: 128,
            maintain_cycles: 8,
            recover_cycles: 8,
        },
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
