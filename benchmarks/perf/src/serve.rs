//! The serving phases: `lat`, `thr`, `maintain`, `recover`, `mixed`,
//! `stream`, plus the output checks that ride along. Everything here
//! drives `sem-serve` through its public functions only.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sem_serve::shard::global_id;
use sem_serve::{
    merge_top_k, AnnIndex, Hit, IndexConfig, Maintainer, MaintenanceConfig, QueryRequest,
    RerankParams, ServeError, ShardConfig, ShardRouter,
};

use crate::gen::{self, Mixture, Zipf};
use crate::load::{self, Budget, Load};
use crate::trace::Tracer;
use crate::workloads::{QueryMix, ServeSpec, Workload, K};
use crate::Ctx;

/// Result-cache entries per shard of a synthetic-corpus router.
const CACHE_CAPACITY: usize = 1024;
/// Vectors ingested per `maintain` cycle, in journal batches of 32.
const MAINTAIN_INGEST: usize = 256;
/// Vectors ingested (fsync each) per `recover` cycle.
const RECOVER_INGEST: usize = 128;
/// Submissions per `stream` batch.
const STREAM_BATCH: usize = 64;
/// `stream` batches per block.
const STREAM_BLOCK: usize = 8;

/// Where request and ingest vectors come from.
pub enum Source {
    /// Fresh draws of the run's topic mixture: never repeats.
    Fresh(Mixture),
    /// A fixed pool walked in order (embedded held-out papers). Longer
    /// than the result cache, so walking it never hits.
    Pool(Vec<Vec<f32>>),
}

impl Source {
    /// The `n` vectors of stream `(tag, index)`.
    pub fn vectors(&self, tag: &str, index: u64, n: usize) -> Vec<Vec<f32>> {
        match self {
            Source::Fresh(m) => m.vectors(tag, index, n),
            Source::Pool(pool) => {
                // each stream starts at its own offset and walks the pool
                // in order, wrapping around
                let start = (gen::stream(0, tag, 0) % pool.len() as u64) as usize
                    + (index % pool.len() as u64) as usize * (n % pool.len());
                (0..n).map(|i| pool[(start + i) % pool.len()].clone()).collect()
            }
        }
    }
}

/// A router under test with its durable home and its request source.
pub struct Fixture {
    /// The router; phases that reopen it replace the `Arc`.
    pub router: Arc<ShardRouter>,
    /// Base path of the on-disk family (`<base>.manifest`, `<base>.shardN`).
    pub base: PathBuf,
    /// Configuration the router was built (and is reopened) with.
    pub config: ShardConfig,
    /// Request and ingest vectors.
    pub source: Source,
}

/// The `ShardConfig` of a synthetic-corpus workload.
fn shard_config(spec: &ServeSpec) -> ShardConfig {
    ShardConfig {
        shards: spec.shards,
        index: IndexConfig {
            flat_threshold: if spec.ivf { 1 } else { usize::MAX },
            ..IndexConfig::default()
        },
        cache_capacity: CACHE_CAPACITY,
    }
}

/// Generates the synthetic corpus of run `seed`, builds the router the
/// spec asks for and persists it under `dir` — the work `setup_s` times.
pub fn build_synthetic(
    spec: &ServeSpec,
    vectors: usize,
    seed: u64,
    dir: &Path,
) -> Result<Fixture, ServeError> {
    std::fs::create_dir_all(dir).map_err(|e| ServeError::io(dir, e))?;
    let mixture = Mixture::new(seed);
    let corpus = mixture.vectors("corpus", 0, vectors);
    let config = shard_config(spec);
    let router = ShardRouter::try_build(corpus, config)?;
    if spec.facets {
        router.set_layout(gen::facet_layout())?;
    }
    if spec.sq8 {
        router.enable_sq8()?;
    }
    let base = dir.join("index.snap");
    router.attach_stores(&base)?;
    router.persist_all()?;
    Ok(Fixture { router: Arc::new(router), base, config, source: Source::Fresh(mixture) })
}

fn rerank_params() -> RerankParams {
    RerankParams { weights: vec![2.0, 1.0, 1.0, 1.0], lambda: 0.3, candidates: 200 }
}

/// Builds the requests of one block for one client thread.
struct Requests<'a> {
    source: &'a Source,
    seed: u64,
    rerank: bool,
    /// Hot pool and its sampler, for the Zipf mix.
    hot: Option<(Vec<Vec<f32>>, Zipf)>,
}

impl<'a> Requests<'a> {
    fn new(fx: &'a Fixture, w: &Workload, seed: u64) -> Self {
        let hot = match w.mix {
            QueryMix::Unique => None,
            QueryMix::ZipfHot { pool, exponent } => {
                Some((fx.source.vectors("hot-pool", 0, pool), Zipf::new(pool, exponent)))
            }
        };
        Requests { source: &fx.source, seed, rerank: w.serve.rerank, hot }
    }

    fn block(&self, tag: &str, thread: usize, block: u64, n: usize) -> Vec<QueryRequest> {
        let stream_tag = format!("{tag}-{thread}");
        let vectors = match &self.hot {
            None => self.source.vectors(&stream_tag, block, n),
            Some((pool, zipf)) => {
                let mut rng = StdRng::seed_from_u64(gen::stream(self.seed, &stream_tag, block));
                (0..n).map(|_| pool[zipf.sample(&mut rng)].clone()).collect()
            }
        };
        vectors
            .into_iter()
            .map(|v| {
                let req = QueryRequest::new(v, K);
                if self.rerank {
                    req.with_rerank(rerank_params())
                } else {
                    req
                }
            })
            .collect()
    }
}

/// One query, closed loop: ok when it came back whole.
fn query_ok(router: &ShardRouter, req: QueryRequest) -> bool {
    matches!(router.query_request(req), Ok(r) if !r.degraded && r.hits.len() == K)
}

/// What `search` finds in shard `s`, ids mapped to global as `Shard`
/// maps them (an unreachable shard contributes nothing).
fn shard_hits(
    router: &ShardRouter,
    s: usize,
    search: impl FnOnce(&AnnIndex) -> Vec<Hit>,
) -> Vec<Hit> {
    let n = router.num_shards();
    router
        .shard(s)
        .with_index(search)
        .unwrap_or_default()
        .into_iter()
        .map(|h| Hit { id: global_id(s, h.id, n), score: h.score })
        .collect()
}

/// One sampled request replayed layer by layer, nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct ReplaySample {
    /// The original request through `router.query_request`.
    pub query_ns: u64,
    /// Slowest single shard search.
    pub max_shard_ns: u64,
    /// Shard searches along the blocking path: the router scatters over
    /// `min(cores, shards)` workers, each taking a contiguous run of
    /// shards, so the path is the slowest worker's sum.
    pub critical_ns: u64,
    /// The same searches scattered as the router scatters them: one
    /// scoped thread per worker, joined. What this adds over
    /// `critical_ns` is the price of the threads, not of any layer.
    pub scatter_ns: u64,
    /// `merge_top_k`, plus candidate fetch and rerank when requested.
    pub post_merge_ns: u64,
    /// The same request again, answered from the shard caches.
    pub cached_ns: u64,
}

/// Replays a request through the public functions the router composes,
/// one span per call, under a parent span — so self time = span −
/// children.
///
/// The layers are walked with `req` and the scatter with `scatter_req`,
/// requests of the same mix the router has not seen: walking `original`
/// again would scan cells its first pass just pulled into the CPU caches
/// and read faster than any real request does. `original` itself is sent
/// once more for the cache-hit path.
fn replay(
    router: &ShardRouter,
    original: &QueryRequest,
    [req, scatter_req]: &[QueryRequest; 2],
    query_ns: u64,
    tr: &mut Tracer,
    id: u64,
) -> ReplaySample {
    let n = router.num_shards();
    let workers = std::thread::available_parallelism().map_or(1, usize::from).min(n).max(1);
    let chunk = n.div_ceil(workers);
    let fetch = req.rerank.as_ref().map_or(req.k, |r| r.candidates.max(req.k));
    let parent = tr.begin("replay", id);
    let mut lists = Vec::with_capacity(n);
    let mut shard_ns = Vec::with_capacity(n);
    for s in 0..n {
        let span = tr.begin("shard.search", id);
        let hits = shard_hits(router, s, |ix| ix.search(&req.vector, fetch));
        tr.end(span);
        shard_ns.push(tr.duration_ns(span));
        lists.push(hits);
    }
    // the router's scatter, rebuilt from public calls: contiguous runs of
    // shards, one scoped thread each (inline when there is one worker)
    let search = |s: usize| {
        std::hint::black_box(
            router.shard(s).with_index(|ix| ix.search(&scatter_req.vector, fetch)).ok(),
        );
    };
    let span = tr.begin("router.scatter_replay", id);
    if workers == 1 {
        (0..n).for_each(search);
    } else {
        let search = &search;
        std::thread::scope(|scope| {
            for start in (0..n).step_by(chunk) {
                scope.spawn(move || (start..(start + chunk).min(n)).for_each(search));
            }
        });
    }
    tr.end(span);
    let scatter_ns = tr.duration_ns(span);
    let span = tr.begin("shard.merge_top_k", id);
    let mut merged = merge_top_k(&lists, fetch);
    tr.end(span);
    let mut post_merge_ns = tr.duration_ns(span);
    if let Some(params) = &req.rerank {
        let span = tr.begin("rerank.candidate_fetch", id);
        let owned: Vec<(Hit, Vec<f32>)> = merged
            .iter()
            .filter_map(|h| {
                router
                    .shard(h.id % n)
                    .with_index(|ix| ix.vector(h.id / n).to_vec())
                    .ok()
                    .map(|v| (*h, v))
            })
            .collect();
        tr.end(span);
        post_merge_ns += tr.duration_ns(span);
        let span = tr.begin("rerank.rerank", id);
        let pool: Vec<(Hit, &[f32])> = owned.iter().map(|(h, v)| (*h, v.as_slice())).collect();
        merged = sem_serve::rerank::rerank(
            &normalized(&req.vector),
            &router.layout(),
            params,
            &pool,
            req.k,
        );
        tr.end(span);
        post_merge_ns += tr.duration_ns(span);
    }
    std::hint::black_box(&merged);
    let span = tr.begin("router.query.cached", id);
    std::hint::black_box(router.query_request(original.clone()).ok());
    tr.end(span);
    let cached_ns = tr.duration_ns(span);
    tr.end(parent);

    ReplaySample {
        query_ns,
        max_shard_ns: shard_ns.iter().copied().max().unwrap_or(0),
        critical_ns: shard_ns.chunks(chunk).map(|c| c.iter().sum::<u64>()).max().unwrap_or(0),
        scatter_ns,
        post_merge_ns,
        cached_ns,
    }
}

/// The query arithmetic of `AnnIndex`: L2-normalise, then a sequential
/// dot. Written the same way so scores can be compared bit for bit.
fn normalized(v: &[f32]) -> Vec<f32> {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        v.iter().map(|x| x / norm).collect()
    } else {
        v.to_vec()
    }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Exact top-`k` over the whole family: every shard's `search_exact`,
/// merged.
fn exact_top_k(router: &ShardRouter, q: &[f32], k: usize) -> Vec<Hit> {
    let lists: Vec<Vec<Hit>> = (0..router.num_shards())
        .map(|s| shard_hits(router, s, |ix| ix.search_exact(q, k)))
        .collect();
    merge_top_k(&lists, k)
}

fn same_hits(a: &[Hit], b: &[Hit]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.id == y.id && x.score.to_bits() == y.score.to_bits())
}

/// What the serving phases measured.
#[derive(Default)]
pub struct ServeOut {
    /// `lat`: one client alone (absent when the plan gives it no time).
    pub lat: Option<Load>,
    /// `thr`: one `Load` per client thread.
    pub thr: Vec<Load>,
    /// `mixed`: the durable writer.
    pub mixed_writer: Load,
    /// `mixed`: the reader beside it.
    pub mixed_reader: Load,
    /// Share of shard-cache lookups that hit during `mixed`.
    pub cache_hit_rate: f64,
    /// recall@10 of the plain query path against `search_exact`.
    pub recall_at_10: f64,
    /// `stream`: per-block ingest rates, vectors per second.
    pub stream_rates: Vec<f64>,
    /// `stream`: wall time of each submit-64-and-drain batch, microseconds.
    pub stream_batch_us: Vec<f64>,
    /// `maintain`: wall time of each `compact_shard_online`, milliseconds.
    pub compaction_total_ms: Vec<f64>,
    /// `maintain`: `CompactionReport::pause_us` of each.
    pub compaction_pause_us: Vec<f64>,
    /// `maintain`: latencies of the reader that ran beside compaction.
    pub during_compaction_ns: Vec<u64>,
    /// `maintain` (traced run only): one `recluster_shard(0)`, milliseconds.
    pub recluster_ms: f64,
    /// Family bytes over `len * dim * 4` after the last compaction.
    pub disk_bytes_per_vector_byte: f64,
    /// `recover`: open-to-first-query of each cycle, milliseconds.
    pub recover_ms: Vec<f64>,
    /// Journal fsyncs the stores counted over the whole run.
    pub fsyncs: f64,
    /// Layer-by-layer replays of sampled requests (traced run only).
    pub replays: Vec<ReplaySample>,
}

/// Runs one query client over `budget`; traced runs replay sampled
/// requests and collect the samples.
fn query_client(
    fx: &Fixture,
    reqs: &Requests<'_>,
    tag: &str,
    thread: usize,
    budget: Budget,
    tracer: &mut Tracer,
    replays: &mut Vec<ReplaySample>,
) -> Load {
    let router = &*fx.router;
    let replay_tag = format!("replay-{tag}");
    let mut replayed = 0u64;
    let mut on_replay = |original: &QueryRequest, ns: u64, tr: &mut Tracer, id: u64| {
        let mut probes = reqs.block(&replay_tag, thread, replayed, 2);
        replayed += 1;
        let probes = [probes.remove(0), probes.remove(0)];
        replays.push(replay(router, original, &probes, ns, tr, id));
    };
    load::run(
        budget,
        tracer,
        "router.query",
        |block, n| reqs.block(tag, thread, block, n),
        |req| query_ok(router, req),
        Some(&mut on_replay),
    )
}

/// `lat`: one client, closed loop, nothing else running.
pub fn phase_lat(ctx: &mut Ctx, fx: &Fixture, w: &Workload, out: &mut ServeOut) {
    let seconds = ctx.phase_seconds(w.plan.lat);
    if seconds <= 0.0 {
        return;
    }
    let reqs = Requests::new(fx, w, ctx.seed);
    let mut tracer = ctx.tracer();
    let load = query_client(
        fx,
        &reqs,
        "lat",
        0,
        Budget::seconds(seconds, ctx.min_blocks()),
        &mut tracer,
        &mut out.replays,
    );
    ctx.count(&load);
    ctx.tracers.push(tracer);
    out.lat = Some(load);
}

/// `thr`: one client per core, closed loop.
pub fn phase_thr(ctx: &mut Ctx, fx: &Fixture, w: &Workload, out: &mut ServeOut) {
    let seconds = ctx.phase_seconds(w.plan.thr);
    let reqs = Requests::new(fx, w, ctx.seed);
    let budget = Budget::seconds(seconds, ctx.min_blocks());
    let threads = crate::host::load_threads();
    let mut tracers: Vec<Tracer> = (0..threads).map(|_| ctx.tracer()).collect();
    let loads: Vec<(Load, Vec<ReplaySample>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(t, tracer)| {
                let reqs = &reqs;
                scope.spawn(move || {
                    let mut replays = Vec::new();
                    let load = query_client(fx, reqs, "thr", t, budget, tracer, &mut replays);
                    (load, replays)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("query client panicked")).collect()
    });
    ctx.tracers.extend(tracers);
    for (load, replays) in loads {
        ctx.count(&load);
        out.replays.extend(replays);
        out.thr.push(load);
    }
}

/// Recall of the plain query path against the exact scan, with the score
/// checks: an exact configuration must return `search_exact`'s ids and
/// score bits, and every score any path returns must be the exact f32 dot
/// of the id it names.
pub fn check_recall(ctx: &mut Ctx, fx: &Fixture, w: &Workload, out: &mut ServeOut) {
    let samples = if ctx.traced { 100 } else { 400 };
    let router = &*fx.router;
    let n = router.num_shards();
    let exact_config = !w.serve.ivf && !w.serve.sq8;
    let mut found = 0usize;
    for q in fx.source.vectors("recall", 0, samples) {
        let got = match router.query(q.clone(), K) {
            Ok(r) => r.hits,
            Err(e) => {
                ctx.fail(format!("recall query failed: {e}"));
                continue;
            }
        };
        let exact = exact_top_k(router, &q, K);
        found += got.iter().filter(|h| exact.iter().any(|e| e.id == h.id)).count();
        if exact_config && !same_hits(&got, &exact) {
            ctx.fail("exact configuration: top-10 differs from search_exact".into());
        }
        let qn = normalized(&q);
        for h in &got {
            let stored = router.shard(h.id % n).with_index(|ix| dot(ix.vector(h.id / n), &qn)).ok();
            if stored.map(f32::to_bits) != Some(h.score.to_bits()) {
                ctx.fail(format!("score of id {} is not its exact f32 dot", h.id));
            }
        }
    }
    out.recall_at_10 = found as f64 / (samples * K) as f64;
    if exact_config && out.recall_at_10 != 1.0 {
        ctx.fail(format!("exact configuration: recall@10 {} != 1", out.recall_at_10));
    }
}

/// Ingests `n` vectors of stream `(tag, index)`, expecting `durable` acks
/// when `synced`.
fn ingest_batch(
    ctx: &mut Ctx,
    router: &ShardRouter,
    source: &Source,
    tag: &str,
    index: u64,
    n: usize,
    synced: bool,
) {
    for v in source.vectors(tag, index, n) {
        ctx.attempted += 1;
        match router.ingest_vector(v) {
            Ok(ack) if ack.durable || !synced => {}
            _ => ctx.failed += 1,
        }
    }
}

/// `maintain`: cycles of {ingest 256 in journal batches of 32, sync, then
/// compact every shard online} while one reader keeps querying. Flush
/// policy: fsync every 32 appends, plus one explicit sync per cycle.
pub fn phase_maintain(ctx: &mut Ctx, fx: &Fixture, w: &Workload, out: &mut ServeOut) {
    let cycles = ctx.cycles(w.plan.maintain_cycles);
    let reqs = Requests::new(fx, w, ctx.seed);
    let router = &*fx.router;
    let stop = AtomicBool::new(false);
    let mut tracer = ctx.tracer();
    let reader_ns = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut ns = Vec::new();
            let (mut attempted, mut failed, mut block) = (0u64, 0u64, 0u64);
            while !stop.load(Ordering::Acquire) {
                for req in reqs.block("maintain-reader", 0, block, 64) {
                    let t = Instant::now();
                    let ok = query_ok(router, req);
                    ns.push(t.elapsed().as_nanos() as u64);
                    attempted += 1;
                    failed += u64::from(!ok);
                }
                block += 1;
            }
            (ns, attempted, failed)
        });
        for cycle in 0..cycles {
            router.set_journal_batch(32);
            ingest_batch(
                ctx,
                router,
                &fx.source,
                "maintain-ingest",
                cycle as u64,
                MAINTAIN_INGEST,
                false,
            );
            if router.sync_stores().is_err() {
                ctx.fail("sync_stores failed in maintain".into());
            }
            for shard in 0..router.num_shards() {
                ctx.attempted += 1;
                let span = tracer.begin("shard.compact_online", cycle as u64);
                let t = Instant::now();
                let report = router.compact_shard_online(shard);
                let wall = t.elapsed();
                tracer.end(span);
                match report {
                    Ok(r) => {
                        out.compaction_total_ms.push(wall.as_secs_f64() * 1e3);
                        out.compaction_pause_us.push(r.pause_us as f64);
                    }
                    Err(e) => {
                        ctx.failed += 1;
                        ctx.fail(format!("compact_shard_online({shard}): {e}"));
                    }
                }
            }
        }
        stop.store(true, Ordering::Release);
        let (ns, attempted, failed) = reader.join().expect("maintain reader panicked");
        ctx.attempted += attempted;
        ctx.failed += failed;
        ns
    });
    out.during_compaction_ns = reader_ns;
    router.set_journal_batch(1);
    // both journals are empty right after a compaction: the family is its
    // snapshots and the manifest
    let family = fx.base.parent().map_or(0, crate::host::dir_bytes);
    out.disk_bytes_per_vector_byte = family as f64 / (router.len() * router.dim() * 4) as f64;
    if ctx.traced {
        let span = tracer.begin("shard.recluster", 0);
        let t = Instant::now();
        if router.recluster_shard(0).is_err() {
            ctx.fail("recluster_shard(0) failed".into());
        }
        out.recluster_ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
    }
    ctx.tracers.push(tracer);
}

/// `recover`: cycles of {ingest 128 with fsync per append, drop the
/// router, `ShardRouter::open`, first query}. After each: the reopened
/// router holds exactly the acknowledged vectors and answers the probe
/// query as it did before the close. Returns the fixture around the last
/// reopened router, or `None` when a reopen failed.
pub fn phase_recover(
    ctx: &mut Ctx,
    fx: Fixture,
    w: &Workload,
    out: &mut ServeOut,
) -> Option<Fixture> {
    let cycles = ctx.cycles(w.plan.recover_cycles);
    let mut tracer = ctx.tracer();
    let Fixture { mut router, base, config, source } = fx;
    for cycle in 0..cycles as u64 {
        router.set_journal_batch(1);
        ingest_batch(ctx, &router, &source, "recover-ingest", cycle, RECOVER_INGEST, true);
        let probe = source.vectors("recover-probe", cycle, 1).remove(0);
        let before = router.query(probe.clone(), K).map(|r| r.hits).unwrap_or_default();
        let acknowledged = router.len();
        // the only handle: dropping it closes every store
        drop(router);
        ctx.attempted += 1;
        let span = tracer.begin("router.open_to_first_query", cycle);
        let t = Instant::now();
        let reopened = ShardRouter::open(&base, config);
        let after = reopened
            .as_ref()
            .ok()
            .and_then(|(r, _)| r.query(probe.clone(), K).ok())
            .map(|r| r.hits)
            .unwrap_or_default();
        let wall = t.elapsed();
        tracer.end(span);
        match reopened {
            Ok((r, _)) => router = Arc::new(r),
            Err(e) => {
                ctx.failed += 1;
                ctx.fail(format!("recover cycle {cycle}: open failed: {e}"));
                ctx.tracers.push(tracer);
                return None;
            }
        }
        out.recover_ms.push(wall.as_secs_f64() * 1e3);
        if router.len() != acknowledged {
            ctx.fail(format!(
                "recover cycle {cycle}: len {} != acknowledged {acknowledged}",
                router.len()
            ));
        }
        if before.len() != K || !same_hits(&before, &after) {
            ctx.fail(format!("recover cycle {cycle}: top-10 changed across reopen"));
        }
    }
    ctx.tracers.push(tracer);
    Some(Fixture { router, base, config, source })
}

/// `mixed`: thread 1 ingests closed loop with fsync per append (every ack
/// must be durable), thread 2 queries closed loop beside it.
pub fn phase_mixed(ctx: &mut Ctx, fx: &Fixture, w: &Workload, out: &mut ServeOut) {
    let seconds = ctx.phase_seconds(w.plan.mixed);
    let budget = Budget::seconds(seconds, ctx.min_blocks());
    let reqs = Requests::new(fx, w, ctx.seed);
    let router = &*fx.router;
    router.set_journal_batch(1);
    let before = router.stats();
    let mut writer_tracer = ctx.tracer();
    let mut reader_tracer = ctx.tracer();
    let (writer, reader, replays) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            load::run(
                budget,
                &mut writer_tracer,
                "router.ingest_vector",
                |block, n| fx.source.vectors("mixed-ingest", block, n),
                |v| matches!(router.ingest_vector(v), Ok(ack) if ack.durable),
                None,
            )
        });
        let reader = scope.spawn(|| {
            let mut replays = Vec::new();
            let load =
                query_client(fx, &reqs, "mixed", 0, budget, &mut reader_tracer, &mut replays);
            (load, replays)
        });
        let writer = writer.join().expect("mixed writer panicked");
        let (reader, replays) = reader.join().expect("mixed reader panicked");
        (writer, reader, replays)
    });
    let after = router.stats();
    let sum = |stats: &sem_serve::RouterStatsSnapshot, hit: bool| -> u64 {
        stats.per_shard.iter().map(|s| if hit { s.cache_hits } else { s.cache_misses }).sum()
    };
    let hits = sum(&after, true) - sum(&before, true);
    let misses = sum(&after, false) - sum(&before, false);
    out.cache_hit_rate =
        if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
    ctx.count(&writer);
    ctx.count(&reader);
    ctx.tracers.push(writer_tracer);
    ctx.tracers.push(reader_tracer);
    out.replays.extend(replays);
    out.mixed_writer = writer;
    out.mixed_reader = reader;
}

/// `stream`: batches of 64 `Maintainer::submit` followed by `drain_all`,
/// journal batch 32 (fsync every 32 appends per shard, acks buffered),
/// one sync at the end. A fixed number of batches, so the corpus grows by
/// the same amount on every run.
pub fn phase_stream(ctx: &mut Ctx, fx: &Fixture, w: &Workload, out: &mut ServeOut) {
    let batches = ctx.cycles(w.plan.stream_batches).div_ceil(STREAM_BLOCK) * STREAM_BLOCK;
    let maintainer = Maintainer::new(
        Arc::clone(&fx.router),
        MaintenanceConfig { journal_batch: 32, ..MaintenanceConfig::default() },
    );
    let mut tracer = ctx.tracer();
    let mut block_ns = 0u64;
    for batch in 0..batches {
        let vectors = fx.source.vectors("stream", batch as u64, STREAM_BATCH);
        let span = tracer.begin("maintainer.submit_drain64", batch as u64);
        let t = Instant::now();
        let mut refused = 0u64;
        for v in vectors {
            refused += u64::from(maintainer.submit(v).is_err());
        }
        let drained = maintainer.drain_all();
        let ns = t.elapsed().as_nanos() as u64;
        tracer.end(span);
        ctx.attempted += STREAM_BATCH as u64;
        ctx.failed += refused + drained.remaining as u64;
        out.stream_batch_us.push(ns as f64 / 1e3);
        block_ns += ns;
        if (batch + 1) % STREAM_BLOCK == 0 {
            out.stream_rates.push((STREAM_BLOCK * STREAM_BATCH) as f64 / (block_ns as f64 / 1e9));
            block_ns = 0;
        }
    }
    drop(maintainer);
    if fx.router.sync_stores().is_err() {
        ctx.fail("sync_stores failed after stream".into());
    }
    fx.router.set_journal_batch(1);
    ctx.tracers.push(tracer);
    out.fsyncs =
        fx.router.metrics().snapshot().counter("store.journal.flushes").unwrap_or(0) as f64;
}

/// Runs every serving phase in order. Query phases come first, on the
/// corpus as built; `maintain` and `recover` ingest fixed amounts, so the
/// sizes they see repeat exactly; the time-boxed `mixed` writer, whose
/// ingest count varies with the host, runs after them.
pub fn run(ctx: &mut Ctx, fx: Fixture, w: &Workload) -> ServeOut {
    let mut out = ServeOut::default();
    phase_lat(ctx, &fx, w, &mut out);
    ctx.phase_done("lat");
    phase_thr(ctx, &fx, w, &mut out);
    ctx.phase_done("thr");
    check_recall(ctx, &fx, w, &mut out);
    ctx.phase_done("recall");
    phase_maintain(ctx, &fx, w, &mut out);
    ctx.phase_done("maintain");
    let reopened = phase_recover(ctx, fx, w, &mut out);
    ctx.phase_done("recover");
    if let Some(fx) = reopened {
        phase_mixed(ctx, &fx, w, &mut out);
        ctx.phase_done("mixed");
        phase_stream(ctx, &fx, w, &mut out);
        ctx.phase_done("stream");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_streams_walk_in_order_and_wrap_without_overflow() {
        let pool: Vec<Vec<f32>> = (0..7).map(|i| vec![i as f32]).collect();
        let source = Source::Pool(pool);
        let ids = |tag: &str, index: u64, n: usize| -> Vec<u32> {
            source.vectors(tag, index, n).iter().map(|v| v[0] as u32).collect()
        };
        let first = ids("lat-0", 0, 5);
        assert!(first.windows(2).all(|w| w[1] == (w[0] + 1) % 7), "{first:?}");
        // the next block continues where the previous one stopped
        assert_eq!(ids("lat-0", 1, 5)[0], (first[4] + 1) % 7);
        // the warm-up's block index must not overflow
        assert_eq!(ids("lat-0", u64::MAX, 3).len(), 3);
        assert_eq!(ids("lat-0", 0, 5), first);
    }
}
