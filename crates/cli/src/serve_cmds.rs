//! The serve-family commands: `index build`, `index query`, `index verify`,
//! `index migrate` and `ingest`.
//!
//! All of them speak JSON on stdout (they are meant to be scripted against)
//! and share the model directory produced by `sem train`. The index file is
//! a crash-safe [`IndexStore`] snapshot — checksummed binary sections, atomic
//! rename, write-ahead journal alongside — so `index query` and `ingest`
//! recover to the last durable state automatically, `ingest` journals the
//! new paper before acknowledging it, and `index verify` gives operators
//! (and the recovery tests) a machine-readable integrity report.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sem_corpus::{Corpus, Paper, PaperId, Sentence, Subspace, NUM_SUBSPACES};
use sem_serve::{
    parse_weights, AnnIndex, DegradeReason, EngineConfig, FacetLayout, IndexConfig, IndexStore,
    PaperEmbedder, QueryEngine, QueryRequest, RerankParams, ShardConfig, ShardManifest,
    ShardRouter, DEFAULT_CANDIDATES,
};
use serde::Serialize;

use crate::commands::{load_model, Args, CliError};

fn to_pretty<T: Serialize>(value: &T) -> Result<String, CliError> {
    serde_json::to_string_pretty(value).map_err(|e| CliError(format!("report serialisation: {e}")))
}

/// The `--facets WEIGHTS --diversity λ --candidates C` triple of `index
/// query`, parsed but not yet resolved against an index's layout.
struct FacetArgs {
    facets: Option<String>,
    diversity: f32,
    candidates: usize,
}

impl FacetArgs {
    fn from_args(args: &Args) -> Result<FacetArgs, CliError> {
        Ok(FacetArgs {
            facets: args.get("facets").map(str::to_string),
            diversity: args.parse_num("diversity", 0.0f32)?,
            candidates: args.parse_num("candidates", DEFAULT_CANDIDATES)?,
        })
    }

    /// Resolves the flags against the layout the index actually serves.
    /// No facet flags at all means the plain stage-1 path (`None`);
    /// malformed specs are typed usage errors.
    fn to_params(&self, layout: &FacetLayout) -> Result<Option<RerankParams>, CliError> {
        if self.facets.is_none() && self.diversity == 0.0 && self.candidates == DEFAULT_CANDIDATES {
            return Ok(None);
        }
        let weights = match &self.facets {
            Some(spec) => parse_weights(spec, layout)?,
            None => vec![1.0; layout.len()],
        };
        let params = RerankParams { weights, lambda: self.diversity, candidates: self.candidates };
        params.validate(layout)?;
        Ok(Some(params))
    }
}

/// Dispatches `sem index <build|query|verify|probe|maintain|migrate> ...`.
pub(crate) fn index(argv: &[String]) -> Result<String, CliError> {
    let Some(sub) = argv.first() else {
        return Err(CliError(
            "usage: sem index <build|query|verify|probe|maintain|migrate> ...".into(),
        ));
    };
    if sub == "maintain" {
        // maintenance actions are valueless switches: presence means "do it"
        let args = Args::parse_with_switches(&argv[1..], &["compact", "recluster", "status"])?;
        return index_maintain(&args);
    }
    let args = Args::parse(&argv[1..])?;
    match sub.as_str() {
        "build" => index_build(&args),
        "query" => index_query(&args),
        "verify" => index_verify(&args),
        "probe" => index_probe(&args),
        "migrate" => index_migrate(&args),
        other => Err(CliError(format!("unknown index subcommand {other:?}"))),
    }
}

#[derive(Serialize)]
struct BuildSummary {
    papers: usize,
    dim: usize,
    mode: String,
    shards: usize,
    quantized: bool,
    elapsed_ms: u64,
    out: String,
}

/// `sem index build --model DIR --out index.snap [--shards N] [--nlist N]
/// [--nprobe N] [--flat-threshold N] [--quantize sq8]`: embeds every
/// corpus paper and builds the ANN index, persisted as a crash-safe
/// snapshot. With `--shards N > 1` the corpus is partitioned round-robin
/// into a sharded family (`index.snap.shard0..N-1` + `index.snap.manifest`)
/// that `index query`, `ingest` and `index verify` detect automatically.
/// `--quantize sq8` stores SQ8 codes alongside the vectors and serves
/// stage-0 scans from them (final scores stay exact via f32 rescore).
fn index_build(args: &Args) -> Result<String, CliError> {
    let dir = PathBuf::from(args.required("model")?);
    let out = args.required("out")?;
    let shards: usize = args.parse_num("shards", 1usize)?;
    let quantize = match args.get("quantize") {
        None => false,
        Some("sq8") => true,
        Some(other) => {
            return Err(CliError(format!("unknown --quantize scheme {other:?} (try sq8)")))
        }
    };
    let config = IndexConfig {
        nlist: args.parse_num("nlist", 0usize)?,
        nprobe: args.parse_num("nprobe", 0usize)?,
        flat_threshold: args.parse_num("flat-threshold", 256usize)?,
        ..Default::default()
    };
    let (corpus, pipeline, _labels, sem) = load_model(&dir)?;
    let t0 = Instant::now();
    let embedder = PaperEmbedder::new(&pipeline, &sem);
    let vectors = embedder.embed_corpus(&corpus);
    let summary = if shards > 1 {
        let router = ShardRouter::try_build(
            vectors,
            ShardConfig { shards, index: config, ..Default::default() },
        )?;
        // record the embedder's facet structure so `index query --facets`
        // can rescore per subspace
        router.set_layout(embedder.layout())?;
        if quantize {
            // quantize before the stores attach so the persisted
            // snapshots carry the codes
            router.enable_sq8()?;
        }
        router.attach_stores(std::path::Path::new(out))?;
        router.persist_all()?;
        BuildSummary {
            papers: router.len(),
            dim: router.dim(),
            mode: "sharded".into(),
            shards,
            quantized: quantize,
            elapsed_ms: t0.elapsed().as_millis() as u64,
            out: out.to_string(),
        }
    } else {
        let mut index = AnnIndex::try_build(vectors, config)?.with_layout(embedder.layout())?;
        if quantize {
            index.enable_sq8()?;
        }
        IndexStore::open(out).save_snapshot(&index)?;
        BuildSummary {
            papers: index.len(),
            dim: index.dim(),
            mode: if index.is_flat() { "flat".into() } else { "ivf".into() },
            shards: 1,
            quantized: quantize,
            elapsed_ms: t0.elapsed().as_millis() as u64,
            out: out.to_string(),
        }
    };
    to_pretty(&summary)
}

/// `sem index verify --index index.snap`: checks the snapshot header +
/// checksum and scans the journal, printing a JSON integrity report.
/// On a sharded family (manifest present) every shard store is walked and
/// the report carries a per-shard verdict. Exit status is an error when
/// any store would not recover cleanly.
fn index_verify(args: &Args) -> Result<String, CliError> {
    let path = args.required("index")?;
    if ShardManifest::exists(std::path::Path::new(path)) {
        let report = sem_serve::verify_sharded(std::path::Path::new(path))?;
        let rendered = to_pretty(&report)?;
        return if report.ok {
            Ok(rendered)
        } else {
            Err(CliError(format!("sharded index failed verification:\n{rendered}")))
        };
    }
    let store = IndexStore::open(path);
    let report = store.verify();
    let rendered = to_pretty(&report)?;
    if report.ok {
        Ok(rendered)
    } else {
        Err(CliError(format!("index failed verification:\n{rendered}")))
    }
}

/// Report for `sem index migrate`: one entry per store converted (one per
/// shard on a sharded family).
#[derive(Serialize)]
struct MigrateSummary {
    stores: Vec<sem_serve::MigrateReport>,
}

/// `sem index migrate --index index.snap`: converts a pre-v4 store — bare
/// JSON or SEMSNAP v1–v3, with any journal and side journal folded in —
/// to the binary v4 snapshot format in place, offline. Sharded families are
/// converted shard by shard; stores already at v4 are left untouched.
fn index_migrate(args: &Args) -> Result<String, CliError> {
    let path = args.required("index")?;
    to_pretty(&MigrateSummary { stores: sem_serve::migrate(std::path::Path::new(path))? })
}

/// Report for `sem index probe`: per-shard health-probe outcomes, the
/// same check the in-process [`sem_serve::ShardSupervisor`] runs.
#[derive(Serialize)]
struct ProbeSummary {
    mode: String,
    shards: usize,
    serving_ok: bool,
    /// Ordinals whose journal tail exceeds `--max-journal-entries`
    /// (empty without the flag or when every tail is within budget).
    tail_alarms: Vec<usize>,
    probes: Vec<sem_serve::ProbeReport>,
}

/// `sem index probe --index index.snap [--check-store true]
/// [--max-journal-entries N]`: runs the supervisor's health probe against
/// each shard of the family (or the single snapshot) and prints a JSON
/// verdict. Exit status is an error when any serving probe fails — the
/// operator-facing analogue of a supervisor trip. With `--check-store
/// true --max-journal-entries N` an un-compacted journal tail longer than
/// N also alarms: the shard serves fine today but recovery replay (and
/// the next compaction pause) is growing without bound.
fn index_probe(args: &Args) -> Result<String, CliError> {
    let path = args.required("index")?;
    let check_store = args.get("check-store").map(|v| v == "true").unwrap_or(false);
    let max_tail: Option<usize> = match args.get("max-journal-entries") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| CliError(format!("--max-journal-entries: cannot parse {v:?}")))?,
        ),
    };
    if max_tail.is_some() && !check_store {
        return Err(CliError(
            "--max-journal-entries needs --check-store true (tails live on disk)".into(),
        ));
    }
    let base = std::path::Path::new(path);
    let (mode, router) = if ShardManifest::exists(base) {
        let (router, _recoveries) = ShardRouter::open(base, ShardConfig::default())?;
        ("sharded".to_string(), router)
    } else {
        // a single snapshot probes as a one-shard family
        let (index, _recovery) = load_index(path)?;
        let vectors = (0..index.len()).map(|i| index.vector(i).to_vec()).collect();
        let router =
            ShardRouter::try_build(vectors, ShardConfig { shards: 1, ..Default::default() })?;
        ("single".to_string(), router)
    };
    let probes: Vec<sem_serve::ProbeReport> = (0..router.num_shards())
        .map(|i| router.shard(i).probe(check_store))
        .collect::<Result<_, _>>()?;
    let serving_ok = probes.iter().all(sem_serve::ProbeReport::serving_ok);
    let tail_alarms: Vec<usize> = match max_tail {
        None => Vec::new(),
        Some(max) => probes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.journal_tail.is_some_and(|t| t > max))
            .map(|(i, _)| i)
            .collect(),
    };
    let ok = serving_ok && tail_alarms.is_empty();
    let report =
        ProbeSummary { mode, shards: router.num_shards(), serving_ok, tail_alarms, probes };
    let rendered = to_pretty(&report)?;
    if ok {
        Ok(rendered)
    } else {
        Err(CliError(format!("index failed its health probe:\n{rendered}")))
    }
}

/// Report for `sem index maintain`: what ran plus the post-maintenance
/// per-shard status.
#[derive(Serialize)]
struct MaintainSummary {
    shards: usize,
    compactions: Vec<sem_serve::CompactionReport>,
    reclusters: Vec<sem_serve::ReclusterReport>,
    status: Vec<sem_serve::MaintenanceStatus>,
}

/// `sem index maintain --index index.snap [--compact] [--recluster]
/// [--status]`: operator-driven maintenance on a sharded family.
/// `--compact` folds each shard's journal into a fresh snapshot online
/// (the same protocol the background [`sem_serve::Maintainer`] uses),
/// `--recluster` forces a drift re-train with epoch handover (persisted
/// when the table actually changed), and the report always carries the
/// per-shard maintenance status (`--status` alone is a pure read).
fn index_maintain(args: &Args) -> Result<String, CliError> {
    let path = args.required("index")?;
    let base = std::path::Path::new(path);
    if !ShardManifest::exists(base) {
        return Err(CliError(
            "index maintain needs a sharded family (build with --shards N > 1)".into(),
        ));
    }
    if !(args.switch("compact") || args.switch("recluster") || args.switch("status")) {
        return Err(CliError(
            "usage: sem index maintain --index BASE [--compact] [--recluster] [--status]".into(),
        ));
    }
    let (router, _recoveries) = ShardRouter::open(base, ShardConfig::default())?;
    let mut compactions = Vec::new();
    if args.switch("compact") {
        for i in 0..router.num_shards() {
            compactions.push(router.compact_shard_online(i)?);
        }
    }
    let mut reclusters = Vec::new();
    if args.switch("recluster") {
        for i in 0..router.num_shards() {
            reclusters.push(router.recluster_shard(i)?);
        }
        if reclusters.iter().any(|r| r.changed) {
            // the new centroid table lives in memory until re-snapshotted
            router.persist_all()?;
        }
    }
    let report = MaintainSummary {
        shards: router.num_shards(),
        compactions,
        reclusters,
        status: router.maintenance_status(),
    };
    to_pretty(&report)
}

#[derive(Serialize)]
struct HitOut {
    id: usize,
    score: f32,
    title: String,
    year: u16,
}

#[derive(Serialize)]
struct QueryOut {
    paper: usize,
    degraded: bool,
    reason: Option<DegradeReason>,
    hits: Vec<HitOut>,
}

#[derive(Serialize)]
struct QueryReport {
    results: Vec<QueryOut>,
    recovery: RecoveryOut,
    stats: sem_serve::StatsSnapshot,
}

/// What loading the index found on disk (journal replay counters).
#[derive(Serialize)]
struct RecoveryOut {
    replayed: usize,
    skipped: usize,
    discarded_tail: bool,
}

fn describe(corpus: &Corpus, id: usize) -> (String, u16) {
    match corpus.papers.get(id) {
        Some(p) => (p.title.clone(), p.year),
        None => ("(ingested after index build)".into(), 0),
    }
}

/// Loads the index through the store (snapshot + journal replay) and
/// reports what recovery saw.
fn load_index(path: &str) -> Result<(AnnIndex, RecoveryOut), CliError> {
    let recovery = IndexStore::open(path).load()?;
    let out = RecoveryOut {
        replayed: recovery.replayed,
        skipped: recovery.skipped,
        discarded_tail: recovery.discarded_tail,
    };
    Ok((recovery.index, out))
}

/// Report for a query served by the sharded scatter-gather path.
#[derive(Serialize)]
struct ShardedQueryReport {
    results: Vec<QueryOut>,
    recoveries: Vec<RecoveryOut>,
    stats: sem_serve::RouterStatsSnapshot,
}

/// The sharded branch of `index query`: opens the family at `base`, fans
/// each query across shards and heap-merges the per-shard top-K.
fn index_query_sharded(
    base: &str,
    corpus: &Corpus,
    embedder: &PaperEmbedder,
    papers: &[usize],
    k: usize,
    deadline_ms: u64,
    facet_args: &FacetArgs,
) -> Result<String, CliError> {
    let (router, recoveries) =
        ShardRouter::open(std::path::Path::new(base), ShardConfig::default())?;
    if router.dim() != embedder.dim() {
        return Err(CliError(format!(
            "index width {} does not match the model's {}",
            router.dim(),
            embedder.dim()
        )));
    }
    let rerank = facet_args.to_params(&router.layout())?;
    let requests: Vec<QueryRequest> = papers
        .iter()
        .map(|&p| {
            let mut r = QueryRequest::new(embedder.embed_indexed(corpus, PaperId::from(p)), k);
            r.deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
            match &rerank {
                Some(params) => r.with_rerank(params.clone()),
                None => r,
            }
        })
        .collect();
    let responses = router.query_batch(requests)?;
    let results = papers
        .iter()
        .zip(responses)
        .map(|(&p, response)| QueryOut {
            paper: p,
            degraded: response.degraded,
            reason: response.reason,
            hits: response
                .hits
                .into_iter()
                .map(|h| {
                    let (title, year) = describe(corpus, h.id);
                    HitOut { id: h.id, score: h.score, title, year }
                })
                .collect(),
        })
        .collect();
    let report = ShardedQueryReport {
        results,
        recoveries: recoveries
            .into_iter()
            .map(|r| RecoveryOut {
                replayed: r.replayed,
                skipped: r.skipped,
                discarded_tail: r.discarded_tail,
            })
            .collect(),
        stats: router.stats(),
    };
    to_pretty(&report)
}

/// `sem index query --model DIR --index index.snap --paper ID[,ID...]
/// [--k K] [--deadline-ms MS]
/// [--facets bg=0.2,method=0.7,result=0.1] [--diversity λ]
/// [--candidates C]`: answers one coalesced batch of top-K queries and
/// reports the engine counters. With a deadline, exhausted budgets yield
/// partial results flagged `degraded` instead of blocking. A sharded
/// family (manifest present) is served scatter-gather. Any facet flag
/// switches on the two-stage path: the top-C stage-1 candidates are
/// rescored with the per-subspace weights, and `--diversity λ` trades
/// relevance against facet coverage MMR-style.
fn index_query(args: &Args) -> Result<String, CliError> {
    let dir = PathBuf::from(args.required("model")?);
    let index_path = args.required("index")?;
    let k: usize = args.parse_num("k", 5)?;
    let deadline_ms: u64 = args.parse_num("deadline-ms", 0)?;
    let facet_args = FacetArgs::from_args(args)?;
    let papers: Vec<usize> = args
        .required("paper")?
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| CliError(format!("--paper: cannot parse {s:?}"))))
        .collect::<Result<_, _>>()?;
    let (corpus, pipeline, _labels, sem) = load_model(&dir)?;
    for &p in &papers {
        if p >= corpus.papers.len() {
            return Err(CliError(format!("--paper must be in 0..{}", corpus.papers.len())));
        }
    }
    let embedder = PaperEmbedder::new(&pipeline, &sem);
    if ShardManifest::exists(std::path::Path::new(index_path)) {
        return index_query_sharded(
            index_path,
            &corpus,
            &embedder,
            &papers,
            k,
            deadline_ms,
            &facet_args,
        );
    }
    let (index, recovery) = load_index(index_path)?;
    if index.dim() != embedder.dim() {
        return Err(CliError(format!(
            "index width {} does not match the model's {}",
            index.dim(),
            embedder.dim()
        )));
    }
    let rerank = facet_args.to_params(&index.layout())?;
    let config = EngineConfig {
        default_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        ..Default::default()
    };
    let engine = QueryEngine::new(index, config);
    let requests: Vec<QueryRequest> = papers
        .iter()
        .map(|&p| {
            let r = QueryRequest::new(embedder.embed_indexed(&corpus, PaperId::from(p)), k);
            match &rerank {
                Some(params) => r.with_rerank(params.clone()),
                None => r,
            }
        })
        .collect();
    let responses = engine.query_batch(requests)?;
    if let Some(path) = args.get("metrics-out") {
        crate::metrics_cmd::write_metrics_out(&engine.metrics(), path)?;
    }
    let results = papers
        .iter()
        .zip(responses)
        .map(|(&p, response)| QueryOut {
            paper: p,
            degraded: response.degraded,
            reason: response.reason,
            hits: response
                .hits
                .into_iter()
                .map(|h| {
                    let (title, year) = describe(&corpus, h.id);
                    HitOut { id: h.id, score: h.score, title, year }
                })
                .collect(),
        })
        .collect();
    let report = QueryReport { results, recovery, stats: engine.stats() };
    to_pretty(&report)
}

#[derive(Serialize)]
struct IngestReport {
    id: usize,
    durable: bool,
    title: String,
    sentences: usize,
    self_rank: usize,
    hits: Vec<HitOut>,
    index_len: usize,
    recovery: RecoveryOut,
    out: String,
}

/// Builds a [`Paper`] from raw title/abstract text. Gold sentence tags are
/// placeholders — serving only uses the CRF's *predicted* labels.
fn paper_from_text(title: &str, abstract_text: &str, year: u16, id: usize) -> Paper {
    let sentences: Vec<Sentence> = abstract_text
        .split('.')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| Sentence { text: s.to_string(), label: Subspace::Background })
        .collect();
    Paper {
        id: PaperId::from(id),
        title: title.to_string(),
        sentences,
        keywords: Vec::new(),
        references: Vec::new(),
        authors: Vec::new(),
        venue: None,
        year,
        discipline: 0,
        category: None,
        innovation: [0.0; NUM_SUBSPACES],
        citations_received: 0,
    }
}

/// The sharded branch of `ingest`: the paper routes to the shard owning
/// the next global id, journals there (fsync before ack), and only that
/// shard's cache is invalidated before the family is re-snapshotted.
fn ingest_sharded(
    base: &str,
    corpus: &Corpus,
    embedder: &PaperEmbedder,
    title: &str,
    abstract_text: &str,
    year: u16,
    k: usize,
) -> Result<String, CliError> {
    let (router, recoveries) =
        ShardRouter::open(std::path::Path::new(base), ShardConfig::default())?;
    if router.dim() != embedder.dim() {
        return Err(CliError(format!(
            "index width {} does not match the model's {}",
            router.dim(),
            embedder.dim()
        )));
    }
    let paper = paper_from_text(title, abstract_text, year, router.len());
    if paper.sentences.is_empty() {
        return Err(CliError("--abstract has no sentences".into()));
    }
    let vector = embedder.embed_new(&paper);
    let ack = router.ingest_vector(vector.clone())?;
    let hits = router.query(vector, k)?.hits;
    let self_rank = hits.iter().position(|h| h.id == ack.id).map(|r| r + 1).unwrap_or(0);
    // compact every shard's journal into a fresh atomic snapshot
    router.persist_all()?;
    let report = IngestReport {
        id: ack.id,
        durable: ack.durable,
        title: title.to_string(),
        sentences: paper.sentences.len(),
        self_rank,
        hits: hits
            .into_iter()
            .map(|h| {
                let (t, y) =
                    if h.id == ack.id { (title.to_string(), year) } else { describe(corpus, h.id) };
                HitOut { id: h.id, score: h.score, title: t, year: y }
            })
            .collect(),
        index_len: router.len(),
        recovery: RecoveryOut {
            replayed: recoveries.iter().map(|r| r.replayed).sum(),
            skipped: recoveries.iter().map(|r| r.skipped).sum(),
            discarded_tail: recoveries.iter().any(|r| r.discarded_tail),
        },
        out: base.to_string(),
    };
    to_pretty(&report)
}

/// `sem ingest --model DIR --index index.snap --title T --abstract TEXT
/// [--year Y] [--k K] [--out index.snap]`: embeds a brand-new zero-citation
/// paper, journals it (fsync) before acknowledging, inserts it without
/// rebuilding, compacts into a fresh snapshot and queries the paper back.
/// On a sharded family the write routes to exactly the owning shard.
pub(crate) fn ingest(args: &Args) -> Result<String, CliError> {
    let dir = PathBuf::from(args.required("model")?);
    let index_path = args.required("index")?;
    let title = args.required("title")?;
    let abstract_text = args.required("abstract")?;
    let k: usize = args.parse_num("k", 5)?;
    let out = args.get("out").unwrap_or(index_path).to_string();
    let (corpus, pipeline, _labels, sem) = load_model(&dir)?;
    let year: u16 =
        args.parse_num("year", corpus.papers.iter().map(|p| p.year).max().unwrap_or(2020) + 1)?;
    let embedder = PaperEmbedder::new(&pipeline, &sem);
    if ShardManifest::exists(std::path::Path::new(index_path)) {
        return ingest_sharded(index_path, &corpus, &embedder, title, abstract_text, year, k);
    }
    let (index, recovery) = load_index(index_path)?;
    if index.dim() != embedder.dim() {
        return Err(CliError(format!(
            "index width {} does not match the model's {}",
            index.dim(),
            embedder.dim()
        )));
    }
    let paper = paper_from_text(title, abstract_text, year, index.len());
    if paper.sentences.is_empty() {
        return Err(CliError("--abstract has no sentences".into()));
    }
    let engine = QueryEngine::new(index, EngineConfig::default());
    engine.attach_store(IndexStore::open(&out));
    let vector = embedder.embed_new(&paper);
    let ack = engine.ingest_vector(vector.clone())?;
    let hits = engine.query(vector, k)?.hits;
    let self_rank = hits.iter().position(|h| h.id == ack.id).map(|r| r + 1).unwrap_or(0);
    // compact journal + grown index into a fresh atomic snapshot
    engine.persist()?;
    let index_len = engine.with_index(|i| i.len())?;
    if let Some(path) = args.get("metrics-out") {
        crate::metrics_cmd::write_metrics_out(&engine.metrics(), path)?;
    }
    let report = IngestReport {
        id: ack.id,
        durable: ack.durable,
        title: title.to_string(),
        sentences: paper.sentences.len(),
        self_rank,
        hits: hits
            .into_iter()
            .map(|h| {
                let (t, y) = if h.id == ack.id {
                    (title.to_string(), year)
                } else {
                    describe(&corpus, h.id)
                };
                HitOut { id: h.id, score: h.score, title: t, year: y }
            })
            .collect(),
        index_len,
        recovery,
        out,
    };
    to_pretty(&report)
}

#[cfg(test)]
mod tests {
    use crate::commands::run;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sem-serve-cli-{name}-{}", std::process::id()))
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// The acceptance demo, end to end: generate → train → index build →
    /// verify → batched query → ingest a brand-new paper → it comes back
    /// top-ranked and the grown snapshot verifies clean.
    #[test]
    fn index_build_query_ingest_roundtrip() {
        let corpus_path = tmp("corpus.json");
        let model_dir = tmp("model");
        let index_path = tmp("index.snap");
        run(&argv(&[
            "generate",
            "--preset",
            "acm",
            "--papers",
            "130",
            "--authors",
            "50",
            "--out",
            corpus_path.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "train",
            "--corpus",
            corpus_path.to_str().unwrap(),
            "--out",
            model_dir.to_str().unwrap(),
            "--epochs",
            "1",
        ]))
        .unwrap();

        let built = run(&argv(&[
            "index",
            "build",
            "--model",
            model_dir.to_str().unwrap(),
            "--out",
            index_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(built.contains("\"papers\": 130"), "{built}");
        assert!(built.contains("\"mode\": \"flat\""), "{built}");

        // the fresh snapshot passes verification and reports the store
        // format version plus per-facet segment checksums
        let verified =
            run(&argv(&["index", "verify", "--index", index_path.to_str().unwrap()])).unwrap();
        assert!(verified.contains("\"ok\": true"), "{verified}");
        assert!(verified.contains("\"format\": \"v4\""), "{verified}");
        for facet in ["bg", "method", "result"] {
            assert!(verified.contains(&format!("\"name\": \"{facet}\"")), "{verified}");
        }

        // and the health probe, loaded as a one-shard family
        let probed =
            run(&argv(&["index", "probe", "--index", index_path.to_str().unwrap()])).unwrap();
        assert!(probed.contains("\"mode\": \"single\""), "{probed}");
        assert!(probed.contains("\"serving_ok\": true"), "{probed}");

        // batched query: each paper's own vector must rank itself first
        let q = run(&argv(&[
            "index",
            "query",
            "--model",
            model_dir.to_str().unwrap(),
            "--index",
            index_path.to_str().unwrap(),
            "--paper",
            "3,40",
            "--k",
            "4",
        ]))
        .unwrap();
        assert!(q.contains("\"paper\": 3"), "{q}");
        assert!(q.contains("\"id\": 3"), "{q}");
        assert!(q.contains("\"id\": 40"), "{q}");
        assert!(q.contains("\"largest_batch\": 2"), "{q}");
        assert!(q.contains("\"degraded\": false"), "{q}");

        // a generous deadline changes nothing
        let qd = run(&argv(&[
            "index",
            "query",
            "--model",
            model_dir.to_str().unwrap(),
            "--index",
            index_path.to_str().unwrap(),
            "--paper",
            "3",
            "--k",
            "4",
            "--deadline-ms",
            "60000",
        ]))
        .unwrap();
        assert!(qd.contains("\"degraded\": false"), "{qd}");

        // the two-stage facet path: skewed per-subspace weights + MMR
        // diversity answer cleanly (the re-weighted ranking legitimately
        // differs from the fused one, so only the shape is asserted)
        let qf = run(&argv(&[
            "index",
            "query",
            "--model",
            model_dir.to_str().unwrap(),
            "--index",
            index_path.to_str().unwrap(),
            "--paper",
            "3",
            "--k",
            "4",
            "--facets",
            "bg=0.2,method=0.7,result=0.1",
            "--diversity",
            "0.3",
            "--candidates",
            "50",
        ]))
        .unwrap();
        assert!(qf.contains("\"paper\": 3"), "{qf}");
        assert!(qf.contains("\"degraded\": false"), "{qf}");
        assert_eq!(qf.matches("\"id\":").count(), 4, "{qf}");

        // malformed facet specs are typed usage errors, not panics
        let bad = run(&argv(&[
            "index",
            "query",
            "--model",
            model_dir.to_str().unwrap(),
            "--index",
            index_path.to_str().unwrap(),
            "--paper",
            "3",
            "--facets",
            "bogus=1.0",
        ]))
        .unwrap_err()
        .to_string();
        assert!(bad.contains("invalid facet spec"), "{bad}");

        let ing = run(&argv(&[
            "ingest",
            "--model",
            model_dir.to_str().unwrap(),
            "--index",
            index_path.to_str().unwrap(),
            "--title",
            "A brand new subspace paper",
            "--abstract",
            "Prior work studies embeddings. We propose a novel subspace method. \
             Experiments show strong results.",
            "--k",
            "5",
        ]))
        .unwrap();
        assert!(ing.contains("\"id\": 130"), "{ing}");
        assert!(ing.contains("\"durable\": true"), "{ing}");
        assert!(ing.contains("\"self_rank\": 1"), "{ing}");
        assert!(ing.contains("\"index_len\": 131"), "{ing}");

        // the grown index was persisted and compacted: it verifies clean
        // and querying it again still works
        let v2 = run(&argv(&["index", "verify", "--index", index_path.to_str().unwrap()])).unwrap();
        assert!(v2.contains("\"ok\": true"), "{v2}");
        assert!(v2.contains("\"count\": 131"), "{v2}");
        let q2 = run(&argv(&[
            "index",
            "query",
            "--model",
            model_dir.to_str().unwrap(),
            "--index",
            index_path.to_str().unwrap(),
            "--paper",
            "3",
            "--k",
            "4",
        ]))
        .unwrap();
        assert!(q2.contains("\"paper\": 3"), "{q2}");

        std::fs::remove_file(&corpus_path).ok();
        std::fs::remove_file(&index_path).ok();
        std::fs::remove_dir_all(&model_dir).ok();
    }

    /// The sharded family end to end: build with `--shards`, per-shard
    /// verify, scatter-gather query, routed ingest, verify again.
    #[test]
    fn sharded_build_query_ingest_roundtrip() {
        let corpus_path = tmp("sh-corpus.json");
        let model_dir = tmp("sh-model");
        let index_path = tmp("sh-index.snap");
        run(&argv(&[
            "generate",
            "--preset",
            "acm",
            "--papers",
            "90",
            "--authors",
            "40",
            "--out",
            corpus_path.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "train",
            "--corpus",
            corpus_path.to_str().unwrap(),
            "--out",
            model_dir.to_str().unwrap(),
            "--epochs",
            "1",
        ]))
        .unwrap();

        // an unknown quantization scheme is refused at the door
        assert!(run(&argv(&[
            "index",
            "build",
            "--model",
            model_dir.to_str().unwrap(),
            "--out",
            index_path.to_str().unwrap(),
            "--quantize",
            "pq",
        ]))
        .is_err());

        // the family is built quantized: SQ8 codes persist with each
        // shard snapshot and serve the stage-0 scan below
        let built = run(&argv(&[
            "index",
            "build",
            "--model",
            model_dir.to_str().unwrap(),
            "--out",
            index_path.to_str().unwrap(),
            "--shards",
            "3",
            "--quantize",
            "sq8",
        ]))
        .unwrap();
        assert!(built.contains("\"papers\": 90"), "{built}");
        assert!(built.contains("\"mode\": \"sharded\""), "{built}");
        assert!(built.contains("\"shards\": 3"), "{built}");
        assert!(built.contains("\"quantized\": true"), "{built}");

        // per-shard integrity report, all clean, with per-segment code
        // checksums for the quantized payloads
        let verified =
            run(&argv(&["index", "verify", "--index", index_path.to_str().unwrap()])).unwrap();
        assert!(verified.contains("\"ok\": true"), "{verified}");
        assert!(verified.contains("\"shard\": 2"), "{verified}");
        assert!(verified.contains("\"quant\""), "{verified}");

        // supervisor-style health probe: every shard self-queries clean,
        // and --check-store adds the per-shard on-disk verdict
        let probed = run(&argv(&[
            "index",
            "probe",
            "--index",
            index_path.to_str().unwrap(),
            "--check-store",
            "true",
        ]))
        .unwrap();
        assert!(probed.contains("\"mode\": \"sharded\""), "{probed}");
        assert!(probed.contains("\"serving_ok\": true"), "{probed}");
        assert!(probed.contains("\"self_query_ok\": true"), "{probed}");
        assert!(probed.contains("\"store_ok\": true"), "{probed}");
        assert!(probed.contains("\"shard\": 2"), "{probed}");

        // scatter-gather query: a paper's own vector ranks itself first
        let q = run(&argv(&[
            "index",
            "query",
            "--model",
            model_dir.to_str().unwrap(),
            "--index",
            index_path.to_str().unwrap(),
            "--paper",
            "7",
            "--k",
            "4",
        ]))
        .unwrap();
        assert!(q.contains("\"paper\": 7"), "{q}");
        assert!(q.contains("\"id\": 7"), "{q}");
        assert!(q.contains("\"degraded\": false"), "{q}");
        assert!(q.contains("\"shards\": 3"), "{q}");

        // the facet path also rides the scatter-gather fan-out
        let qf = run(&argv(&[
            "index",
            "query",
            "--model",
            model_dir.to_str().unwrap(),
            "--index",
            index_path.to_str().unwrap(),
            "--paper",
            "7",
            "--k",
            "4",
            "--facets",
            "bg=0.2,method=0.7,result=0.1",
            "--diversity",
            "0.3",
        ]))
        .unwrap();
        assert!(qf.contains("\"paper\": 7"), "{qf}");
        assert!(qf.contains("\"degraded\": false"), "{qf}");
        assert_eq!(qf.matches("\"id\":").count(), 4, "{qf}");

        // routed ingest: next global id is 90, owned by shard 0 (90 % 3)
        let ing = run(&argv(&[
            "ingest",
            "--model",
            model_dir.to_str().unwrap(),
            "--index",
            index_path.to_str().unwrap(),
            "--title",
            "A sharded subspace paper",
            "--abstract",
            "Prior work studies embeddings. We shard the serving index. \
             Latency stays flat under load.",
        ]))
        .unwrap();
        assert!(ing.contains("\"id\": 90"), "{ing}");
        assert!(ing.contains("\"durable\": true"), "{ing}");
        assert!(ing.contains("\"self_rank\": 1"), "{ing}");
        assert!(ing.contains("\"index_len\": 91"), "{ing}");

        // grown family still verifies clean, shard by shard
        let v2 = run(&argv(&["index", "verify", "--index", index_path.to_str().unwrap()])).unwrap();
        assert!(v2.contains("\"ok\": true"), "{v2}");

        // the routed ingest compacted on persist, so even a zero journal
        // budget raises no tail alarm
        let p2 = run(&argv(&[
            "index",
            "probe",
            "--index",
            index_path.to_str().unwrap(),
            "--check-store",
            "true",
            "--max-journal-entries",
            "0",
        ]))
        .unwrap();
        assert!(p2.contains("\"tail_alarms\": []"), "{p2}");

        // journal an ingest without compacting: the owning shard's tail
        // outgrows a zero budget and the probe alarms on exactly it
        let base = std::path::Path::new(index_path.to_str().unwrap());
        let (router, _recoveries) =
            sem_serve::ShardRouter::open(base, sem_serve::ShardConfig::default()).unwrap();
        let dim = router.dim();
        let owner = router.ingest_vector(vec![0.25; dim]).unwrap().id % 3;
        drop(router);
        let alarmed = run(&argv(&[
            "index",
            "probe",
            "--index",
            index_path.to_str().unwrap(),
            "--check-store",
            "true",
            "--max-journal-entries",
            "0",
        ]))
        .unwrap_err()
        .to_string();
        assert!(alarmed.contains(&format!("\"tail_alarms\": [\n    {owner}\n  ]")), "{alarmed}");
        assert!(alarmed.contains("\"serving_ok\": true"), "{alarmed}");

        // online maintenance folds the tail back into the snapshot …
        let m = run(&argv(&[
            "index",
            "maintain",
            "--index",
            index_path.to_str().unwrap(),
            "--compact",
            "--status",
        ]))
        .unwrap();
        assert_eq!(m.matches("\"pause_us\":").count(), 3, "{m}");
        assert!(m.contains("\"journal_tail\": 0"), "{m}");
        assert!(!m.contains("\"journal_tail\": 1"), "{m}");
        // … and a forced re-cluster on an undrifted corpus is a no-swap:
        // the table is bit-identical, so no handover epoch is burned
        let r = run(&argv(&[
            "index",
            "maintain",
            "--index",
            index_path.to_str().unwrap(),
            "--recluster",
        ]))
        .unwrap();
        assert!(r.contains("\"changed\": false"), "{r}");
        assert!(!r.contains("\"changed\": true"), "{r}");

        // the probe is green again under the same zero budget
        let p3 = run(&argv(&[
            "index",
            "probe",
            "--index",
            index_path.to_str().unwrap(),
            "--check-store",
            "true",
            "--max-journal-entries",
            "0",
        ]))
        .unwrap();
        assert!(p3.contains("\"tail_alarms\": []"), "{p3}");

        std::fs::remove_file(&corpus_path).ok();
        std::fs::remove_dir_all(&model_dir).ok();
        for i in 0..3 {
            let shard = PathBuf::from(format!("{}.shard{i}", index_path.display()));
            std::fs::remove_file(&shard).ok();
            std::fs::remove_file(format!("{}.journal", shard.display())).ok();
        }
        std::fs::remove_file(format!("{}.manifest", index_path.display())).ok();
    }

    #[test]
    fn serve_commands_reject_bad_input() {
        assert!(run(&argv(&["index"])).is_err());
        assert!(run(&argv(&["index", "frob"])).is_err());
        assert!(
            run(&argv(&["index", "build", "--model", "/nonexistent", "--out", "/tmp/x"])).is_err()
        );
        assert!(run(&argv(&["ingest", "--model", "/nonexistent"])).is_err());
        assert!(run(&argv(&["index", "verify", "--index", "/nonexistent/index.snap"])).is_err());
        assert!(run(&argv(&["index", "probe", "--index", "/nonexistent/index.snap"])).is_err());
        // tail budgets need the on-disk check switched on
        let err = run(&argv(&[
            "index",
            "probe",
            "--index",
            "/nonexistent/index.snap",
            "--max-journal-entries",
            "5",
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("--check-store"), "{err}");
        // maintain refuses single snapshots and no-op invocations
        assert!(run(&argv(&["index", "maintain", "--index", "/nonexistent/index.snap"])).is_err());
    }

    /// `index verify` detects a corrupted snapshot and fails loudly.
    #[test]
    fn verify_rejects_corruption() {
        let path = tmp("corrupt.snap");
        std::fs::write(&path, b"not a snapshot at all").unwrap();
        let err = run(&argv(&["index", "verify", "--index", path.to_str().unwrap()]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("\"ok\": false"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// `index migrate` converts a committed pre-v4 fixture in place; the
    /// result verifies as v4, and a second run has nothing left to do.
    #[test]
    fn migrate_converts_a_legacy_store_then_is_a_no_op() {
        let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../serve/tests/fixtures/");
        let path = tmp("migrate-v3.snap");
        let index = path.to_str().unwrap();
        for suffix in ["", ".journal", ".journal.side"] {
            std::fs::copy(format!("{fixtures}v3.snap{suffix}"), format!("{index}{suffix}"))
                .unwrap();
        }
        let err = run(&argv(&["index", "verify", "--index", index])).unwrap_err().to_string();
        assert!(err.contains("sem index migrate"), "{err}");
        let report = run(&argv(&["index", "migrate", "--index", index])).unwrap();
        assert!(report.contains("\"from\": \"v3\""), "{report}");
        assert!(report.contains("\"migrated\": true"), "{report}");
        assert!(report.contains("\"count\": 45"), "{report}");
        let verified = run(&argv(&["index", "verify", "--index", index])).unwrap();
        assert!(verified.contains("\"ok\": true"), "{verified}");
        assert!(verified.contains("\"format\": \"v4\""), "{verified}");
        assert!(verified.contains("\"name\": \"vectors\""), "{verified}");
        let again = run(&argv(&["index", "migrate", "--index", index])).unwrap();
        assert!(again.contains("\"migrated\": false"), "{again}");
        assert!(run(&argv(&["index", "migrate", "--index", "/nonexistent/index.snap"])).is_err());
        std::fs::remove_file(&path).ok();
    }
}
