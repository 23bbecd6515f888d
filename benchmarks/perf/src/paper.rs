//! The paper's own pipeline, end to end: fit the text pipeline, train SEM
//! and NPRec, evaluate, embed the corpus, build and persist the index —
//! then held-out new papers arrive one by one: embed, top-10, ingest.
//!
//! The training corpus is a fixed dataset (`presets::acm_like` at the
//! workload's size, the preset's own seed): every run trains on the same
//! papers, so `ndcg_at_10` repeats exactly and guards the arithmetic of
//! text/tensor/nn/train. `--seed` decides which new papers arrive.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sem_core::eval::{RandomRecommender, RecTask};
use sem_core::sampling::{build_training_pairs, NegativeStrategy, TrainPair};
use sem_core::{NpRecConfig, NpRecModel, PipelineConfig, SemConfig, SemModel, TextPipeline};
use sem_corpus::{presets, Corpus};
use sem_graph::HeteroGraph;
use sem_rules::RuleScorer;
use sem_serve::{IndexConfig, NpRecContext, PaperEmbedder, ShardConfig, ShardRouter};
use sem_train::RunOptions;

use crate::gen;
use crate::host;
use crate::serve::{Fixture, Source};
use crate::workloads::{PaperSpec, K};
use crate::Ctx;

/// Year the corpus is split at: earlier papers train, later ones are the
/// evaluation's new papers.
const SPLIT_YEAR: u16 = 2014;
/// Evaluation tasks (candidate-set draws) the nDCG is averaged over.
const EVAL_TASKS: u64 = 4;
/// Result-cache entries per shard of the pipeline's router: fewer than
/// the held-out pool, so walking the pool never hits.
const CACHE_CAPACITY: usize = 256;
/// How far below the top score a just-ingested paper's own score may
/// sit and still count as first: a few f32 roundings of a unit dot.
const SELF_SCORE_SLACK: f32 = 1e-6;
/// Pairs of the one-epoch NPRec probes of the traced run.
const EPOCH_PROBE_PAIRS: usize = 600;

/// The generated inputs of one run.
pub struct Inputs {
    /// Training corpus.
    pub corpus: Corpus,
    /// Papers that arrive after the index is built.
    pub held_out: Corpus,
}

/// Generates the training corpus and the held-out papers of run `seed`.
pub fn generate(spec: &PaperSpec, seed: u64) -> Inputs {
    let mut config = presets::acm_like(1);
    config.n_papers = spec.n_papers;
    config.n_authors = spec.n_authors;
    let mut held = config.clone();
    held.n_papers = spec.n_new;
    held.n_authors = (spec.n_new / 3).max(20);
    held.seed = gen::stream(seed, "held-out", 0);
    Inputs { corpus: Corpus::generate(config), held_out: Corpus::generate(held) }
}

/// One timed stage of the pipeline.
pub struct Stage {
    /// Layer-qualified name, e.g. `text.pipeline_fit`.
    pub name: &'static str,
    /// Wall time, milliseconds.
    pub ms: f64,
    /// Resident set when the stage ended, MiB.
    pub rss_mb: f64,
}

/// What the pipeline measured and built.
pub struct PaperOut {
    /// The stages, in order; their times sum to `wall_s`.
    pub stages: Vec<Stage>,
    /// Fit through persist, seconds.
    pub wall_s: f64,
    /// NPRec nDCG@10 on the held-out split, mean over the tasks.
    pub ndcg_at_10: f64,
    /// Per new paper: `embed_new` + top-10 query, milliseconds.
    pub topk_ms: Vec<f64>,
    /// Per new paper: `embed_new` alone, microseconds.
    pub embed_new_us: Vec<f64>,
    /// One NPRec epoch over `EPOCH_PROBE_PAIRS` pairs with 1 and with 2
    /// workers, milliseconds (traced run only).
    pub nprec_epoch_ms: Option<(f64, f64)>,
    /// The router the pipeline built, with the embedded new papers as its
    /// request pool (taken by the workload that serves from it).
    pub fixture: Option<Fixture>,
}

impl PaperOut {
    /// Wall time of stage `name`, milliseconds.
    pub fn stage_ms(&self, name: &str) -> f64 {
        self.stages.iter().find(|s| s.name == name).map_or(0.0, |s| s.ms)
    }
}

struct StageClock {
    last: Instant,
    stages: Vec<Stage>,
}

impl StageClock {
    fn mark(&mut self, name: &'static str) {
        let now = Instant::now();
        self.stages.push(Stage {
            name,
            ms: (now - self.last).as_secs_f64() * 1e3,
            rss_mb: host::rss_mb(),
        });
        self.last = now;
    }
}

fn training_pairs(
    corpus: &Corpus,
    scorer: &RuleScorer<'_>,
    sem: &SemModel,
    cap: usize,
) -> Vec<TrainPair> {
    let mut pairs = build_training_pairs(
        corpus,
        scorer,
        &sem.fusion_weights(),
        SPLIT_YEAR,
        4,
        NegativeStrategy::Defuzzed { threshold: 0.0 },
        7,
    );
    pairs.shuffle(&mut StdRng::seed_from_u64(0xcab));
    pairs.truncate(cap);
    pairs
}

fn nprec_epoch_ms(
    graph: &HeteroGraph,
    text: &sem_core::nprec::TextVecs,
    pairs: &[TrainPair],
    text_dim: usize,
    workers: usize,
) -> f64 {
    let mut model =
        NpRecModel::new(graph.n_nodes(), NpRecConfig { text_dim, epochs: 1, ..Default::default() });
    let t = Instant::now();
    let opts = RunOptions { workers, ..RunOptions::default() };
    let _ = model.train_with(graph, Some(text), pairs, &opts, &mut |_| {});
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs the pipeline over `inputs`, persisting the index under `dir`.
///
/// # Errors
/// A serve-layer failure while building or persisting the index.
pub fn run(
    ctx: &mut Ctx,
    spec: &PaperSpec,
    inputs: &Inputs,
    dir: &Path,
) -> Result<PaperOut, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let corpus = &inputs.corpus;
    let mut tracer = ctx.tracer();
    let root = tracer.begin("pipeline", 0);
    let start = Instant::now();
    let mut clock = StageClock { last: start, stages: Vec::new() };
    macro_rules! stage {
        ($name:literal, $body:expr) => {{
            let span = tracer.begin($name, 0);
            let value = $body;
            tracer.end(span);
            clock.mark($name);
            value
        }};
    }

    let pipeline =
        stage!("text.pipeline_fit", TextPipeline::fit(corpus, PipelineConfig::default()));
    let labels = stage!("text.label_corpus", pipeline.label_corpus(corpus));
    let scorer = stage!(
        "rules.scorer_build",
        RuleScorer::new(corpus, &pipeline.vocab, &pipeline.embeddings, &pipeline.encoder, &labels)
    );
    let mut sem = SemModel::new(SemConfig {
        epochs: spec.sem_epochs,
        triplets_per_epoch: spec.sem_triplets,
        ..SemConfig::default()
    });
    let opts = RunOptions { workers: spec.train_workers, ..RunOptions::default() };
    stage!(
        "core.sem_train",
        sem.train_with(&pipeline, corpus, &scorer, &labels, &opts, &mut |_| {})
            .map_err(|e| format!("SEM training: {e}"))?
    );
    let text = stage!("core.sem_embed_corpus", sem.embed_corpus(&pipeline, corpus, &labels));
    let (graph, pairs) = stage!("graph.build", {
        let graph = HeteroGraph::from_corpus(corpus, Some(SPLIT_YEAR));
        let pairs = training_pairs(corpus, &scorer, &sem, spec.pairs_cap);
        (graph, pairs)
    });
    let mut model = NpRecModel::new(
        graph.n_nodes(),
        NpRecConfig {
            text_dim: sem.embed_dim(),
            epochs: spec.nprec_epochs,
            ..NpRecConfig::default()
        },
    );
    stage!(
        "core.nprec_train",
        model
            .train_with(&graph, Some(&text), &pairs, &opts, &mut |_| {})
            .map_err(|e| format!("NPRec training: {e}"))?
    );
    let (ndcg_at_10, random_ndcg_at_10) = stage!("core.eval", {
        let (mut ndcg, mut random) = (0.0, 0.0);
        for task_seed in 1..=EVAL_TASKS {
            let task = RecTask::build(corpus, SPLIT_YEAR, K, usize::MAX, 1, task_seed);
            ndcg += task.evaluate(&model.recommender(&graph, Some(&text), &task)).ndcg;
            random += (0..5u64)
                .map(|s| task.evaluate(&RandomRecommender::new(task_seed * 16 + s)).ndcg)
                .sum::<f64>()
                / 5.0;
        }
        (ndcg / EVAL_TASKS as f64, random / EVAL_TASKS as f64)
    });
    let embedder = PaperEmbedder::new(&pipeline, &sem).with_nprec(NpRecContext {
        model: &model,
        graph: &graph,
        text: &text,
    });
    let vectors = stage!("embed.embed_corpus", embedder.embed_corpus(corpus));
    let config =
        ShardConfig { shards: 1, index: IndexConfig::default(), cache_capacity: CACHE_CAPACITY };
    // One shard: a corpus of hundreds needs no scatter, and a query that
    // spawns two threads for 100 us of scanning times the host's thread
    // wake-up, not the program. f32, not SQ8: embedded new papers differ
    // from each other in the fourth decimal of the cosine, which one-byte
    // codes cannot order, so past ~130 of them per shard a paper misses
    // its own rescore pool (ATTRIBUTION.md, finding 6) and the
    // self-retrieval check would fail
    let router = stage!("index.build", {
        ShardRouter::try_build(vectors, config)
            .and_then(|r| r.set_layout(embedder.layout()).map(|()| r))
            .map_err(|e| format!("pipeline index build: {e}"))?
    });
    let base = dir.join("papers.snap");
    stage!(
        "store.persist",
        router
            .attach_stores(&base)
            .and_then(|()| router.persist_all())
            .map_err(|e| format!("pipeline persist: {e}"))?
    );
    let wall_s = start.elapsed().as_secs_f64();
    tracer.end(root);

    // new papers arrive: embed -> top-10 -> ingest (fsync per append);
    // each must then find itself first
    let mut topk_ms = Vec::with_capacity(inputs.held_out.papers.len());
    let mut embed_new_us = Vec::with_capacity(inputs.held_out.papers.len());
    let mut pool = Vec::with_capacity(inputs.held_out.papers.len());
    for (i, paper) in inputs.held_out.papers.iter().enumerate() {
        let request = i as u64 + 1;
        let span = tracer.begin("new_paper", request);
        let t = Instant::now();
        let v = tracer.span("embed.embed_new", request, || embedder.embed_new(paper));
        let embedded = t.elapsed();
        let answer = tracer.span("router.query", request, || router.query(v.clone(), K));
        topk_ms.push(t.elapsed().as_secs_f64() * 1e3);
        embed_new_us.push(embedded.as_secs_f64() * 1e6);
        let ack = tracer.span("router.ingest_vector", request, || router.ingest_vector(v.clone()));
        tracer.end(span);
        ctx.attempted += 2;
        if !matches!(&answer, Ok(r) if !r.degraded && r.hits.len() == K) {
            ctx.failed += 1;
        }
        match ack {
            Ok(ack) if ack.durable => {
                // embedded new papers sit within 1e-4 of each other in
                // cosine, so a neighbour's score can round to the paper's
                // own: "first" means first up to that rounding
                let hits = router.query(v.clone(), K).map(|r| r.hits).unwrap_or_default();
                let own = hits.iter().find(|h| h.id == ack.id).map(|h| h.score);
                let top = hits.first().map_or(f32::INFINITY, |h| h.score);
                if !own.is_some_and(|s| top - s <= SELF_SCORE_SLACK) {
                    ctx.fail(format!("new paper {i} did not retrieve itself at rank 1"));
                }
            }
            _ => ctx.failed += 1,
        }
        pool.push(v);
    }

    let nprec_epoch_ms = ctx.traced.then(|| {
        let probe = &pairs[..pairs.len().min(EPOCH_PROBE_PAIRS)];
        (
            nprec_epoch_ms(&graph, &text, probe, sem.embed_dim(), 1),
            nprec_epoch_ms(&graph, &text, probe, sem.embed_dim(), 2),
        )
    });
    if spec.ndcg_must_beat_random && ndcg_at_10 <= random_ndcg_at_10 {
        ctx.fail(format!(
            "ndcg_at_10 {ndcg_at_10:.4} does not beat RandomRecommender {random_ndcg_at_10:.4}"
        ));
    }
    ctx.tracers.push(tracer);
    Ok(PaperOut {
        stages: clock.stages,
        wall_s,
        ndcg_at_10,
        topk_ms,
        embed_new_us,
        nprec_epoch_ms,
        fixture: Some(Fixture {
            router: Arc::new(router),
            base,
            config,
            source: Source::Pool(pool),
        }),
    })
}
