//! Command implementations for the `sem` binary.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use sem_core::analysis;
use sem_core::eval::{RecTask, Recommender};
use sem_core::sampling::{build_training_pairs, NegativeStrategy};
use sem_core::{NpRecConfig, NpRecModel, PipelineConfig, SemConfig, SemModel, TextPipeline};
use sem_corpus::{presets, AuthorId, Corpus, PaperId, Subspace, NUM_SUBSPACES};
use sem_graph::HeteroGraph;
use sem_rules::RuleScorer;
use sem_train::atomic::write_atomic_retry;
use sem_train::{RetryPolicy, RunOptions, TrainError, TrainEvent, TrainFaultPlan, WatchdogConfig};

/// A user-facing CLI failure.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError(e)
    }
}

impl From<sem_serve::ServeError> for CliError {
    fn from(e: sem_serve::ServeError) -> Self {
        CliError(e.to_string())
    }
}

impl From<TrainError> for CliError {
    fn from(e: TrainError) -> Self {
        CliError(e.to_string())
    }
}

/// Parsed `--flag value` arguments.
pub(crate) struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    pub(crate) fn parse(argv: &[String]) -> Result<Args, CliError> {
        Self::parse_with_switches(argv, &[])
    }

    /// Like [`Args::parse`], except the named flags are valueless switches:
    /// their presence means `true` and they consume no value.
    ///
    /// Parsing is order-insensitive and positionally unambiguous:
    ///
    /// - a value flag never swallows a following `--flag` token — `--out
    ///   --resume` is "--out needs a value", not `out = "--resume"`;
    /// - switches accept an optional explicit `--flag=true|false`, so
    ///   scripts can override a default without positional tricks;
    /// - `--flag=value` works for value flags too;
    /// - repeating a flag is an error instead of a silent last-one-wins.
    pub(crate) fn parse_with_switches(
        argv: &[String],
        switches: &[&str],
    ) -> Result<Args, CliError> {
        let mut flags = HashMap::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            let Some(raw) = a.strip_prefix("--") else {
                return Err(CliError(format!("unexpected argument {a:?}")));
            };
            let (name, inline) = match raw.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (raw, None),
            };
            if name.is_empty() {
                return Err(CliError(format!("unexpected argument {a:?}")));
            }
            let value = if switches.contains(&name) {
                match inline {
                    None => "true".to_string(),
                    Some(v) if v == "true" || v == "false" => v,
                    Some(v) => {
                        return Err(CliError(format!(
                            "--{name} is a switch; expected true or false, got {v:?}"
                        )))
                    }
                }
            } else {
                match inline {
                    Some(v) => v,
                    None => match it.peek() {
                        Some(v) if !v.starts_with("--") => it.next().expect("peeked value").clone(),
                        _ => return Err(CliError(format!("--{name} needs a value"))),
                    },
                }
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(CliError(format!("--{name} given more than once")));
            }
        }
        Ok(Args { flags })
    }

    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    pub(crate) fn switch(&self, name: &str) -> bool {
        self.get(name) == Some("true")
    }

    pub(crate) fn required(&self, name: &str) -> Result<&str, CliError> {
        self.get(name).ok_or_else(|| CliError(format!("missing required --{name}")))
    }

    pub(crate) fn parse_num<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError(format!("--{name}: cannot parse {v:?}"))),
        }
    }
}

/// Dispatches a full argv (without the program name). Returns the text to
/// print on success.
///
/// # Errors
/// Returns [`CliError`] for unknown commands, bad flags, or IO problems.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some(cmd) = argv.first() else {
        return Ok(help());
    };
    // two-word serve-family commands parse their own tails
    match cmd.as_str() {
        "index" => return crate::serve_cmds::index(&argv[1..]),
        "ingest" => return crate::serve_cmds::ingest(&Args::parse(&argv[1..])?),
        _ => {}
    }
    let args = match cmd.as_str() {
        "train" => Args::parse_with_switches(&argv[1..], &["progress", "resume", "watchdog"])?,
        _ => Args::parse(&argv[1..])?,
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(help()),
        "generate" => generate(&args),
        "stats" => stats(&args),
        "train" => train(&args),
        "embed" => embed(&args),
        "analyze" => analyze(&args),
        "recommend" => recommend(&args),
        "metrics" => crate::metrics_cmd::metrics(&args),
        other => Err(CliError(format!("unknown command {other:?}; try `sem help`"))),
    }
}

fn help() -> String {
    "sem — subspace embedding & new-paper recommendation toolkit

USAGE:
  sem generate  --preset acm|scopus|scopus3|pubmed|patent [--papers N] [--authors N] [--seed S] --out corpus.json
  sem stats     --corpus corpus.json
  sem train     --corpus corpus.json --out model-dir [--epochs N] [--workers N]
                [--checkpoint-dir DIR [--checkpoint-every N] [--resume]] [--progress]
                [--metrics-out metrics.json]
                [--watchdog [--max-rollbacks N] [--grad-spike-threshold F]]
                [--fault-nan-step N] [--fault-ckpt-failures N]
  sem embed     --model model-dir --paper ID
  sem metrics   --in metrics.json [--format table|json]
  sem analyze   --corpus corpus.json [--lof-k K]
  sem recommend --corpus corpus.json --split YEAR --user ID [--top N]

training runs on the shared runtime: `--workers N` parallelises gradient
computation (bit-identical results for any N), `--checkpoint-dir` writes
atomic per-epoch checkpoints, `--resume` continues from the latest valid
one, and `--progress` streams per-epoch events to stderr.

`--watchdog` arms the training watchdog: every step is screened for
non-finite or exploding loss/gradients and poisoned parameters; a trip
rolls the epoch back to its last valid state, backs the learning rate
off, and retries with a reshuffled batch order (up to `--max-rollbacks`
strikes, then the run fails as diverged). Recovery actions stream to
`--progress` and count into `--metrics-out` (watchdog.trips /
watchdog.rollbacks / watchdog.lr_backoffs). `--fault-nan-step N` and
`--fault-ckpt-failures N` inject deterministic faults (a NaN loss at
optimizer step N; N transient checkpoint-write failures) to drill the
recovery path.

serving (JSON output):
  sem index build  --model model-dir --out index.snap [--shards N] [--nlist N] [--nprobe N] [--flat-threshold N]
  sem index query  --model model-dir --index index.snap --paper ID[,ID...] [--k K] [--deadline-ms MS]
                   [--metrics-out metrics.json]
  sem index verify --index index.snap
  sem index probe  --index index.snap [--check-store true] [--max-journal-entries N]
  sem index maintain --index index.snap [--compact] [--recluster] [--status]
  sem index migrate --index index.snap
  sem ingest       --model model-dir --index index.snap --title T --abstract TEXT [--year Y] [--k K]
                   [--out index.snap] [--metrics-out metrics.json]

index files are crash-safe binary snapshots (SEMSNAP v4: checksummed
header + per-section checksums, atomic rename) with a write-ahead journal
alongside (<index>.journal); `index verify` checks both and `index
query`/`ingest` recover to the last durable state automatically. Stores
written before v4 (JSON payloads) are converted once, offline, with
`index migrate`. `--deadline-ms` bounds per-query latency: an exhausted
budget returns a partial result flagged degraded instead of blocking.

`--shards N` (N > 1) builds a sharded family — `<out>.shard0..N-1` plus
`<out>.manifest` — that query/ingest/verify detect automatically: queries
fan out across shards and merge, an ingest journals to exactly the owning
shard, and `index verify` reports per-shard integrity (non-zero exit if
any shard fails). The `loadgen` binary (sem-serve crate) drives the
sharded path with open-loop fixed-QPS load and reports p50/p90/p99 JSON;
`--churn` soaks live maintenance (backpressured streaming ingest, online
compaction, drift re-clustering). `index probe --check-store true
--max-journal-entries N` alarms on journal tails that outgrew their
compaction budget; `index maintain` compacts/re-clusters a family online.

observability: `--metrics-out PATH` on train / index query / ingest writes
the run's metrics snapshot as JSON at PATH and Prometheus text at
PATH-with-.prom-extension (per-stage latency histograms, cache and
degradation counters, training wall times); `sem metrics` pretty-prints a
saved snapshot.
"
    .to_string()
}

fn load_corpus(path: &str) -> Result<Corpus, CliError> {
    let json = std::fs::read_to_string(path)?;
    Ok(Corpus::from_json(&json)?)
}

fn generate(args: &Args) -> Result<String, CliError> {
    let preset = args.required("preset")?;
    let mut cfg = match preset {
        "acm" => presets::acm_like(1),
        "scopus" => presets::scopus_like(1),
        "scopus3" => presets::scopus_three_disciplines(1),
        "pubmed" => presets::pubmed_like(1),
        "patent" => presets::patent_like(1),
        other => return Err(CliError(format!("unknown preset {other:?}"))),
    };
    cfg.n_papers = args.parse_num("papers", cfg.n_papers)?;
    cfg.n_authors = args.parse_num("authors", cfg.n_authors)?;
    cfg.seed = args.parse_num("seed", cfg.seed)?;
    let out = args.required("out")?;
    let corpus = Corpus::generate(cfg);
    std::fs::write(out, corpus.to_json())?;
    Ok(format!("wrote {} papers / {} authors to {out}", corpus.papers.len(), corpus.authors.len()))
}

fn stats(args: &Args) -> Result<String, CliError> {
    let corpus = load_corpus(args.required("corpus")?)?;
    let s = corpus.stats();
    Ok(format!(
        "{name}\n  papers: {papers}\n  authors (with publications): {authors}\n  keywords: {kw}\n  venues: {venues}\n  classes: {classes}\n  affiliations: {aff}\n  years: {y0}-{y1}",
        name = s.name,
        papers = s.papers,
        authors = s.authors,
        kw = s.keywords,
        venues = s.venues,
        classes = s.classes,
        aff = s.affiliations,
        y0 = s.year_min,
        y1 = s.year_max,
    ))
}

/// Model directory layout used by `train`/`embed`.
struct ModelDir {
    dir: PathBuf,
}

impl ModelDir {
    fn corpus_path(&self) -> PathBuf {
        self.dir.join("corpus.json")
    }

    fn config_path(&self) -> PathBuf {
        self.dir.join("sem_config.json")
    }

    fn weights_path(&self) -> PathBuf {
        self.dir.join("sem_weights.json")
    }

    fn pipeline_path(&self) -> PathBuf {
        self.dir.join("pipeline.json")
    }
}

/// Serialisable subset of [`SemConfig`] (the rest are training-only knobs
/// that do not affect the architecture).
#[derive(serde::Serialize, serde::Deserialize)]
struct StoredSemConfig {
    input_dim: usize,
    hidden: usize,
    attn: usize,
    seed: u64,
}

impl StoredSemConfig {
    fn to_config(&self) -> SemConfig {
        SemConfig {
            input_dim: self.input_dim,
            hidden: self.hidden,
            attn: self.attn,
            seed: self.seed,
            ..Default::default()
        }
    }
}

fn fit_pipeline(corpus: &Corpus) -> (TextPipeline, Vec<Vec<Subspace>>) {
    let pipeline = TextPipeline::fit(corpus, PipelineConfig::default());
    let labels = pipeline.label_corpus(corpus);
    (pipeline, labels)
}

fn train(args: &Args) -> Result<String, CliError> {
    let corpus_path = args.required("corpus")?;
    let corpus = load_corpus(corpus_path)?;
    let out = ModelDir { dir: PathBuf::from(args.required("out")?) };
    std::fs::create_dir_all(&out.dir)?;

    let (pipeline, labels) = fit_pipeline(&corpus);
    let scorer =
        RuleScorer::new(&corpus, &pipeline.vocab, &pipeline.embeddings, &pipeline.encoder, &labels);
    let epochs = args.parse_num("epochs", 8usize)?;
    let config = SemConfig { epochs, ..Default::default() };
    let mut model = SemModel::new(config.clone());
    let registry = args.get("metrics-out").map(|_| std::sync::Arc::new(sem_obs::Registry::new()));
    let watchdog = if args.switch("watchdog") {
        Some(WatchdogConfig {
            max_rollbacks: args.parse_num("max-rollbacks", 3usize)?,
            grad_spike_factor: args.parse_num("grad-spike-threshold", 10.0f32)?,
            ..WatchdogConfig::default()
        })
    } else {
        None
    };
    // Deterministic fault injection for the CI smoke and local recovery
    // drills; both flags default to no injection.
    let mut fault = TrainFaultPlan::none();
    if let Some(step) = args.get("fault-nan-step") {
        fault = fault.with_nan_loss_at(
            step.parse().map_err(|_| CliError(format!("--fault-nan-step: bad step {step:?}")))?,
        );
    }
    fault.checkpoint_write_failures = args.parse_num("fault-ckpt-failures", 0usize)?;
    let opts = RunOptions {
        workers: args.parse_num("workers", 0usize)?,
        checkpoint_dir: args.get("checkpoint-dir").map(PathBuf::from),
        checkpoint_every: args.parse_num("checkpoint-every", 0usize)?,
        resume: args.switch("resume"),
        metrics: registry.clone(),
        watchdog,
        fault,
        ..Default::default()
    };
    let progress = args.switch("progress");
    let report = model.train_with(&pipeline, &corpus, &scorer, &labels, &opts, &mut |e| {
        if progress {
            eprintln!("{}", format_event(e));
        }
    })?;
    if let (Some(registry), Some(path)) = (&registry, args.get("metrics-out")) {
        crate::metrics_cmd::write_metrics_out(registry, path)?;
    }

    // persist: corpus copy + fitted pipeline + architecture config + weights
    // (atomic writes with transient-IO retry, same policy as checkpoints)
    let retry = RetryPolicy::default();
    std::fs::copy(corpus_path, out.corpus_path())?;
    write_atomic_retry(&out.pipeline_path(), pipeline.to_json().as_bytes(), &retry)?;
    let stored = StoredSemConfig {
        input_dim: config.input_dim,
        hidden: config.hidden,
        attn: config.attn,
        seed: config.seed,
    };
    let stored_json = serde_json::to_string_pretty(&stored)
        .map_err(|e| CliError(format!("config serialisation: {e}")))?;
    write_atomic_retry(&out.config_path(), stored_json.as_bytes(), &retry)?;
    write_atomic_retry(&out.weights_path(), model.weights_to_json().as_bytes(), &retry)?;
    let resumed = match report.resumed_from {
        Some(e) => format!(" (resumed after epoch {})", e + 1),
        None => String::new(),
    };
    Ok(format!(
        "trained SEM ({} epochs){}: loss {:.4} -> {:.4}, triplet accuracy {:.3}; model saved to {}",
        epochs,
        resumed,
        report.epoch_losses.first().unwrap_or(&f32::NAN),
        report.epoch_losses.last().unwrap_or(&f32::NAN),
        report.triplet_accuracy,
        out.dir.display(),
    ))
}

/// One human-readable line per [`TrainEvent`] for `--progress` output.
fn format_event(e: &TrainEvent) -> String {
    match e {
        TrainEvent::Resumed { epoch, path } => {
            format!("resumed after epoch {} from {}", epoch + 1, path.display())
        }
        TrainEvent::Epoch { epoch, epochs, loss, items, examples_per_sec, elapsed_ms } => format!(
            "epoch {}/{}: loss {loss:.4} ({items} items, {examples_per_sec:.0} items/s, {elapsed_ms} ms)",
            epoch + 1,
            epochs,
        ),
        TrainEvent::Checkpoint { epoch, path } => {
            format!("checkpoint after epoch {}: {}", epoch + 1, path.display())
        }
        TrainEvent::WatchdogTrip { epoch, step, detail } => {
            format!("watchdog tripped at epoch {} step {step}: {detail}", epoch + 1)
        }
        TrainEvent::RolledBack { epoch, attempt, strikes, lr } => format!(
            "rolled back epoch {} (retry {attempt}, strike {strikes}); lr backed off to {lr:.3e}",
            epoch + 1,
        ),
        TrainEvent::LrBackoff { epoch, lr, detail } => {
            format!("lr backed off to {lr:.3e} after epoch {}: {detail}", epoch + 1)
        }
    }
}

/// Everything a model directory reloads: corpus, frozen text pipeline,
/// predicted sentence labels and the trained SEM model.
pub(crate) type LoadedModel = (Corpus, TextPipeline, Vec<Vec<Subspace>>, SemModel);

pub(crate) fn load_model(dir: &Path) -> Result<LoadedModel, CliError> {
    let md = ModelDir { dir: dir.to_path_buf() };
    let corpus =
        load_corpus(md.corpus_path().to_str().ok_or_else(|| CliError("bad path".into()))?)?;
    let stored: StoredSemConfig = serde_json::from_str(&std::fs::read_to_string(md.config_path())?)
        .map_err(|e| CliError(e.to_string()))?;
    let weights = std::fs::read_to_string(md.weights_path())?;
    let model = SemModel::from_json(stored.to_config(), &weights)?;
    // prefer the persisted pipeline; refit deterministically if absent
    // (older model dirs) — both paths yield identical components
    let (pipeline, labels) = match std::fs::read_to_string(md.pipeline_path()) {
        Ok(json) => {
            let pipeline = TextPipeline::from_json(&json)?;
            let labels = pipeline.label_corpus(&corpus);
            (pipeline, labels)
        }
        Err(_) => fit_pipeline(&corpus),
    };
    Ok((corpus, pipeline, labels, model))
}

fn embed(args: &Args) -> Result<String, CliError> {
    let dir = PathBuf::from(args.required("model")?);
    let paper_id: usize = args.parse_num("paper", usize::MAX)?;
    let (corpus, pipeline, labels, model) = load_model(&dir)?;
    if paper_id >= corpus.papers.len() {
        return Err(CliError(format!("--paper must be in 0..{}", corpus.papers.len())));
    }
    let paper = &corpus.papers[paper_id];
    let h = pipeline.encode_paper(paper);
    let emb = model.embed(&h, &labels[paper_id]);
    let mut out = format!("paper {} — {:?} ({})\n", paper_id, paper.title, paper.year);
    for (k, v) in emb.iter().enumerate() {
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        out.push_str(&format!(
            "  {}: dim {}, ||c|| = {:.4}, head = {:?}\n",
            Subspace::from_index(k).name(),
            v.len(),
            norm,
            &v[..4.min(v.len())],
        ));
    }
    Ok(out)
}

fn analyze(args: &Args) -> Result<String, CliError> {
    let corpus = load_corpus(args.required("corpus")?)?;
    let lof_k = args.parse_num("lof-k", 20usize)?;
    let (pipeline, labels) = fit_pipeline(&corpus);
    let scorer =
        RuleScorer::new(&corpus, &pipeline.vocab, &pipeline.embeddings, &pipeline.encoder, &labels);
    let mut model = SemModel::new(SemConfig::default());
    model.train(&pipeline, &corpus, &scorer, &labels);
    let text = model.embed_corpus(&pipeline, &corpus, &labels);

    let mut out = String::from("innovation analysis (Spearman of subspace LOF vs citations):\n");
    for (d, prof) in corpus.config.disciplines.iter().enumerate() {
        let members: Vec<usize> =
            corpus.papers.iter().filter(|p| p.discipline == d).map(|p| p.id.index()).collect();
        if members.len() < lof_k + 2 {
            continue;
        }
        let emb: Vec<Vec<Vec<f32>>> = members.iter().map(|&i| text[i].clone()).collect();
        let outliers = analysis::subspace_outliers(&emb, lof_k);
        let cites: Vec<f64> =
            members.iter().map(|&i| corpus.papers[i].citations_received as f64).collect();
        let rho = analysis::outlier_citation_correlation(&outliers, &cites);
        let best = (0..NUM_SUBSPACES)
            .max_by(|&a, &b| rho[a].total_cmp(&rho[b]))
            .ok_or_else(|| CliError("no subspaces to rank".into()))?;
        out.push_str(&format!(
            "  {:20} background={:+.3} method={:+.3} result={:+.3}  (innovation lives in `{}`)\n",
            prof.name,
            rho[0],
            rho[1],
            rho[2],
            Subspace::from_index(best).name(),
        ));
    }
    Ok(out)
}

fn recommend(args: &Args) -> Result<String, CliError> {
    let corpus = load_corpus(args.required("corpus")?)?;
    let split: u16 = args.parse_num("split", 2014)?;
    let user = AuthorId(args.parse_num::<u32>("user", 0)?);
    let top: usize = args.parse_num("top", 5)?;
    if user.index() >= corpus.authors.len() {
        return Err(CliError(format!("--user must be in 0..{}", corpus.authors.len())));
    }

    let (pipeline, labels) = fit_pipeline(&corpus);
    let scorer =
        RuleScorer::new(&corpus, &pipeline.vocab, &pipeline.embeddings, &pipeline.encoder, &labels);
    let mut sem = SemModel::new(SemConfig { epochs: 6, ..Default::default() });
    sem.train(&pipeline, &corpus, &scorer, &labels);
    let text = sem.embed_corpus(&pipeline, &corpus, &labels);
    let fusion = sem.fusion_weights();

    let graph = HeteroGraph::from_corpus(&corpus, Some(split));
    let mut pairs = build_training_pairs(
        &corpus,
        &scorer,
        &fusion,
        split,
        4,
        NegativeStrategy::Defuzzed { threshold: 0.0 },
        7,
    );
    pairs.truncate(20_000);
    let mut model = NpRecModel::new(
        graph.n_nodes(),
        NpRecConfig { text_dim: sem.embed_dim(), ..Default::default() },
    );
    model.train(&graph, Some(&text), &pairs);

    // candidate pool: all new papers; rank by the user's mean ŷ
    let task = RecTask::build(&corpus, split, 20.min(corpus.papers.len() / 4), usize::MAX, 1, 1);
    let rec = model.recommender(&graph, Some(&text), &task);
    let new_papers: Vec<PaperId> =
        corpus.papers.iter().filter(|p| p.year > split).map(|p| p.id).collect();
    let mut scored: Vec<(f64, PaperId)> =
        new_papers.iter().map(|&c| (rec.score(user, c), c)).collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut out =
        format!("top-{top} new-paper recommendations for author {} (split {split}):\n", user.0);
    for (rank, (score, p)) in scored.iter().take(top).enumerate() {
        let paper = corpus.paper(*p);
        out.push_str(&format!("  {}. [{score:.3}] {} ({})\n", rank + 1, paper.title, paper.year,));
    }
    if scored.first().map(|s| s.0) == Some(0.0) {
        out.push_str("  (user has no training-era history; scores are zero)\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sem-cli-test-{name}-{}", std::process::id()))
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_flag_value_ordering_is_unambiguous() {
        let switches = &["resume", "progress"];
        // switches and value flags can interleave in any order
        for argv in [
            argv(&["--resume", "--out", "dir", "--progress", "--epochs", "3"]),
            argv(&["--out", "dir", "--epochs", "3", "--resume", "--progress"]),
            argv(&["--progress", "--epochs", "3", "--resume", "--out", "dir"]),
        ] {
            let args = Args::parse_with_switches(&argv, switches).unwrap();
            assert_eq!(args.get("out"), Some("dir"));
            assert_eq!(args.parse_num("epochs", 0usize).unwrap(), 3);
            assert!(args.switch("resume") && args.switch("progress"));
        }
        // a value flag must not swallow the next --flag token
        let err = Args::parse_with_switches(&argv(&["--out", "--resume"]), switches)
            .err()
            .unwrap()
            .to_string();
        assert!(err.contains("--out needs a value"), "{err}");
        // trailing value flag without a value
        assert!(Args::parse_with_switches(&argv(&["--resume", "--out"]), switches).is_err());
    }

    #[test]
    fn args_inline_values_and_switch_overrides() {
        let switches = &["resume"];
        let args = Args::parse_with_switches(
            &argv(&["--out=dir", "--resume=false", "--epochs=4"]),
            switches,
        )
        .unwrap();
        assert_eq!(args.get("out"), Some("dir"));
        assert_eq!(args.parse_num("epochs", 0usize).unwrap(), 4);
        assert!(!args.switch("resume"), "--resume=false must read as off");
        assert!(
            Args::parse_with_switches(&argv(&["--resume=maybe"]), switches).is_err(),
            "switches only accept true/false"
        );
        // inline values may themselves start with dashes
        let args = Args::parse(&argv(&["--title=--weird--"])).unwrap();
        assert_eq!(args.get("title"), Some("--weird--"));
    }

    #[test]
    fn args_reject_duplicates_and_bare_dashes() {
        let err = Args::parse(&argv(&["--out", "a", "--out", "b"])).err().unwrap().to_string();
        assert!(err.contains("more than once"), "{err}");
        assert!(
            Args::parse_with_switches(&argv(&["--resume", "--resume"]), &["resume"]).is_err(),
            "duplicate switches are also errors"
        );
        assert!(Args::parse(&argv(&["--", "x"])).is_err());
        assert!(Args::parse(&argv(&["--=v"])).is_err());
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&argv(&["help"])).unwrap().contains("recommend"));
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&argv(&["generate", "--preset"])).is_err()); // missing value
        assert!(run(&argv(&["generate", "oops"])).is_err()); // not a flag
    }

    #[test]
    fn generate_stats_roundtrip() {
        let corpus_path = tmp("corpus.json");
        let out = run(&argv(&[
            "generate",
            "--preset",
            "patent",
            "--papers",
            "80",
            "--authors",
            "40",
            "--out",
            corpus_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("80 papers"));
        let stats = run(&argv(&["stats", "--corpus", corpus_path.to_str().unwrap()])).unwrap();
        assert!(stats.contains("papers: 80"));
        assert!(stats.contains("venues: 0"));
        std::fs::remove_file(&corpus_path).ok();
    }

    #[test]
    fn generate_rejects_bad_preset_and_numbers() {
        assert!(run(&argv(&["generate", "--preset", "nope", "--out", "/tmp/x.json"])).is_err());
        assert!(run(&argv(&[
            "generate",
            "--preset",
            "acm",
            "--papers",
            "many",
            "--out",
            "/tmp/x.json"
        ]))
        .is_err());
    }

    #[test]
    fn train_checkpoints_and_resumes() {
        let corpus_path = tmp("ckpt-corpus.json");
        let model_dir = tmp("ckpt-model");
        let ckpt_dir = tmp("ckpt-dir");
        std::fs::remove_dir_all(&ckpt_dir).ok();
        run(&argv(&[
            "generate",
            "--preset",
            "acm",
            "--papers",
            "120",
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
            "2",
            "--checkpoint-dir",
            ckpt_dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(ckpt_dir.join("ckpt-00001.json").exists());
        let out = run(&argv(&[
            "train",
            "--corpus",
            corpus_path.to_str().unwrap(),
            "--out",
            model_dir.to_str().unwrap(),
            "--epochs",
            "3",
            "--checkpoint-dir",
            ckpt_dir.to_str().unwrap(),
            "--resume",
        ]))
        .unwrap();
        assert!(out.contains("resumed after epoch 2"), "{out}");
        std::fs::remove_file(&corpus_path).ok();
        std::fs::remove_dir_all(&model_dir).ok();
        std::fs::remove_dir_all(&ckpt_dir).ok();
    }

    #[test]
    fn train_watchdog_recovers_from_injected_nan() {
        let corpus_path = tmp("wd-corpus.json");
        let model_dir = tmp("wd-model");
        run(&argv(&[
            "generate",
            "--preset",
            "acm",
            "--papers",
            "120",
            "--authors",
            "50",
            "--out",
            corpus_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&argv(&[
            "train",
            "--corpus",
            corpus_path.to_str().unwrap(),
            "--out",
            model_dir.to_str().unwrap(),
            "--epochs",
            "2",
            "--watchdog",
            "--fault-nan-step",
            "0",
        ]))
        .unwrap();
        assert!(out.contains("trained SEM"), "{out}");
        // the injected NaN was rolled back: reported losses are finite
        assert!(!out.contains("NaN"), "{out}");
        // bad fault flags are rejected up front
        assert!(run(&argv(&[
            "train",
            "--corpus",
            corpus_path.to_str().unwrap(),
            "--out",
            model_dir.to_str().unwrap(),
            "--fault-nan-step",
            "soon",
        ]))
        .is_err());
        std::fs::remove_file(&corpus_path).ok();
        std::fs::remove_dir_all(&model_dir).ok();
    }

    #[test]
    fn train_embed_roundtrip() {
        let corpus_path = tmp("train-corpus.json");
        let model_dir = tmp("model");
        run(&argv(&[
            "generate",
            "--preset",
            "acm",
            "--papers",
            "150",
            "--authors",
            "60",
            "--out",
            corpus_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&argv(&[
            "train",
            "--corpus",
            corpus_path.to_str().unwrap(),
            "--out",
            model_dir.to_str().unwrap(),
            "--epochs",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("trained SEM"));
        let emb =
            run(&argv(&["embed", "--model", model_dir.to_str().unwrap(), "--paper", "3"])).unwrap();
        assert!(emb.contains("background"));
        assert!(emb.contains("method"));
        // out-of-range paper id
        assert!(run(&argv(&[
            "embed",
            "--model",
            model_dir.to_str().unwrap(),
            "--paper",
            "100000",
        ]))
        .is_err());
        std::fs::remove_file(&corpus_path).ok();
        std::fs::remove_dir_all(&model_dir).ok();
    }
}
