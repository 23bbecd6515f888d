//! `sem-perf`: the repo's benchmark.
//!
//! ```text
//! sem-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scratch DIR]
//! ```
//!
//! One run generates its inputs from the seed, drives the library through
//! its public functions, checks the outputs and prints — as the last line
//! of standard output — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer ledger with `--trace 1`. See README.md.

mod gen;
mod host;
mod layers;
mod load;
mod metrics;
mod paper;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use load::Load;
use stats::{high_quartile_rate, iqr_pct, low_quartile_us, median, percentile, quartiles};
use trace::Tracer;
use workloads::{CorpusFrom, LatencyFrom, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Share of the untraced phase times a traced run spends on the phases
/// (the rest of its budget goes to the per-layer ledger).
const TRACED_SHARE: f64 = 0.35;

/// State shared by the phases of one run.
pub struct Ctx {
    /// Run seed.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    epoch: Instant,
    phase_start: Instant,
    ticks: (u64, u64),
    next_thread: usize,
    /// Finished tracers, one per load thread and phase.
    pub tracers: Vec<Tracer>,
    /// Operations issued so far.
    pub attempted: u64,
    /// Operations that failed, were refused or came back degraded.
    pub failed: u64,
    failures: Vec<String>,
}

impl Ctx {
    fn new(seed: u64, seconds: f64, traced: bool) -> Self {
        Ctx {
            seed,
            seconds,
            traced,
            epoch: Instant::now(),
            phase_start: Instant::now(),
            ticks: host::cpu_ticks(),
            next_thread: 0,
            tracers: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// A tracer for one load thread of one phase (recording only in the
    /// traced run).
    pub fn tracer(&mut self) -> Tracer {
        self.next_thread += 1;
        Tracer::new(self.traced, self.epoch, self.next_thread)
    }

    /// Seconds a time-boxed phase with `share` of the run gets.
    pub fn phase_seconds(&self, share: f64) -> f64 {
        share * self.seconds * if self.traced { TRACED_SHARE } else { 1.0 }
    }

    /// Cycles a counted phase runs, given its count at `--seconds 20`.
    pub fn cycles(&self, at_20s: usize) -> usize {
        let scale = self.seconds / 20.0 * if self.traced { 0.5 } else { 1.0 };
        ((at_20s as f64 * scale).round() as usize).max(3)
    }

    /// Fewest blocks a time-boxed phase runs. The traced run alternates
    /// traced and untraced blocks, so it needs twice as many.
    pub fn min_blocks(&self) -> usize {
        if self.traced {
            12
        } else {
            8
        }
    }

    /// Logs (to standard error) how long the phase that just ended took,
    /// so a run shows where its budget went.
    pub fn phase_done(&mut self, name: &str) {
        let now = Instant::now();
        let (steal, total) = host::cpu_ticks();
        eprintln!(
            "sem-perf: {name:<10} {:7.2} s  rss {:6.1} MiB  peak {:6.1} MiB steal {} of {} ticks",
            (now - self.phase_start).as_secs_f64(),
            host::rss_mb(),
            host::peak_rss_mb(),
            steal - self.ticks.0,
            total - self.ticks.1,
        );
        self.ticks = (steal, total);
        self.phase_start = now;
    }

    /// Adds a client's operation counts.
    pub fn count(&mut self, load: &Load) {
        self.attempted += load.attempted;
        self.failed += load.failed;
    }

    /// Records a failed output check.
    pub fn fail(&mut self, message: String) {
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }
}

/// Removes the run's scratch directory when dropped — on success, on a
/// failed check and on a panic alike.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        map.insert(name.to_string(), value.clone());
    }
    let get = |name: &str| map.get(name).ok_or_else(|| format!("missing --{name}"));
    let workload = get("workload")?;
    let workload = workloads::by_name(workload).ok_or_else(|| {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {workload:?}; one of {names:?}")
    })?;
    let seed = get("seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = match map.get("seconds") {
        Some(s) => s.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?,
        None => f64::from(metrics::RUN_SECONDS),
    };
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=60"));
    }
    let traced = match map.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    let scratch = PathBuf::from(map.get("scratch").map_or("perf-scratch", String::as_str));
    Ok(Args { workload, seed, seconds, traced, scratch })
}

/// The inputs and the fixture one set-up produced.
struct Setup {
    inputs: paper::Inputs,
    fixture: Option<serve::Fixture>,
    generate_ms: f64,
}

/// Generates the inputs and, for a synthetic corpus, builds and persists
/// the router — everything a run needs before its timed phases.
fn setup_once(w: &Workload, seed: u64, dir: &Path) -> Result<Setup, String> {
    let t = Instant::now();
    let inputs = paper::generate(&w.paper, seed);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let fixture = match w.corpus {
        CorpusFrom::Synthetic { vectors } => Some(
            serve::build_synthetic(&w.serve, vectors, seed, dir)
                .map_err(|e| format!("set-up: {e}"))?,
        ),
        CorpusFrom::Paper => None,
    };
    Ok(Setup { inputs, fixture, generate_ms })
}

fn p99_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return f64::NAN;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 99.0) as f64 / 1e3
}

type Values = Vec<(&'static str, &'static str, f64)>;

/// What set-up and the pipeline measured before the serving phases ran.
struct Fixed {
    setup_s: f64,
    pipeline_wall_s: f64,
    peak_rss_mb: f64,
}

/// Lower quartile of the repetitions of a counted phase: host noise only
/// ever adds time, so the quiet side of the distribution is the steady one.
fn low(values: &[f64]) -> f64 {
    quartiles(values)[0]
}

/// The end-to-end metrics. A phase that measured nothing leaves a NaN,
/// which `in_table_order` turns into a failed run.
fn end_to_end(
    w: &Workload,
    fixed: &Fixed,
    paper: &paper::PaperOut,
    serve: &serve::ServeOut,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("setup_s", fixed.setup_s);
    let latency = match w.latency_from {
        LatencyFrom::Lat => serve.lat.as_ref(),
        LatencyFrom::Mixed => Some(&serve.mixed_reader),
    };
    let blocks = latency.map(load::untraced).unwrap_or_default();
    m.insert("query_p50_us", low_quartile_us(&blocks, |b| b.p50_ns));
    m.insert("query_p95_us", low_quartile_us(&blocks, |b| b.p95_ns));
    m.insert("query_per_s", serve.thr.iter().map(|l| high_quartile_rate(&load::untraced(l))).sum());
    m.insert("recall_at_10", serve.recall_at_10);
    m.insert("ingest_p50_us", low_quartile_us(&load::untraced(&serve.mixed_writer), |b| b.p50_ns));
    m.insert("ingest_per_s", quartiles(&serve.stream_rates)[2]);
    m.insert("compaction_total_ms", low(&serve.compaction_total_ms));
    m.insert("recover_ms", low(&serve.recover_ms));
    m.insert("disk_bytes_per_vector_byte", serve.disk_bytes_per_vector_byte);
    m.insert("peak_rss_mb", fixed.peak_rss_mb);
    m.insert("pipeline_wall_s", fixed.pipeline_wall_s);
    m.insert("new_paper_topk_ms", low(&paper.topk_ms));
    m.insert("ndcg_at_10", paper.ndcg_at_10);
    m
}

/// The per-layer ledger: `ledger` from `layers::run` plus what the
/// workload's own traced phases measured.
fn per_layer(
    spans: usize,
    w: &Workload,
    generate_ms: f64,
    paper: &paper::PaperOut,
    serve: &serve::ServeOut,
    ledger: BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let mut m = ledger;
    // router: sampled requests replayed through the public functions
    let us = |pick: fn(&serve::ReplaySample) -> u64| -> f64 {
        let v: Vec<f64> = serve.replays.iter().map(|r| pick(r) as f64 / 1e3).collect();
        median(&v)
    };
    m.insert("router.query.us", us(|r| r.query_ns));
    m.insert("router.max_shard_search.us", us(|r| r.max_shard_ns));
    m.insert("router.shard_search_critical.us", us(|r| r.critical_ns));
    m.insert("router.scatter_replay.us", us(|r| r.scatter_ns));
    m.insert("router.merge_rerank.us", us(|r| r.post_merge_ns));
    m.insert("router.cache_hit.us", us(|r| r.cached_ns));
    // what the replay cannot name: the request's time minus the replayed
    // scatter (shard searches on scoped threads), the merge and the
    // rerank. A request the cache answered did none of those; only
    // scanned requests are attributed.
    let scanned: Vec<f64> = serve
        .replays
        .iter()
        .filter(|r| 2 * r.query_ns > r.scatter_ns + r.post_merge_ns)
        .map(|r| (r.query_ns as f64 - r.scatter_ns as f64 - r.post_merge_ns as f64) / 1e3)
        .collect();
    m.insert(
        "router.unattributed.us",
        if scanned.is_empty() { us(|r| r.query_ns) } else { median(&scanned) },
    );

    m.insert("cache.hit_rate", serve.cache_hit_rate);
    m.insert("store.fsyncs", serve.fsyncs);
    m.insert("maint.submit_drain64.us", median(&serve.stream_batch_us));
    m.insert("maint.compact_online.ms", median(&serve.compaction_total_ms));
    m.insert("maint.compact_pause.us", median(&serve.compaction_pause_us));
    m.insert("maint.recluster.ms", serve.recluster_ms);
    m.insert("client.query.p99_during_compaction_us", p99_us(&serve.during_compaction_ns));

    let latency = match w.latency_from {
        LatencyFrom::Lat => serve.lat.as_ref(),
        LatencyFrom::Mixed => Some(&serve.mixed_reader),
    };
    if let Some(l) = latency {
        m.insert("client.query.p99_us", p99_us(&l.all_ns));
        m.insert("client.query.max_us", l.all_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3);
        m.insert("client.oncpu_us_per_op", l.oncpu_ns as f64 / 1e3 / l.measured.max(1) as f64);
        m.insert("client.runq_wait_us_per_op", l.runq_ns as f64 / 1e3 / l.measured.max(1) as f64);
        m.insert("client.minor_faults_per_op", l.minor_faults as f64 / l.measured.max(1) as f64);
        let p50s: Vec<f64> = load::untraced(l).iter().map(|b| b.p50_ns as f64).collect();
        m.insert("client.block_iqr_pct", iqr_pct(&p50s));
        let untraced = low_quartile_us(&load::untraced(l), |b| b.p50_ns);
        let traced = low_quartile_us(&load::traced(l), |b| b.p50_ns);
        m.insert("trace_overhead_pct", (traced / untraced - 1.0) * 100.0);
    }
    m.insert(
        "client.ingest.p95_us",
        low_quartile_us(&load::untraced(&serve.mixed_writer), |b| b.p95_ns),
    );
    m.insert("client.ingest.p99_us", p99_us(&serve.mixed_writer.all_ns));

    m.insert("corpus.generate.ms", generate_ms);
    for (metric, stage) in [
        ("text.pipeline_fit.ms", "text.pipeline_fit"),
        ("text.label_corpus.ms", "text.label_corpus"),
        ("rules.scorer_build.ms", "rules.scorer_build"),
        ("core.sem_train.ms", "core.sem_train"),
        ("core.sem_embed_corpus.ms", "core.sem_embed_corpus"),
        ("graph.build.ms", "graph.build"),
        ("core.nprec_train.ms", "core.nprec_train"),
        ("core.eval.ms", "core.eval"),
        ("embed.embed_corpus.ms", "embed.embed_corpus"),
        ("stage.index_build.ms", "index.build"),
        ("stage.store_persist.ms", "store.persist"),
    ] {
        m.insert(metric, paper.stage_ms(stage));
    }
    m.insert("core.sem_epoch.ms", paper.stage_ms("core.sem_train") / w.paper.sem_epochs as f64);
    let (w1, w2) = paper.nprec_epoch_ms.unwrap_or((0.0, 0.0));
    m.insert("core.nprec_epoch_w1.ms", w1);
    m.insert("core.nprec_epoch_w2.ms", w2);
    m.insert("embed.embed_new.us", median(&paper.embed_new_us));
    m.insert("pipeline.stage_sum_ms", paper.stages.iter().map(|s| s.ms).sum());
    m.insert("pipeline.wall_ms", paper.wall_s * 1e3);
    for (metric, stage) in [
        ("stage.pipeline_fit.rss_mb", "text.pipeline_fit"),
        ("stage.sem_train.rss_mb", "core.sem_train"),
        ("stage.nprec_train.rss_mb", "core.nprec_train"),
        ("stage.embed_corpus.rss_mb", "embed.embed_corpus"),
        ("stage.store_persist.rss_mb", "store.persist"),
    ] {
        let rss = paper.stages.iter().find(|s| s.name == stage).map_or(0.0, |s| s.rss_mb);
        m.insert(metric, rss);
    }
    m.insert("client.peak_rss_exit_mb", host::peak_rss_mb());
    m.insert("trace.spans", spans as f64);
    m
}

/// Orders `found` as `table` lists it; any difference between the two
/// name sets, or a value that is not a finite number, fails the run.
fn in_table_order(
    ctx: &mut Ctx,
    table: &[(&'static str, &'static str)],
    found: &BTreeMap<&'static str, f64>,
) -> Values {
    for name in found.keys() {
        if !table.iter().any(|(n, _)| n == name) {
            ctx.fail(format!("metric {name} is not in the table"));
        }
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let value = found.get(name).copied().unwrap_or(f64::NAN);
            if !value.is_finite() {
                ctx.fail(format!("metric {name} has no finite value"));
                return (name, unit, 0.0);
            }
            (name, unit, value)
        })
        .collect()
}

/// Runs `job` `times` over, each time in a fresh directory under
/// `scratch`, dropping the previous product and its directory first.
/// Returns the last product and the seconds every run reported.
fn repeated<T>(
    scratch: &Path,
    name: &str,
    times: usize,
    mut job: impl FnMut(&Path) -> Result<(T, f64), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(times);
    let mut last: Option<(T, PathBuf)> = None;
    for rep in 0..times.max(1) {
        if let Some((product, dir)) = last.take() {
            drop(product);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = scratch.join(format!("{name}{rep}"));
        let (product, s) = job(&dir)?;
        seconds.push(s);
        last = Some((product, dir));
    }
    Ok((last.expect("ran at least once").0, seconds))
}

fn run(args: &Args, scratch: &Path) -> Result<(bool, String), String> {
    let w = args.workload;
    let mut ctx = Ctx::new(args.seed, args.seconds, args.traced);

    // set-up: several times over, the median is `setup_s`
    let repeats = if args.traced { 1 } else { SETUP_REPEATS };
    let (setup, setup_seconds) = repeated(scratch, "setup", repeats, |dir| {
        let t = Instant::now();
        let setup = setup_once(w, args.seed, dir)?;
        Ok((setup, t.elapsed().as_secs_f64()))
    })?;
    let Setup { inputs, fixture, generate_ms } = setup;
    ctx.phase_done("set-up");

    // the pipeline: a short one repeats
    let repeats = if args.traced { 1 } else { w.paper.repeats };
    let (mut paper_out, pipeline_walls) = repeated(scratch, "paper", repeats, |dir| {
        let out = paper::run(&mut ctx, &w.paper, &inputs, dir)?;
        let wall_s = out.wall_s;
        Ok((out, wall_s))
    })?;
    // everything so far repeats exactly from run to run; what follows is
    // time-boxed, so how much it allocates depends on the host's speed
    let peak_rss_mb = host::peak_rss_mb();
    let fixture = match fixture {
        Some(synthetic) => {
            // the small pipeline's own index has served its new papers
            paper_out.fixture = None;
            synthetic
        }
        None => paper_out.fixture.take().expect("the pipeline built a router"),
    };
    ctx.phase_done("pipeline");
    let serve_out = serve::run(&mut ctx, fixture, w);

    let values = if args.traced {
        let ledger = layers::run(args.seed, &scratch.join("ledger"));
        ctx.phase_done("ledger");
        let spans = ctx.tracers.iter().map(|t| t.spans().len()).sum();
        let found = per_layer(spans, w, generate_ms, &paper_out, &serve_out, ledger);
        let table: Vec<_> = metrics::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        let values = in_table_order(&mut ctx, &table, &found);
        let doc = trace::render_json(w.name, args.seed, &ctx.tracers);
        let path = args.scratch.join(format!("trace-{}.json", w.name));
        std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
        values
    } else {
        let fixed = Fixed {
            setup_s: median(&setup_seconds),
            pipeline_wall_s: quartiles(&pipeline_walls)[0],
            peak_rss_mb,
        };
        let found = end_to_end(w, &fixed, &paper_out, &serve_out);
        let table: Vec<_> = metrics::END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        in_table_order(&mut ctx, &table, &found)
    };
    for failure in &ctx.failures {
        eprintln!("check failed: {failure}");
    }
    let correct = ctx.failures.is_empty();
    Ok((correct, metrics::result_json(correct, ctx.attempted.max(1), ctx.failed, &values)))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--emit-benchmark-json") {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sem-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = args.scratch.join(format!("{}-{}", args.workload.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("sem-perf: {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let scratch = Scratch(dir);
    let outcome = run(&args, &scratch.0);
    drop(scratch);
    match outcome {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("sem-perf: {e}");
            ExitCode::from(2)
        }
    }
}
