//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` is rendered from these tables
//! (`sem-perf --emit-benchmark-json`), and a run refuses to print a
//! result whose names differ from them.

use std::fmt::Write as _;

use crate::workloads;

/// Seconds one run measures; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u32 = 20;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression; at most 0.25. Set from the
    /// committed A/A runs (`results/README.md`).
    pub bound: f64,
}

/// A per-layer metric: one layer's time, work or ratio. No bound.
pub struct PerLayer {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "higher" }
}

/// The end-to-end metrics; every workload reports all of them. The issue
/// named 16; `ingest_p95_us` and `compaction_pause_ms` failed the A/A
/// (fsync tails: spread above 0.25 on a quiet host) and are per-layer
/// diagnostics now: `client.ingest.p95_us`, `maint.compact_pause.us`.
pub const END_TO_END: [EndToEnd; 14] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("query_p50_us", "us", "lower", 0.25),
    e2e("query_p95_us", "us", "lower", 0.25),
    e2e("query_per_s", "1/s", "higher", 0.25),
    e2e("recall_at_10", "ratio", "higher", 0.01),
    e2e("ingest_p50_us", "us", "lower", 0.25),
    e2e("ingest_per_s", "1/s", "higher", 0.25),
    e2e("compaction_total_ms", "ms", "lower", 0.25),
    e2e("recover_ms", "ms", "lower", 0.25),
    e2e("disk_bytes_per_vector_byte", "ratio", "lower", 0.02),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("pipeline_wall_s", "s", "lower", 0.25),
    e2e("new_paper_topk_ms", "ms", "lower", 0.25),
    e2e("ndcg_at_10", "ratio", "higher", 0.01),
];

/// The per-layer ledger; every traced run reports all of it.
pub const PER_LAYER: [PerLayer; 93] = [
    // host: the achievable lines scans and parallel calls are read against
    higher("host.memcpy_gbps", "GB/s"),
    lower("host.contig_dot_scan.ns_per_vec", "ns"),
    lower("host.thread_spawn_join2.us", "us"),
    // tensor
    lower("tensor.dot_sum_u8.ns_per_vec", "ns"),
    lower("tensor.sq8_score.ns_per_vec", "ns"),
    lower("tensor.sq8_prepare.us", "us"),
    lower("tensor.kmeans_10kx32.ms", "ms"),
    // serve.index
    lower("index.search_f32_flat.us", "us"),
    lower("index.search_sq8_flat.us", "us"),
    lower("index.search_ivf_f32.us", "us"),
    lower("index.search_ivf_sq8.us", "us"),
    lower("index.search_ivf_sq8_eighth.us", "us"),
    lower("index.search_ivf_sq8_eighth_k200.us", "us"),
    lower("index.search_exact.us", "us"),
    lower("index.search_k1.us", "us"),
    lower("index.search_k128.us", "us"),
    lower("index.search_f32_flat.minor_faults", "count"),
    lower("index.ns_per_vector.f32_flat", "ns"),
    lower("index.ns_per_vector.sq8_flat", "ns"),
    lower("index.ns_per_vector.exact", "ns"),
    higher("index.scan_gbps.f32_flat", "GB/s"),
    higher("index.scan_gbps.sq8_flat", "GB/s"),
    lower("index.build_ivf.ms", "ms"),
    lower("index.enable_sq8.ms", "ms"),
    lower("index.try_insert.us", "us"),
    lower("index.to_json_bytes.ms", "ms"),
    lower("index.from_json.ms", "ms"),
    lower("index.train_recluster.ms", "ms"),
    // serve.shard / serve.router
    lower("shard.merge_top_k_8x10.us", "us"),
    lower("router.query.us", "us"),
    lower("router.max_shard_search.us", "us"),
    lower("router.shard_search_critical.us", "us"),
    lower("router.scatter_replay.us", "us"),
    lower("router.merge_rerank.us", "us"),
    lower("router.unattributed.us", "us"),
    lower("router.query_batch32.us", "us"),
    lower("router.cache_hit.us", "us"),
    // serve.rerank
    lower("rerank.top10_from_200.us", "us"),
    lower("rerank.candidate_fetch.us", "us"),
    // serve.cache
    lower("cache.get_hit.ns", "ns"),
    lower("cache.get_miss.ns", "ns"),
    lower("cache.insert_evict.ns", "ns"),
    higher("cache.hit_rate", "ratio"),
    // serve.engine
    lower("engine.query.us", "us"),
    lower("engine.batch32.us", "us"),
    // serve.store
    lower("store.append_synced.us", "us"),
    lower("store.append_buffered.us", "us"),
    lower("store.sync.us", "us"),
    lower("store.save_snapshot.ms", "ms"),
    lower("store.load.ms", "ms"),
    lower("store.verify.ms", "ms"),
    lower("store.snapshot_bytes", "bytes"),
    lower("store.journal_bytes_per_record", "bytes"),
    lower("store.fsyncs", "count"),
    // serve.maintenance
    lower("maint.submit_drain64.us", "us"),
    lower("maint.compact_online.ms", "ms"),
    lower("maint.compact_pause.us", "us"),
    lower("maint.recluster.ms", "ms"),
    lower("client.query.p99_during_compaction_us", "us"),
    // client: diagnostics that tell slower work from a disturbed run
    lower("client.query.p99_us", "us"),
    lower("client.query.max_us", "us"),
    lower("client.ingest.p95_us", "us"),
    lower("client.ingest.p99_us", "us"),
    lower("client.oncpu_us_per_op", "us"),
    lower("client.runq_wait_us_per_op", "us"),
    lower("client.minor_faults_per_op", "count"),
    lower("client.block_iqr_pct", "%"),
    lower("client.peak_rss_exit_mb", "MiB"),
    // corpus / text / rules / graph / core / train / serve.embed
    lower("corpus.generate.ms", "ms"),
    lower("text.pipeline_fit.ms", "ms"),
    lower("text.label_corpus.ms", "ms"),
    lower("rules.scorer_build.ms", "ms"),
    lower("core.sem_train.ms", "ms"),
    lower("core.sem_epoch.ms", "ms"),
    lower("core.sem_embed_corpus.ms", "ms"),
    lower("graph.build.ms", "ms"),
    lower("core.nprec_train.ms", "ms"),
    lower("core.nprec_epoch_w1.ms", "ms"),
    lower("core.nprec_epoch_w2.ms", "ms"),
    lower("core.eval.ms", "ms"),
    lower("embed.embed_corpus.ms", "ms"),
    lower("embed.embed_new.us", "us"),
    lower("stage.index_build.ms", "ms"),
    lower("stage.store_persist.ms", "ms"),
    lower("pipeline.stage_sum_ms", "ms"),
    lower("pipeline.wall_ms", "ms"),
    lower("stage.pipeline_fit.rss_mb", "MiB"),
    lower("stage.sem_train.rss_mb", "MiB"),
    lower("stage.nprec_train.rss_mb", "MiB"),
    lower("stage.embed_corpus.rss_mb", "MiB"),
    lower("stage.store_persist.rss_mb", "MiB"),
    // the traced run itself
    lower("trace_overhead_pct", "%"),
    lower("trace.spans", "count"),
];

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmarks/perf/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmarks/perf\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in workloads::ALL.iter().enumerate() {
        let comma = if i + 1 < workloads::ALL.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            quoted(w.name),
            quoted(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            quoted(m.name),
            quoted(m.unit),
            quoted(m.better),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            quoted(m.name),
            quoted(m.unit),
            quoted(m.better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each value with all the digits it was measured with.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(&'static str, &'static str, f64)],
) -> String {
    let mut out =
        format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit, value)) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {{\"value\": {value}, \"unit\": {}}}", quoted(name), quoted(unit));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract() {
        let mut names = BTreeSet::new();
        for w in &workloads::ALL {
            assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the widest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "re-render with --emit-benchmark-json");
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_json(true, 10, 0, &[("a", "us", 1.234567890123), ("b", "s", 2.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.234567890123, \"unit\": \"us\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
    }
}
