//! The per-layer ledger: each layer's public functions timed alone, on a
//! corpus of the benchmark's own, so that a sum of layers can be read
//! against an end-to-end figure. Runs in the traced run only.
//!
//! Module = layer. Every number is the median over repeated calls.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use sem_serve::shard::global_id;
use sem_serve::{
    merge_top_k, AnnIndex, EngineConfig, Hit, IndexConfig, IndexStore, LruCache, QueryEngine,
    QueryRequest, RerankParams, ShardConfig, ShardRouter,
};
use sem_tensor::{kmeans, quant};

use crate::gen::{self, Mixture, DIM, FACET_DIM, FACET_NAMES};
use crate::stats::median;
use crate::workloads::K;

/// Vectors in the ledger's corpus (the synthetic workloads' size).
pub const VECTORS: usize = 20_000;
/// Vectors `tensor.kmeans_10kx32.ms` clusters.
const KMEANS_VECTORS: usize = 10_000;

/// Median wall time of `f` in microseconds: at least three calls, more
/// until `budget` is spent.
fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 10_000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    median(&samples)
}

/// Median nanoseconds per item of `f(i)` called in batches of `batch`
/// (for operations too short to time one by one).
fn time_ns_per(batch: usize, budget: Duration, mut f: impl FnMut(usize)) -> f64 {
    let mut next = 0usize;
    time_us(budget, || {
        for _ in 0..batch {
            f(next);
            next += 1;
        }
    }) * 1e3
        / batch as f64
}

const SHORT: Duration = Duration::from_millis(60);
const LONG: Duration = Duration::from_millis(250);

/// Bounded top-`K` over a stream of scores: the select a streaming scan
/// would use in place of materialising every `Hit`.
fn bounded_top_k(top: &mut Vec<(f32, usize)>, score: f32, id: usize) {
    if top.len() == K && score <= top[K - 1].0 {
        return;
    }
    let at = top.partition_point(|&(s, _)| s >= score);
    top.insert(at, (score, id));
    top.truncate(K);
}

fn host(m: &mut BTreeMap<&'static str, f64>, corpus: &[Vec<f32>], queries: &[Vec<f32>]) {
    // what the host can move: a 64 MiB copy, far beyond L2
    let src = vec![1u8; 64 << 20];
    let mut dst = vec![0u8; 64 << 20];
    let us = time_us(LONG, || {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
    });
    m.insert("host.memcpy_gbps", src.len() as f64 / (us * 1e3));

    // the line scans are read against: one row-major matrix, a running
    // threshold, no per-vector allocation
    let flat: Vec<f32> = corpus.iter().flatten().copied().collect();
    let mut qi = 0usize;
    let us = time_us(LONG, || {
        let q = &queries[qi % queries.len()];
        qi += 1;
        let mut top: Vec<(f32, usize)> = Vec::with_capacity(K + 1);
        for (id, row) in flat.chunks_exact(DIM).enumerate() {
            let score: f32 = row.iter().zip(q).map(|(x, y)| x * y).sum();
            bounded_top_k(&mut top, score, id);
        }
        std::hint::black_box(top);
    });
    m.insert("host.contig_dot_scan.ns_per_vec", us * 1e3 / corpus.len() as f64);

    // what the vendored rayon pays per parallel call: two scoped threads
    let us = time_us(SHORT, || {
        std::thread::scope(|s| {
            s.spawn(|| std::hint::black_box(1));
            s.spawn(|| std::hint::black_box(2));
        });
    });
    m.insert("host.thread_spawn_join2.us", us);
}

fn tensor(m: &mut BTreeMap<&'static str, f64>, corpus: &[Vec<f32>], queries: &[Vec<f32>]) {
    let widths = vec![FACET_DIM; FACET_NAMES.len()];
    let scales = quant::fit_scales(corpus.iter().map(Vec::as_slice), &widths)
        .expect("finite vectors have scales");
    let mut codes = Vec::with_capacity(corpus.len() * DIM);
    let mut buf = Vec::new();
    for v in corpus {
        quant::quantize_into(v, &widths, &scales, &mut buf);
        codes.extend_from_slice(&buf);
    }
    let q_codes = quant::quantize(&queries[0], &widths, &scales);
    let us = time_us(LONG, || {
        let mut acc = 0u64;
        for row in codes.chunks_exact(DIM) {
            let (d, s) = quant::dot_sum_u8(&q_codes, row);
            acc += u64::from(d) + u64::from(s);
        }
        std::hint::black_box(acc);
    });
    m.insert("tensor.dot_sum_u8.ns_per_vec", us * 1e3 / corpus.len() as f64);

    let prepared = quant::Sq8Query::prepare(&queries[0], &widths, &scales);
    let us = time_us(LONG, || {
        let mut acc = 0.0f32;
        for row in codes.chunks_exact(DIM) {
            acc += prepared.score(row);
        }
        std::hint::black_box(acc);
    });
    m.insert("tensor.sq8_score.ns_per_vec", us * 1e3 / corpus.len() as f64);

    let mut qi = 0usize;
    let us = time_us(SHORT, || {
        qi += 1;
        std::hint::black_box(quant::Sq8Query::prepare(
            &queries[qi % queries.len()],
            &widths,
            &scales,
        ));
    });
    m.insert("tensor.sq8_prepare.us", us);

    let mut sample: Vec<Vec<f32>> = corpus[..KMEANS_VECTORS].to_vec();
    for v in &mut sample {
        kmeans::normalize(v);
    }
    let us = time_us(LONG, || {
        std::hint::black_box(kmeans::spherical_kmeans(&sample, 100, 8, 0x5e7e));
    });
    m.insert("tensor.kmeans_10kx32.ms", us / 1e3);
}

/// The indexes later layers are measured over.
struct Indexes {
    flat_f32: AnnIndex,
    ivf_sq8: AnnIndex,
}

fn index(
    m: &mut BTreeMap<&'static str, f64>,
    corpus: &[Vec<f32>],
    queries: &[Vec<f32>],
) -> Indexes {
    let flat_cfg = IndexConfig { flat_threshold: usize::MAX, ..IndexConfig::default() };
    let ivf_cfg = IndexConfig { flat_threshold: 1, ..IndexConfig::default() };
    let layout = gen::facet_layout();
    let flat_f32 = AnnIndex::build(corpus.to_vec(), flat_cfg)
        .with_layout(layout.clone())
        .expect("layout fits");
    let mut built = None;
    let us = time_us(LONG, || built = Some(AnnIndex::build(corpus.to_vec(), ivf_cfg)));
    m.insert("index.build_ivf.ms", us / 1e3);
    let ivf_f32 = built.expect("built at least once").with_layout(layout).expect("layout fits");
    let mut ivf_sq8 = ivf_f32.clone();
    let us = time_us(SHORT, || ivf_sq8.enable_sq8().expect("finite vectors quantize"));
    m.insert("index.enable_sq8.ms", us / 1e3);
    let flat_sq8 = flat_f32.clone().with_sq8().expect("finite vectors quantize");

    let n = corpus.len() as f64;
    let search = |ix: &AnnIndex, k: usize| {
        let mut qi = 0usize;
        time_us(LONG, || {
            qi += 1;
            std::hint::black_box(ix.search(&queries[qi % queries.len()], k));
        })
    };
    let faults = crate::host::minor_faults();
    let mut searches = 0u64;
    let f32_flat = {
        let mut qi = 0usize;
        time_us(LONG, || {
            qi += 1;
            searches += 1;
            std::hint::black_box(flat_f32.search(&queries[qi % queries.len()], K));
        })
    };
    m.insert(
        "index.search_f32_flat.minor_faults",
        (crate::host::minor_faults() - faults) as f64 / searches as f64,
    );
    let sq8_flat = search(&flat_sq8, K);
    m.insert("index.search_f32_flat.us", f32_flat);
    m.insert("index.search_sq8_flat.us", sq8_flat);
    m.insert("index.search_ivf_f32.us", search(&ivf_f32, K));
    m.insert("index.search_ivf_sq8.us", search(&ivf_sq8, K));
    m.insert("index.search_k1.us", search(&flat_f32, 1));
    m.insert("index.search_k128.us", search(&flat_f32, 128));
    // a flat scan touches every vector, so work per vector is known from
    // outside; an IVF scan's is not without counters inside the index
    m.insert("index.ns_per_vector.f32_flat", f32_flat * 1e3 / n);
    m.insert("index.ns_per_vector.sq8_flat", sq8_flat * 1e3 / n);
    m.insert("index.scan_gbps.f32_flat", n * DIM as f64 * 4.0 / (f32_flat * 1e3));
    m.insert("index.scan_gbps.sq8_flat", n * DIM as f64 / (sq8_flat * 1e3));
    let mut qi = 0usize;
    let exact = time_us(LONG, || {
        qi += 1;
        std::hint::black_box(flat_f32.search_exact(&queries[qi % queries.len()], K));
    });
    m.insert("index.search_exact.us", exact);
    m.insert("index.ns_per_vector.exact", exact * 1e3 / n);

    // one shard's worth of an 8-way split, alone: eight of these against
    // one `search_ivf_sq8` is what sharding costs before any thread starts
    let eighth = AnnIndex::build(corpus[..corpus.len() / 8].to_vec(), ivf_cfg)
        .with_layout(gen::facet_layout())
        .and_then(AnnIndex::with_sq8)
        .expect("an eighth of the corpus builds");
    m.insert("index.search_ivf_sq8_eighth.us", search(&eighth, K));
    m.insert("index.search_ivf_sq8_eighth_k200.us", search(&eighth, 200));

    let mut grown = ivf_sq8.clone();
    let mut qi = 0usize;
    let us = time_us(SHORT, || {
        qi += 1;
        std::hint::black_box(grown.try_insert(queries[qi % queries.len()].clone()).ok());
    });
    m.insert("index.try_insert.us", us);

    let mut bytes = Vec::new();
    let us = time_us(LONG, || bytes = ivf_sq8.to_json_bytes().expect("index serialises"));
    m.insert("index.to_json_bytes.ms", us / 1e3);
    let json = String::from_utf8(bytes).expect("JSON is UTF-8");
    let us = time_us(LONG, || {
        std::hint::black_box(AnnIndex::from_json(&json).ok());
    });
    m.insert("index.from_json.ms", us / 1e3);
    let us = time_us(LONG, || {
        std::hint::black_box(ivf_f32.train_recluster());
    });
    m.insert("index.train_recluster.ms", us / 1e3);
    Indexes { flat_f32, ivf_sq8 }
}

fn router_engine_rerank(
    m: &mut BTreeMap<&'static str, f64>,
    corpus: &[Vec<f32>],
    queries: &[Vec<f32>],
    ix: &Indexes,
) {
    // eight sorted lists of ten, as eight shards hand them to the merge
    let lists: Vec<Vec<Hit>> = (0..8)
        .map(|s| {
            (0..K)
                .map(|r| Hit { id: global_id(s, r, 8), score: 1.0 - (r * 8 + s) as f32 * 1e-3 })
                .collect()
        })
        .collect();
    m.insert(
        "shard.merge_top_k_8x10.us",
        time_ns_per(256, SHORT, |_| {
            std::hint::black_box(merge_top_k(std::hint::black_box(&lists), K));
        }) / 1e3,
    );

    // one flat f32 index behind each front end: what item 4 compares
    let flat_cfg = IndexConfig { flat_threshold: usize::MAX, ..IndexConfig::default() };
    let router = ShardRouter::try_build(
        corpus.to_vec(),
        ShardConfig { shards: 1, index: flat_cfg, cache_capacity: 1024 },
    )
    .expect("corpus builds");
    let engine = QueryEngine::new(ix.flat_f32.clone(), EngineConfig::default());
    let batch = |from: usize| -> Vec<QueryRequest> {
        (0..32).map(|i| QueryRequest::new(queries[(from + i) % queries.len()].clone(), K)).collect()
    };
    // every query is used once per front end, so neither cache ever hits
    let mut next = 0usize;
    let us = time_us(LONG, || {
        next += 32;
        std::hint::black_box(router.query_batch(batch(next)).ok());
    });
    m.insert("router.query_batch32.us", us);
    let mut next = 0usize;
    let us = time_us(LONG, || {
        next += 32;
        std::hint::black_box(engine.query_batch(batch(next)).ok());
    });
    m.insert("engine.batch32.us", us);
    let mut next = queries.len() / 2;
    let us = time_us(LONG, || {
        next += 1;
        std::hint::black_box(engine.query(queries[next % queries.len()].clone(), K).ok());
    });
    m.insert("engine.query.us", us);

    // rerank: 200 candidates of a stage-1 scan, fetched as the router
    // fetches them (one copy per candidate out of the shard)
    let params = RerankParams { weights: vec![2.0, 1.0, 1.0, 1.0], lambda: 0.3, candidates: 200 };
    let layout = gen::facet_layout();
    let mut q = queries[0].clone();
    kmeans::normalize(&mut q);
    let candidates = ix.flat_f32.search(&q, 200);
    let mut owned: Vec<(Hit, Vec<f32>)> = Vec::new();
    let us = time_us(SHORT, || {
        owned = candidates
            .iter()
            .filter_map(|h| {
                router.shard(0).with_index(|i| i.vector(h.id).to_vec()).ok().map(|v| (*h, v))
            })
            .collect();
    });
    m.insert("rerank.candidate_fetch.us", us);
    let pool: Vec<(Hit, &[f32])> = owned.iter().map(|(h, v)| (*h, v.as_slice())).collect();
    let us = time_us(SHORT, || {
        std::hint::black_box(sem_serve::rerank::rerank(&q, &layout, &params, &pool, K));
    });
    m.insert("rerank.top10_from_200.us", us);
}

fn cache(m: &mut BTreeMap<&'static str, f64>) {
    let hits: Vec<Hit> = (0..K).map(|id| Hit { id, score: 0.5 }).collect();
    let mut lru: LruCache<u64, Vec<Hit>> = LruCache::new(1024);
    for key in 0..1024u64 {
        lru.insert(key, hits.clone());
    }
    m.insert(
        "cache.get_hit.ns",
        time_ns_per(4096, SHORT, |i| {
            std::hint::black_box(lru.get(&((i as u64 * 7) % 1024)));
        }),
    );
    m.insert(
        "cache.get_miss.ns",
        time_ns_per(4096, SHORT, |i| {
            std::hint::black_box(lru.get(&(1_000_000 + i as u64)));
        }),
    );
    // the cache is full: every insert of a new key evicts the oldest
    m.insert(
        "cache.insert_evict.ns",
        time_ns_per(1024, SHORT, |i| {
            std::hint::black_box(lru.insert(2_000_000 + i as u64, hits.clone()));
        }),
    );
}

fn store(m: &mut BTreeMap<&'static str, f64>, dir: &Path, ix: &Indexes, queries: &[Vec<f32>]) {
    std::fs::create_dir_all(dir).ok();
    let path = dir.join("ledger.snap");
    let mut st = IndexStore::open(&path);
    let us = time_us(LONG, || st.save_snapshot(&ix.ivf_sq8).expect("snapshot saves"));
    m.insert("store.save_snapshot.ms", us / 1e3);
    m.insert(
        "store.snapshot_bytes",
        std::fs::metadata(&path).map_or(0.0, |meta| meta.len() as f64),
    );
    let us = time_us(LONG, || {
        std::hint::black_box(st.load().ok());
    });
    m.insert("store.load.ms", us / 1e3);
    let us = time_us(LONG, || {
        std::hint::black_box(st.verify());
    });
    m.insert("store.verify.ms", us / 1e3);

    // fsync per append
    let mut seq = ix.ivf_sq8.len();
    let us = time_us(LONG, || {
        st.append_journal(seq, &queries[seq % queries.len()]).expect("append");
        seq += 1;
    });
    m.insert("store.append_synced.us", us);
    let appended = seq - ix.ivf_sq8.len();
    let journal = std::fs::metadata(st.journal_path()).map_or(0, |meta| meta.len());
    m.insert("store.journal_bytes_per_record", journal as f64 / appended.max(1) as f64);

    // fsync every 32 appends: 31 appends only fill the buffer, then one
    // explicit sync hardens them
    st.set_flush_every(32);
    let mut append_us = Vec::new();
    let mut sync_us = Vec::new();
    for _ in 0..8 {
        for _ in 0..31 {
            let t = Instant::now();
            st.append_journal(seq, &queries[seq % queries.len()]).expect("append");
            append_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            seq += 1;
        }
        let t = Instant::now();
        st.sync().expect("sync");
        sync_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    m.insert("store.append_buffered.us", median(&append_us));
    m.insert("store.sync.us", median(&sync_us));
}

/// Runs the whole ledger for run `seed`, with store files under `dir`.
pub fn run(seed: u64, dir: &Path) -> BTreeMap<&'static str, f64> {
    let mixture = Mixture::new(seed);
    let corpus = mixture.vectors("ledger-corpus", 0, VECTORS);
    let queries = mixture.vectors("ledger-queries", 0, 4096);
    let mut m = BTreeMap::new();
    host(&mut m, &corpus, &queries);
    tensor(&mut m, &corpus, &queries);
    let indexes = index(&mut m, &corpus, &queries);
    router_engine_rerank(&mut m, &corpus, &queries, &indexes);
    cache(&mut m);
    store(&mut m, dir, &indexes, &queries);
    m
}
