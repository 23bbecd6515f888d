//! IVF-flat approximate-nearest-neighbour index over paper vectors.
//!
//! Vectors are L2-normalised on entry, so the inner product is cosine
//! similarity. Large collections are partitioned into `nlist` Voronoi cells
//! by spherical k-means — the shared trainer in [`sem_tensor::kmeans`]
//! driven with a rayon-parallel assignment pass; a query scores the
//! `nprobe` nearest cells exhaustively. Small collections
//! (`flat_threshold` and below) skip clustering entirely and use an exact
//! brute-force scan — at that size a scan is both faster and recall-perfect.
//!
//! **Online re-clustering.** The cell structure is trained once at build
//! time, but a churning corpus drifts away from it: cells fill unevenly
//! (assignment-count skew) and vectors sit further from their centroids
//! (mean residual growth). [`AnnIndex::drift_stats`] exposes both signals;
//! [`AnnIndex::train_recluster`] re-trains the centroid table *off-line*
//! against a point-in-time clone and [`AnnIndex::install_recluster`]
//! swaps it in, routing any vectors inserted since training to their
//! nearest new centroid and re-fitting SQ8 scales when quantized. Because
//! build and re-train share one k-means implementation, re-clustering an
//! undrifted index with the build seed reproduces the centroid table
//! bit-for-bit — the install is then a no-op (generation unchanged), the
//! property the maintenance layer's handover test pins.
//!
//! Insertion is incremental: a new vector is appended and routed to its
//! nearest existing centroid without touching the rest of the structure, so
//! ingesting one paper is O(`nlist · dim`), not a rebuild.
//!
//! **Quantized scan mode.** [`AnnIndex::enable_sq8`] attaches per-facet
//! SQ8 codes (see [`sem_tensor::quant`]): stage-0 candidate generation
//! quantizes the query once and scans 1-byte codes with the symmetric
//! u8·u8 integer distance (4× less memory traffic and a wider integer
//! MAC than the f32 scan), keeps the top `C` candidates
//! ([`AnnIndex::rescore_depth`]) and rescores exactly those in f32, so
//! the final top-k scores are exact dot products — quantization can only
//! cost recall (a true neighbour missing from the top `C`), never score
//! fidelity. The f32 vectors are retained for the rescore and for
//! stage-2 reranking, which is untouched.
//!
//! **Exact flat scan.** A flat, unquantized index also holds its vectors
//! as a lane-blocked matrix ([`sem_tensor::blocked`]): eight rows per
//! block, dimension-major, scanned eight lanes at a time with each lane
//! doing the row dot's own multiplies and adds in the same order, so every
//! non-NaN score has the bits of the row-at-a-time dot. Candidates go straight
//! into a bounded top-`k` heap instead of a vector of every hit. The
//! matrix is derived state: built with the index (and on load), extended
//! by insert, dropped when the index is quantized or clustered, and never
//! persisted.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::time::Instant;

use rayon::prelude::*;
use sem_tensor::blocked::{BlockedMatrix, LANES};
use sem_tensor::kmeans::{self as tkmeans, nearest_centroid, normalize};
use sem_tensor::quant::{self, Sq8Scale};
use serde::{Deserialize, Serialize};

use crate::error::ServeError;
use crate::facet::{FacetChecksum, FacetLayout};

pub(crate) mod snapshot;

/// Vectors scanned between deadline checks in flat (brute-force) mode —
/// coarse enough that the `Instant::now` calls cost nothing against the
/// scan itself, fine enough that an exhausted budget stops within
/// microseconds. A whole number of blocks of the flat scan layout, so no
/// block is scored twice across strides.
const FLAT_DEADLINE_STRIDE: usize = 1024;
const _: () = assert!(FLAT_DEADLINE_STRIDE.is_multiple_of(LANES));

/// Floor on the exact-rescore pool of a quantized search: stage 0 keeps
/// `max(DEFAULT_RESCORE, 4·k)` code-scored candidates for the f32
/// rescore. At SQ8's error scale this holds recall@10 ≥ 0.95 on
/// worst-case (uniform random) corpora while keeping the rescore two
/// orders of magnitude cheaper than the scan it replaces.
pub const DEFAULT_RESCORE: usize = 128;

/// Index construction and probing parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IndexConfig {
    /// Number of k-means cells; `0` picks `~sqrt(n)` at build time.
    pub nlist: usize,
    /// Cells scanned per query; `0` picks `max(1, ceil(nlist / 2))` — on
    /// uniformly random (worst-case, unclusterable) data that is what it
    /// takes to hold recall@10 ≥ 0.9; clustered real embeddings allow much
    /// smaller values.
    pub nprobe: usize,
    /// Collections of at most this many vectors stay un-clustered and are
    /// searched exactly.
    pub flat_threshold: usize,
    /// k-means refinement passes during build.
    pub kmeans_iters: usize,
    /// RNG seed for centroid initialisation.
    pub seed: u64,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig { nlist: 0, nprobe: 0, flat_threshold: 256, kmeans_iters: 8, seed: 0x5e7e }
    }
}

/// One search result: vector id (insertion order) and cosine similarity.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Hit {
    /// Position of the vector in insertion order.
    pub id: usize,
    /// Cosine similarity to the query.
    pub score: f32,
}

/// The ANN index. `centroids` empty ⇔ exact brute-force mode.
///
/// `layout` is facet metadata over the *same* flat vectors — the fused
/// scan never looks at it, so attaching a layout cannot change stage-1
/// results. `None` means "one fused segment" (plain corpora). `quant`
/// follows the same pattern: SQ8 codes + scales when quantized scan mode
/// is enabled, absent otherwise. Both are optional in the JSON form too
/// (serde tolerates their absence), which is how pre-v4 payloads read.
///
/// `blocked` is the f32 scan layout: `vectors` again, lane-blocked, held
/// exactly when the index is flat and unquantized. It is derived, so the
/// JSON form and the snapshot carry only the fields above it.
#[derive(Clone, Debug)]
pub struct AnnIndex {
    config: IndexConfig,
    dim: usize,
    vectors: Vec<Vec<f32>>,
    centroids: Vec<Vec<f32>>,
    lists: Vec<Vec<usize>>,
    generation: u64,
    layout: Option<FacetLayout>,
    quant: Option<Sq8Data>,
    blocked: Option<BlockedMatrix>,
}

impl Serialize for AnnIndex {
    fn ser(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("config".into(), self.config.ser()),
            ("dim".into(), self.dim.ser()),
            ("vectors".into(), self.vectors.ser()),
            ("centroids".into(), self.centroids.ser()),
            ("lists".into(), self.lists.ser()),
            ("generation".into(), self.generation.ser()),
            ("layout".into(), self.layout.ser()),
            ("quant".into(), self.quant.ser()),
        ])
    }
}

/// Validates the shape invariants and derives the scan layout: a
/// deserialized index is always a usable one.
impl Deserialize for AnnIndex {
    fn de(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v.as_obj().ok_or_else(|| serde::Error::expected("object", v))?;
        AnnIndex {
            config: serde::field(obj, "config")?,
            dim: serde::field(obj, "dim")?,
            vectors: serde::field(obj, "vectors")?,
            centroids: serde::field(obj, "centroids")?,
            lists: serde::field(obj, "lists")?,
            generation: serde::field(obj, "generation")?,
            layout: serde::field(obj, "layout")?,
            quant: serde::field(obj, "quant")?,
            blocked: None,
        }
        .loaded()
        .map_err(serde::Error)
    }
}

/// SQ8 sidecar of a quantized index: the per-segment scales fitted at
/// [`AnnIndex::enable_sq8`] time, one code byte per stored element
/// (row-major, parallel to `vectors`), and the rescore-pool floor.
/// Segment geometry is frozen at fit time (`widths`), so later layout
/// changes cannot desynchronise code boundaries.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Sq8Data {
    widths: Vec<usize>,
    scales: Vec<Sq8Scale>,
    codes: Vec<u8>,
    rescore: usize,
}

impl Sq8Data {
    fn codes_of(&self, id: usize, dim: usize) -> &[u8] {
        &self.codes[id * dim..(id + 1) * dim]
    }

    /// Stage-0 code scores of the ids in `rows`, appended to `scored`:
    /// walks the code matrix sequentially, the access pattern the SSE2
    /// kernel's speedup lives on.
    fn scan_range(
        &self,
        dim: usize,
        rows: Range<usize>,
        prepared: &quant::Sq8Query,
        scored: &mut Vec<Hit>,
    ) {
        scored.extend(
            self.codes[rows.start * dim..rows.end * dim]
                .chunks_exact(dim)
                .zip(rows)
                .map(|(row, id)| Hit { id, score: prepared.score(row) }),
        );
    }
}

/// Point-in-time clustering health of an index, the signals the
/// maintenance layer's drift detector keys re-clustering off. Flat
/// indexes report the neutral values (`skew` 1.0, `mean_residual` 0.0):
/// a brute-force scan has no cluster structure to drift.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DriftStats {
    /// Vectors indexed when the stats were taken.
    pub len: usize,
    /// IVF cells (0 in flat mode).
    pub nlist: usize,
    /// Assignment-count skew: largest cell size over the mean cell size.
    /// 1.0 is perfectly balanced; growth means queries probing the hot
    /// cells scan ever more of the corpus.
    pub skew: f32,
    /// Mean `1 − ⟨v, centroid(v)⟩` over all vectors — how far the corpus
    /// sits from the centroid table trained for it.
    pub mean_residual: f32,
}

/// A re-trained centroid table produced by [`AnnIndex::train_recluster`]
/// against a point-in-time clone, waiting to be swapped in with
/// [`AnnIndex::install_recluster`]. Training is the expensive part and
/// holds no locks; the plan carries the length it was trained at so the
/// install can route vectors inserted in the meantime.
#[derive(Clone, Debug)]
pub struct ReclusterPlan {
    centroids: Vec<Vec<f32>>,
    lists: Vec<Vec<usize>>,
    trained_len: usize,
}

impl ReclusterPlan {
    /// Vectors the plan was trained over.
    pub fn trained_len(&self) -> usize {
        self.trained_len
    }

    /// Cells in the re-trained table (0 when the plan keeps flat mode).
    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }
}

/// Outcome of [`AnnIndex::install_recluster`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReclusterReport {
    /// `false` when the re-trained table was bit-identical to the live one
    /// and the install was skipped entirely (zero drift: generation and
    /// caches stay valid).
    pub changed: bool,
    /// Cells after the install (0 in flat mode).
    pub nlist: usize,
    /// Vectors indexed at install time.
    pub len: usize,
    /// Vectors that were inserted after training and had to be routed to
    /// their nearest new centroid during the install.
    pub routed_tail: usize,
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Resolved cell count for `n` vectors under `config`: `~sqrt(n)` when
/// `nlist` is 0, clamped to `1..=n`.
fn resolved_nlist(config: &IndexConfig, n: usize) -> usize {
    if config.nlist == 0 { (n as f64).sqrt().round() as usize } else { config.nlist }.clamp(1, n)
}

/// The result order: score desc by `total_cmp`, then id asc. `Less`
/// means `a` ranks before `b`.
fn rank(a: &Hit, b: &Hit) -> Ordering {
    b.score.total_cmp(&a.score).then(a.id.cmp(&b.id))
}

/// Keeps the best `k` hits in `scored`, sorted score-desc (id asc on ties).
fn top_k(scored: &mut Vec<Hit>, k: usize) {
    let k = k.min(scored.len());
    if k < scored.len() {
        scored.select_nth_unstable_by(k, rank);
        scored.truncate(k);
    }
    scored.sort_by(rank);
}

/// A hit ordered by [`rank`], so a max-heap of them has the worst on top.
struct Ranked(Hit);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        rank(&self.0, &other.0)
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// Bounded top-`k` selection: holds at most `k` hits, the worst of them on
/// top of a heap, so a candidate that does not make the cut costs one
/// comparison and one that does costs O(log k).
struct TopK {
    k: usize,
    heap: BinaryHeap<Ranked>,
}

impl TopK {
    /// Room for the best `k` of at most `n` candidates; never allocates
    /// more than `n` entries, whatever `k` is.
    fn new(k: usize, n: usize) -> Self {
        TopK { k, heap: BinaryHeap::with_capacity(k.min(n)) }
    }

    fn push(&mut self, hit: Hit) {
        if self.heap.len() < self.k {
            self.heap.push(Ranked(hit));
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if rank(&hit, &worst.0).is_lt() {
                *worst = Ranked(hit);
            }
        }
    }

    /// The kept hits, best first.
    fn into_sorted(self) -> Vec<Hit> {
        self.heap.into_sorted_vec().into_iter().map(|r| r.0).collect()
    }
}

/// Runs `scan` over the ids `0..n`: in one call without a deadline, else
/// in `FLAT_DEADLINE_STRIDE` runs with the clock read between runs.
/// Returns `true` when the deadline stopped the scan early.
fn strided_scan(n: usize, deadline: Option<Instant>, mut scan: impl FnMut(Range<usize>)) -> bool {
    let Some(deadline) = deadline else {
        scan(0..n);
        return false;
    };
    for start in (0..n).step_by(FLAT_DEADLINE_STRIDE) {
        if start > 0 && Instant::now() >= deadline {
            return true;
        }
        scan(start..(start + FLAT_DEADLINE_STRIDE).min(n));
    }
    false
}

impl AnnIndex {
    /// Builds an index over `vectors` (ids are assigned in order).
    ///
    /// # Panics
    /// Panics when `vectors` is empty or widths are inconsistent; see
    /// [`AnnIndex::try_build`] for the non-panicking form.
    pub fn build(vectors: Vec<Vec<f32>>, config: IndexConfig) -> Self {
        match Self::try_build(vectors, config) {
            Ok(idx) => idx,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`AnnIndex::build`]: rejects empty collections and
    /// inconsistent widths with typed errors instead of panicking.
    ///
    /// # Errors
    /// [`ServeError::EmptyIndex`] and [`ServeError::DimensionMismatch`].
    pub fn try_build(mut vectors: Vec<Vec<f32>>, config: IndexConfig) -> Result<Self, ServeError> {
        if vectors.is_empty() {
            return Err(ServeError::EmptyIndex);
        }
        let dim = vectors[0].len();
        if let Some(bad) = vectors.iter().find(|v| v.len() != dim) {
            return Err(ServeError::DimensionMismatch { expected: dim, got: bad.len() });
        }
        for v in &mut vectors {
            normalize(v);
        }
        let n = vectors.len();
        let (centroids, lists) = if n <= config.flat_threshold {
            (Vec::new(), Vec::new())
        } else {
            let nlist = resolved_nlist(&config, n);
            Self::kmeans(&vectors, nlist, config.kmeans_iters, config.seed)
        };
        let mut index = AnnIndex {
            config,
            dim,
            vectors,
            centroids,
            lists,
            generation: 0,
            layout: None,
            quant: None,
            blocked: None,
        };
        index.sync_scan_layout();
        Ok(index)
    }

    /// Builds or drops the f32 scan layout so that exactly the flat,
    /// unquantized indexes hold one: a quantized flat scan reads the codes
    /// and an IVF probe reads rows by id, so neither pays for a copy.
    /// Called wherever the scan mode can change.
    fn sync_scan_layout(&mut self) {
        let wanted = self.is_flat() && self.quant.is_none();
        if wanted != self.blocked.is_some() {
            self.blocked = wanted.then(|| BlockedMatrix::from_rows(self.dim, &self.vectors));
        }
    }

    /// Spherical k-means via the shared trainer in [`sem_tensor::kmeans`],
    /// with the assignment pass run rayon-parallel (per-point assignment is
    /// independent, so the result is bit-identical to the serial trainer).
    /// Returns `(centroids, lists)`.
    fn kmeans(
        vectors: &[Vec<f32>],
        nlist: usize,
        iters: usize,
        seed: u64,
    ) -> (Vec<Vec<f32>>, Vec<Vec<usize>>) {
        let model = tkmeans::spherical_kmeans_with(vectors, nlist, iters, seed, |centroids| {
            (0..vectors.len())
                .into_par_iter()
                .map(|i| nearest_centroid(centroids, &vectors[i]))
                .collect()
        });
        let mut lists = vec![Vec::new(); nlist];
        for (i, &c) in model.assignments.iter().enumerate() {
            lists[c].push(i);
        }
        (model.centroids, lists)
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the index holds no vectors (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Vector width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `true` when the index is in exact brute-force mode.
    pub fn is_flat(&self) -> bool {
        self.centroids.is_empty()
    }

    /// Number of IVF cells (0 in flat mode).
    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }

    /// Monotone counter bumped on every [`AnnIndex::insert`]; cached results
    /// from an older generation may be stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The stored (normalised) vector for `id`.
    pub fn vector(&self, id: usize) -> &[f32] {
        &self.vectors[id]
    }

    /// Attaches a facet layout (builder style). Pure metadata: stage-1
    /// search results are unchanged, stage-2 rerank gains per-facet
    /// segment boundaries.
    ///
    /// # Errors
    /// [`ServeError::DimensionMismatch`] when the layout's total width
    /// differs from the index width.
    pub fn with_layout(mut self, layout: FacetLayout) -> Result<Self, ServeError> {
        self.set_layout(layout)?;
        Ok(self)
    }

    /// In-place form of [`AnnIndex::with_layout`].
    ///
    /// # Errors
    /// [`ServeError::DimensionMismatch`] when the layout's total width
    /// differs from the index width.
    pub fn set_layout(&mut self, layout: FacetLayout) -> Result<(), ServeError> {
        if layout.dim() != self.dim {
            return Err(ServeError::DimensionMismatch { expected: self.dim, got: layout.dim() });
        }
        self.layout = Some(layout);
        Ok(())
    }

    /// The facet layout: the stored one, or the single-segment fused
    /// fallback for indexes (and migrated v1 stores) without facets.
    pub fn layout(&self) -> FacetLayout {
        self.layout.clone().unwrap_or_else(|| FacetLayout::fused(self.dim))
    }

    /// `true` when a multi-facet layout is attached.
    pub fn has_facets(&self) -> bool {
        self.layout.is_some()
    }

    /// Per-facet segment checksums: for each facet, the CRC32 of that
    /// segment's little-endian bytes across all vectors in insertion
    /// order. `index verify` reports these per shard so corruption can be
    /// localised to a facet, not just a payload.
    pub fn facet_checksums(&self) -> Vec<FacetChecksum> {
        let layout = self.layout();
        (0..layout.len())
            .map(|j| {
                let range = layout.range(j);
                let mut bytes = Vec::with_capacity(self.vectors.len() * range.len() * 4);
                for v in &self.vectors {
                    for x in &v[range.clone()] {
                        bytes.extend_from_slice(&x.to_le_bytes());
                    }
                }
                FacetChecksum {
                    name: layout.names()[j].clone(),
                    dim: range.len(),
                    crc32: crate::store::crc32(&bytes),
                }
            })
            .collect()
    }

    /// Enables SQ8 quantized scan mode: fits one affine scale per facet
    /// segment of the current [`AnnIndex::layout`] over the stored
    /// (normalised) vectors and codes every element as one byte. Stage-0
    /// scans run over the codes from here on, with the top
    /// [`AnnIndex::rescore_depth`] candidates rescored in exact f32.
    /// Idempotent: calling again re-fits over the current vectors.
    ///
    /// Enable *after* attaching a facet layout so the scales are
    /// per-facet; the code geometry is frozen at fit time.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] when a stored value is non-finite.
    pub fn enable_sq8(&mut self) -> Result<(), ServeError> {
        let widths = self.layout().dims().to_vec();
        let scales = quant::fit_scales(self.vectors.iter().map(|v| v.as_slice()), &widths)
            .map_err(ServeError::Invalid)?;
        let mut codes = Vec::with_capacity(self.vectors.len() * self.dim);
        let mut buf = Vec::new();
        for v in &self.vectors {
            quant::quantize_into(v, &widths, &scales, &mut buf);
            codes.extend_from_slice(&buf);
        }
        self.quant = Some(Sq8Data { widths, scales, codes, rescore: DEFAULT_RESCORE });
        self.sync_scan_layout();
        Ok(())
    }

    /// Builder form of [`AnnIndex::enable_sq8`].
    ///
    /// # Errors
    /// [`ServeError::Invalid`] when a stored value is non-finite.
    pub fn with_sq8(mut self) -> Result<Self, ServeError> {
        self.enable_sq8()?;
        Ok(self)
    }

    /// `true` when SQ8 quantized scan mode is enabled.
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// Exact-rescore pool size of a quantized top-`k` search:
    /// `max(DEFAULT_RESCORE, 4·k)`, clamped to the collection. `0` when
    /// unquantized (no rescore stage runs).
    pub fn rescore_depth(&self, k: usize) -> usize {
        match &self.quant {
            Some(sq) => sq.rescore.max(k.saturating_mul(4)).min(self.vectors.len()),
            None => 0,
        }
    }

    /// Bytes held by the SQ8 sidecar (codes + scales + geometry), or
    /// `None` when unquantized. Compare against
    /// [`AnnIndex::vector_bytes`] for the ~4× memory story: serving the
    /// scan needs the codes, while the f32 vectors back the exact
    /// rescore.
    pub fn quant_bytes(&self) -> Option<usize> {
        self.quant.as_ref().map(|sq| sq.codes.len() + sq.scales.len() * 8 + sq.widths.len() * 8)
    }

    /// Bytes held by the stored f32 vectors.
    pub fn vector_bytes(&self) -> usize {
        self.vectors.len() * self.dim * 4
    }

    /// Per-segment CRC32 checksums over the SQ8 code bytes (insertion
    /// order), mirroring [`AnnIndex::facet_checksums`] for the quantized
    /// sidecar. Empty when unquantized. `index verify` reports these so
    /// code corruption can be localised to a facet segment.
    pub fn quant_checksums(&self) -> Vec<FacetChecksum> {
        let Some(sq) = &self.quant else { return Vec::new() };
        let layout = self.layout();
        let names: Vec<String> = if layout.dims() == sq.widths.as_slice() {
            layout.names().to_vec()
        } else {
            (0..sq.widths.len()).map(|j| format!("seg{j}")).collect()
        };
        let mut start = 0usize;
        sq.widths
            .iter()
            .zip(names)
            .map(|(&w, name)| {
                let mut bytes = Vec::with_capacity(self.vectors.len() * w);
                for id in 0..self.vectors.len() {
                    bytes.extend_from_slice(
                        &sq.codes[id * self.dim + start..id * self.dim + start + w],
                    );
                }
                start += w;
                FacetChecksum { name, dim: w, crc32: crate::store::crc32(&bytes) }
            })
            .collect()
    }

    /// Appends one vector without rebuilding; returns its id. In IVF mode
    /// the vector joins its nearest centroid's cell.
    ///
    /// # Panics
    /// Panics on a width mismatch; see [`AnnIndex::try_insert`] for the
    /// non-panicking form.
    pub fn insert(&mut self, vector: Vec<f32>) -> usize {
        match self.try_insert(vector) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`AnnIndex::insert`].
    ///
    /// # Errors
    /// [`ServeError::DimensionMismatch`] on a width mismatch.
    pub fn try_insert(&mut self, mut vector: Vec<f32>) -> Result<usize, ServeError> {
        if vector.len() != self.dim {
            return Err(ServeError::DimensionMismatch { expected: self.dim, got: vector.len() });
        }
        normalize(&mut vector);
        let id = self.vectors.len();
        if !self.centroids.is_empty() {
            let c = nearest_centroid(&self.centroids, &vector);
            self.lists[c].push(id);
        }
        if let Some(sq) = &mut self.quant {
            // code the newcomer under the frozen corpus scales; values
            // outside the fitted range saturate, and the exact rescore
            // absorbs the resulting stage-0 score error
            let mut buf = Vec::new();
            quant::quantize_into(&vector, &sq.widths, &sq.scales, &mut buf);
            sq.codes.extend_from_slice(&buf);
        }
        if let Some(blocked) = &mut self.blocked {
            blocked.push(&vector);
        }
        self.vectors.push(vector);
        self.generation += 1;
        Ok(id)
    }

    /// The query prepared for the symmetric u8·u8 stage-0 scan (quantized
    /// under the corpus scales, query-side terms folded), or `None` when
    /// unquantized. Computed once per search.
    fn quant_query(&self, q: &[f32]) -> Option<quant::Sq8Query> {
        self.quant.as_ref().map(|sq| quant::Sq8Query::prepare(q, &sq.widths, &sq.scales))
    }

    /// Stage-0 score of vector `id` against the normalised query: the
    /// symmetric code distance when quantized (`prepared` from
    /// [`AnnIndex::quant_query`]), the exact f32 dot otherwise.
    #[inline]
    fn stage0_score(&self, id: usize, q: &[f32], prepared: Option<&quant::Sq8Query>) -> f32 {
        match (&self.quant, prepared) {
            (Some(sq), Some(prepared)) => prepared.score(sq.codes_of(id, self.dim)),
            _ => dot(&self.vectors[id], q),
        }
    }

    /// Exact-rescore stage of a quantized search: keep the top
    /// [`AnnIndex::rescore_depth`] code-scored candidates and replace
    /// their scores with exact f32 dots, so whatever the caller's final
    /// `top_k` keeps is exact-rescore-backed. No-op when unquantized.
    fn rescore_exact(&self, scored: &mut Vec<Hit>, q: &[f32], k: usize) {
        if self.quant.is_some() {
            top_k(scored, self.rescore_depth(k));
            for h in scored.iter_mut() {
                h.score = dot(&self.vectors[h.id], q);
            }
        }
    }

    /// Top-`k` most similar vectors, best first (score desc, id asc on
    /// ties).
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        assert_eq!(query.len(), self.dim, "query width mismatch");
        self.search_within(query, k, None).0
    }

    /// [`AnnIndex::search`] under a wall-clock deadline: when the budget
    /// nears exhaustion the probe count shrinks (IVF) or the scan stops
    /// early (flat), returning whatever was scored so far. The second
    /// element is `true` when the result is partial (degraded).
    ///
    /// `deadline: None` is exactly [`AnnIndex::search`] — the happy path
    /// pays no per-vector deadline checks.
    ///
    /// # Errors
    /// [`ServeError::DimensionMismatch`] on a width mismatch.
    pub fn search_deadline(
        &self,
        query: &[f32],
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<(Vec<Hit>, bool), ServeError> {
        if query.len() != self.dim {
            return Err(ServeError::DimensionMismatch { expected: self.dim, got: query.len() });
        }
        Ok(self.search_within(query, k, deadline))
    }

    /// The one search body. Stage 0 is, by mode: the lane-blocked f32 scan
    /// into a bounded top-`k` (flat, unquantized: exact, so nothing
    /// follows); the SQ8 code scan (flat, quantized); or the members of the
    /// `nprobe` nearest cells (IVF). The last two keep every candidate,
    /// then rescore (when quantized) and select. A deadline is checked
    /// every `FLAT_DEADLINE_STRIDE` rows of a flat scan and before every
    /// cell after the first; without one no clock is read.
    fn search_within(
        &self,
        query: &[f32],
        k: usize,
        deadline: Option<Instant>,
    ) -> (Vec<Hit>, bool) {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // exhausted before any work: an empty partial result, flagged,
            // beats blocking or panicking
            return (Vec::new(), true);
        }
        let mut q = query.to_vec();
        normalize(&mut q);
        let n = self.vectors.len();
        debug_assert_eq!(self.blocked.is_some(), self.is_flat() && self.quant.is_none());
        if let Some(blocked) = &self.blocked {
            let mut top = TopK::new(k, n);
            let degraded = strided_scan(n, deadline, |rows| {
                blocked.scan_range(rows, &q, |id, score| top.push(Hit { id, score }));
            });
            return (top.into_sorted(), degraded);
        }
        let prepared = self.quant_query(&q);
        let (mut scored, degraded) = match (&self.quant, &prepared) {
            (Some(sq), Some(prepared)) if self.is_flat() => {
                let mut scored = Vec::with_capacity(n);
                let degraded = strided_scan(n, deadline, |rows| {
                    sq.scan_range(self.dim, rows, prepared, &mut scored);
                });
                (scored, degraded)
            }
            _ => self.probe_cells(&q, prepared.as_ref(), deadline),
        };
        // the rescore pool is a few hundred dots at most — even a blown
        // budget affords it, and it keeps partial results exact-backed
        self.rescore_exact(&mut scored, &q, k);
        top_k(&mut scored, k);
        (scored, degraded)
    }

    /// IVF stage 0: every member of the `nprobe` cells nearest the query,
    /// nearest cell first, scored. Under a deadline the probe count
    /// shrinks; the flag reports that it did.
    fn probe_cells(
        &self,
        q: &[f32],
        prepared: Option<&quant::Sq8Query>,
        deadline: Option<Instant>,
    ) -> (Vec<Hit>, bool) {
        let nprobe = if self.config.nprobe == 0 {
            self.centroids.len().div_ceil(2)
        } else {
            self.config.nprobe
        }
        .max(1)
        .min(self.centroids.len());
        let mut cells: Vec<(f32, usize)> =
            self.centroids.iter().enumerate().map(|(c, cen)| (dot(cen, q), c)).collect();
        cells.sort_by(|a, b| b.0.total_cmp(&a.0));
        let budget = deadline.map(|d| (d, Instant::now()));
        let mut scored = Vec::new();
        for (probed, &(_, c)) in cells.iter().take(nprobe).enumerate() {
            if let Some((deadline, probe_start)) = budget.filter(|_| probed > 0) {
                // shrink the probe count when the budget is nearly gone:
                // stop if scanning another cell (at the average cost
                // observed so far) would overshoot the deadline
                let now = Instant::now();
                let avg_cell = probe_start.elapsed() / probed as u32;
                if now >= deadline || now + avg_cell > deadline {
                    return (scored, true);
                }
            }
            scored.extend(
                self.lists[c]
                    .iter()
                    .map(|&id| Hit { id, score: self.stage0_score(id, q, prepared) }),
            );
        }
        (scored, false)
    }

    /// Searches many queries rayon-parallel; result `i` answers query `i`.
    pub fn search_batch(&self, queries: &[(Vec<f32>, usize)]) -> Vec<Vec<Hit>> {
        queries.par_iter().map(|(q, k)| self.search(q, *k)).collect()
    }

    /// Exact top-`k` by full scan regardless of mode (recall reference).
    pub fn search_exact(&self, query: &[f32], k: usize) -> Vec<Hit> {
        assert_eq!(query.len(), self.dim, "query width mismatch");
        let mut q = query.to_vec();
        normalize(&mut q);
        let mut scored: Vec<Hit> = (0..self.vectors.len())
            .map(|id| Hit { id, score: dot(&self.vectors[id], &q) })
            .collect();
        scored.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        scored.truncate(k);
        scored
    }

    /// Point-in-time clustering health: assignment-count skew and mean
    /// residual (see [`DriftStats`]). O(`n · dim`) for the residual scan.
    pub fn drift_stats(&self) -> DriftStats {
        if self.is_flat() {
            return DriftStats { len: self.vectors.len(), nlist: 0, skew: 1.0, mean_residual: 0.0 };
        }
        let n = self.vectors.len();
        let mean_fill = n as f32 / self.lists.len() as f32;
        let max_fill = self.lists.iter().map(Vec::len).max().unwrap_or(0) as f32;
        let skew = if mean_fill > 0.0 { max_fill / mean_fill } else { 1.0 };
        let mut residual = 0.0f32;
        for (c, list) in self.lists.iter().enumerate() {
            for &id in list {
                residual += 1.0 - dot(&self.vectors[id], &self.centroids[c]);
            }
        }
        DriftStats {
            len: n,
            nlist: self.lists.len(),
            skew,
            mean_residual: if n > 0 { residual / n as f32 } else { 0.0 },
        }
    }

    /// Re-trains the centroid table over the current vectors with the
    /// build config (seed, iteration count, `nlist` re-resolved for the
    /// current size — a corpus that has grown past `~nlist²` gets more
    /// cells). Pure: the index is not modified, so callers clone the index
    /// and train on a maintenance thread while the live copy keeps
    /// serving. Collections at or below `flat_threshold` yield an empty
    /// plan that keeps (or returns the index to) exact flat mode.
    pub fn train_recluster(&self) -> ReclusterPlan {
        let n = self.vectors.len();
        let (centroids, lists) = if n <= self.config.flat_threshold {
            (Vec::new(), Vec::new())
        } else {
            let nlist = resolved_nlist(&self.config, n);
            Self::kmeans(&self.vectors, nlist, self.config.kmeans_iters, self.config.seed)
        };
        ReclusterPlan { centroids, lists, trained_len: n }
    }

    /// Swaps a re-trained centroid table in. Vectors inserted after the
    /// plan was trained are routed to their nearest new centroid, and SQ8
    /// scales are re-fitted over the current vectors when quantized. When
    /// the new table is identical to the live one (zero drift — guaranteed
    /// for an unchanged corpus because build and re-train share one
    /// k-means), the install is skipped entirely: generation is not
    /// bumped, so cached results stay valid.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] when the plan was trained over more vectors
    /// than the index holds (a plan from a different index), or when the
    /// SQ8 re-fit encounters a non-finite value.
    pub fn install_recluster(
        &mut self,
        mut plan: ReclusterPlan,
    ) -> Result<ReclusterReport, ServeError> {
        if plan.trained_len > self.vectors.len() {
            return Err(ServeError::Invalid(format!(
                "recluster plan trained over {} vectors but the index holds {}",
                plan.trained_len,
                self.vectors.len()
            )));
        }
        let routed_tail = self.vectors.len() - plan.trained_len;
        if !plan.centroids.is_empty() {
            for id in plan.trained_len..self.vectors.len() {
                let c = nearest_centroid(&plan.centroids, &self.vectors[id]);
                plan.lists[c].push(id);
            }
        }
        let changed = plan.centroids != self.centroids || plan.lists != self.lists;
        if changed {
            self.centroids = plan.centroids;
            self.lists = plan.lists;
            if self.quant.is_some() {
                // the corpus the scales were fitted over has drifted too:
                // re-fit so stage-0 code error tracks the current data
                self.enable_sq8()?;
            }
            self.sync_scan_layout();
            self.generation += 1;
        }
        Ok(ReclusterReport {
            changed,
            nlist: self.centroids.len(),
            len: self.vectors.len(),
            routed_tail,
        })
    }

    /// [`AnnIndex::train_recluster`] + [`AnnIndex::install_recluster`] in
    /// one synchronous call — the forced path (`force_recluster`) and the
    /// test harness use this; the maintenance thread splits the two so
    /// training holds no locks.
    ///
    /// # Errors
    /// Propagates [`AnnIndex::install_recluster`] errors.
    pub fn recluster(&mut self) -> Result<ReclusterReport, ServeError> {
        let plan = self.train_recluster();
        self.install_recluster(plan)
    }

    /// Serialises the whole index to JSON.
    ///
    /// # Errors
    /// Propagates serialisation failure as [`ServeError::Invalid`] instead
    /// of panicking.
    pub fn to_json(&self) -> Result<String, ServeError> {
        serde_json::to_string(self)
            .map_err(|e| ServeError::Invalid(format!("index serialisation: {e}")))
    }

    /// Serialises the whole index to JSON bytes (snapshot payload).
    ///
    /// # Errors
    /// Propagates serialisation failure as [`ServeError::Invalid`].
    pub fn to_json_bytes(&self) -> Result<Vec<u8>, ServeError> {
        self.to_json().map(String::into_bytes)
    }

    /// Restores an index from [`AnnIndex::to_json`] output.
    ///
    /// # Errors
    /// Returns an error for malformed JSON or internally inconsistent
    /// shapes.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// The one exit of every decoder (the JSON form and the snapshot):
    /// checks [`AnnIndex::validate`]'s invariants, then derives the scan
    /// layout.
    fn loaded(mut self) -> Result<Self, String> {
        self.validate()?;
        self.sync_scan_layout();
        Ok(self)
    }

    /// The shape invariants every index read from outside the process
    /// must satisfy: consistent widths, cell entries in range, and layout
    /// and SQ8 geometry that match the vectors.
    fn validate(&self) -> Result<(), String> {
        if self.vectors.is_empty() {
            return Err("index holds no vectors".into());
        }
        if self.vectors.iter().any(|v| v.len() != self.dim)
            || self.centroids.iter().any(|c| c.len() != self.dim)
        {
            return Err("inconsistent vector widths".into());
        }
        if self.centroids.len() != self.lists.len() {
            return Err("centroid/list count mismatch".into());
        }
        let n = self.vectors.len();
        if self.lists.iter().flatten().any(|&id| id >= n) {
            return Err("cell entry out of range".into());
        }
        if let Some(layout) = &self.layout {
            if layout.dim() != self.dim {
                return Err(format!(
                    "facet layout covers {} elements but vectors are {}-wide",
                    layout.dim(),
                    self.dim
                ));
            }
        }
        if let Some(sq) = &self.quant {
            if sq.widths.is_empty() || sq.widths.contains(&0) {
                return Err("quant segment widths must be non-empty and positive".into());
            }
            if sq.widths.iter().sum::<usize>() != self.dim {
                return Err(format!(
                    "quant segments cover {} elements but vectors are {}-wide",
                    sq.widths.iter().sum::<usize>(),
                    self.dim
                ));
            }
            if sq.scales.len() != sq.widths.len() {
                return Err(format!(
                    "quant holds {} scales for {} segments",
                    sq.scales.len(),
                    sq.widths.len()
                ));
            }
            if sq.codes.len() != n * self.dim {
                return Err(format!(
                    "quant codes hold {} bytes for {} vectors of width {}",
                    sq.codes.len(),
                    n,
                    self.dim
                ));
            }
            if sq.scales.iter().any(|s| !s.min.is_finite() || !s.delta.is_finite() || s.delta < 0.0)
            {
                return Err("quant scale is non-finite or has a negative step".into());
            }
            if sq.rescore == 0 {
                return Err("quant rescore depth must be positive".into());
            }
        }
        Ok(())
    }
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
    fn small_collections_stay_flat_and_exact() {
        let idx = AnnIndex::build(random_vectors(100, 8, 1), IndexConfig::default());
        assert!(idx.is_flat());
        let q = idx.vector(42).to_vec();
        let hits = idx.search(&q, 5);
        assert_eq!(hits[0].id, 42);
        assert!((hits[0].score - 1.0).abs() < 1e-5);
        assert_eq!(hits, idx.search_exact(&q, 5));
    }

    #[test]
    fn large_collections_cluster_and_self_query_wins() {
        let idx = AnnIndex::build(random_vectors(1200, 16, 2), IndexConfig::default());
        assert!(!idx.is_flat());
        for probe in [0usize, 7, 300, 1199] {
            let q = idx.vector(probe).to_vec();
            let hits = idx.search(&q, 3);
            assert_eq!(hits[0].id, probe, "self-query must return itself first");
        }
    }

    #[test]
    fn hits_are_sorted_and_truncated() {
        let idx = AnnIndex::build(random_vectors(50, 6, 3), IndexConfig::default());
        let hits = idx.search(&random_vectors(1, 6, 4)[0], 10);
        assert_eq!(hits.len(), 10);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // k larger than the collection clamps
        assert_eq!(idx.search(idx.vector(0), 500).len(), 50);
    }

    #[test]
    fn insert_routes_without_rebuild() {
        let mut idx = AnnIndex::build(random_vectors(800, 12, 5), IndexConfig::default());
        let g0 = idx.generation();
        let v = random_vectors(1, 12, 6).pop().unwrap();
        let id = idx.insert(v.clone());
        assert_eq!(id, 800);
        assert_eq!(idx.len(), 801);
        assert_eq!(idx.generation(), g0 + 1);
        let hits = idx.search(&v, 1);
        assert_eq!(hits[0].id, id);
    }

    #[test]
    fn batch_matches_individual_searches() {
        let idx = AnnIndex::build(random_vectors(600, 10, 7), IndexConfig::default());
        let queries: Vec<(Vec<f32>, usize)> =
            random_vectors(9, 10, 8).into_iter().map(|q| (q, 4)).collect();
        let batch = idx.search_batch(&queries);
        for (i, (q, k)) in queries.iter().enumerate() {
            assert_eq!(batch[i], idx.search(q, *k));
        }
    }

    #[test]
    fn json_roundtrip_preserves_results() {
        let mut idx = AnnIndex::build(random_vectors(500, 8, 9), IndexConfig::default());
        idx.insert(random_vectors(1, 8, 10).pop().unwrap());
        let q = random_vectors(1, 8, 11).pop().unwrap();
        let restored = AnnIndex::from_json(&idx.to_json().unwrap()).unwrap();
        assert_eq!(restored.search(&q, 7), idx.search(&q, 7));
        assert_eq!(restored.generation(), idx.generation());
        assert!(AnnIndex::from_json("nonsense").is_err());
    }

    #[test]
    fn try_variants_return_typed_errors() {
        assert!(matches!(
            AnnIndex::try_build(Vec::new(), IndexConfig::default()),
            Err(ServeError::EmptyIndex)
        ));
        let ragged = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(matches!(
            AnnIndex::try_build(ragged, IndexConfig::default()),
            Err(ServeError::DimensionMismatch { expected: 2, got: 1 })
        ));
        let mut idx = AnnIndex::build(random_vectors(40, 4, 20), IndexConfig::default());
        assert!(matches!(
            idx.try_insert(vec![1.0; 7]),
            Err(ServeError::DimensionMismatch { expected: 4, got: 7 })
        ));
        assert_eq!(idx.try_insert(vec![1.0; 4]).unwrap(), 40);
    }

    #[test]
    fn generous_deadline_matches_plain_search() {
        for seed in [21u64, 22] {
            // both flat (small) and IVF (large) modes
            let n = if seed == 21 { 100 } else { 1500 };
            let idx = AnnIndex::build(random_vectors(n, 8, seed), IndexConfig::default());
            let q = random_vectors(1, 8, seed ^ 0xff).pop().unwrap();
            let far = Instant::now() + std::time::Duration::from_secs(60);
            let (hits, degraded) = idx.search_deadline(&q, 10, Some(far)).unwrap();
            assert!(!degraded);
            assert_eq!(hits, idx.search(&q, 10));
            let (hits, degraded) = idx.search_deadline(&q, 10, None).unwrap();
            assert!(!degraded);
            assert_eq!(hits, idx.search(&q, 10));
        }
    }

    #[test]
    fn exhausted_deadline_degrades_instead_of_blocking() {
        let idx = AnnIndex::build(random_vectors(1500, 8, 23), IndexConfig::default());
        let q = random_vectors(1, 8, 24).pop().unwrap();
        // a deadline already in the past: empty partial result, flagged
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let (hits, degraded) = idx.search_deadline(&q, 10, Some(past)).unwrap();
        assert!(degraded);
        assert!(hits.is_empty());
        // width mismatch is a typed error, not a panic
        assert!(idx.search_deadline(&[0.0; 3], 5, None).is_err());
    }

    #[test]
    fn layout_is_metadata_only_and_roundtrips() {
        let vectors = random_vectors(300, 12, 30);
        let plain = AnnIndex::build(vectors.clone(), IndexConfig::default());
        let faceted = AnnIndex::build(vectors, IndexConfig::default())
            .with_layout(FacetLayout::sem(4))
            .unwrap();
        assert!(faceted.has_facets());
        assert!(!plain.has_facets());
        // attaching a layout cannot change stage-1 results
        let q = random_vectors(1, 12, 31).pop().unwrap();
        assert_eq!(plain.search(&q, 10), faceted.search(&q, 10));
        // fused fallback spans the whole vector
        assert_eq!(plain.layout(), FacetLayout::fused(12));
        // layout survives the JSON roundtrip (the snapshot payload)
        let back = AnnIndex::from_json(&faceted.to_json().unwrap()).unwrap();
        assert_eq!(back.layout(), faceted.layout());
        // width mismatch is typed
        let narrow = AnnIndex::build(random_vectors(10, 4, 32), IndexConfig::default());
        assert!(matches!(
            narrow.with_layout(FacetLayout::sem(4)),
            Err(ServeError::DimensionMismatch { expected: 4, got: 12 })
        ));
    }

    #[test]
    fn facet_checksums_localise_corruption() {
        // one-hot vectors have norm exactly 1.0, so normalisation is the
        // bitwise identity and segments can be compared across builds
        let one_hot = |hot: usize| {
            let mut v = vec![0.0f32; 9];
            v[hot] = 1.0;
            v
        };
        let vectors: Vec<Vec<f32>> = (0..120).map(|i| one_hot(i % 9)).collect();
        let idx = AnnIndex::build(vectors.clone(), IndexConfig::default())
            .with_layout(FacetLayout::sem(3))
            .unwrap();
        let sums = idx.facet_checksums();
        assert_eq!(sums.len(), 3);
        assert_eq!(sums[0].name, "bg");
        assert_eq!(sums[0].dim, 3);
        // deterministic across identical builds
        let again = AnnIndex::build(vectors.clone(), IndexConfig::default())
            .with_layout(FacetLayout::sem(3))
            .unwrap();
        assert_eq!(again.facet_checksums(), sums);
        // moving vector 4's hot element within the "method" segment
        // (range 3..6) changes exactly that facet's checksum
        let mut perturbed = vectors;
        perturbed[4] = one_hot(5);
        assert_eq!(perturbed[4][4], 0.0);
        let other = AnnIndex::build(perturbed, IndexConfig::default())
            .with_layout(FacetLayout::sem(3))
            .unwrap();
        let other_sums = other.facet_checksums();
        assert_eq!(other_sums[0], sums[0], "bg segment untouched");
        assert_ne!(other_sums[1], sums[1], "method segment must differ");
        assert_eq!(other_sums[2], sums[2], "result segment untouched");
    }

    #[test]
    fn quantized_search_is_exact_rescore_backed() {
        for (n, seed) in [(200usize, 40u64), (1500, 41)] {
            // flat (small) and IVF (large) modes both take the SQ8 path
            let idx = AnnIndex::build(random_vectors(n, 12, seed), IndexConfig::default())
                .with_sq8()
                .unwrap();
            assert!(idx.is_quantized());
            let q = idx.vector(7).to_vec();
            let hits = idx.search(&q, 5);
            assert_eq!(hits[0].id, 7, "self-query must survive quantization");
            // scores come from the f32 rescore, not the codes: the top hit
            // of a self-query is an exact cosine of 1.0
            assert!((hits[0].score - 1.0).abs() < 1e-5);
            let mut unit = q.clone();
            normalize(&mut unit);
            for h in &hits {
                let exact = dot(idx.vector(h.id), &unit);
                assert!((h.score - exact).abs() < 1e-5, "hit score must be the exact dot");
            }
        }
    }

    #[test]
    fn quantized_recall_stays_high() {
        let vectors = random_vectors(2000, 16, 42);
        let f32_idx = AnnIndex::build(vectors.clone(), IndexConfig::default());
        let sq8_idx = AnnIndex::build(vectors, IndexConfig::default()).with_sq8().unwrap();
        let queries = random_vectors(25, 16, 43);
        let mut overlap = 0usize;
        for q in &queries {
            let ann: Vec<usize> = sq8_idx.search(q, 10).iter().map(|h| h.id).collect();
            let exact: Vec<usize> = f32_idx.search_exact(q, 10).iter().map(|h| h.id).collect();
            overlap += exact.iter().filter(|id| ann.contains(id)).count();
        }
        let recall = overlap as f64 / (10 * queries.len()) as f64;
        assert!(recall >= 0.95, "quantized recall@10 {recall}");
    }

    #[test]
    fn quantized_insert_and_json_roundtrip() {
        let mut idx =
            AnnIndex::build(random_vectors(400, 8, 44), IndexConfig::default()).with_sq8().unwrap();
        // newcomers are quantized under the frozen scales and stay findable
        let v = random_vectors(1, 8, 45).pop().unwrap();
        let id = idx.insert(v.clone());
        assert_eq!(idx.search(&v, 1)[0].id, id);
        // quant sidecar survives the JSON roundtrip with identical results
        let back = AnnIndex::from_json(&idx.to_json().unwrap()).unwrap();
        assert!(back.is_quantized());
        let q = random_vectors(1, 8, 46).pop().unwrap();
        assert_eq!(back.search(&q, 7), idx.search(&q, 7));
        assert_eq!(back.quant_checksums(), idx.quant_checksums());
    }

    #[test]
    fn quantized_memory_is_a_quarter_of_f32() {
        let idx = AnnIndex::build(random_vectors(1000, 32, 47), IndexConfig::default())
            .with_sq8()
            .unwrap();
        let ratio = idx.quant_bytes().unwrap() as f64 / idx.vector_bytes() as f64;
        assert!(ratio < 0.3, "codes/vectors byte ratio {ratio}");
    }

    #[test]
    fn quant_checksums_follow_the_facet_layout() {
        let vectors = random_vectors(150, 9, 48);
        let idx = AnnIndex::build(vectors.clone(), IndexConfig::default())
            .with_layout(FacetLayout::sem(3))
            .unwrap()
            .with_sq8()
            .unwrap();
        let sums = idx.quant_checksums();
        assert_eq!(sums.len(), 3);
        assert_eq!(sums[0].name, "bg");
        assert_eq!(sums[0].dim, 3);
        // deterministic across identical builds
        let again = AnnIndex::build(vectors, IndexConfig::default())
            .with_layout(FacetLayout::sem(3))
            .unwrap()
            .with_sq8()
            .unwrap();
        assert_eq!(again.quant_checksums(), sums);
        // an unquantized index has no code checksums
        let plain = AnnIndex::build(random_vectors(10, 9, 49), IndexConfig::default());
        assert!(plain.quant_checksums().is_empty());
    }

    #[test]
    fn corrupt_quant_sidecars_are_rejected() {
        let idx =
            AnnIndex::build(random_vectors(60, 8, 50), IndexConfig::default()).with_sq8().unwrap();
        use serde_json::JsonValue;
        fn obj_field<'a>(v: &'a mut JsonValue, name: &str) -> &'a mut JsonValue {
            match v {
                JsonValue::Obj(fields) => {
                    &mut fields.iter_mut().find(|(k, _)| k == name).expect(name).1
                }
                other => panic!("expected object, got {}", other.kind()),
            }
        }
        let val = serde_json::parse(&idx.to_json().unwrap()).unwrap();
        // truncated code buffer
        let mut truncated = val.clone();
        match obj_field(obj_field(&mut truncated, "quant"), "codes") {
            JsonValue::Arr(codes) => {
                codes.pop();
            }
            other => panic!("expected array, got {}", other.kind()),
        }
        let err = AnnIndex::from_json(&serde_json::to_string(&truncated).unwrap()).unwrap_err();
        assert!(err.contains("quant codes"), "{err}");
        // negative quantization step
        let mut negated = val;
        match obj_field(obj_field(&mut negated, "quant"), "scales") {
            JsonValue::Arr(scales) => {
                *obj_field(&mut scales[0], "delta") = JsonValue::Float(-1.0);
            }
            other => panic!("expected array, got {}", other.kind()),
        }
        let err = AnnIndex::from_json(&serde_json::to_string(&negated).unwrap()).unwrap_err();
        assert!(err.contains("negative step"), "{err}");
    }

    #[test]
    fn zero_drift_recluster_is_bit_identical_and_skipped() {
        let idx = AnnIndex::build(random_vectors(1500, 12, 60), IndexConfig::default());
        let json_before = idx.to_json().unwrap();
        let mut again = idx.clone();
        let report = again.recluster().unwrap();
        assert!(!report.changed, "unchanged corpus must re-train to the same table");
        assert_eq!(report.routed_tail, 0);
        assert_eq!(again.generation(), idx.generation(), "no-op install must not bump");
        assert_eq!(again.to_json().unwrap(), json_before, "snapshot must be byte-identical");
    }

    #[test]
    fn recluster_after_churn_routes_tail_and_restores_recall() {
        let mut idx = AnnIndex::build(random_vectors(1200, 12, 61), IndexConfig::default());
        let plan = idx.train_recluster();
        // corpus churns while training runs: drifted (offset) newcomers
        let mut extra = random_vectors(300, 12, 62);
        for v in &mut extra {
            v[0] += 2.0;
        }
        for v in &extra {
            idx.insert(v.clone());
        }
        let report = idx.install_recluster(plan).unwrap();
        assert_eq!(report.routed_tail, 300, "post-training inserts must be routed");
        assert_eq!(report.len, 1500);
        // every vector — old and routed tail — must still self-query
        for probe in [0usize, 599, 1200, 1499] {
            let hits = idx.search(idx.vector(probe), 1);
            assert_eq!(hits[0].id, probe, "self-query after recluster handover");
        }
        // a genuinely changed corpus re-trains to a different table
        let report = idx.recluster().unwrap();
        assert!(report.changed, "nlist re-resolves for the grown corpus");
        assert_eq!(report.nlist, resolved_nlist(&IndexConfig::default(), 1500));
    }

    #[test]
    fn recluster_refits_quant_scales() {
        let mut idx = AnnIndex::build(random_vectors(1000, 8, 63), IndexConfig::default())
            .with_sq8()
            .unwrap();
        let sums_before = idx.quant_checksums();
        let mut extra = random_vectors(400, 8, 64);
        for v in &mut extra {
            v[2] -= 3.0;
        }
        for v in &extra {
            idx.insert(v.clone());
        }
        let report = idx.recluster().unwrap();
        assert!(report.changed);
        assert!(idx.is_quantized(), "quant sidecar must survive the handover");
        assert_ne!(idx.quant_checksums(), sums_before, "scales re-fit over the drifted corpus");
        for probe in [0usize, 500, 1399] {
            let hits = idx.search(idx.vector(probe), 1);
            assert_eq!(hits[0].id, probe);
        }
    }

    #[test]
    fn drift_stats_track_skewed_ingest() {
        let mut idx = AnnIndex::build(random_vectors(1200, 10, 65), IndexConfig::default());
        let base = idx.drift_stats();
        assert_eq!(base.len, 1200);
        assert!(base.nlist > 0);
        assert!(base.skew >= 1.0);
        assert!(base.mean_residual > 0.0, "random data never sits on its centroids");
        // pile drifted vectors into whatever cell attracts them: skew and
        // residual must both grow
        let mut extra = random_vectors(600, 10, 66);
        for v in &mut extra {
            v[0] += 4.0;
        }
        for v in &extra {
            idx.insert(v.clone());
        }
        let after = idx.drift_stats();
        assert!(after.skew > base.skew, "skew {} -> {}", base.skew, after.skew);
        assert!(
            after.mean_residual > base.mean_residual,
            "residual {} -> {}",
            base.mean_residual,
            after.mean_residual
        );
        // re-clustering repairs both signals
        idx.recluster().unwrap();
        let repaired = idx.drift_stats();
        assert!(repaired.mean_residual < after.mean_residual);
        // flat indexes report neutral drift
        let flat = AnnIndex::build(random_vectors(50, 10, 67), IndexConfig::default());
        let stats = flat.drift_stats();
        assert_eq!((stats.nlist, stats.skew, stats.mean_residual), (0, 1.0, 0.0));
    }

    #[test]
    fn stale_plan_from_longer_index_is_rejected() {
        let big = AnnIndex::build(random_vectors(900, 8, 68), IndexConfig::default());
        let plan = big.train_recluster();
        let mut small = AnnIndex::build(random_vectors(500, 8, 68), IndexConfig::default());
        assert!(matches!(small.install_recluster(plan), Err(ServeError::Invalid(_))));
    }

    /// Ids and score bits of a result, for exact comparison.
    fn bits(hits: &[Hit]) -> Vec<(usize, u32)> {
        hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
    }

    /// Every `k` the flat path has to get right: none, one, small, the
    /// bench's 128, the rerank fetch of 200, all, and more than all.
    fn probe_ks(len: usize) -> [usize; 7] {
        [0, 1, 10, 128, 200, len, len + 5]
    }

    /// Random rows plus the cases a top-k gets wrong first: exact
    /// duplicates, a 1-ulp perturbation, parallel rows that normalise to
    /// near-identical vectors, and a zero row.
    fn tie_heavy_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut v = random_vectors(n, dim, seed);
        v[10] = v[3].clone();
        v[11] = v[3].clone();
        v[20] = v[3].clone();
        v[20][0] = f32::from_bits(v[20][0].to_bits() + 1);
        for i in 40..48 {
            v[i] = v[5].iter().map(|x| x * (1 + i - 40) as f32).collect();
        }
        v[30] = vec![0.0; dim];
        v
    }

    /// `search` equals the `search_exact` oracle in ids and score bits for
    /// every probed `k`, on stored rows (duplicate ties), random rows and
    /// the zero query (every score a signed zero).
    fn assert_flat_is_exact(idx: &AnnIndex, step: &str) {
        assert!(idx.blocked.is_some(), "{step}: a flat f32 index holds its scan layout");
        assert_eq!(idx.blocked.as_ref().map(BlockedMatrix::len), Some(idx.len()), "{step}");
        let mut queries = random_vectors(4, idx.dim(), 90);
        queries.extend([3usize, 5, 30].iter().map(|&id| idx.vector(id).to_vec()));
        queries.push(vec![0.0; idx.dim()]);
        for (qi, q) in queries.iter().enumerate() {
            for k in probe_ks(idx.len()) {
                let want = idx.search_exact(q, k);
                assert_eq!(bits(&idx.search(q, k)), bits(&want), "{step}: q{qi} k={k}");
                let far = Instant::now() + std::time::Duration::from_secs(60);
                let (hits, degraded) = idx.search_deadline(q, k, Some(far)).unwrap();
                assert!(!degraded);
                assert_eq!(bits(&hits), bits(&want), "{step}: deadline q{qi} k={k}");
            }
        }
    }

    #[test]
    fn flat_search_is_the_exact_oracle_bit_for_bit() {
        let cfg = IndexConfig { flat_threshold: 200, ..IndexConfig::default() };
        let mut idx = AnnIndex::build(tie_heavy_vectors(150, 12, 91), cfg);
        assert_flat_is_exact(&idx, "built");

        for v in tie_heavy_vectors(60, 12, 92) {
            idx.insert(v);
        }
        idx.insert(idx.vector(3).to_vec());
        assert_flat_is_exact(&idx, "after inserts");

        let bytes = snapshot::encode(&idx).unwrap();
        let (header, _) = snapshot::parse(&bytes).unwrap();
        assert_flat_is_exact(&header.decode(&bytes).unwrap(), "after v4 encode/decode");

        // the layout is derived state: the JSON form is the persisted
        // fields only, and reading it back rebuilds the layout
        let json = idx.to_json().unwrap();
        assert!(!json.contains("blocked"));
        let back = AnnIndex::from_json(&json).unwrap();
        assert_eq!(back.to_json().unwrap(), json);
        assert_flat_is_exact(&back, "after JSON roundtrip");

        // quantizing drops the layout; once the rescore pool covers the
        // whole collection the quantized path is exact too
        let mut sq8 = idx.clone();
        sq8.enable_sq8().unwrap();
        assert!(sq8.blocked.is_none(), "a quantized index holds no f32 scan layout");
        let q = random_vectors(1, 12, 93).pop().unwrap();
        for k in probe_ks(sq8.len()) {
            if sq8.rescore_depth(k) == sq8.len() {
                assert_eq!(bits(&sq8.search(&q, k)), bits(&idx.search_exact(&q, k)), "sq8 k={k}");
            }
        }

        // 211 vectors outgrow flat_threshold 200: re-clustering leaves
        // flat mode and drops the layout ...
        let report = idx.recluster().unwrap();
        assert!(report.changed && report.nlist > 0);
        assert!(!idx.is_flat() && idx.blocked.is_none(), "an IVF index holds no f32 scan layout");
        // ... and installing a flat plan (trained on a twin configured to
        // stay flat) returns to flat mode with the layout rebuilt
        let twin_cfg = IndexConfig { flat_threshold: usize::MAX, ..cfg };
        let twin = AnnIndex::build(random_vectors(idx.len(), 12, 94), twin_cfg);
        let report = idx.install_recluster(twin.train_recluster()).unwrap();
        assert!(report.changed && report.nlist == 0);
        assert_flat_is_exact(&idx, "after recluster back to flat");

        // a scan of several deadline strides, the last one partial
        let long = AnnIndex::build(tie_heavy_vectors(2500, 8, 99), twin_cfg);
        assert_flat_is_exact(&long, "across deadline strides");
    }

    #[test]
    fn huge_k_neither_overflows_nor_allocates_k() {
        let flat = IndexConfig { flat_threshold: usize::MAX, ..IndexConfig::default() };
        let indexes = [
            ("flat f32", AnnIndex::build(random_vectors(300, 8, 95), flat)),
            ("flat sq8", AnnIndex::build(random_vectors(300, 8, 96), flat).with_sq8().unwrap()),
            (
                "ivf sq8",
                AnnIndex::build(random_vectors(1500, 8, 97), IndexConfig::default())
                    .with_sq8()
                    .unwrap(),
            ),
        ];
        let q = random_vectors(1, 8, 98).pop().unwrap();
        for (name, idx) in &indexes {
            // a flat scan returns every vector; an IVF probe every vector
            // in the probed cells, which is what `k = len` returns
            let all = idx.search(&q, idx.len());
            assert_eq!(all.len() == idx.len(), idx.is_flat(), "{name}");
            for k in [1usize << 62, usize::MAX] {
                if idx.is_quantized() {
                    assert_eq!(idx.rescore_depth(k), idx.len(), "{name} k={k}");
                }
                assert_eq!(bits(&idx.search(&q, k)), bits(&all), "{name} k={k}");
                let (hits, degraded) = idx.search_deadline(&q, k, None).unwrap();
                assert!(!degraded);
                assert_eq!(bits(&hits), bits(&all), "{name} k={k}");
            }
        }
    }

    #[test]
    fn recall_on_clustered_data_is_high() {
        // random uniform is the worst case for IVF; still, the default
        // config must find the bulk of true neighbours
        let vectors = random_vectors(2000, 12, 12);
        let idx = AnnIndex::build(vectors, IndexConfig::default());
        let queries = random_vectors(20, 12, 13);
        let mut overlap = 0usize;
        for q in &queries {
            let ann: Vec<usize> = idx.search(q, 10).iter().map(|h| h.id).collect();
            let exact: Vec<usize> = idx.search_exact(q, 10).iter().map(|h| h.id).collect();
            overlap += exact.iter().filter(|id| ann.contains(id)).count();
        }
        let recall = overlap as f64 / (10 * queries.len()) as f64;
        assert!(recall >= 0.9, "recall@10 {recall}");
    }
}
