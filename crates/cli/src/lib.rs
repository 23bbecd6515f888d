//! # sem-cli
//!
//! The `sem` command-line tool: end-user workflows over the workspace
//! library — corpus generation and inspection, SEM training with on-disk
//! persistence, innovation analysis and paper recommendation.
//!
//! Commands (see `sem help`):
//!
//! ```text
//! sem generate  --preset acm|scopus|scopus3|pubmed|patent [--papers N] [--authors N] [--seed S] --out corpus.json
//! sem stats     --corpus corpus.json
//! sem train     --corpus corpus.json --out model-dir [--epochs N] [--workers N] [--checkpoint-dir DIR] [--checkpoint-every N] [--resume] [--progress]
//! sem embed     --model model-dir --paper ID
//! sem analyze   --corpus corpus.json [--lof-k K]
//! sem recommend --corpus corpus.json --split YEAR --user ID [--top N]
//! sem index build  --model model-dir --out index.snap [--nlist N] [--nprobe N]
//! sem index query  --model model-dir --index index.snap --paper ID[,ID...] [--k K] [--deadline-ms MS]
//! sem index verify --index index.snap
//! sem index migrate --index index.snap
//! sem ingest       --model model-dir --index index.snap --title T --abstract TEXT [--year Y]
//! ```
//!
//! The serve family (`index build` / `index query` / `index verify` /
//! `ingest`) speaks JSON on stdout and is backed by the `sem-serve` crate:
//! an IVF-flat ANN index over SEM paper embeddings, a batched query engine
//! with an LRU result cache, and incremental zero-citation-paper ingestion.
//! Indexes live in crash-safe binary snapshots (checksummed sections,
//! atomic rename) with a write-ahead journal alongside: `ingest` fsyncs the
//! journal before acknowledging, loading replays it, `index verify`
//! reports integrity, and `--deadline-ms` turns budget exhaustion into
//! partial results flagged `degraded` instead of blocking.
//!
//! Model persistence: the frozen text pipeline (skip-gram, encoder, CRF) is
//! deterministic given the corpus and seed, so a model directory stores only
//! the corpus reference, the SEM config and the trained weights; loading
//! re-derives the pipeline bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
mod metrics_cmd;
mod serve_cmds;

pub use commands::{run, CliError};
