//! SEMSNAP v4: the binary on-disk form of an [`AnnIndex`] (byte-level
//! tables in DESIGN.md §9.1).
//!
//! A fixed 184-byte little-endian header — magic, version, `dim`, `nlist`,
//! vector count, a six-entry section table (kind, CRC32, offset, length)
//! and a CRC32 over all of it — followed by the sections in table order:
//! `config`, `layout`, `centroids` (`nlist × dim` f32), `lists` (cell
//! lengths, then u32 ids), `vectors` (the row-major `count × dim` f32
//! matrix) and `quant` (SQ8 rescore depth, per-segment width and scale,
//! then the `count × dim` code matrix). Every section starts on an 8-byte
//! boundary and is zero-padded to the next; its CRC covers the padding,
//! so every byte of the file is under exactly one checksum. Length 0
//! marks an absent section (no layout, flat mode, unquantized).
//!
//! The reader trusts nothing it has not bounded: every table entry is
//! checked (with `checked_*` arithmetic) against the file length before a
//! byte of it is touched, and every count that sizes an allocation is
//! first checked against the length of the section it indexes.

use std::ops::Range;

use sem_tensor::quant::Sq8Scale;

use super::{AnnIndex, IndexConfig, Sq8Data};
use crate::error::ServeError;
use crate::facet::FacetLayout;
use crate::store::crc32;
use serde::Serialize;

pub(crate) const MAGIC: &[u8; 8] = b"SEMSNAP1";
pub(crate) const VERSION: u32 = 4;
pub(crate) const HEADER_LEN: usize = 184;
/// Section names in table order; a section's kind is its position + 1.
pub(crate) const SECTIONS: [&str; 6] =
    ["config", "layout", "centroids", "lists", "vectors", "quant"];
const TABLE_AT: usize = 32;
const ENTRY_LEN: usize = 24;
const HEADER_CRC_AT: usize = HEADER_LEN - 4;
const MIGRATE_HINT: &str =
    "bare-JSON and v1-v3 stores are converted offline by `sem index migrate --index PATH`";

pub(crate) fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

pub(crate) fn u64_at(b: &[u8], at: usize) -> u64 {
    u32_at(b, at) as u64 | ((u32_at(b, at + 4) as u64) << 32)
}

/// Appends `values` as little-endian f32s.
fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    for x in values {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Decodes little-endian f32s (`bytes.len()` must be a multiple of 4).
fn f32s(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
}

fn narrow(value: usize, what: &str) -> Result<u32, ServeError> {
    u32::try_from(value).map_err(|_| {
        ServeError::Invalid(format!("{what} {value} does not fit the snapshot format"))
    })
}

/// Encodes `index` as a complete v4 snapshot file image.
///
/// # Errors
/// [`ServeError::Invalid`] when a width, cell count or id exceeds `u32`.
pub(crate) fn encode(index: &AnnIndex) -> Result<Vec<u8>, ServeError> {
    let (n, dim) = (index.vectors.len(), index.dim);
    let mut out = Vec::with_capacity(HEADER_LEN + n * dim * 5 + n * 4 + 4096);
    out.resize(HEADER_LEN, 0);
    let mut table = Vec::with_capacity(SECTIONS.len() * ENTRY_LEN);
    // pads the section that started at `start`, then records its entry
    let mut seal = |out: &mut Vec<u8>, start: usize| {
        let len = out.len() - start;
        out.resize(out.len().next_multiple_of(8), 0);
        table.extend_from_slice(&((table.len() / ENTRY_LEN) as u32 + 1).to_le_bytes());
        table.extend_from_slice(&crc32(&out[start..]).to_le_bytes());
        table.extend_from_slice(&(start as u64).to_le_bytes());
        table.extend_from_slice(&(len as u64).to_le_bytes());
        out.len()
    };

    let c = &index.config;
    for v in [c.nlist, c.nprobe, c.flat_threshold, c.kmeans_iters] {
        out.extend_from_slice(&(v as u64).to_le_bytes());
    }
    out.extend_from_slice(&c.seed.to_le_bytes());
    out.extend_from_slice(&index.generation.to_le_bytes());
    let mut start = seal(&mut out, HEADER_LEN);

    if let Some(layout) = &index.layout {
        out.extend_from_slice(&narrow(layout.len(), "facet count")?.to_le_bytes());
        for (name, &width) in layout.names().iter().zip(layout.dims()) {
            out.extend_from_slice(&narrow(width, "facet width")?.to_le_bytes());
            out.extend_from_slice(&narrow(name.len(), "facet name length")?.to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
    }
    start = seal(&mut out, start);

    for centroid in &index.centroids {
        put_f32s(&mut out, centroid);
    }
    start = seal(&mut out, start);

    for list in &index.lists {
        out.extend_from_slice(&narrow(list.len(), "cell length")?.to_le_bytes());
    }
    for &id in index.lists.iter().flatten() {
        out.extend_from_slice(&narrow(id, "vector id")?.to_le_bytes());
    }
    start = seal(&mut out, start);

    for vector in &index.vectors {
        put_f32s(&mut out, vector);
    }
    start = seal(&mut out, start);

    if let Some(sq) = &index.quant {
        out.extend_from_slice(&(sq.rescore as u64).to_le_bytes());
        out.extend_from_slice(&narrow(sq.widths.len(), "quant segment count")?.to_le_bytes());
        out.extend_from_slice(&[0; 4]);
        for (&width, scale) in sq.widths.iter().zip(&sq.scales) {
            out.extend_from_slice(&narrow(width, "quant segment width")?.to_le_bytes());
            put_f32s(&mut out, &[scale.min, scale.delta]);
            out.extend_from_slice(&[0; 4]);
        }
        out.extend_from_slice(&sq.codes);
    }
    seal(&mut out, start);

    out[..8].copy_from_slice(MAGIC);
    out[8..12].copy_from_slice(&VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&narrow(dim, "vector width")?.to_le_bytes());
    out[16..20].copy_from_slice(&narrow(index.centroids.len(), "cell count")?.to_le_bytes());
    out[20..28].copy_from_slice(&(n as u64).to_le_bytes());
    out[28..32].copy_from_slice(&(SECTIONS.len() as u32).to_le_bytes());
    out[TABLE_AT..TABLE_AT + table.len()].copy_from_slice(&table);
    let header_crc = crc32(&out[..HEADER_CRC_AT]);
    out[HEADER_CRC_AT..HEADER_LEN].copy_from_slice(&header_crc.to_le_bytes());
    Ok(out)
}

/// Checksum verdict for one snapshot section (`sem index verify`).
#[derive(Debug, Serialize)]
pub struct SectionReport {
    /// `config`, `layout`, `centroids`, `lists`, `vectors` or `quant`.
    pub name: String,
    /// Section length in bytes (0 = absent).
    pub bytes: u64,
    /// CRC32 recorded in the section table.
    pub crc32: u32,
    /// Whether the section's bytes still match it.
    pub ok: bool,
}

/// A parsed v4 header whose every section lies inside the file.
pub(crate) struct Header {
    pub dim: usize,
    pub nlist: usize,
    pub count: u64,
    /// Each section's bytes within the file, in table order, padding
    /// excluded.
    ranges: Vec<Range<usize>>,
}

/// Format version of a file that carries the snapshot magic, before any
/// checksum is looked at (`index migrate` dispatches on it).
pub(crate) fn version_of(bytes: &[u8]) -> Option<u32> {
    (bytes.len() >= 12 && &bytes[..8] == MAGIC).then(|| u32_at(bytes, 8))
}

/// Parses and bounds-checks the header and section table of `bytes`, and
/// checksums every section: returns the header plus one verdict per
/// section, in table order.
///
/// # Errors
/// A description of the first failed header or geometry check (section
/// checksum failures are verdicts, not errors). Legacy formats are named
/// as such, with the migration command.
pub(crate) fn parse(bytes: &[u8]) -> Result<(Header, Vec<SectionReport>), String> {
    match version_of(bytes) {
        None => return Err(format!("not a SEMSNAP snapshot; {MIGRATE_HINT}")),
        Some(VERSION) => {}
        Some(v) => return Err(format!("unsupported format version {v}; {MIGRATE_HINT}")),
    }
    if bytes.len() < HEADER_LEN {
        return Err(format!("file holds {} bytes, shorter than the header", bytes.len()));
    }
    if crc32(&bytes[..HEADER_CRC_AT]) != u32_at(bytes, HEADER_CRC_AT) {
        return Err("header checksum mismatch".into());
    }
    if u32_at(bytes, 28) as usize != SECTIONS.len() {
        return Err(format!("header declares {} sections", u32_at(bytes, 28)));
    }
    // sections sit back to back in table order, so each entry's offset is
    // fully determined by the lengths before it
    let mut at = HEADER_LEN as u64;
    let (mut sections, mut ranges) = (Vec::new(), Vec::new());
    for (i, name) in SECTIONS.into_iter().enumerate() {
        let entry = TABLE_AT + i * ENTRY_LEN;
        let (offset, len) = (u64_at(bytes, entry + 8), u64_at(bytes, entry + 16));
        let padded_end = offset
            .checked_add(len)
            .and_then(|end| end.checked_next_multiple_of(8))
            .filter(|&end| end <= bytes.len() as u64);
        let Some(padded_end) = padded_end else {
            return Err(format!("section `{name}` extends past the end of the file"));
        };
        if u32_at(bytes, entry) as usize != i + 1 || offset != at {
            return Err(format!("section `{name}` is out of order or overlaps its neighbour"));
        }
        let stored = u32_at(bytes, entry + 4);
        let ok = crc32(&bytes[offset as usize..padded_end as usize]) == stored;
        sections.push(SectionReport { name: name.into(), bytes: len, crc32: stored, ok });
        ranges.push(offset as usize..(offset + len) as usize);
        at = padded_end;
    }
    if at != bytes.len() as u64 {
        return Err(format!("sections end at byte {at} but the file holds {}", bytes.len()));
    }
    let (dim, nlist) = (u32_at(bytes, 12) as usize, u32_at(bytes, 16) as usize);
    Ok((Header { dim, nlist, count: u64_at(bytes, 20), ranges }, sections))
}

/// Forward reader over one section; running out of bytes is an error
/// naming the section, never a panic.
struct Cursor<'a> {
    name: &'static str,
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// Takes `count × width` bytes.
    fn take(&mut self, count: usize, width: usize) -> Result<&'a [u8], String> {
        let n = count.checked_mul(width).filter(|&n| n <= self.rest.len()).ok_or_else(|| {
            format!("section `{}` is too short for {count} × {width} more bytes", self.name)
        })?;
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<usize, String> {
        Ok(u32_at(self.take(1, 4)?, 0) as usize)
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64_at(self.take(1, 8)?, 0))
    }

    fn usize(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("section `{}` holds oversized value {v}", self.name))
    }

    fn finish(self) -> Result<(), String> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!("section `{}` holds {} unexpected bytes", self.name, self.rest.len()))
        }
    }
}

impl Header {
    /// Decodes the sections of `bytes` (the file this header was parsed
    /// from, checksums already verified) into a validated index.
    ///
    /// # Errors
    /// A description of the first section whose shape disagrees with the
    /// header, or of the first [`AnnIndex`] invariant the result breaks.
    pub(crate) fn decode(&self, bytes: &[u8]) -> Result<AnnIndex, String> {
        let (dim, nlist) = (self.dim, self.nlist);
        if dim == 0 {
            return Err("header declares zero-width vectors".into());
        }
        let count = usize::try_from(self.count)
            .map_err(|_| format!("header declares {} vectors", self.count))?;
        let mut cursors = SECTIONS
            .into_iter()
            .zip(&self.ranges)
            .map(|(name, r)| Cursor { name, rest: &bytes[r.clone()] });
        let mut section = || cursors.next().expect("parse yields every section");
        let rows = |flat: &[u8]| flat.chunks_exact(dim * 4).map(f32s).collect::<Vec<_>>();

        let mut c = section();
        let config = IndexConfig {
            nlist: c.usize()?,
            nprobe: c.usize()?,
            flat_threshold: c.usize()?,
            kmeans_iters: c.usize()?,
            seed: c.u64()?,
        };
        let generation = c.u64()?;
        c.finish()?;

        let mut c = section();
        let layout = if c.rest.is_empty() {
            None
        } else {
            let facets = c.u32()?;
            let (mut names, mut dims) = (Vec::new(), Vec::new());
            for _ in 0..facets {
                dims.push(c.u32()?);
                let name_len = c.u32()?;
                let name = std::str::from_utf8(c.take(name_len, 1)?)
                    .map_err(|_| "section `layout` holds a non-UTF-8 facet name".to_string())?;
                names.push(name.to_string());
            }
            c.finish()?;
            Some(FacetLayout::new(names, dims).map_err(|e| format!("section `layout`: {e}"))?)
        };

        let mut c = section();
        let centroids = rows(c.take(nlist, dim * 4)?);
        c.finish()?;

        let mut c = section();
        let cell_lens = c.take(nlist, 4)?;
        let mut lists = Vec::with_capacity(nlist);
        for len in cell_lens.chunks_exact(4) {
            let ids = c.take(u32_at(len, 0) as usize, 4)?;
            lists.push(ids.chunks_exact(4).map(|id| u32_at(id, 0) as usize).collect());
        }
        c.finish()?;

        let mut c = section();
        let vectors = rows(c.take(count, dim * 4)?);
        c.finish()?;

        let mut c = section();
        let quant = if c.rest.is_empty() {
            None
        } else {
            let rescore = c.usize()?;
            let segments = c.u32()?;
            c.u32()?;
            let (mut widths, mut scales) = (Vec::new(), Vec::new());
            for segment in c.take(segments, 16)?.chunks_exact(16) {
                widths.push(u32_at(segment, 0) as usize);
                scales.push(Sq8Scale {
                    min: f32::from_bits(u32_at(segment, 4)),
                    delta: f32::from_bits(u32_at(segment, 8)),
                });
            }
            let codes = c.take(count, dim)?.to_vec();
            c.finish()?;
            Some(Sq8Data { widths, scales, codes, rescore })
        };

        AnnIndex {
            config,
            dim,
            vectors,
            centroids,
            lists,
            generation,
            layout,
            quant,
            blocked: None,
        }
        .loaded()
    }
}
