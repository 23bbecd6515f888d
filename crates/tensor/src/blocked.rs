//! Lane-blocked row matrix: the layout of the exact f32 flat scan.
//!
//! Rows are stored in blocks of [`LANES`], dimension-major inside a block:
//! element `d` of row `LANES·b + l` sits at `blocks[b·dim + d][l]`. A scan
//! walks one block at a time and runs
//!
//! ```text
//! acc[l] += blk[d][l] * q[d]        for d in 0..dim, all lanes together
//! ```
//!
//! with every `acc[l]` seeded by `-0.0`, the identity `Iterator::sum` folds
//! `f32`s from. Each lane therefore performs exactly the multiplies and
//! adds of the row-at-a-time dot `row.iter().zip(q).map(|(x, y)| x * y).sum()`
//! in the same order — `x * y == y * x` exactly, and Rust never contracts a
//! multiply and an add into an FMA — so every score is bit-identical to
//! that sequential dot. What changes is that the lanes are independent, so
//! the compiler emits packed `mulps`/`addps` over eight rows at once
//! instead of one scalar chain per row. The one exception is a NaN score
//! (it needs a non-finite input): it is NaN in both, but Rust leaves the
//! sign and payload of a NaN result unspecified, so where two different
//! NaNs meet in one add the compiler's operand order picks the survivor.
//!
//! The last block is zero-padded; padded lanes are computed and never
//! emitted.

use std::ops::Range;

/// Rows per block: one accumulator lane each.
pub const LANES: usize = 8;

/// A row matrix in the lane-blocked layout (see the module docs).
#[derive(Clone, Debug)]
pub struct BlockedMatrix {
    dim: usize,
    rows: usize,
    /// `rows.div_ceil(LANES) · dim` entries; entry `b·dim + d` holds
    /// element `d` of the block's eight rows.
    blocks: Vec<[f32; LANES]>,
}

impl BlockedMatrix {
    /// An empty matrix of `dim`-wide rows.
    pub fn new(dim: usize) -> Self {
        BlockedMatrix { dim, rows: 0, blocks: Vec::new() }
    }

    /// The matrix holding `rows` in order, allocated to its exact size.
    ///
    /// # Panics
    /// Panics when a row is not `dim` wide.
    pub fn from_rows<R: AsRef<[f32]>>(dim: usize, rows: &[R]) -> Self {
        let mut blocks = vec![[0.0; LANES]; rows.len().div_ceil(LANES) * dim];
        for (i, row) in rows.iter().enumerate() {
            let row = row.as_ref();
            assert_eq!(row.len(), dim, "row width mismatch");
            let block = &mut blocks[i / LANES * dim..][..dim];
            for (slot, &x) in block.iter_mut().zip(row) {
                slot[i % LANES] = x;
            }
        }
        BlockedMatrix { dim, rows: rows.len(), blocks }
    }

    /// Appends one row; its id is the previous [`BlockedMatrix::len`].
    ///
    /// # Panics
    /// Panics when the row is not `dim` wide.
    pub fn push(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row width mismatch");
        let lane = self.rows % LANES;
        if lane == 0 {
            self.blocks.resize(self.blocks.len() + self.dim, [0.0; LANES]);
        }
        let block = &mut self.blocks[self.rows / LANES * self.dim..];
        for (slot, &x) in block.iter_mut().zip(row) {
            slot[lane] = x;
        }
        self.rows += 1;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Calls `emit(id, score)` for every row in id order, `score` being
    /// the row's sequential dot with `q`, bit for bit.
    ///
    /// # Panics
    /// Panics when `q` is not `dim` wide.
    pub fn scan(&self, q: &[f32], emit: impl FnMut(usize, f32)) {
        self.scan_range(0..self.rows, q, emit);
    }

    /// [`BlockedMatrix::scan`] restricted to the ids in `rows` (clamped to
    /// the matrix). A range starting on a multiple of [`LANES`] computes no
    /// block twice across consecutive calls.
    ///
    /// # Panics
    /// Panics when `q` is not `dim` wide.
    pub fn scan_range(&self, rows: Range<usize>, q: &[f32], mut emit: impl FnMut(usize, f32)) {
        assert_eq!(q.len(), self.dim, "query width mismatch");
        let end = rows.end.min(self.rows);
        if rows.start >= end {
            return;
        }
        for b in rows.start / LANES..end.div_ceil(LANES) {
            let acc = self.block_dot(b, q);
            let base = b * LANES;
            let lo = rows.start.saturating_sub(base);
            let hi = (end - base).min(LANES);
            for (lane, &score) in acc[lo..hi].iter().enumerate() {
                emit(base + lo + lane, score);
            }
        }
    }

    /// The eight dots of block `b` with `q`, one per lane.
    #[inline]
    fn block_dot(&self, b: usize, q: &[f32]) -> [f32; LANES] {
        let mut acc = [-0.0f32; LANES];
        for (lanes, &y) in self.blocks[b * self.dim..(b + 1) * self.dim].iter().zip(q) {
            for (a, &x) in acc.iter_mut().zip(lanes) {
                *a += x * y;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The row-at-a-time dot the layout must reproduce bit for bit.
    fn dot(row: &[f32], q: &[f32]) -> f32 {
        row.iter().zip(q).map(|(x, y)| x * y).sum()
    }

    /// The matrix's shape and stored bits (NaN-safe equality).
    fn bits(m: &BlockedMatrix) -> (usize, usize, Vec<[u32; LANES]>) {
        (m.dim, m.rows, m.blocks.iter().map(|b| b.map(f32::to_bits)).collect())
    }

    fn scores(m: &BlockedMatrix, rows: Range<usize>, q: &[f32]) -> Vec<(usize, u32)> {
        let mut out = Vec::new();
        m.scan_range(rows, q, |id, s| out.push((id, s.to_bits())));
        out
    }

    #[test]
    fn empty_sum_is_negative_zero() {
        // the accumulator seed must be the identity `sum` folds from
        let s: f32 = std::iter::empty::<f32>().sum();
        assert_eq!(s.to_bits(), (-0.0f32).to_bits());
        let m = BlockedMatrix::from_rows(0, &[[0.0f32; 0]; 3]);
        assert_eq!(
            scores(&m, 0..3, &[]),
            vec![(0, s.to_bits()), (1, s.to_bits()), (2, s.to_bits())]
        );
    }

    #[test]
    fn zero_products_keep_the_sign_of_the_sequential_sum() {
        // (-0.0) + (-0.0) = -0.0 but (-0.0) + 0.0 = 0.0: a seed of +0.0
        // would turn the first row's score positive
        let rows = [vec![-1.0f32, 0.0], vec![1.0, 0.0]];
        let q = [0.0f32, -1.0];
        let m = BlockedMatrix::from_rows(2, &rows);
        let want: Vec<(usize, u32)> =
            rows.iter().enumerate().map(|(i, r)| (i, dot(r, &q).to_bits())).collect();
        assert_eq!(want[0].1, (-0.0f32).to_bits());
        assert_eq!(scores(&m, 0..2, &q), want);
    }

    #[test]
    fn ranges_split_on_any_row() {
        let rows: Vec<Vec<f32>> =
            (0..21).map(|i| (0..5).map(|d| (i * 5 + d) as f32 * 0.37 - 9.0).collect()).collect();
        let m = BlockedMatrix::from_rows(5, &rows);
        let q = [0.5f32, -1.25, 2.0, 0.0, 3.5];
        let all = scores(&m, 0..21, &q);
        for start in 0..=21 {
            for end in start..=25 {
                assert_eq!(scores(&m, start..end, &q), all[start..end.min(21)], "{start}..{end}");
            }
        }
    }

    /// One element drawn across the range: mostly ordinary magnitudes,
    /// plus signed zeros, subnormals, magnitudes whose products overflow
    /// and — when `poison` — infinities and NaNs.
    fn element(rng: &mut StdRng, poison: bool) -> f32 {
        let sign = if rng.gen::<bool>() { -1.0f32 } else { 1.0 };
        match rng.gen_range(0..if poison { 13 } else { 10 }) {
            0..=5 => rng.gen_range(-4.0f32..4.0),
            6 => 0.0,
            7 => -0.0,
            8 => sign * f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
            9 => sign * rng.gen_range(1.0e18f32..3.0e38),
            10 => f32::INFINITY,
            11 => f32::NEG_INFINITY,
            _ => f32::NAN,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        fn scan_is_the_sequential_dot_bit_for_bit(
            dim in 1usize..=300,
            n in 0usize..=40,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // one row in seven may carry infinities and NaNs
            let rows: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    let poison = rng.gen_range(0..7) == 0;
                    (0..dim).map(|_| element(&mut rng, poison)).collect()
                })
                .collect();
            let q: Vec<f32> = (0..dim).map(|_| element(&mut rng, false)).collect();
            let split = rng.gen_range(0..=n);
            let dim = q.len();
            let m = BlockedMatrix::from_rows(dim, &rows);
            prop_assert_eq!(m.len(), rows.len());
            // every row emitted once, in id order, with the sequential
            // dot's exact bits; no padded lane ever reaches `emit`. A NaN
            // score is only required to be NaN: Rust leaves the sign and
            // payload of a NaN result unspecified, and where two different
            // NaNs meet in one add (an input NaN and an `inf * 0`) the
            // compiler's operand order picks which survives
            let mut emitted = Vec::new();
            m.scan(&q, |id, s| emitted.push((id, s)));
            prop_assert_eq!(emitted.len(), rows.len());
            for (i, ((id, got), r)) in emitted.iter().zip(&rows).enumerate() {
                let want = dot(r, &q);
                prop_assert_eq!(*id, i);
                prop_assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "row {i}: {got:e} ({:#x}) vs sequential {want:e} ({:#x})",
                    got.to_bits(),
                    want.to_bits()
                );
            }
            // appending row by row onto a prefix builds the same matrix
            let mut grown = BlockedMatrix::from_rows(dim, &rows[..split]);
            for r in &rows[split..] {
                grown.push(r);
            }
            prop_assert_eq!(bits(&grown), bits(&m));
            let mut pushed = BlockedMatrix::new(dim);
            for r in &rows {
                pushed.push(r);
            }
            prop_assert_eq!(bits(&pushed), bits(&m));
        }
    }
}
