//! Estimators: percentiles within a block, quartiles across blocks.
//!
//! Neighbour noise on a shared host is additive and bursty: it makes some
//! blocks slower and none faster. A latency metric is therefore the lower
//! quartile across blocks of the per-block percentile, and a rate metric
//! the upper quartile of per-block rates — both sit on the undisturbed
//! side of the block distribution and still move when the program does.

/// Nearest-rank percentile of ascending `sorted` (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The three quartile cut points of `values`, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method). One
/// value is its own quartiles; no values have NaN ones, which a run
/// refuses to print — a phase that measured nothing fails the run.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        return [x.first().copied().unwrap_or(f64::NAN); 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    out
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Interquartile range over the median, in percent.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2 * 100.0
    }
}

/// One block of a timed phase: `n` operations measured back to back.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    /// Median latency of the block's operations, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile latency, nanoseconds.
    pub p95_ns: u64,
    /// Operations per second over the block's wall time.
    pub rate: f64,
    /// Whether spans were recorded during the block.
    pub traced: bool,
}

impl Block {
    /// Summarises one block; `latencies` is sorted in place.
    pub fn of(latencies: &mut [u64], wall_ns: u64, traced: bool) -> Block {
        latencies.sort_unstable();
        Block {
            p50_ns: percentile(latencies, 50.0),
            p95_ns: percentile(latencies, 95.0),
            rate: latencies.len() as f64 / (wall_ns.max(1) as f64 / 1e9),
            traced,
        }
    }
}

/// Lower quartile across `blocks` of `pick` (a per-block latency), in
/// microseconds.
pub fn low_quartile_us(blocks: &[Block], pick: impl Fn(&Block) -> u64) -> f64 {
    let v: Vec<f64> = blocks.iter().map(|b| pick(b) as f64 / 1e3).collect();
    quartiles(&v)[0]
}

/// Upper quartile across `blocks` of the per-block rate.
pub fn high_quartile_rate(blocks: &[Block]) -> f64 {
    let v: Vec<f64> = blocks.iter().map(|b| b.rate).collect();
    quartiles(&v)[2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 95.0), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert!(quartiles(&[]).iter().all(|q| q.is_nan()));
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0]), 4.0);
    }

    #[test]
    fn block_quartiles_ignore_a_disturbed_minority() {
        // 12 quiet blocks at 100us, 4 blocks hit by a neighbour at 300us:
        // the lower quartile reports the quiet level, the median of a
        // worse mix would not
        let mut blocks = Vec::new();
        for i in 0..16u64 {
            let lat = if i % 4 == 3 { 300_000 } else { 100_000 };
            let mut l = vec![lat; 100];
            blocks.push(Block::of(&mut l, lat * 100, false));
        }
        assert_eq!(low_quartile_us(&blocks, |b| b.p50_ns), 100.0);
        assert_eq!(high_quartile_rate(&blocks), 10_000.0);
        let p50s: Vec<f64> = blocks.iter().map(|b| b.p50_ns as f64).collect();
        assert!(iqr_pct(&p50s) > 0.0);
    }

    #[test]
    fn block_percentiles_come_from_the_blocks_own_samples() {
        let mut l: Vec<u64> = (1..=200).rev().collect();
        let b = Block::of(&mut l, 2_000_000_000, true);
        assert_eq!((b.p50_ns, b.p95_ns), (100, 190));
        assert_eq!(b.rate, 100.0);
        assert!(b.traced);
    }
}
