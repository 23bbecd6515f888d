//! Seeded input generators owned by the benchmark.
//!
//! `loadgen::synthetic_corpus` draws uniform noise, which k-means cannot
//! cluster and SQ8 scales see no structure in. The vectors here look like
//! what the embedder emits: four facets of eight dimensions, each facet
//! drawn from a mixture of topic centres plus Gaussian noise, so IVF
//! cells and per-facet scales have something to find. Queries are fresh
//! draws from the same mixture ("new papers").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sem_serve::FacetLayout;

/// Facet names in the order `PaperEmbedder::layout` emits them.
pub const FACET_NAMES: [&str; 4] = ["background", "method", "result", "nprec"];
/// Width of each facet.
pub const FACET_DIM: usize = 8;
/// Width of a whole vector.
pub const DIM: usize = FACET_NAMES.len() * FACET_DIM;
/// Topic centres per facet.
pub const TOPICS: usize = 64;
/// Standard deviation of the noise around a centre.
const NOISE: f32 = 0.35;

/// Derives an independent stream seed from a run seed and a tag, so every
/// consumer (corpus, each phase, each thread, each block) owns a stream
/// that does not move when another consumer draws more or less.
pub fn stream(seed: u64, tag: &str, index: u64) -> u64 {
    let mut z = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in tag.bytes() {
        z = (z ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    z ^= index.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One standard normal draw (Box–Muller, cosine branch).
fn gauss(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(1e-7f32..1.0);
    let u2: f32 = rng.gen_range(0.0f32..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// The facet layout of generated vectors.
pub fn facet_layout() -> FacetLayout {
    FacetLayout::new(
        FACET_NAMES.iter().map(|s| (*s).to_string()).collect(),
        vec![FACET_DIM; FACET_NAMES.len()],
    )
    .expect("four positive widths form a layout")
}

/// The topic mixture of one run: `TOPICS` centres per facet.
pub struct Mixture {
    seed: u64,
    /// `[facet][topic][FACET_DIM]`, flattened.
    centres: Vec<f32>,
}

impl Mixture {
    /// The mixture of run `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(stream(seed, "centres", 0));
        let centres =
            (0..FACET_NAMES.len() * TOPICS * FACET_DIM).map(|_| gauss(&mut rng)).collect();
        Mixture { seed, centres }
    }

    fn draw(&self, rng: &mut StdRng) -> Vec<f32> {
        let mut v = Vec::with_capacity(DIM);
        for facet in 0..FACET_NAMES.len() {
            let topic = rng.gen_range(0..TOPICS);
            let at = (facet * TOPICS + topic) * FACET_DIM;
            for c in &self.centres[at..at + FACET_DIM] {
                v.push(c + NOISE * gauss(rng));
            }
        }
        v
    }

    /// `n` vectors of the stream `(tag, index)`.
    pub fn vectors(&self, tag: &str, index: u64, n: usize) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(stream(self.seed, tag, index));
        (0..n).map(|_| self.draw(&mut rng)).collect()
    }
}

/// Zipf(`s`) sampler over ranks `0..n`: rank `r` has weight `1/(r+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n >= 1` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0f64..1.0);
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(vs: &[Vec<f32>]) -> Vec<u32> {
        vs.iter().flatten().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn generator_is_bit_deterministic_per_seed_and_differs_across_seeds() {
        let a = Mixture::new(11).vectors("corpus", 0, 50);
        let b = Mixture::new(11).vectors("corpus", 0, 50);
        let c = Mixture::new(12).vectors("corpus", 0, 50);
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(bits(&a), bits(&c));
        assert!(a.iter().all(|v| v.len() == DIM));
    }

    #[test]
    fn streams_are_independent_of_each_other() {
        let m = Mixture::new(3);
        assert_ne!(bits(&m.vectors("corpus", 0, 4)), bits(&m.vectors("query", 0, 4)));
        assert_ne!(bits(&m.vectors("query", 0, 4)), bits(&m.vectors("query", 1, 4)));
        // a longer draw from one stream starts with the shorter draw
        assert_eq!(bits(&m.vectors("query", 1, 8))[..4 * DIM], bits(&m.vectors("query", 1, 4)));
    }

    #[test]
    fn facets_have_the_mixtures_variance() {
        let m = Mixture::new(5);
        let vs = m.vectors("corpus", 0, 2000);
        let spread: f32 =
            vs.iter().map(|v| v[..FACET_DIM].iter().map(|x| x * x).sum::<f32>()).sum::<f32>()
                / vs.len() as f32;
        // centre variance 1 + noise variance 0.35^2 per dimension
        let expected = FACET_DIM as f32 * (1.0 + NOISE * NOISE);
        assert!((spread / expected - 1.0).abs() < 0.15, "spread {spread} vs {expected}");
    }

    #[test]
    fn zipf_frequencies_follow_the_rank_law() {
        let z = Zipf::new(256, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; 256];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        let h: f64 = (1..=256).map(|r| 1.0 / r as f64).sum();
        for r in [0usize, 1, 3, 15, 63] {
            let expected = n as f64 / ((r + 1) as f64 * h);
            let got = counts[r] as f64;
            assert!((got / expected - 1.0).abs() < 0.1, "rank {r}: {got} vs {expected}");
        }
        assert!(counts.iter().all(|&c| c > 0), "every rank is reachable");
        assert_eq!(Zipf::new(1, 1.0).sample(&mut rng), 0);
    }
}
