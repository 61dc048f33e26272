//! Query-pattern samplers.
//!
//! Section 7.1 of the paper: "for every weighted string of length n, every
//! pattern length m, and every z we used, we selected ⌊nz/200⌋ patterns from
//! the z-estimation of the weighted string, uniformly at random". This module
//! implements exactly that sampler (plus a negative-pattern sampler used by
//! correctness tests): a pattern is a property-respecting factor of length `m`
//! of a uniformly chosen strand position, i.e. a z-solid factor of `X`.

use ius_weighted::ZEstimation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples query patterns from a z-estimation.
#[derive(Debug)]
pub struct PatternSampler<'a> {
    estimation: &'a ZEstimation,
    rng: StdRng,
}

impl<'a> PatternSampler<'a> {
    /// Creates a sampler over `estimation` with a deterministic seed.
    pub fn new(estimation: &'a ZEstimation, seed: u64) -> Self {
        Self {
            estimation,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The number of patterns the paper samples for a given `n` and `z`:
    /// `⌊n·z/200⌋`, clamped to at least 1.
    pub fn paper_pattern_count(n: usize, z: f64) -> usize {
        (((n as f64) * z) / 200.0).floor().max(1.0) as usize
    }

    /// Samples one pattern of length `m` that occurs (respecting the
    /// property) in some strand, or `None` if no strand has a
    /// property-respecting factor of that length.
    pub fn sample(&mut self, m: usize) -> Option<Vec<u8>> {
        let strands = self.estimation.strands();
        if strands.is_empty() || m == 0 {
            return None;
        }
        // Rejection-sample (strand, position) pairs; fall back to a linear
        // scan if the acceptance rate is too low.
        for _ in 0..64 {
            let j = self.rng.gen_range(0..strands.len());
            let strand = &strands[j];
            if strand.len() < m {
                continue;
            }
            let i = self.rng.gen_range(0..=strand.len() - m);
            if strand.extent(i) >= i + m {
                return Some(strand.seq()[i..i + m].to_vec());
            }
        }
        // Deterministic fallback: first admissible window of a random strand
        // order (still seed-deterministic).
        let start_strand = self.rng.gen_range(0..strands.len());
        for off in 0..strands.len() {
            let strand = &strands[(start_strand + off) % strands.len()];
            if strand.len() < m {
                continue;
            }
            let start_pos = self.rng.gen_range(0..=strand.len() - m);
            if let Some(i) = strand
                .first_admissible(m, start_pos)
                .or_else(|| strand.first_admissible(m, 0))
            {
                return Some(strand.seq()[i..i + m].to_vec());
            }
        }
        None
    }

    /// Samples up to `count` patterns of length `m` (fewer if the estimation
    /// has too few admissible windows).
    pub fn sample_many(&mut self, m: usize, count: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            match self.sample(m) {
                Some(p) => out.push(p),
                None => break,
            }
        }
        out
    }

    /// Samples `count` patterns of length `m` drawn uniformly over the
    /// alphabet — overwhelmingly likely to have no solid occurrence for
    /// non-trivial `m`; used as negative controls in tests.
    pub fn sample_random(&mut self, m: usize, count: usize, sigma: usize) -> Vec<Vec<u8>> {
        (0..count)
            .map(|_| (0..m).map(|_| self.rng.gen_range(0..sigma as u8)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ius_weighted::{solid_multiplicity, WeightedString, ZEstimation};

    fn example() -> (WeightedString, ZEstimation) {
        let x = crate::pangenome::efm_like(4_000, 5);
        let est = ZEstimation::build(&x, 16.0).unwrap();
        (x, est)
    }

    #[test]
    fn sampled_patterns_are_solid_factors() {
        let (x, est) = example();
        let mut sampler = PatternSampler::new(&est, 42);
        for m in [8usize, 32, 64] {
            let patterns = sampler.sample_many(m, 20);
            assert!(!patterns.is_empty(), "no patterns of length {m}");
            for p in patterns {
                assert_eq!(p.len(), m);
                // The pattern occurs somewhere in X with probability ≥ 1/z.
                let solid_somewhere = (0..=x.len() - m)
                    .any(|i| solid_multiplicity(x.occurrence_probability(i, &p), 16.0) >= 1);
                assert!(solid_somewhere, "sampled pattern is not solid anywhere");
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let (_x, est) = example();
        let a = PatternSampler::new(&est, 7).sample_many(16, 10);
        let b = PatternSampler::new(&est, 7).sample_many(16, 10);
        let c = PatternSampler::new(&est, 8).sample_many(16, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn paper_pattern_count_formula() {
        assert_eq!(PatternSampler::paper_pattern_count(29_903, 1024.0), 153_103);
        assert_eq!(PatternSampler::paper_pattern_count(100, 1.0), 1);
        assert_eq!(PatternSampler::paper_pattern_count(10, 1.0), 1);
    }

    #[test]
    fn oversized_patterns_return_none() {
        let (_x, est) = example();
        let mut sampler = PatternSampler::new(&est, 1);
        assert!(sampler.sample(100_000).is_none());
        assert!(sampler.sample(0).is_none());
    }

    #[test]
    fn random_patterns_have_requested_shape() {
        let (_x, est) = example();
        let mut sampler = PatternSampler::new(&est, 3);
        let pats = sampler.sample_random(12, 5, 4);
        assert_eq!(pats.len(), 5);
        assert!(pats
            .iter()
            .all(|p| p.len() == 12 && p.iter().all(|&c| c < 4)));
    }
}
