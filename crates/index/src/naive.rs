//! The naive scan "index": the ground truth every real index is tested
//! against.

use crate::traits::{validate_pattern, IndexStats, UncertainIndex};
use ius_query::{finalize_into, MatchSink, QueryScratch, QueryStats};
use ius_weighted::{is_solid, Error, Result, WeightedString};

/// A trivial index that stores only `z` and scans `X` at query time.
///
/// `O(1)` size, `O(n·m)` query — useful as the correctness oracle and as a
/// baseline in micro-benchmarks for very short texts.
#[derive(Debug, Clone)]
pub struct NaiveIndex {
    z: f64,
}

impl NaiveIndex {
    /// Creates the index for a weight threshold `1/z`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidThreshold`] unless `z ≥ 1` and finite.
    pub fn new(z: f64) -> Result<Self> {
        if !(z.is_finite() && z >= 1.0) {
            return Err(Error::InvalidThreshold(z));
        }
        Ok(Self { z })
    }

    /// The threshold denominator.
    pub fn z(&self) -> f64 {
        self.z
    }
}

impl UncertainIndex for NaiveIndex {
    fn name(&self) -> &'static str {
        "NAIVE"
    }

    fn query_into(
        &self,
        pattern: &[u8],
        x: &WeightedString,
        scratch: &mut QueryScratch,
        sink: &mut dyn MatchSink,
    ) -> Result<QueryStats> {
        validate_pattern(pattern, 1, x.sigma())?;
        let mut stats = QueryStats::default();
        scratch.positions.clear();
        if pattern.len() <= x.len() {
            for start in 0..=x.len() - pattern.len() {
                stats.candidates += 1;
                if is_solid(x.occurrence_probability(start, pattern), self.z) {
                    stats.verified += 1;
                    scratch.positions.push(start);
                }
            }
        }
        // The scan emits strictly increasing positions: no sort needed.
        stats.reported = finalize_into(&mut scratch.positions, true, sink);
        Ok(stats)
    }

    fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            name: self.name().to_string(),
            size_bytes: self.size_bytes(),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ius_weighted::solid;
    use ius_weighted::string::paper_example;

    #[test]
    fn queries_match_reference_matcher() {
        let x = paper_example();
        let idx = NaiveIndex::new(4.0).unwrap();
        assert_eq!(idx.query(&[0, 0, 0, 0], &x).unwrap(), vec![0]);
        assert_eq!(idx.query(&[0, 1], &x).unwrap(), vec![0, 3, 4]);
        assert!(idx.query(&[], &x).is_err());
        assert_eq!(
            idx.query(&[0, 1], &x).unwrap(),
            solid::occurrences(&x, &[0, 1], 4.0)
        );
        assert_eq!(idx.name(), "NAIVE");
        assert!(idx.size_bytes() < 64);
    }

    #[test]
    fn sink_query_reports_scan_stats() {
        let x = paper_example();
        let idx = NaiveIndex::new(4.0).unwrap();
        let mut scratch = QueryScratch::new();
        let mut positions = Vec::new();
        let stats = idx
            .query_into(&[0, 1], &x, &mut scratch, &mut positions)
            .unwrap();
        assert_eq!(positions, vec![0, 3, 4]);
        assert_eq!(stats.candidates, x.len() - 1);
        assert_eq!(stats.verified, 3);
        assert_eq!(stats.reported, 3);
        assert_eq!(stats.grid_nodes, 0);
        // Longer than the text: no candidates, empty answer.
        let stats = idx
            .query_into(&vec![0u8; x.len() + 1], &x, &mut scratch, &mut positions)
            .unwrap();
        assert_eq!(stats.candidates, 0);
    }

    #[test]
    fn rejects_bad_threshold() {
        assert!(NaiveIndex::new(0.0).is_err());
        assert!(NaiveIndex::new(f64::INFINITY).is_err());
    }
}
