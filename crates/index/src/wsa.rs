//! The weighted suffix array (WSA) baseline.
//!
//! The WSA (Charalampopoulos, Iliopoulos, Liu, Pissis — "Property Suffix
//! Array with applications in indexing weighted sequences") is the
//! state-of-the-art *array-based* index for Weighted Indexing: the property
//! suffix array of the z-estimation. Its size and construction space are
//! `Θ(nz)`; queries are answered by binary search in `O(m log(nz) + |Occ|)`
//! time. It is one of the two baselines every figure of the paper compares
//! against.

use crate::property_text::PropertyText;
use crate::traits::{validate_pattern, IndexStats, UncertainIndex};
use ius_arena::Arena;
use ius_query::{finalize_into, MatchSink, QueryScratch, QueryStats};
use ius_weighted::{Result, WeightedString, ZEstimation};

/// The weighted (property) suffix array.
#[derive(Debug, Clone)]
pub struct Wsa {
    z: f64,
    property_text: PropertyText,
    /// The backing arena when opened zero-copy from an IUSX file; counted once
    /// here since borrowing components report zero owned bytes.
    arena: Option<Arena>,
}

impl Wsa {
    /// Builds the WSA from a weighted string, materialising the z-estimation
    /// internally.
    ///
    /// # Errors
    ///
    /// Propagates threshold validation errors from the z-estimation.
    pub fn build(x: &WeightedString, z: f64) -> Result<Self> {
        let estimation = ZEstimation::build(x, z)?;
        Self::build_from_estimation(&estimation)
    }

    /// Builds the WSA from an existing z-estimation (the benchmark harness
    /// shares one estimation across all indexes of a configuration).
    ///
    /// # Errors
    ///
    /// [`ius_weighted::Error::EmptyInput`] if the estimation has no strands.
    pub fn build_from_estimation(estimation: &ZEstimation) -> Result<Self> {
        Ok(Self {
            z: estimation.z(),
            property_text: PropertyText::build(estimation)?,
            arena: None,
        })
    }

    /// The weight-threshold denominator.
    pub fn z(&self) -> f64 {
        self.z
    }

    /// The underlying property text (exposed for the tree baseline and for
    /// white-box tests).
    pub fn property_text(&self) -> &PropertyText {
        &self.property_text
    }

    /// Reassembles a WSA from its persisted parts (see `crate::persist`).
    pub(crate) fn from_loaded_parts(
        z: f64,
        property_text: PropertyText,
        arena: Option<Arena>,
    ) -> Self {
        Self {
            z,
            property_text,
            arena,
        }
    }
}

impl UncertainIndex for Wsa {
    fn name(&self) -> &'static str {
        "WSA"
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
        let width = self
            .property_text
            .positions_into(pattern, &mut scratch.positions);
        stats.candidates = width;
        // Every PSA hit is a true occurrence (property-respecting prefix).
        stats.verified = width;
        stats.reported = finalize_into(&mut scratch.positions, false, sink);
        Ok(stats)
    }

    fn size_bytes(&self) -> usize {
        self.property_text.memory_bytes() + self.arena.as_ref().map_or(0, Arena::alloc_bytes)
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            name: self.name().to_string(),
            size_bytes: self.size_bytes(),
            num_nodes: 0,
            num_leaves: self.property_text.psa().len(),
            num_grid_points: 0,
            num_mismatches: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ius_datasets::uniform::UniformConfig;
    use ius_weighted::solid;
    use ius_weighted::string::paper_example;

    #[test]
    fn paper_example_queries() {
        let x = paper_example();
        let wsa = Wsa::build(&x, 4.0).unwrap();
        assert_eq!(wsa.query(&[0, 0, 0, 0], &x).unwrap(), vec![0]);
        assert_eq!(wsa.query(&[0, 1], &x).unwrap(), vec![0, 3, 4]);
        assert_eq!(wsa.query(&[1, 0, 1, 0], &x).unwrap(), Vec::<usize>::new());
        assert!(wsa.query(&[], &x).is_err());
        assert_eq!(wsa.name(), "WSA");
        assert!(wsa.size_bytes() > 0);
        assert_eq!(wsa.z(), 4.0);
    }

    // Cross-family differential coverage (including random inputs) lives in
    // the shared harness `tests/differential.rs` of this crate.

    #[test]
    fn sink_forms_agree_with_the_reference_path() {
        use ius_query::CountSink;
        let x = UniformConfig {
            n: 150,
            sigma: 2,
            spread: 0.7,
            seed: 150,
        }
        .generate();
        let z = 5.0;
        let wsa = Wsa::build(&x, z).unwrap();
        let mut scratch = QueryScratch::new();
        for pattern in [&[0u8][..], &[0, 1], &[1, 1, 0], &[0, 0, 0, 1]] {
            let expected = solid::occurrences(&x, pattern, z);
            assert_eq!(wsa.query(pattern, &x).unwrap(), expected);
            let mut count = CountSink::new();
            let stats = wsa
                .query_into(pattern, &x, &mut scratch, &mut count)
                .unwrap();
            assert_eq!(count.count, expected.len());
            assert_eq!(stats.reported, expected.len());
            assert!(stats.candidates >= stats.reported);
            assert_eq!(stats.candidates, stats.verified);
        }
    }

    #[test]
    fn stats_reflect_structure() {
        let x = paper_example();
        let wsa = Wsa::build(&x, 4.0).unwrap();
        let stats = wsa.stats();
        assert_eq!(stats.name, "WSA");
        assert!(stats.num_leaves > 0);
        assert_eq!(stats.num_nodes, 0);
        assert_eq!(stats.size_bytes, wsa.size_bytes());
    }

    #[test]
    fn size_grows_with_z() {
        let x = UniformConfig {
            n: 300,
            sigma: 4,
            spread: 0.4,
            seed: 2,
        }
        .generate();
        let small = Wsa::build(&x, 2.0).unwrap().size_bytes();
        let large = Wsa::build(&x, 16.0).unwrap().size_bytes();
        assert!(large > small);
    }
}
