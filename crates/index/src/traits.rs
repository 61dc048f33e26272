//! The common interface of every uncertain-string index.

use ius_query::{MatchSink, QueryScratch, QueryStats};
use ius_weighted::{Error, Result, WeightedString};

/// Structural statistics of an index, used by the benchmark harness to
/// reproduce the paper's size and construction-space figures and by tests to
/// check asymptotic expectations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexStats {
    /// Human-readable index name (`WST`, `MWSA-G`, …).
    pub name: String,
    /// Heap bytes owned by the index (excluding the input `X`).
    pub size_bytes: usize,
    /// Number of tree nodes (0 for array-based indexes).
    pub num_nodes: usize,
    /// Number of leaves / array entries.
    pub num_leaves: usize,
    /// Number of 2D grid points (0 when no grid is built).
    pub num_grid_points: usize,
    /// Number of stored heavy-string mismatches (minimizer indexes only).
    pub num_mismatches: usize,
}

/// An index over one uncertain string `X` and one weight threshold `1/z`,
/// answering solid-occurrence pattern-matching queries.
pub trait UncertainIndex {
    /// Short display name of the index family (e.g. `"MWSA"`).
    fn name(&self) -> &'static str;

    /// The sink-based query entry point: reports every 0-based starting
    /// position of a z-solid occurrence of the rank-encoded `pattern` in `X`
    /// to `sink`, sorted increasingly and deduplicated, and returns the
    /// query's [`QueryStats`].
    ///
    /// `scratch` owns the reusable buffers; once they have warmed up to the
    /// workload's high-water mark, steady-state queries perform no heap
    /// allocation on the hot paths. The weighted string is passed back in so
    /// that indexes which verify candidates by random access to `X` (the
    /// simple query of Section 5 of the paper) can do so without owning a
    /// copy; indexes that do not need it simply ignore the argument.
    ///
    /// # Errors
    ///
    /// * [`ius_weighted::Error::PatternTooShort`] if the index was built with
    ///   a lower bound `ℓ` and `|pattern| < ℓ`;
    /// * [`ius_weighted::Error::EmptyInput`] for an empty pattern;
    /// * [`ius_weighted::Error::UnknownSymbol`] for a rank `≥ σ` of `X`.
    fn query_into(
        &self,
        pattern: &[u8],
        x: &WeightedString,
        scratch: &mut QueryScratch,
        sink: &mut dyn MatchSink,
    ) -> Result<QueryStats>;

    /// Reports all z-solid occurrence positions as a fresh vector — a thin
    /// wrapper over [`UncertainIndex::query_into`] with a one-shot scratch
    /// and a collect-all sink.
    ///
    /// # Errors
    ///
    /// Same contract as [`UncertainIndex::query_into`].
    fn query(&self, pattern: &[u8], x: &WeightedString) -> Result<Vec<usize>> {
        let mut scratch = QueryScratch::new();
        let mut positions = Vec::new();
        self.query_into(pattern, x, &mut scratch, &mut positions)?;
        Ok(positions)
    }

    /// Heap bytes owned by the index (excluding `X` itself).
    fn size_bytes(&self) -> usize;

    /// Structural statistics (size, node/leaf/point counts).
    fn stats(&self) -> IndexStats;
}

/// Validates the pattern contract shared by every index family: a pattern
/// must be non-empty, at least `lower_bound` letters long (families without
/// a length bound pass `lower_bound = 1`) and hold only ranks below the
/// alphabet size `sigma`. The engines index probability rows by rank, so a
/// foreign rank is refused here rather than read past a row.
///
/// # Errors
///
/// [`Error::EmptyInput`] for an empty pattern,
/// [`Error::PatternTooShort`] when `|pattern| < lower_bound`,
/// [`Error::UnknownSymbol`] for the first rank `≥ sigma`.
pub fn validate_pattern(pattern: &[u8], lower_bound: usize, sigma: usize) -> Result<()> {
    if pattern.is_empty() {
        return Err(Error::EmptyInput("pattern"));
    }
    if pattern.len() < lower_bound {
        return Err(Error::PatternTooShort {
            pattern: pattern.len(),
            lower_bound,
        });
    }
    if let Some(&rank) = pattern.iter().find(|&&rank| usize::from(rank) >= sigma) {
        return Err(Error::UnknownSymbol(rank));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_validation_covers_both_error_paths() {
        assert!(matches!(
            validate_pattern(&[], 1, 2),
            Err(Error::EmptyInput("pattern"))
        ));
        assert!(matches!(
            validate_pattern(&[0, 1], 4, 2),
            Err(Error::PatternTooShort {
                pattern: 2,
                lower_bound: 4
            })
        ));
        assert!(matches!(
            validate_pattern(&[0, 2, 1], 1, 2),
            Err(Error::UnknownSymbol(2))
        ));
        assert!(validate_pattern(&[0, 1], 1, 2).is_ok());
        assert!(validate_pattern(&[0, 1], 2, 2).is_ok());
        assert!(validate_pattern(&[255], 1, 256).is_ok());
    }

    #[test]
    fn stats_default_is_zeroed() {
        let s = IndexStats::default();
        assert_eq!(s.size_bytes, 0);
        assert_eq!(s.num_nodes, 0);
        assert!(s.name.is_empty());
    }
}
