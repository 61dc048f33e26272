//! The weighted suffix tree (WST) baseline.
//!
//! The WST (Barton, Kociumaka, Liu, Pissis, Radoszewski — "Indexing weighted
//! sequences: neat and efficient") is the state-of-the-art *tree-based* index
//! for Weighted Indexing: the compacted trie of the property-respecting
//! suffixes of the z-estimation, answering queries in optimal `O(m + |Occ|)`
//! time at the price of `Θ(nz)` size and construction space — the very cost
//! the paper's minimizer-based indexes attack. It is assembled here from the
//! property suffix array plus truncated LCP values (the array-to-tree
//! construction referenced in the paper).

use crate::property_text::PropertyText;
use crate::traits::{validate_pattern, IndexStats, UncertainIndex};
use ius_arena::Arena;
use ius_query::{finalize_into, MatchSink, QueryScratch, QueryStats};
use ius_text::trie::{CompactedTrie, LabelProvider};
use ius_weighted::{Result, WeightedString, ZEstimation};

/// The weighted (property) suffix tree.
#[derive(Debug, Clone)]
pub struct Wst {
    z: f64,
    property_text: PropertyText,
    trie: CompactedTrie,
    /// The backing arena when the index was opened zero-copy from an IUSX file;
    /// components borrowing from it report zero owned bytes, so the single
    /// allocation is counted here, once.
    arena: Option<Arena>,
}

/// Label access for [`Wst`] queries: letters come straight from the
/// concatenated z-estimation, truncated at the property extents. Leaf
/// `i`'s label is the suffix at `psa[i]` cut at `trunc[psa[i]]` — both
/// O(1) lookups into arrays the index stores anyway, so no per-leaf
/// fragment table has to be materialised at build or (crucially) at
/// zero-copy open time.
struct WstLabels<'a> {
    text: &'a [u8],
    psa: &'a [u32],
    trunc: &'a [u32],
}

impl<'a> WstLabels<'a> {
    fn new(property_text: &'a PropertyText) -> Self {
        Self {
            text: property_text.text(),
            psa: property_text.psa(),
            trunc: property_text.trunc_raw(),
        }
    }
}

impl LabelProvider for WstLabels<'_> {
    #[inline]
    fn letter(&self, leaf: usize, depth: usize) -> Option<u8> {
        let start = self.psa[leaf] as usize;
        if depth < self.trunc[start] as usize {
            Some(self.text[start + depth])
        } else {
            None
        }
    }

    #[inline]
    fn len(&self, leaf: usize) -> usize {
        self.trunc[self.psa[leaf] as usize] as usize
    }
}

impl Wst {
    /// Builds the WST from a weighted string, materialising the z-estimation
    /// internally.
    ///
    /// # Errors
    ///
    /// Propagates threshold validation errors from the z-estimation.
    pub fn build(x: &WeightedString, z: f64) -> Result<Self> {
        let estimation = ZEstimation::build(x, z)?;
        Self::build_from_estimation(&estimation)
    }

    /// Builds the WST from an existing z-estimation.
    ///
    /// # Errors
    ///
    /// [`ius_weighted::Error::EmptyInput`] if the estimation has no strands.
    pub fn build_from_estimation(estimation: &ZEstimation) -> Result<Self> {
        // The truncated LCPs feed the trie build and are dropped: no query
        // reads them.
        let (property_text, lcps) = PropertyText::build_with_lcp(estimation)?;
        let trie = CompactedTrie::build(&lcps, &WstLabels::new(&property_text));
        Ok(Self {
            z: estimation.z(),
            property_text,
            trie,
            arena: None,
        })
    }

    /// The weight-threshold denominator.
    pub fn z(&self) -> f64 {
        self.z
    }

    /// Number of nodes of the suffix tree.
    pub fn num_nodes(&self) -> usize {
        self.trie.num_nodes()
    }

    // ---- persistence support (see `crate::persist`) --------------------

    pub(crate) fn property_text_ref(&self) -> &PropertyText {
        &self.property_text
    }

    pub(crate) fn trie_ref(&self) -> &CompactedTrie {
        &self.trie
    }

    /// Reassembles a WST from its persisted parts — O(1) beyond taking
    /// ownership: queries read labels straight out of the property text,
    /// so nothing per-leaf is rebuilt.
    pub(crate) fn from_loaded_parts(
        z: f64,
        property_text: PropertyText,
        trie: CompactedTrie,
        arena: Option<Arena>,
    ) -> Self {
        Self {
            z,
            property_text,
            trie,
            arena,
        }
    }
}

impl UncertainIndex for Wst {
    fn name(&self) -> &'static str {
        "WST"
    }

    fn query_into(
        &self,
        pattern: &[u8],
        x: &WeightedString,
        scratch: &mut QueryScratch,
        sink: &mut dyn MatchSink,
    ) -> Result<QueryStats> {
        validate_pattern(pattern, 1, x.sigma())?;
        let labels = WstLabels::new(&self.property_text);
        let mut stats = QueryStats::default();
        scratch.positions.clear();
        if let Some(descent) = self.trie.descend(pattern, &labels) {
            let (lo, hi) = descent.leaves;
            stats.candidates = (hi - lo) as usize;
            // Every leaf below the descent is a true occurrence.
            stats.verified = stats.candidates;
            scratch.positions.extend((lo..hi).map(|leaf| {
                let text_pos = self.property_text.psa()[leaf as usize] as usize;
                self.property_text.position_in_x(text_pos)
            }));
        }
        stats.reported = finalize_into(&mut scratch.positions, false, sink);
        Ok(stats)
    }

    fn size_bytes(&self) -> usize {
        self.property_text.memory_bytes()
            + self.trie.memory_bytes()
            + self.arena.as_ref().map_or(0, Arena::alloc_bytes)
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            name: self.name().to_string(),
            size_bytes: self.size_bytes(),
            num_nodes: self.trie.num_nodes(),
            num_leaves: self.trie.num_leaves(),
            num_grid_points: 0,
            num_mismatches: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wsa::Wsa;
    use ius_datasets::uniform::UniformConfig;
    use ius_weighted::solid;
    use ius_weighted::string::paper_example;

    #[test]
    fn paper_example_queries() {
        let x = paper_example();
        let wst = Wst::build(&x, 4.0).unwrap();
        assert_eq!(wst.query(&[0, 0, 0, 0], &x).unwrap(), vec![0]);
        assert_eq!(wst.query(&[0, 1], &x).unwrap(), vec![0, 3, 4]);
        assert_eq!(wst.query(&[1, 0, 1, 0], &x).unwrap(), Vec::<usize>::new());
        assert!(wst.query(&[], &x).is_err());
        assert!(wst.num_nodes() > 0);
    }

    // Cross-family differential coverage (including random inputs) lives in
    // the shared harness `tests/differential.rs` of this crate.

    #[test]
    fn sink_forms_agree_with_the_reference_path() {
        let x = UniformConfig {
            n: 150,
            sigma: 2,
            spread: 0.6,
            seed: 241,
        }
        .generate();
        let z = 6.0;
        let wst = Wst::build(&x, z).unwrap();
        let mut scratch = QueryScratch::new();
        for pattern in [&[0u8][..], &[1, 0], &[0, 0, 1], &[1, 1, 1, 0]] {
            let expected = solid::occurrences(&x, pattern, z);
            assert_eq!(wst.query(pattern, &x).unwrap(), expected);
            let mut positions = Vec::new();
            let stats = wst
                .query_into(pattern, &x, &mut scratch, &mut positions)
                .unwrap();
            assert_eq!(positions, expected);
            assert_eq!(stats.reported, expected.len());
            assert_eq!(stats.candidates, stats.verified);
        }
    }

    #[test]
    fn tree_is_larger_than_array() {
        // The paper's Figure 6: the tree-based baseline occupies several
        // times more space than the array-based one.
        let x = UniformConfig {
            n: 400,
            sigma: 4,
            spread: 0.5,
            seed: 6,
        }
        .generate();
        let est = ius_weighted::ZEstimation::build(&x, 8.0).unwrap();
        let wst = Wst::build_from_estimation(&est).unwrap();
        let wsa = Wsa::build_from_estimation(&est).unwrap();
        assert!(wst.size_bytes() > wsa.size_bytes());
    }

    /// A built WST holds the text, the truncation table, the PSA and the
    /// trie — 16 B per node, the trailing child offset and 5 B per edge —
    /// and nothing else: no truncated LCPs, which only the build reads.
    #[test]
    fn size_bytes_is_text_truncation_psa_and_trie() {
        let x = UniformConfig {
            n: 300,
            sigma: 3,
            spread: 0.5,
            seed: 12,
        }
        .generate();
        let wst = Wst::build(&x, 8.0).unwrap();
        let pt = &wst.property_text;
        let nodes = wst.num_nodes();
        let text = pt.text().len();
        let trie = 16 * nodes + 4 + 5 * (nodes - 1);
        assert_eq!(wst.trie.memory_bytes(), trie);
        assert_eq!(
            wst.size_bytes(),
            text + 4 * text + 4 * pt.psa().len() + trie
        );
    }

    #[test]
    fn stats_reflect_structure() {
        let x = paper_example();
        let wst = Wst::build(&x, 4.0).unwrap();
        let stats = wst.stats();
        assert_eq!(stats.name, "WST");
        assert!(stats.num_nodes >= stats.num_leaves);
        assert!(stats.num_leaves > 0);
    }
}
