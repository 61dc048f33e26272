//! The unified builder layer: one descriptor that constructs any index
//! family through a single entry point.
//!
//! Before this layer existed, every consumer that needed "an index of family
//! F" — the benchmark harness, the differential tests, the live segment
//! builds, the persistence layer — hand-rolled its own per-family `match` over
//! constructors with slightly different signatures (`Wst::build_from_estimation`
//! takes only the estimation, `MinimizerIndex::build_from_estimation` wants
//! `(x, est, params, variant)`, the space-efficient builder has no estimation
//! at all). [`IndexSpec`] centralises that dispatch: a `(family, params)`
//! pair that builds through [`IndexSpec::build`] (materialising the
//! z-estimation when the family needs one) or
//! [`IndexSpec::build_with_estimation`] (sharing a pre-built estimation, as
//! the benchmark harness does across the families of one configuration).
//!
//! The result is an [`AnyIndex`]: a closed enum over the concrete index
//! types. Unlike a `Box<dyn UncertainIndex>` it can be matched on — which is
//! exactly what the persistence layer needs to write a family tag — while
//! still implementing [`UncertainIndex`] by delegation for every consumer
//! that only cares about the common interface.

use crate::minimizer_index::{IndexVariant, MinimizerIndex};
use crate::naive::NaiveIndex;
use crate::params::IndexParams;
use crate::space_efficient::SpaceEfficientBuilder;
use crate::traits::{IndexStats, UncertainIndex};
use crate::wsa::Wsa;
use crate::wst::Wst;
use ius_query::{MatchSink, QueryScratch, QueryStats};
use ius_weighted::{Result, WeightedString, ZEstimation};

/// The index families of the paper, as buildable descriptors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexFamily {
    /// The `O(n·m)` scan oracle (stores only `z`).
    Naive,
    /// The weighted (property) suffix tree baseline.
    Wst,
    /// The weighted (property) suffix array baseline.
    Wsa,
    /// A minimizer-based index built through the explicit (z-estimation)
    /// construction.
    Minimizer(IndexVariant),
    /// A minimizer-based index built through the space-efficient (Section 4)
    /// construction. Grid variants are rejected at build time, exactly like
    /// [`SpaceEfficientBuilder`].
    SpaceEfficient(IndexVariant),
}

impl IndexFamily {
    /// Display name matching the paper's figures (`"SE-MWSA"` for the
    /// space-efficient constructions, which produce the same structure as the
    /// explicit ones).
    pub fn name(&self) -> &'static str {
        match self {
            IndexFamily::Naive => "NAIVE",
            IndexFamily::Wst => "WST",
            IndexFamily::Wsa => "WSA",
            IndexFamily::Minimizer(variant) => variant.name(),
            IndexFamily::SpaceEfficient(IndexVariant::Tree) => "SE-MWST",
            IndexFamily::SpaceEfficient(IndexVariant::Array) => "SE-MWSA",
            IndexFamily::SpaceEfficient(IndexVariant::TreeGrid) => "SE-MWST-G",
            IndexFamily::SpaceEfficient(IndexVariant::ArrayGrid) => "SE-MWSA-G",
        }
    }

    /// Does building this family require an explicit z-estimation?
    pub fn needs_estimation(&self) -> bool {
        !matches!(self, IndexFamily::Naive | IndexFamily::SpaceEfficient(_))
    }

    /// Does this family enforce the minimum pattern length ℓ?
    pub fn has_length_bound(&self) -> bool {
        matches!(
            self,
            IndexFamily::Minimizer(_) | IndexFamily::SpaceEfficient(_)
        )
    }

    /// Every family the differential harness and the persistence round-trip
    /// tests iterate over (grid variants of the space-efficient construction
    /// excluded — they are rejected by construction).
    pub fn all() -> [IndexFamily; 9] {
        [
            IndexFamily::Naive,
            IndexFamily::Wst,
            IndexFamily::Wsa,
            IndexFamily::Minimizer(IndexVariant::Tree),
            IndexFamily::Minimizer(IndexVariant::Array),
            IndexFamily::Minimizer(IndexVariant::TreeGrid),
            IndexFamily::Minimizer(IndexVariant::ArrayGrid),
            IndexFamily::SpaceEfficient(IndexVariant::Tree),
            IndexFamily::SpaceEfficient(IndexVariant::Array),
        ]
    }
}

/// A buildable index descriptor: which family, with which parameters.
///
/// The baselines only read `params.z`; the minimizer families additionally
/// use `ℓ`, `k` and the k-mer order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexSpec {
    /// The family to construct.
    pub family: IndexFamily,
    /// The ℓ-Weighted-Indexing instance parameters.
    pub params: IndexParams,
    /// Construction fan-out on the shared [`ius_exec::Executor`] (1 = serial,
    /// 0 = all CPUs). A build-time knob only: it is not part of the persisted
    /// parameters, and the built index is byte-identical at every value.
    threads: usize,
}

impl IndexSpec {
    /// Creates a descriptor (serial construction; see
    /// [`IndexSpec::with_threads`]).
    pub fn new(family: IndexFamily, params: IndexParams) -> Self {
        Self {
            family,
            params,
            threads: 1,
        }
    }

    /// Fans construction out over `threads` workers (0 = all CPUs): the
    /// factor sorts run on the shared executor (the z-estimation is always
    /// serial). Queries and persistence are unaffected — the built index is
    /// byte-identical at every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The construction fan-out (1 = serial, 0 = all CPUs).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The minimum pattern length this family will accept (`ℓ` for the
    /// minimizer families, 1 for the baselines and the oracle).
    pub fn lower_bound(&self) -> usize {
        if self.family.has_length_bound() {
            self.params.ell
        } else {
            1
        }
    }

    /// Builds the index, materialising the z-estimation internally when the
    /// family requires one.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation and construction errors of the
    /// respective family.
    pub fn build(&self, x: &WeightedString) -> Result<AnyIndex> {
        match self.family {
            IndexFamily::Naive | IndexFamily::SpaceEfficient(_) => self.dispatch(x, None),
            _ => {
                let estimation = ZEstimation::build(x, self.params.z)?;
                self.dispatch(x, Some(&estimation))
            }
        }
    }

    /// Builds the index from a shared, already materialised z-estimation
    /// (ignored by the families that do not need one).
    ///
    /// # Errors
    ///
    /// Propagates construction errors; additionally the estimation/parameter
    /// consistency checks of the minimizer construction.
    pub fn build_with_estimation(
        &self,
        x: &WeightedString,
        estimation: &ZEstimation,
    ) -> Result<AnyIndex> {
        self.dispatch(x, Some(estimation))
    }

    fn dispatch(&self, x: &WeightedString, estimation: Option<&ZEstimation>) -> Result<AnyIndex> {
        let est = || -> Result<&ZEstimation> {
            estimation.ok_or_else(|| {
                ius_weighted::Error::InvalidParameters("this family requires a z-estimation".into())
            })
        };
        Ok(match self.family {
            IndexFamily::Naive => AnyIndex::Naive(NaiveIndex::new(self.params.z)?),
            IndexFamily::Wst => AnyIndex::Wst(Wst::build_from_estimation(est()?)?),
            IndexFamily::Wsa => AnyIndex::Wsa(Wsa::build_from_estimation(est()?)?),
            IndexFamily::Minimizer(variant) => AnyIndex::Minimizer(Box::new(
                MinimizerIndex::build_from_estimation_with_threads(
                    x,
                    est()?,
                    self.params,
                    variant,
                    self.threads,
                )?,
            )),
            IndexFamily::SpaceEfficient(variant) => AnyIndex::Minimizer(Box::new(
                SpaceEfficientBuilder::new(self.params)
                    .with_threads(self.threads)
                    .build(x, variant)?,
            )),
        })
    }
}

/// A concrete index of any family — the closed-enum counterpart of
/// `Box<dyn UncertainIndex>`, matchable by the persistence layer.
///
/// Variant sizes differ by design: an index is a handful of long-lived
/// values per process, so boxing the bigger families would buy nothing and
/// cost an indirection on every query dispatch.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum AnyIndex {
    /// The scan oracle.
    Naive(NaiveIndex),
    /// The weighted suffix tree baseline.
    Wst(Wst),
    /// The weighted suffix array baseline.
    Wsa(Wsa),
    /// Any of the four minimizer-based variants (explicit or space-efficient
    /// construction). Boxed: the minimizer index is by far the largest
    /// variant, and the enum is moved around by value.
    Minimizer(Box<MinimizerIndex>),
}

impl AnyIndex {
    /// The length of the corpus the index was built over, when the family
    /// records it (the minimizer variants do; the oracle and the
    /// property-text baselines do not). Serving layers use this to reject
    /// a corpus of the wrong length instead of failing per-query.
    pub fn corpus_len_hint(&self) -> Option<usize> {
        match self {
            AnyIndex::Minimizer(index) => Some(index.corpus_len()),
            _ => None,
        }
    }

    /// The contained index as a trait object.
    pub fn as_dyn(&self) -> &(dyn UncertainIndex + Sync) {
        match self {
            AnyIndex::Naive(index) => index,
            AnyIndex::Wst(index) => index,
            AnyIndex::Wsa(index) => index,
            AnyIndex::Minimizer(index) => index.as_ref(),
        }
    }
}

impl UncertainIndex for AnyIndex {
    fn name(&self) -> &'static str {
        self.as_dyn().name()
    }

    fn query_into(
        &self,
        pattern: &[u8],
        x: &WeightedString,
        scratch: &mut QueryScratch,
        sink: &mut dyn MatchSink,
    ) -> Result<QueryStats> {
        self.as_dyn().query_into(pattern, x, scratch, sink)
    }

    fn query_reference(&self, pattern: &[u8], x: &WeightedString) -> Result<Vec<usize>> {
        self.as_dyn().query_reference(pattern, x)
    }

    fn size_bytes(&self) -> usize {
        self.as_dyn().size_bytes()
    }

    fn stats(&self) -> IndexStats {
        self.as_dyn().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ius_datasets::pangenome::PangenomeConfig;
    use ius_datasets::patterns::PatternSampler;

    #[test]
    fn every_family_builds_through_the_spec_and_agrees_with_its_direct_constructor() {
        let x = PangenomeConfig {
            n: 700,
            delta: 0.06,
            seed: 17,
            ..Default::default()
        }
        .generate();
        let z = 8.0;
        let ell = 16usize;
        let params = IndexParams::new(z, ell, x.sigma()).unwrap();
        let est = ZEstimation::build(&x, z).unwrap();
        let mut sampler = PatternSampler::new(&est, 2);
        let patterns = sampler.sample_many(ell, 15);
        assert!(!patterns.is_empty());
        let oracle = NaiveIndex::new(z).unwrap();
        for family in IndexFamily::all() {
            let spec = IndexSpec::new(family, params);
            assert_eq!(spec.family.name(), family.name());
            let built = spec.build(&x).unwrap();
            // The shared-estimation path builds the identical index.
            let shared = spec.build_with_estimation(&x, &est).unwrap();
            assert_eq!(built.size_bytes(), shared.size_bytes());
            for pattern in &patterns {
                let expected = oracle.query(pattern, &x).unwrap();
                assert_eq!(
                    built.query(pattern, &x).unwrap(),
                    expected,
                    "{} disagrees with the oracle",
                    family.name()
                );
                assert_eq!(shared.query(pattern, &x).unwrap(), expected);
            }
        }
    }

    #[test]
    fn spec_metadata_is_consistent() {
        let params = IndexParams::new(8.0, 32, 4).unwrap();
        let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
        assert_eq!(spec.lower_bound(), 32);
        assert!(spec.family.needs_estimation());
        let spec = IndexSpec::new(IndexFamily::Wsa, params);
        assert_eq!(spec.lower_bound(), 1);
        assert!(!spec.family.has_length_bound());
        assert!(spec.family.needs_estimation());
        assert!(!IndexFamily::SpaceEfficient(IndexVariant::Tree).needs_estimation());
        assert!(!IndexFamily::Naive.needs_estimation());
    }

    #[test]
    fn estimation_requiring_families_fail_cleanly_without_one() {
        // dispatch(None) is only reachable through internal misuse, but the
        // error path must still be clean: build() always materialises.
        let x = PangenomeConfig {
            n: 200,
            delta: 0.05,
            seed: 3,
            ..Default::default()
        }
        .generate();
        let params = IndexParams::new(4.0, 8, x.sigma()).unwrap();
        let spec = IndexSpec::new(IndexFamily::Wst, params);
        assert!(spec.dispatch(&x, None).is_err());
        assert!(spec.build(&x).is_ok());
    }
}
