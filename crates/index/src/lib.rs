//! # ius-index — indexes for uncertain (weighted) strings
//!
//! This crate contains the indexes evaluated in *"Space-Efficient Indexes for
//! Uncertain Strings"* (ICDE 2024):
//!
//! | Index | Paper role | Type |
//! |-------|-----------|------|
//! | [`NaiveIndex`] | ground truth (not in the paper) | `O(n·m)` scan |
//! | [`Wst`] | state-of-the-art baseline | weighted (property) suffix **tree**, `O(nz)` size |
//! | [`Wsa`] | state-of-the-art baseline | weighted (property) suffix **array**, `O(nz)` size |
//! | [`MinimizerIndex`] (MWST / MWSA) | **Contribution 1** | minimizer-sampled solid factor trees/arrays, `O(n + (nz/ℓ)·log z)` expected size, simple query of Section 5 |
//! | [`MinimizerIndex`] (MWST-G / MWSA-G) | **Contribution 1** | same + 2D-grid query of Theorem 9 |
//! | [`space_efficient::SpaceEfficientBuilder`] (MWST-SE) | **Contribution 2** | constructs the minimizer index in `O(n + (nz/ℓ)·log z)` expected space without materialising the z-estimation |
//!
//! All indexes answer the same query: given a pattern `P` (of length `m ≥ ℓ`
//! for the minimizer-based ones), report every position of the uncertain
//! string `X` where `P` occurs with probability at least `1/z`. The serving
//! entry point is the sink-based [`UncertainIndex::query_into`] (reusable
//! [`QueryScratch`], pluggable [`MatchSink`], per-query [`QueryStats`]);
//! [`UncertainIndex::query`] is a thin allocating wrapper over it. Every
//! index is differentially tested against [`NaiveIndex`] in this crate's
//! test-suite (see `tests/differential.rs`) and in `tests/` at the workspace
//! root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod encode;
pub mod minimizer_index;
pub mod naive;
pub mod overlap;
pub mod params;
pub mod persist;
pub mod property_text;
pub mod space_efficient;
pub mod traits;
pub mod wsa;
pub mod wst;

pub use builder::{AnyIndex, IndexFamily, IndexSpec};
pub use ius_query::{finalize_into, CountSink, FirstKSink, MatchSink, QueryScratch, QueryStats};
pub use minimizer_index::{IndexVariant, MinimizerIndex};
pub use naive::NaiveIndex;
pub use params::IndexParams;
pub use persist::{
    load_index, open_index, save_index, save_index_with, SaveOptions, FORMAT_VERSION,
};
pub use space_efficient::SpaceEfficientBuilder;
pub use traits::{validate_pattern, IndexStats, UncertainIndex};
pub use wsa::Wsa;
pub use wst::Wst;
