//! # ius-text — classic text-indexing substrates
//!
//! Standard-string indexing machinery built from scratch for the uncertain
//! string indexes:
//!
//! * [`sa`] — linear-time suffix array construction (SA-IS), plus a naive
//!   test oracle;
//! * [`lcp`] — longest-common-prefix arrays (Kasai's algorithm);
//! * [`rmq`] — range-minimum queries (block-decomposed sparse table);
//! * [`lce`] — longest-common-extension index combining the three above;
//! * [`search`] — pattern search over suffix arrays (binary search /
//!   `equal_range`);
//! * [`trie`] — compacted tries over implicitly labelled sorted string sets,
//!   the shared backbone of the weighted suffix trees and the minimizer solid
//!   factor trees (their edge labels are *not* stored verbatim; a
//!   [`trie::LabelProvider`] reconstructs them on demand, which is what makes
//!   the `O(log z)` heavy-string edge encoding possible);
//! * [`suffix_tree`] — a suffix tree for one standard string, assembled from
//!   the suffix array + LCP array (used by examples, tests and the classic
//!   baselines).
//!
//! All positions are 0-based; texts are slices of letter ranks (`u8`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lce;
pub mod lcp;
pub mod rmq;
pub mod sa;
pub mod search;
pub mod suffix_tree;
pub mod trie;

pub use lce::LceIndex;
pub use lcp::lcp_array;
pub use rmq::Rmq;
pub use sa::{inverse_suffix_array, suffix_array};
pub use search::SuffixArraySearcher;
pub use suffix_tree::SuffixTree;
pub use trie::{CompactedTrie, LabelProvider, SliceLabels, TrieParts};
