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
//! * [`trie`] — compacted tries over implicitly labelled sorted string sets,
//!   the shared backbone of the weighted suffix trees and the minimizer solid
//!   factor trees (their edge labels are *not* stored verbatim; a
//!   [`trie::LabelProvider`] reconstructs them on demand, which is what makes
//!   the `O(log z)` heavy-string edge encoding possible).
//!
//! All positions are 0-based; texts are slices of letter ranks (`u8`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lce;
pub mod lcp;
pub mod rmq;
pub mod sa;
pub mod trie;

pub use lce::LceIndex;
pub use lcp::lcp_array;
pub use rmq::Rmq;
pub use sa::{inverse_suffix_array, suffix_array};
pub use trie::{CompactedTrie, LabelProvider, TrieParts};
