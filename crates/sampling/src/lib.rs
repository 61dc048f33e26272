//! # ius-sampling — string sampling mechanisms
//!
//! This crate implements the *(ℓ, k)-minimizer schemes* (Roberts et al.,
//! Schleimer et al.) used by the space-efficient uncertain-string indexes:
//! given a window length `ℓ` and a k-mer length `k ≤ ℓ`, the scheme selects in
//! every length-`ℓ` window the starting position of the leftmost occurrence of
//! the smallest length-`k` substring, under a configurable order on k-mers.
//! The set of selected positions over all windows has expected density
//! `O(1/ℓ)` when `k ≳ log_σ ℓ` (Lemma 1 of the paper).
//!
//! Every order maps each k-mer to a `u64` key computed from the k-mer alone;
//! k-mers with equal keys tie and the leftmost wins. Any fixed order with
//! that tie-breaking gives a correct scheme, so both index constructions
//! (the explicit scan and the space-efficient DFS) share one key path. Two
//! k-mer orders are provided, mirroring the paper's implementation:
//!
//! * [`KmerOrder::Lexicographic`] — lexicographic order on the first `p`
//!   letters of each k-mer, the most (up to `k`) whose ranks pack into a
//!   `u64` key;
//! * [`KmerOrder::KarpRabin`] — the order of Karp–Rabin style fingerprints,
//!   which behaves like a random order and achieves the expected density in
//!   practice even on repetitive inputs.
//!
//! The crate also provides:
//!
//! * [`window::SlidingWindowMinimizer`] — the linear-time monotone-deque
//!   scanner used when the text is available left to right;
//! * [`window::StackWindowMinimizer`] — an ordered-set window over the last
//!   `ℓ − k + 1` k-mers of a stack, pushed and popped in `O(log ℓ)` (the
//!   access pattern of the space-efficient DFS construction of Section 4 of
//!   the paper, in both of its passes);
//! * density measurement helpers used by the ablation benchmarks.
//!
//! Positions are 0-based.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod density;
pub mod fingerprint;
pub mod minimizer;
pub mod order;
pub mod window;

pub use density::{measure_density, recommended_k};
pub use fingerprint::KarpRabin;
pub use minimizer::MinimizerScheme;
pub use order::KmerOrder;
pub use window::{SlidingWindowMinimizer, StackWindowMinimizer};
