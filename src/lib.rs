//! # ius — space-efficient indexes for uncertain strings
//!
//! A from-scratch Rust implementation of *"Space-Efficient Indexes for
//! Uncertain Strings"* (ICDE 2024): indexing a string whose characters are
//! probability distributions (a *weighted / uncertain string*) so that all
//! positions where a pattern occurs with probability at least `1/z` can be
//! reported quickly — with an index that is up to two orders of magnitude
//! smaller than the classic weighted suffix tree / array when a lower bound
//! `ℓ` on the pattern length is known.
//!
//! The workspace is organised as one crate per subsystem; this umbrella crate
//! re-exports the public API:
//!
//! * [`weighted`] — the uncertain-string model (distributions, heavy strings,
//!   solid factors, z-estimations);
//! * [`sampling`] — (ℓ, k)-minimizer schemes;
//! * [`text`] — suffix arrays / compacted tries / LCE structures;
//! * [`grid`] — 2D range reporting;
//! * [`index`] — the indexes themselves: the `WST`/`WSA` baselines and the
//!   paper's `MWST`, `MWSA`, `MWST-G`, `MWSA-G` and the space-efficient
//!   `SE-MWST` and `SE-MWSA` constructions — plus the lifecycle layers around them: the
//!   unified builder (`IndexSpec` → `AnyIndex`), versioned binary
//!   persistence (`AnyIndex::save_to`/`load_index`/`open_index`: one
//!   format, IUSX v9 with one section encoding, and one read path, a
//!   validated zero-copy open of an in-memory arena — other versions are
//!   refused typed, rebuild from the corpus; loading never re-runs
//!   construction);
//! * [`live`] — the one partitioned index: an LSM-style segmented
//!   `LiveIndex` whose corpus grows by appends and shrinks by range
//!   tombstones while being served — immutable segments + memtable tail +
//!   background compaction + `IUSL` manifest persistence. A static
//!   segmented index is a `LiveIndex::from_corpus` that is never mutated;
//! * [`datasets`] — synthetic stand-ins for the paper's datasets and the
//!   pattern samplers used in the evaluation;
//! * [`server`] — the serving subsystem: a std-only concurrent TCP server
//!   (length-prefixed binary wire protocol, worker pool with per-worker
//!   scratch, bounded admission with typed backpressure, atomic hot
//!   reload) plus the matching blocking client and the `serve` binary —
//!   including the live-corpus ops (`APPEND`/`DELETE_RANGE`/`FLUSH`/
//!   `COMPACT`) behind `serve --live`.
//!
//! ## Quickstart
//!
//! ```
//! use ius::prelude::*;
//!
//! // An uncertain DNA string: a reference with SNP allele frequencies.
//! let x = PangenomeConfig { n: 2_000, delta: 0.05, seed: 7, ..Default::default() }.generate();
//!
//! // Index it for patterns of length ≥ 32 with weight threshold 1/16.
//! let params = IndexParams::new(16.0, 32, x.sigma()).unwrap();
//! let index = MinimizerIndex::build(&x, params, IndexVariant::Array).unwrap();
//!
//! // Sample a pattern that is known to occur and query it.
//! let est = ZEstimation::build(&x, 16.0).unwrap();
//! let pattern = PatternSampler::new(&est, 1).sample(32).unwrap();
//! let occurrences = index.query(&pattern, &x).unwrap();
//! assert!(!occurrences.is_empty());
//!
//! // Every reported position really is a z-solid occurrence.
//! for &pos in &occurrences {
//!     assert!(ius::weighted::is_solid(x.occurrence_probability(pos, &pattern), 16.0));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ius_datasets as datasets;
pub use ius_grid as grid;
pub use ius_index as index;
pub use ius_live as live;
pub use ius_query as query;
pub use ius_sampling as sampling;
pub use ius_server as server;
pub use ius_text as text;
pub use ius_weighted as weighted;

/// The most commonly used types, importable with one `use ius::prelude::*`.
pub mod prelude {
    pub use ius_datasets::pangenome::PangenomeConfig;
    pub use ius_datasets::patterns::PatternSampler;
    pub use ius_datasets::registry::{standard_datasets, Dataset, Scale};
    pub use ius_datasets::rssi::RssiConfig;
    pub use ius_index::{
        load_index, AnyIndex, CountSink, FirstKSink, IndexFamily, IndexParams, IndexSpec,
        IndexVariant, MatchSink, MinimizerIndex, NaiveIndex, QueryScratch, QueryStats, SeVariant,
        SpaceEfficientBuilder, UncertainIndex, Wsa, Wst,
    };
    pub use ius_live::{LiveConfig, LiveIndex, LiveStats};
    pub use ius_sampling::{KmerOrder, MinimizerScheme};
    pub use ius_server::{Client, ResultMode, ServedIndex, Server, ServerConfig};
    pub use ius_weighted::{Alphabet, HeavyString, WeightedString, ZEstimation};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn umbrella_reexports_work_together() {
        let x = ius_datasets::uniform::UniformConfig {
            n: 150,
            sigma: 2,
            spread: 0.4,
            seed: 3,
        }
        .generate();
        let params = IndexParams::new(4.0, 8, 2).unwrap();
        let index = MinimizerIndex::build(&x, params, IndexVariant::Tree).unwrap();
        let naive = NaiveIndex::new(4.0).unwrap();
        let pattern = vec![0u8; 8];
        assert_eq!(
            index.query(&pattern, &x).unwrap(),
            naive.query(&pattern, &x).unwrap()
        );
    }
}
