//! # ius-bench — the experiment harness
//!
//! Everything needed to regenerate the paper's evaluation (Table 2 and
//! Figures 6–16) on the synthetic stand-in datasets: experiment descriptors,
//! measurement helpers (wall-clock, peak heap, index size, average query
//! time) and row formatting. The `reproduce` binary drives it; the Criterion
//! benches in `benches/` reuse the same building blocks for per-operation
//! timings.

#![warn(missing_docs)]

pub mod construction;
pub mod experiments;
pub mod measure;
pub mod query_bench;
pub mod recovery_bench;
pub mod report;
pub mod serve_bench;
pub mod slo_bench;
pub mod space_bench;
pub mod update_bench;

pub use construction::{ConstructionBenchConfig, DatasetBench, StageTiming};
pub use experiments::{Experiment, ExperimentId};
pub use measure::{BuildMeasurement, IndexKind, QueryMeasurement};
pub use query_bench::{FamilyQueryBench, QueryBenchConfig, QueryDatasetBench};
pub use recovery_bench::{PolicyBench, RecoveryBenchConfig, RecoveryBenchResult, ReplayBench};
pub use report::Row;
pub use serve_bench::{ReloadBench, ServeBenchConfig, ServeDatasetBench, WorkerBench};
pub use slo_bench::{ClosedLoopBaseline, RateBench, SloBenchConfig, SloDatasetBench};
pub use space_bench::{FamilySpaceBench, SpaceBenchConfig, SpaceDatasetBench};
pub use update_bench::{CompactionPhase, QueryPhase, UpdateBenchConfig, UpdateDatasetBench};
