//! The durability benchmark behind `reproduce --bench-recovery` and
//! `BENCH_recovery.json`.
//!
//! Two questions, measured on the `uniform` benchmark corpus:
//!
//! * **what does the WAL cost at the ack path?** — the same append
//!   workload is driven into a `LiveIndex` with durability off, then with
//!   the log armed under each fsync policy (`never`, `interval:5`,
//!   `record`), recording per-append latency percentiles and throughput.
//!   The memtable threshold is set high enough that no segment build
//!   lands inside the timed window, so the numbers isolate the logging
//!   (and fsync) cost itself;
//! * **how fast does recovery replay?** — write-ahead logs of increasing
//!   length are left behind by a simulated crash (the index is dropped
//!   without a checkpoint) and `LiveIndex::open` is timed replaying them,
//!   reporting records/s and MB/s versus log size. Every replay asserts
//!   the recovered record count before its timing is trusted.

use crate::report::percentile;
use ius_datasets::corpora::bench_corpus;
use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant};
use ius_live::{FsyncPolicy, LiveConfig, LiveIndex};
use ius_weighted::WeightedString;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parameters of one recovery-benchmark run.
#[derive(Debug, Clone)]
pub struct RecoveryBenchConfig {
    /// Rows in the seeded corpus the appends land on.
    pub n: usize,
    /// Appends per policy run (each one WAL record when armed).
    pub ops: usize,
    /// Rows per append batch.
    pub batch: usize,
    /// Runs per measurement; the run with the lowest median is kept.
    pub reps: usize,
}

impl Default for RecoveryBenchConfig {
    fn default() -> Self {
        Self {
            n: 20_000,
            ops: 400,
            batch: 50,
            reps: 3,
        }
    }
}

/// Append-path cost under one fsync policy.
#[derive(Debug, Clone)]
pub struct PolicyBench {
    /// Policy label (`off` = durability not armed).
    pub policy: String,
    /// Median per-append latency, microseconds.
    pub append_p50_us: f64,
    /// 95th-percentile per-append latency, microseconds.
    pub append_p95_us: f64,
    /// Ingest throughput over the whole run, positions per second.
    pub throughput_pos_s: f64,
    /// Bytes the run appended to the WAL (0 with durability off).
    pub wal_bytes: u64,
}

/// One replay measurement: reopening a directory whose WAL holds
/// `records` un-checkpointed mutations.
#[derive(Debug, Clone)]
pub struct ReplayBench {
    /// Mutation records replayed (asserted against the recovery counter).
    pub records: u64,
    /// On-disk WAL size, bytes.
    pub wal_bytes: u64,
    /// Best-of-reps wall time of `LiveIndex::open`, seconds.
    pub open_s: f64,
    /// Replay rate, records per second.
    pub records_per_s: f64,
    /// Replay rate, megabytes of log per second.
    pub mb_per_s: f64,
}

/// All measurements of one benchmark run.
#[derive(Debug, Clone)]
pub struct RecoveryBenchResult {
    /// Append-path cost per policy, in measurement order.
    pub policies: Vec<PolicyBench>,
    /// Replay throughput versus log size, ascending.
    pub replays: Vec<ReplayBench>,
}

/// A scratch directory that is removed on drop (also on panic, so a
/// failing assertion does not leak seeded state into the temp dir).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("ius-bench-recovery-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The live configuration every run uses: a threshold too high to flush
/// during the timed window, no background work.
fn live_config(config: &RecoveryBenchConfig) -> LiveConfig {
    LiveConfig {
        flush_threshold: config.n + config.ops * config.batch + 1,
        auto_compact: false,
        threads: 1,
        ..Default::default()
    }
}

/// Seeds a live index over the benchmark corpus into `dir`-less memory;
/// durability (and with it the directory) is armed by the caller.
fn seed_live(x: &WeightedString, ell: usize, z: f64, config: &RecoveryBenchConfig) -> LiveIndex {
    let params = IndexParams::new(z, ell, x.sigma()).expect("params");
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::Array), params);
    LiveIndex::from_corpus(x, spec, 2 * ell, live_config(config)).expect("seed live index")
}

/// Runs `ops` appends, returning sorted per-append latencies (µs) and the
/// wall time of the whole loop.
fn timed_appends(live: &LiveIndex, batches: &[WeightedString]) -> (Vec<f64>, f64) {
    let mut latencies_us = Vec::with_capacity(batches.len());
    let start = Instant::now();
    for batch in batches {
        let append_start = Instant::now();
        live.append(batch).expect("timed append");
        latencies_us.push(append_start.elapsed().as_secs_f64() * 1e6);
    }
    let total_s = start.elapsed().as_secs_f64();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (latencies_us, total_s)
}

fn bench_policy(
    label: &str,
    policy: Option<FsyncPolicy>,
    x: &WeightedString,
    z: f64,
    ell: usize,
    batches: &[WeightedString],
    config: &RecoveryBenchConfig,
) -> PolicyBench {
    let mut best: Option<(Vec<f64>, f64, u64)> = None;
    for rep in 0..config.reps.max(1) {
        let scratch = ScratchDir::new(&format!("{label}-{rep}"));
        let live = seed_live(x, ell, z, config);
        if let Some(policy) = policy {
            live.enable_durability(scratch.path(), policy)
                .expect("arm durability");
        }
        let (latencies, total_s) = timed_appends(&live, batches);
        let stats = live.live_stats();
        if policy.is_some() {
            assert_eq!(
                stats.wal_records,
                batches.len() as u64,
                "{label}: acked = logged"
            );
        }
        let better = match &best {
            None => true,
            Some((best_lat, _, _)) => percentile(&latencies, 0.50) < percentile(best_lat, 0.50),
        };
        if better {
            best = Some((latencies, total_s, stats.wal_bytes));
        }
    }
    let (latencies, total_s, wal_bytes) = best.expect("at least one rep");
    let positions: usize = batches.iter().map(WeightedString::len).sum();
    let result = PolicyBench {
        policy: label.to_string(),
        append_p50_us: percentile(&latencies, 0.50),
        append_p95_us: percentile(&latencies, 0.95),
        throughput_pos_s: positions as f64 / total_s,
        wal_bytes,
    };
    eprintln!(
        "[bench-recovery] fsync {label}: append p50 {:.1} us, p95 {:.1} us, {:.0} pos/s",
        result.append_p50_us, result.append_p95_us, result.throughput_pos_s
    );
    result
}

fn bench_replay(
    records: usize,
    x: &WeightedString,
    z: f64,
    ell: usize,
    batches: &[WeightedString],
    config: &RecoveryBenchConfig,
) -> ReplayBench {
    // Leave a WAL of `records` mutations behind a simulated crash: the
    // index is dropped without any checkpoint, so reopen must replay
    // everything.
    let scratch = ScratchDir::new(&format!("replay-{records}"));
    let live = seed_live(x, ell, z, config);
    live.enable_durability(scratch.path(), FsyncPolicy::Never)
        .expect("arm durability");
    for batch in &batches[..records] {
        live.append(batch).expect("append");
    }
    let expected_len = live.len();
    drop(live);
    let wal_bytes = std::fs::metadata(scratch.path().join("live.wal"))
        .expect("wal file")
        .len();
    let mut open_s = f64::INFINITY;
    for _ in 0..config.reps.max(1) {
        let start = Instant::now();
        let reopened = LiveIndex::open(scratch.path(), live_config(config)).expect("replay");
        let elapsed = start.elapsed().as_secs_f64();
        let stats = reopened.live_stats();
        assert_eq!(stats.recovered_records, records as u64, "full replay");
        assert_eq!(reopened.len(), expected_len, "replayed corpus length");
        open_s = open_s.min(elapsed);
    }
    let result = ReplayBench {
        records: records as u64,
        wal_bytes,
        open_s,
        records_per_s: records as f64 / open_s,
        mb_per_s: wal_bytes as f64 / (1 << 20) as f64 / open_s,
    };
    eprintln!(
        "[bench-recovery] replay {} records ({} KiB): {:.1} ms, {:.0} rec/s",
        result.records,
        result.wal_bytes / 1024,
        result.open_s * 1e3,
        result.records_per_s
    );
    result
}

/// Runs the recovery benchmark.
pub fn run_recovery_bench(config: &RecoveryBenchConfig) -> RecoveryBenchResult {
    let corpus = bench_corpus("uniform", config.n, None).expect("uniform preset");
    let (x, z, ell) = (corpus.x, corpus.z, corpus.ell);
    let source = bench_corpus("uniform", config.ops * config.batch, Some(97))
        .expect("append source")
        .x;
    let batches: Vec<WeightedString> = (0..config.ops)
        .map(|i| {
            source
                .substring(i * config.batch, (i + 1) * config.batch)
                .expect("append batch")
        })
        .collect();
    eprintln!(
        "[bench-recovery] uniform (n = {}, {} appends x {} rows, reps = {})",
        x.len(),
        config.ops,
        config.batch,
        config.reps
    );

    let policies = vec![
        bench_policy("off", None, &x, z, ell, &batches, config),
        bench_policy(
            "never",
            Some(FsyncPolicy::Never),
            &x,
            z,
            ell,
            &batches,
            config,
        ),
        bench_policy(
            "interval:5",
            Some(FsyncPolicy::parse("interval:5").expect("policy")),
            &x,
            z,
            ell,
            &batches,
            config,
        ),
        bench_policy(
            "record",
            Some(FsyncPolicy::Record),
            &x,
            z,
            ell,
            &batches,
            config,
        ),
    ];

    let replays = [config.ops / 4, config.ops / 2, config.ops]
        .into_iter()
        .filter(|&records| records > 0)
        .map(|records| bench_replay(records, &x, z, ell, &batches, config))
        .collect();

    RecoveryBenchResult { policies, replays }
}

/// Renders the benchmark results as the `BENCH_recovery.json` document.
pub fn render_recovery_json(config: &RecoveryBenchConfig, result: &RecoveryBenchResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"n\": {}, \"ops\": {}, \"batch\": {}, \"reps\": {}, \"family\": \"MWSA segments\", \
         {},\n",
        config.n,
        config.ops,
        config.batch,
        config.reps,
        crate::report::json_host_fields(&[1])
    ));
    out.push_str(
        "  \"note\": \"Append-path cost of the live write-ahead log on the uniform corpus: \
         the same ops x batch append workload runs with durability off, then with the WAL \
         armed under each fsync policy; the flush threshold is set above the final corpus \
         length so no segment build lands in the timed window and the deltas isolate the \
         logging + fsync cost. The kept run is the best-of-reps by median. replay times \
         LiveIndex::open over a directory whose log holds records un-checkpointed \
         mutations (a crash simulated by dropping the index without a checkpoint); every \
         replay asserts the recovered record count and corpus length before its timing is \
         trusted.\",\n",
    );
    out.push_str("  \"append_per_fsync_policy\": [\n");
    for (i, p) in result.policies.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"policy\": \"{}\", \"append_p50_us\": {:.1}, \"append_p95_us\": {:.1}, \
             \"throughput_pos_per_s\": {:.0}, \"wal_bytes\": {} }}{}\n",
            p.policy,
            p.append_p50_us,
            p.append_p95_us,
            p.throughput_pos_s,
            p.wal_bytes,
            if i + 1 == result.policies.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"replay\": [\n");
    for (i, r) in result.replays.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"records\": {}, \"wal_bytes\": {}, \"open_s\": {:.4}, \
             \"records_per_s\": {:.0}, \"mb_per_s\": {:.2} }}{}\n",
            r.records,
            r.wal_bytes,
            r.open_s,
            r.records_per_s,
            r.mb_per_s,
            if i + 1 == result.replays.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_measures_all_policies_and_renders_json() {
        let config = RecoveryBenchConfig {
            n: 1_500,
            ops: 24,
            batch: 10,
            reps: 1,
        };
        let result = run_recovery_bench(&config);
        assert_eq!(result.policies.len(), 4);
        assert_eq!(
            result.policies[0].wal_bytes, 0,
            "durability off writes no WAL"
        );
        for p in &result.policies[1..] {
            assert!(p.wal_bytes > 0, "{}: armed runs write the WAL", p.policy);
            assert!(p.append_p50_us > 0.0);
        }
        assert_eq!(result.replays.len(), 3);
        assert!(result
            .replays
            .windows(2)
            .all(|w| w[0].records < w[1].records));
        for r in &result.replays {
            assert!(r.records_per_s > 0.0);
        }
        let json = render_recovery_json(&config, &result);
        for key in [
            "\"append_per_fsync_policy\"",
            "\"policy\": \"record\"",
            "\"replay\"",
            "\"records_per_s\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }
}
