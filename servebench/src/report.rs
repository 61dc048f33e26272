//! Metric tables, percentile helpers and the result rendering.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of the metric
//! names and units; `BENCHMARK.json` at the repository root lists the same
//! names (a test keeps the two in step). A run fills a [`Report`] and
//! [`Report::render`] refuses to print a result that misses any metric of
//! its table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics a user of the served index sees, printed with `--trace 0`.
/// Every workload measures every one of them. The open-loop p99 and the
/// closed-loop capacity are per-layer metrics: on a small shared host
/// their run-to-run spread is wider than any bound a regression gate
/// could use.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("setup_peak_heap_mb", "MB"),
    ("index_bytes_per_pos", "B/pos"),
    ("query_p50_us", "us"),
];

/// Metrics of single layers, printed with `--trace 1`. A layer a workload
/// does not run (the live layer on the read-only workloads) reads 0 with
/// 0 samples.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("query_p99_us", "us"),
    ("query_capacity_qps", "1/s"),
    ("weighted.zestimation_ms", "ms"),
    ("weighted.zestimation_peak_mb", "MB"),
    ("index.build_ms", "ms"),
    ("index.build_peak_mb", "MB"),
    ("index.save_ms", "ms"),
    ("arena.open_ms", "ms"),
    ("server.bind_ms", "ms"),
    ("live.seed_build_ms", "ms"),
    ("live.wal_arm_ms", "ms"),
    ("setup.unattributed_ms", "ms"),
    ("index.file_bytes", "B"),
    ("index.size_bytes", "B"),
    ("query.engine_p50_us", "us"),
    ("query.engine_p99_us", "us"),
    ("query.candidates_per_reported", "ratio"),
    ("query.verified_per_candidate", "ratio"),
    ("query.grid_nodes_per_query", "count"),
    ("query.reported_per_query", "count"),
    ("server.wire_p50_us", "us"),
    ("server.wire_p99_us", "us"),
    ("server.refusals", "count"),
    ("server.errors", "count"),
    ("client.send_late_p50_us", "us"),
    ("client.send_late_p99_us", "us"),
    ("append_p50_us", "us"),
    ("append_p99_us", "us"),
    ("live.append_call_p50_us", "us"),
    ("live.append_call_p99_us", "us"),
    ("live.flush_append_ms", "ms"),
    ("live.query_call_p50_us", "us"),
    ("live.ingest_query_p99_us", "us"),
    ("live.segments_mean", "count"),
    ("live.flushes", "count"),
    ("live.compactions", "count"),
    ("live.compaction_errors", "count"),
    ("live.wal_bytes_per_appended_byte", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value in the unit of its table entry.
    pub value: f64,
    /// Samples the value summarises (1 for a single count or size).
    pub samples: usize,
}

/// The outcome of one run: operation counts, every metric measured and
/// free-form notes (attribution shares, span self times, settings).
#[derive(Debug, Default)]
pub struct Report {
    /// Operations sent to the system in the measured phases.
    pub attempted: u64,
    /// Of those, the ones that failed: transport errors, typed refusals
    /// and growth of the server's error counters.
    pub failed: u64,
    /// Measured metrics by name.
    pub values: BTreeMap<&'static str, Value>,
    /// Lines printed above the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records metric `name` (which must be in one of the tables).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is in neither metric table"
        );
        self.values.insert(name, Value { value, samples });
    }

    /// Records the `q`-quantile of the whole of `samples`, or 0 with no
    /// samples.
    pub fn set_quantile(&mut self, name: &'static str, samples: &[f64], q: f64) {
        self.set(name, quantile(samples, q), samples.len());
    }

    /// Records the [`windowed_median`] of `samples` (in the order they were
    /// taken). Used only for the bounded `query_p50_us`; every tail figure
    /// is a plain [`quantile`] over the whole stream.
    pub fn set_windowed_median(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, windowed_median(samples), samples.len());
    }

    /// Notes the quantiles of a latency stream, for reading its shape
    /// beside the reported percentiles.
    pub fn note_quantiles(&mut self, what: &str, samples: &[f64]) {
        let q: Vec<String> = [0.5, 0.9, 0.95, 0.99, 0.999]
            .iter()
            .map(|&q| format!("p{} {:.1}", q * 100.0, quantile(samples, q)))
            .collect();
        self.note(format!(
            "{what} us: {} ({} samples)",
            q.join(" "),
            samples.len()
        ));
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The metric table printed for this trace mode.
    pub fn table(traced: bool) -> &'static [(&'static str, &'static str)] {
        if traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Renders the human-readable lines (every metric of the table with
    /// unit and sample count, then the notes) and, last, the one-line JSON
    /// result. Fails when a metric of the table was not measured or is not
    /// a finite number.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let mut out = String::new();
        let mut json = String::new();
        for (i, (name, unit)) in Self::table(traced).iter().enumerate() {
            let v = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", v.value));
            }
            let _ = writeln!(
                out,
                "metric {name} = {} {unit} (samples {})",
                v.value, v.samples
            );
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.value
            );
        }
        for line in &self.notes {
            let _ = writeln!(out, "note {line}");
        }
        let _ = writeln!(
            out,
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted, self.failed
        );
        Ok(out)
    }
}

/// The unit of a metric in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Nearest-rank `q`-quantile of unsorted `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Most windows a latency stream is split into by [`windowed_median`].
pub const LATENCY_WINDOWS: usize = 8;

/// Fewest samples in one window.
pub const MIN_WINDOW: usize = 1_000;

/// The median over consecutive windows of `samples` (in schedule order)
/// of the median within each window: up to [`LATENCY_WINDOWS`] windows of
/// at least [`MIN_WINDOW`] samples (one window when there are fewer). A
/// burst of interference from other work on the host spoils a window or
/// two, not the estimate.
pub fn windowed_median(samples: &[f64]) -> f64 {
    let windows = (samples.len() / MIN_WINDOW).clamp(1, LATENCY_WINDOWS);
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let lo = w * samples.len() / windows;
            let hi = (w + 1) * samples.len() / windows;
            quantile(&samples[lo..hi], 0.5)
        })
        .collect();
    median(&per_window)
}

/// Median of unsorted `samples`, the mean of the middle two for an even
/// count (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn windowed_median_ignores_one_slow_window_and_the_tail_keeps_it() {
        let mut s = vec![10.0; 8_000];
        for v in &mut s[1_000..1_700] {
            *v = 5_000.0;
        }
        assert_eq!(windowed_median(&s), 10.0);
        assert_eq!(windowed_median(&[1.0, 2.0, 3.0]), 2.0);
        let mut report = Report::default();
        report.set_quantile("query_p99_us", &s, 0.99);
        assert_eq!(report.values["query_p99_us"].value, 5_000.0);
    }

    #[test]
    fn render_refuses_a_missing_metric() {
        let mut report = Report::default();
        report.set("setup_s", 1.5, 3);
        let err = report.render(false).expect_err("incomplete report");
        assert!(err.contains("setup_peak_heap_mb"), "{err}");
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
