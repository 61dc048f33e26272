//! Result rows and their text/CSV rendering, the repeated-timing summary
//! and percentile helpers of the `--bench-*` harnesses, plus the
//! host/thread metadata shared by every `BENCH_*.json` document.

use std::fmt::Write as _;
use std::time::Instant;

/// The spread of one repeated measurement: sample count plus the minimum,
/// median and maximum over the samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub samples: usize,
    /// Smallest sample.
    pub min: f64,
    /// Median sample (the upper median for an even count).
    pub median: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`.
    ///
    /// # Panics
    ///
    /// If `samples` is empty.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        Self {
            samples: sorted.len(),
            min: sorted[0],
            median: sorted[sorted.len() / 2],
            max: sorted[sorted.len() - 1],
        }
    }

    /// Renders the summary as a JSON object with `decimals` fraction digits.
    pub fn json(&self, decimals: usize) -> String {
        format!(
            "{{ \"samples\": {}, \"min\": {:.d$}, \"median\": {:.d$}, \"max\": {:.d$} }}",
            self.samples,
            self.min,
            self.median,
            self.max,
            d = decimals
        )
    }
}

/// Runs `f` `reps` times (at least once) and returns the last output with
/// the wall-clock milliseconds of every run.
pub fn time_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::with_capacity(reps.max(1));
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        out = Some(f());
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (out.expect("at least one rep"), samples)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`, nearest rank) of an ascending slice; 0 for
/// an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Logical CPUs of the benchmarking host (1 when undetectable). Recorded in
/// every `BENCH_*.json` so multi-core sweeps can be read in context.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

/// The default thread sweep of the multi-core benchmarks: {1, 2, all CPUs},
/// deduplicated and sorted (so a single-CPU host sweeps just `[1]`).
pub fn default_thread_sweep() -> Vec<usize> {
    let mut sweep = vec![1, 2, host_cpus()];
    sweep.sort_unstable();
    sweep.dedup();
    sweep
}

/// Renders a `usize` list as a JSON array (`[1, 2, 8]`).
pub fn json_usize_list(values: &[usize]) -> String {
    let mut out = String::with_capacity(values.len() * 4 + 2);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// The VM page size in bytes, read from the ELF auxiliary vector
/// (`AT_PAGESZ` in `/proc/self/auxv`); 4096 when undetectable (non-Linux
/// hosts). Recorded alongside `host_cpus` so file-open numbers (one read
/// into an aligned arena) can be related to the host's paging granularity.
pub fn page_size() -> usize {
    std::fs::read("/proc/self/auxv")
        .ok()
        .and_then(|raw| {
            raw.chunks_exact(16).find_map(|pair| {
                let key = u64::from_ne_bytes(pair[..8].try_into().ok()?);
                let value = u64::from_ne_bytes(pair[8..].try_into().ok()?);
                (key == 6).then_some(value as usize)
            })
        })
        .filter(|&p| p > 0)
        .unwrap_or(4096)
}

/// Renders the `"host_cpus": …, "threads": […], "page_size": …` JSON
/// fragment every benchmark document embeds near its top (no surrounding
/// braces, no trailing comma).
pub fn json_host_fields(threads: &[usize]) -> String {
    format!(
        "\"host_cpus\": {}, \"threads\": {}, \"page_size\": {}",
        host_cpus(),
        json_usize_list(threads),
        page_size()
    )
}

/// One measured data point of one experiment — a (series, x, metric) triple,
/// comparable to a single marker in one of the paper's plots.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Experiment key (`fig6`, `table2`, …).
    pub experiment: String,
    /// Dataset name (`SARS*`, `EFM*`, …).
    pub dataset: String,
    /// Series / index name (`WST`, `MWSA-G`, …) or statistic name for tables.
    pub series: String,
    /// Name of the swept parameter (`ell`, `z`, `sigma`, `n`, or `-`).
    pub param: String,
    /// Value of the swept parameter.
    pub param_value: f64,
    /// Metric name (`index_size_mb`, `construction_space_mb`,
    /// `avg_query_us`, `construction_time_s`, …).
    pub metric: String,
    /// Measured value.
    pub value: f64,
}

impl Row {
    /// CSV header matching [`Row::to_csv`].
    pub fn csv_header() -> &'static str {
        "experiment,dataset,series,param,param_value,metric,value"
    }

    /// Renders the row as one CSV line.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{}",
            self.experiment,
            self.dataset,
            self.series,
            self.param,
            self.param_value,
            self.metric,
            self.value
        )
    }
}

/// Renders rows as an aligned text table grouped by experiment and dataset.
pub fn render_table(rows: &[Row]) -> String {
    let mut out = String::new();
    let mut current_group = String::new();
    for row in rows {
        let group = format!("[{}] {} — {}", row.experiment, row.dataset, row.metric);
        if group != current_group {
            if !current_group.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "{group}");
            current_group = group;
        }
        let _ = writeln!(
            out,
            "    {:<10} {}={:<10} {:>14.4}",
            row.series, row.param, row.param_value, row.value
        );
    }
    out
}

/// Renders rows as a CSV document.
pub fn render_csv(rows: &[Row]) -> String {
    let mut out = String::with_capacity(rows.len() * 48 + 64);
    out.push_str(Row::csv_header());
    out.push('\n');
    for row in rows {
        out.push_str(&row.to_csv());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> Row {
        Row {
            experiment: "fig6".into(),
            dataset: "EFM*".into(),
            series: "MWSA".into(),
            param: "ell".into(),
            param_value: 256.0,
            metric: "index_size_mb".into(),
            value: 12.5,
        }
    }

    #[test]
    fn percentile_is_robust() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
        assert_eq!(percentile(&sorted, 0.5), 3.0);
    }

    #[test]
    fn summary_reports_count_and_spread() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.samples, s.min, s.median, s.max), (3, 1.0, 2.0, 3.0));
        assert_eq!(Summary::of(&[5.0]).median, 5.0);
        assert_eq!(
            s.json(1),
            "{ \"samples\": 3, \"min\": 1.0, \"median\": 2.0, \"max\": 3.0 }"
        );
        let (out, samples) = time_reps(0, || 7);
        assert_eq!((out, samples.len()), (7, 1));
    }

    #[test]
    fn host_fields_render_as_json_fragment() {
        assert_eq!(json_usize_list(&[]), "[]");
        assert_eq!(json_usize_list(&[1, 2, 8]), "[1, 2, 8]");
        assert!(host_cpus() >= 1);
        let sweep = default_thread_sweep();
        assert_eq!(sweep.first(), Some(&1));
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sweep.last(), Some(&host_cpus().max(2)));
        let fragment = json_host_fields(&sweep);
        assert!(fragment.starts_with(&format!("\"host_cpus\": {}", host_cpus())));
        assert!(fragment.contains("\"threads\": [1"));
    }

    #[test]
    fn csv_rendering() {
        let csv = render_csv(&[sample_row()]);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), Row::csv_header());
        assert_eq!(
            lines.next().unwrap(),
            "fig6,EFM*,MWSA,ell,256,index_size_mb,12.5"
        );
    }

    #[test]
    fn table_rendering_groups_by_experiment() {
        let mut row2 = sample_row();
        row2.series = "WSA".into();
        row2.value = 200.0;
        let text = render_table(&[sample_row(), row2]);
        assert!(text.contains("[fig6] EFM* — index_size_mb"));
        assert!(text.contains("MWSA"));
        assert!(text.contains("WSA"));
        // Only one group header.
        assert_eq!(text.matches("[fig6]").count(), 1);
    }
}
