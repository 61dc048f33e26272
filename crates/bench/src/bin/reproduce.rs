//! `reproduce` — regenerates every table and figure of the paper's evaluation
//! on the synthetic stand-in datasets.
//!
//! ```text
//! reproduce --list                         # show the available experiments
//! reproduce --exp table2 --scale tiny      # one experiment, small data
//! reproduce --exp all --scale small        # the full evaluation
//! reproduce --exp fig6 --out results/      # also writes results/fig6.csv
//! ```
//!
//! Measured quantities follow the paper: index size (heap bytes of the final
//! structure), construction space (peak heap during construction, via the
//! counting allocator installed below), construction time (wall clock,
//! including the z-estimation where the index needs it) and average query
//! time over patterns sampled from the z-estimation.

use ius_bench::construction::{render_json, run_construction_bench, ConstructionBenchConfig};
use ius_bench::experiments::ExperimentId;
use ius_bench::measure::{
    measure_build, measure_estimation, measure_queries, sample_patterns, IndexKind,
};
use ius_bench::query_bench::{render_query_json, run_query_bench, QueryBenchConfig};
use ius_bench::recovery_bench::{render_recovery_json, run_recovery_bench, RecoveryBenchConfig};
use ius_bench::report::{default_thread_sweep, host_cpus, render_csv, render_table, Row};
use ius_bench::serve_bench::{
    measure_instrumentation_overhead, render_serve_json, run_serve_bench, ServeBenchConfig,
};
use ius_bench::slo_bench::{render_slo_json, run_slo_bench, SloBenchConfig};
use ius_bench::space_bench::{render_space_json, run_space_bench, SpaceBenchConfig};
use ius_bench::update_bench::{render_update_json, run_update_bench, UpdateBenchConfig};
use ius_datasets::registry::{efm_star, human_star, rssi_star, sars_star, Dataset, Scale};
use ius_datasets::rssi::rssi_scaled;
use ius_index::IndexParams;
use ius_memtrack::CountingAllocator;
use ius_weighted::{WeightedString, ZEstimation};
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

/// Above this `n·⌊z⌋` product the tree-family baselines are skipped, mirroring
/// the paper's note that the WST could not be constructed for its largest
/// configurations.
const TREE_NZ_LIMIT: usize = 48_000_000;

struct Config {
    experiments: HashSet<ExperimentId>,
    scale: Scale,
    out_dir: Option<PathBuf>,
    max_patterns: usize,
    ell_sweep: Vec<usize>,
    default_ell: usize,
    bench_construction: bool,
    bench_query: bool,
    bench_space: bool,
    bench_serve: bool,
    bench_slo: bool,
    bench_update: bool,
    bench_recovery: bool,
    bench_n: usize,
    bench_reps: usize,
    bench_patterns: usize,
    bench_threads: Option<Vec<usize>>,
    bench_workers: Vec<usize>,
    bench_clients: usize,
    bench_batch: usize,
    bench_ops: usize,
    bench_rates: Vec<f64>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    if args.iter().any(|a| a == "--list") {
        for id in ExperimentId::all() {
            println!("{:<10} {}", id.key(), id.description());
        }
        return;
    }
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}");
            print_help();
            std::process::exit(2);
        }
    };

    if config.bench_construction {
        let bench_config = ConstructionBenchConfig {
            n: config.bench_n,
            reps: config.bench_reps,
            threads: config
                .bench_threads
                .clone()
                .unwrap_or_else(default_thread_sweep),
        };
        let results = run_construction_bench(&bench_config);
        let json = render_json(&bench_config, &results);
        let path = config
            .out_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("."))
            .join("BENCH_construction.json");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(&path, &json).expect("write BENCH_construction.json");
        println!("{json}");
        println!("wrote {}", path.display());
        return;
    }

    if config.bench_query {
        let bench_config = QueryBenchConfig {
            n: config.bench_n,
            reps: config.bench_reps,
            patterns: config.bench_patterns,
            // The batched query path takes one worker count: the widest
            // entry of the sweep (0 = all CPUs).
            threads: config
                .bench_threads
                .as_ref()
                .and_then(|sweep| {
                    sweep
                        .iter()
                        .map(|&t| if t == 0 { host_cpus() } else { t })
                        .max()
                })
                .unwrap_or_else(|| QueryBenchConfig::default().threads),
        };
        let results = run_query_bench(&bench_config);
        let json = render_query_json(&bench_config, &results);
        let path = config
            .out_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("."))
            .join("BENCH_query.json");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(&path, &json).expect("write BENCH_query.json");
        println!("{json}");
        println!("wrote {}", path.display());
        return;
    }

    if config.bench_space {
        let bench_config = SpaceBenchConfig {
            n: config.bench_n,
            reps: config.bench_reps,
            patterns: config.bench_patterns.min(200),
        };
        let results = run_space_bench(&bench_config);
        let json = render_space_json(&bench_config, &results);
        let path = config
            .out_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("."))
            .join("BENCH_space.json");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(&path, &json).expect("write BENCH_space.json");
        println!("{json}");
        println!("wrote {}", path.display());
        return;
    }

    if config.bench_serve {
        let bench_config = ServeBenchConfig {
            n: config.bench_n,
            reps: config.bench_reps,
            patterns: config.bench_patterns.min(400),
            worker_counts: config.bench_workers.clone(),
            clients: config.bench_clients,
        };
        let results = run_serve_bench(&bench_config);
        // A sweep pair is ~50 ms, so the overhead comparison can afford
        // far more reps than the dataset benchmarks — a percent-level
        // difference needs them on a noisy virtualized host.
        let overhead = measure_instrumentation_overhead(
            bench_config.n,
            bench_config.patterns,
            bench_config.reps.max(16),
        );
        let json = render_serve_json(&bench_config, &results, &overhead);
        let path = config
            .out_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("."))
            .join("BENCH_serve.json");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(&path, &json).expect("write BENCH_serve.json");
        println!("{json}");
        println!("wrote {}", path.display());
        return;
    }

    if config.bench_slo {
        let patterns = config.bench_patterns.min(400);
        let bench_config = SloBenchConfig {
            n: config.bench_n,
            patterns,
            clients: config.bench_clients,
            workers: config.bench_workers.iter().copied().max().unwrap_or(2),
            rates: config.bench_rates.clone(),
            requests_per_rate: (patterns * 10).clamp(40, 4_000),
            ..Default::default()
        };
        let results = run_slo_bench(&bench_config);
        let json = render_slo_json(&bench_config, &results);
        let path = config
            .out_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("."))
            .join("BENCH_slo.json");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(&path, &json).expect("write BENCH_slo.json");
        println!("{json}");
        println!("wrote {}", path.display());
        return;
    }

    if config.bench_update {
        let bench_config = UpdateBenchConfig {
            n: config.bench_n,
            reps: config.bench_reps,
            patterns: config.bench_patterns.min(400),
            batch: config.bench_batch,
            threads: config
                .bench_threads
                .clone()
                .unwrap_or_else(default_thread_sweep),
            ..Default::default()
        };
        let results = run_update_bench(&bench_config);
        let json = render_update_json(&bench_config, &results);
        let path = config
            .out_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("."))
            .join("BENCH_update.json");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(&path, &json).expect("write BENCH_update.json");
        println!("{json}");
        println!("wrote {}", path.display());
        return;
    }

    if config.bench_recovery {
        let bench_config = RecoveryBenchConfig {
            n: config.bench_n,
            ops: config.bench_ops,
            reps: config.bench_reps,
            ..Default::default()
        };
        let result = run_recovery_bench(&bench_config);
        let json = render_recovery_json(&bench_config, &result);
        let path = config
            .out_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("."))
            .join("BENCH_recovery.json");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(&path, &json).expect("write BENCH_recovery.json");
        println!("{json}");
        println!("wrote {}", path.display());
        return;
    }

    let started = Instant::now();
    let mut rows: Vec<Row> = Vec::new();
    let want = |ids: &[ExperimentId]| ids.iter().any(|id| config.experiments.contains(id));

    if want(&[ExperimentId::Table2]) {
        rows.extend(table2(&config));
    }
    if want(&[
        ExperimentId::Fig6,
        ExperimentId::Fig8,
        ExperimentId::Fig10,
        ExperimentId::Fig12,
        ExperimentId::Fig13,
        ExperimentId::Fig15,
    ]) {
        rows.extend(sweep_vs_ell(&config));
    }
    if want(&[
        ExperimentId::Fig7,
        ExperimentId::Fig9,
        ExperimentId::Fig11,
        ExperimentId::Fig12,
        ExperimentId::Fig13,
        ExperimentId::Fig15,
    ]) {
        rows.extend(sweep_vs_z(&config));
    }
    if want(&[ExperimentId::Fig14, ExperimentId::Fig16]) {
        rows.extend(sweep_rssi(&config));
    }
    if want(&[ExperimentId::Ablation]) {
        rows.extend(ablation(&config));
    }

    // Keep only the rows belonging to the requested experiments.
    rows.retain(|r| config.experiments.iter().any(|id| id.key() == r.experiment));

    println!("{}", render_table(&rows));
    if let Some(dir) = &config.out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
        for id in &config.experiments {
            let subset: Vec<Row> = rows
                .iter()
                .filter(|r| r.experiment == id.key())
                .cloned()
                .collect();
            if subset.is_empty() {
                continue;
            }
            let path = dir.join(format!("{}.csv", id.key()));
            std::fs::write(&path, render_csv(&subset)).expect("write CSV");
            println!("wrote {}", path.display());
        }
    }
    println!(
        "reproduced {} experiment(s), {} data points, in {:.1?}",
        config.experiments.len(),
        rows.len(),
        started.elapsed()
    );
}

fn print_help() {
    println!(
        "reproduce — regenerate the paper's tables and figures\n\n\
         options:\n\
         \x20 --exp <id|all>       experiment to run (repeatable); see --list\n\
         \x20 --scale tiny|small|full   dataset scale (default: tiny)\n\
         \x20 --out <dir>          also write one CSV per experiment\n\
         \x20 --max-patterns <n>   cap on query patterns per configuration (default 200)\n\
         \x20 --full-sweep         sweep all five ℓ values instead of three\n\
         \x20 --bench-construction run the before/after construction benchmark and write\n\
         \x20                      BENCH_construction.json (to --out or the working directory)\n\
         \x20 --bench-query        run the before/after query benchmark (old single-shot vs\n\
         \x20                      sink-based engine, single-thread and batched) and write\n\
         \x20                      BENCH_query.json (to --out or the working directory)\n\
         \x20 --bench-space        run the index-lifecycle space benchmark (footprint,\n\
         \x20                      serialized size, save/open vs rebuild) and write\n\
         \x20                      BENCH_space.json\n\
         \x20 --bench-serve        run the serving benchmark (persisted index served over\n\
         \x20                      loopback TCP, throughput + p50/p99 latency vs worker\n\
         \x20                      count, hot-reload stage) and write BENCH_serve.json\n\
         \x20 --bench-slo          run the open-loop latency-SLO benchmark (fixed arrival\n\
         \x20                      rates, latency from intended send time, knee + max\n\
         \x20                      throughput under the p99 SLO, closed-vs-open p99 delta)\n\
         \x20                      and write BENCH_slo.json\n\
         \x20 --bench-update       run the dynamic-corpus benchmark (batch ingest into a\n\
         \x20                      LiveIndex, append throughput + visible latency, query\n\
         \x20                      latency vs segment count before/after compaction under\n\
         \x20                      concurrent load, answers asserted identical to a\n\
         \x20                      from-scratch rebuild) and write BENCH_update.json\n\
         \x20 --bench-recovery     run the durability benchmark (append latency with the\n\
         \x20                      write-ahead log off/armed per fsync policy, WAL replay\n\
         \x20                      throughput vs log size) and write BENCH_recovery.json\n\
         \x20 --bench-n <n>        string length for --bench-* (default 100000)\n\
         \x20 --bench-reps <r>     repetitions per timed side for --bench-* (default 3)\n\
         \x20 --bench-patterns <p> query patterns per dataset for --bench-query/--bench-space/\n\
         \x20                      --bench-serve (default 400; space/serve cap at 200/400)\n\
         \x20 --bench-threads <t,..> thread sweep (0 = all CPUs): the multi-core sweep of\n\
         \x20                      --bench-construction/--bench-update, and the batch\n\
         \x20                      worker count for --bench-query (widest entry)\n\
         \x20                      (default: 1,2,all CPUs)\n\
         \x20 --bench-workers <w,..> worker-pool sizes for --bench-serve (default 1,2,4)\n\
         \x20 --bench-clients <c>  concurrent client threads for --bench-serve (default 4)\n\
         \x20 --bench-rates <r,..> arrival rates (req/s) for --bench-slo (default: fractions\n\
         \x20                      of each corpus's measured closed-loop throughput)\n\
         \x20 --bench-batch <b>    rows per append batch for --bench-update (default 2000)\n\
         \x20 --bench-ops <o>      appends per policy run for --bench-recovery (default 400)\n\
         \x20 --list               list experiments\n"
    );
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut experiments = HashSet::new();
    let mut scale = Scale::Tiny;
    let mut out_dir = None;
    let mut max_patterns = 200usize;
    let mut full_sweep = false;
    let mut bench_construction = false;
    let mut bench_query = false;
    let mut bench_space = false;
    let mut bench_serve = false;
    let mut bench_slo = false;
    let mut bench_update = false;
    let mut bench_recovery = false;
    let mut bench_n = 100_000usize;
    let mut bench_reps = 3usize;
    let mut bench_patterns = 400usize;
    let mut bench_threads = None;
    let mut bench_workers = vec![1usize, 2, 4];
    let mut bench_clients = 4usize;
    let mut bench_batch = 2_000usize;
    let mut bench_ops = 400usize;
    let mut bench_rates: Vec<f64> = Vec::new();
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--bench-construction" => {
                bench_construction = true;
                i += 1;
            }
            "--bench-query" => {
                bench_query = true;
                i += 1;
            }
            "--bench-space" => {
                bench_space = true;
                i += 1;
            }
            "--bench-serve" => {
                bench_serve = true;
                i += 1;
            }
            "--bench-slo" => {
                bench_slo = true;
                i += 1;
            }
            "--bench-update" => {
                bench_update = true;
                i += 1;
            }
            "--bench-rates" => {
                bench_rates = args
                    .get(i + 1)
                    .ok_or("--bench-rates needs a value")?
                    .split(',')
                    .map(|s| s.trim().parse::<f64>())
                    .collect::<Result<Vec<f64>, _>>()
                    .map_err(|e| format!("bad --bench-rates: {e}"))?;
                if bench_rates.is_empty() || !bench_rates.iter().all(|r| *r > 0.0) {
                    return Err("--bench-rates needs positive arrival rates".into());
                }
                i += 2;
            }
            "--bench-recovery" => {
                bench_recovery = true;
                i += 1;
            }
            "--bench-ops" => {
                bench_ops = args
                    .get(i + 1)
                    .ok_or("--bench-ops needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --bench-ops: {e}"))?;
                if bench_ops == 0 {
                    return Err("--bench-ops needs a positive count".into());
                }
                i += 2;
            }
            "--bench-batch" => {
                bench_batch = args
                    .get(i + 1)
                    .ok_or("--bench-batch needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --bench-batch: {e}"))?;
                if bench_batch == 0 {
                    return Err("--bench-batch needs a positive row count".into());
                }
                i += 2;
            }
            "--bench-workers" => {
                bench_workers = args
                    .get(i + 1)
                    .ok_or("--bench-workers needs a value")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<usize>, _>>()
                    .map_err(|e| format!("bad --bench-workers: {e}"))?;
                if bench_workers.is_empty() || bench_workers.contains(&0) {
                    return Err("--bench-workers needs positive worker counts".into());
                }
                i += 2;
            }
            "--bench-clients" => {
                bench_clients = args
                    .get(i + 1)
                    .ok_or("--bench-clients needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --bench-clients: {e}"))?;
                if bench_clients == 0 {
                    return Err("--bench-clients needs a positive count".into());
                }
                i += 2;
            }
            "--bench-n" => {
                bench_n = args
                    .get(i + 1)
                    .ok_or("--bench-n needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --bench-n: {e}"))?;
                i += 2;
            }
            "--bench-reps" => {
                bench_reps = args
                    .get(i + 1)
                    .ok_or("--bench-reps needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --bench-reps: {e}"))?;
                i += 2;
            }
            "--bench-patterns" => {
                bench_patterns = args
                    .get(i + 1)
                    .ok_or("--bench-patterns needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --bench-patterns: {e}"))?;
                i += 2;
            }
            "--bench-threads" => {
                let sweep = args
                    .get(i + 1)
                    .ok_or("--bench-threads needs a value")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<usize>, _>>()
                    .map_err(|e| format!("bad --bench-threads: {e}"))?;
                if sweep.is_empty() {
                    return Err("--bench-threads needs at least one count".into());
                }
                bench_threads = Some(sweep);
                i += 2;
            }
            "--exp" => {
                let value = args.get(i + 1).ok_or("--exp needs a value")?;
                if value == "all" {
                    experiments.extend(ExperimentId::all());
                } else {
                    experiments.insert(value.parse::<ExperimentId>()?);
                }
                i += 2;
            }
            "--scale" => {
                let value = args.get(i + 1).ok_or("--scale needs a value")?;
                scale = match value.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    other => return Err(format!("unknown scale {other:?}")),
                };
                i += 2;
            }
            "--out" => {
                out_dir = Some(PathBuf::from(args.get(i + 1).ok_or("--out needs a value")?));
                i += 2;
            }
            "--max-patterns" => {
                max_patterns = args
                    .get(i + 1)
                    .ok_or("--max-patterns needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --max-patterns: {e}"))?;
                i += 2;
            }
            "--full-sweep" => {
                full_sweep = true;
                i += 1;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if experiments.is_empty() {
        experiments.extend(ExperimentId::all());
    }
    let ell_sweep = if full_sweep {
        vec![64, 128, 256, 512, 1024]
    } else {
        vec![64, 256, 1024]
    };
    Ok(Config {
        experiments,
        scale,
        out_dir,
        max_patterns,
        ell_sweep,
        default_ell: 256,
        bench_construction,
        bench_query,
        bench_space,
        bench_serve,
        bench_slo,
        bench_update,
        bench_recovery,
        bench_n,
        bench_reps,
        bench_patterns,
        bench_threads,
        bench_workers,
        bench_clients,
        bench_batch,
        bench_ops,
        bench_rates,
    })
}

fn dna_datasets(config: &Config) -> Vec<Dataset> {
    vec![
        sars_star(config.scale),
        efm_star(config.scale),
        human_star(config.scale),
    ]
}

fn row(
    exp: ExperimentId,
    dataset: &str,
    series: &str,
    param: &str,
    param_value: f64,
    metric: &str,
    value: f64,
) -> Row {
    Row {
        experiment: exp.key().to_string(),
        dataset: dataset.to_string(),
        series: series.to_string(),
        param: param.to_string(),
        param_value,
        metric: metric.to_string(),
        value,
    }
}

/// Table 2: dataset characteristics.
fn table2(config: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut datasets = dna_datasets(config);
    datasets.push(rssi_star(config.scale));
    for dataset in &datasets {
        let x = &dataset.weighted;
        eprintln!(
            "[table2] {} (n = {}, z = {})",
            dataset.name,
            x.len(),
            dataset.default_z
        );
        let est = ZEstimation::build(x, dataset.default_z).expect("estimation");
        let e = ExperimentId::Table2;
        rows.push(row(
            e,
            dataset.name,
            "n",
            "-",
            0.0,
            "length",
            x.len() as f64,
        ));
        rows.push(row(
            e,
            dataset.name,
            "sigma",
            "-",
            0.0,
            "alphabet_size",
            x.sigma() as f64,
        ));
        rows.push(row(
            e,
            dataset.name,
            "delta",
            "-",
            0.0,
            "uncertain_percent",
            dataset.delta_percent(),
        ));
        rows.push(row(
            e,
            dataset.name,
            "default_z",
            "-",
            0.0,
            "z",
            dataset.default_z,
        ));
        rows.push(row(
            e,
            dataset.name,
            "z-estimation",
            "-",
            0.0,
            "size_mb",
            est.memory_bytes() as f64 / 1e6,
        ));
    }
    rows
}

/// One full measurement of every index at a given (dataset, z, ℓ), emitting
/// rows for all the figures that read off this configuration.
#[allow(clippy::too_many_arguments)]
fn measure_configuration(
    config: &Config,
    dataset_name: &str,
    x: &WeightedString,
    z: f64,
    ell: usize,
    param: &str,
    param_value: f64,
    exps_size: ExperimentId,
    exps_space: ExperimentId,
    exps_query: Option<ExperimentId>,
    exps_time: ExperimentId,
    include_se: bool,
    rows: &mut Vec<Row>,
) {
    let params = IndexParams::new(z, ell, x.sigma()).expect("valid parameters");
    let (est, est_cost) = measure_estimation(x, z).expect("z-estimation");
    let patterns = if exps_query.is_some() {
        sample_patterns(&est, ell, config.max_patterns, 0xC0FFEE)
    } else {
        Vec::new()
    };
    let nz = x.len() * z.floor() as usize;
    let mut kinds: Vec<IndexKind> = Vec::new();
    kinds.extend(IndexKind::array_family());
    if nz <= TREE_NZ_LIMIT {
        kinds.extend(IndexKind::tree_family());
    } else {
        eprintln!(
            "  [skip] tree-family baselines for {dataset_name} (n·z = {nz} exceeds the memory budget)"
        );
    }
    if include_se {
        kinds.push(IndexKind::MwstSe);
    }
    for kind in kinds {
        let estimation = if kind.needs_estimation() {
            Some(&est)
        } else {
            None
        };
        let built = match measure_build(kind, x, estimation, est_cost, params) {
            Ok(b) => b,
            Err(err) => {
                eprintln!("  [skip] {}: {err}", kind.name());
                continue;
            }
        };
        eprintln!(
            "  {dataset_name} {param}={param_value} {:<8} size {:>10.2} MB  space {:>10.2} MB  time {:>8.2} s",
            kind.name(),
            built.size_bytes as f64 / 1e6,
            built.peak_bytes as f64 / 1e6,
            built.wall.as_secs_f64()
        );
        rows.push(row(
            exps_size,
            dataset_name,
            kind.name(),
            param,
            param_value,
            "index_size_mb",
            built.size_bytes as f64 / 1e6,
        ));
        rows.push(row(
            exps_space,
            dataset_name,
            kind.name(),
            param,
            param_value,
            "construction_space_mb",
            built.peak_bytes as f64 / 1e6,
        ));
        rows.push(row(
            exps_time,
            dataset_name,
            kind.name(),
            param,
            param_value,
            "construction_time_s",
            built.wall.as_secs_f64(),
        ));
        if let Some(qexp) = exps_query {
            if !patterns.is_empty() && !matches!(kind, IndexKind::MwstSe) {
                let q = measure_queries(built.index.as_ref(), &patterns, x);
                rows.push(row(
                    qexp,
                    dataset_name,
                    kind.name(),
                    param,
                    param_value,
                    "avg_query_us",
                    q.avg_micros,
                ));
            }
        }
    }
}

/// Figures 6, 8, 10, 12(a,b), 13(a,b), 15(a,b): sweeps over ℓ at the default z.
fn sweep_vs_ell(config: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for dataset in dna_datasets(config) {
        let x = &dataset.weighted;
        for &ell in &config.ell_sweep {
            if ell > x.len() {
                continue;
            }
            eprintln!(
                "[vs-ell] {} z={} ell={}",
                dataset.name, dataset.default_z, ell
            );
            measure_configuration(
                config,
                dataset.name,
                x,
                dataset.default_z,
                ell,
                "ell",
                ell as f64,
                ExperimentId::Fig6,
                ExperimentId::Fig8,
                Some(ExperimentId::Fig10),
                ExperimentId::Fig12,
                true,
                &mut rows,
            );
        }
    }
    // Figures 13/15 read the same sweep; duplicate the relevant series.
    let extra: Vec<Row> = rows
        .iter()
        .filter(|r| {
            (r.metric == "construction_space_mb" || r.metric == "construction_time_s")
                && r.param == "ell"
        })
        .map(|r| Row {
            experiment: if r.metric == "construction_space_mb" {
                ExperimentId::Fig13.key().to_string()
            } else {
                ExperimentId::Fig15.key().to_string()
            },
            ..r.clone()
        })
        .collect();
    rows.extend(extra);
    rows
}

/// Figures 7, 9, 11, 12(c,d), 13(c,d), 15(c,d): sweeps over z at the default ℓ.
fn sweep_vs_z(config: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for dataset in dna_datasets(config) {
        let x = &dataset.weighted;
        let ell = config.default_ell.min(x.len());
        for &z in &dataset.z_sweep {
            eprintln!("[vs-z] {} z={} ell={}", dataset.name, z, ell);
            measure_configuration(
                config,
                dataset.name,
                x,
                z,
                ell,
                "z",
                z,
                ExperimentId::Fig7,
                ExperimentId::Fig9,
                Some(ExperimentId::Fig11),
                ExperimentId::Fig12,
                true,
                &mut rows,
            );
        }
    }
    let extra: Vec<Row> = rows
        .iter()
        .filter(|r| {
            (r.metric == "construction_space_mb" || r.metric == "construction_time_s")
                && r.param == "z"
        })
        .map(|r| Row {
            experiment: if r.metric == "construction_space_mb" {
                ExperimentId::Fig13.key().to_string()
            } else {
                ExperimentId::Fig15.key().to_string()
            },
            ..r.clone()
        })
        .collect();
    rows.extend(extra);
    rows
}

/// Figures 14 and 16: construction space / time of WSA vs MWST-SE on the RSSI
/// family, varying ℓ, z, σ and n.
fn sweep_rssi(config: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    let base = rssi_star(config.scale);
    let base_n = base.n();
    let kinds = [IndexKind::Wsa, IndexKind::MwstSe];
    let measure_one =
        |x: &WeightedString, z: f64, ell: usize, param: &str, value: f64, rows: &mut Vec<Row>| {
            let params = IndexParams::new(z, ell, x.sigma()).expect("valid parameters");
            let (est, est_cost) = measure_estimation(x, z).expect("z-estimation");
            for kind in kinds {
                let estimation = if kind.needs_estimation() {
                    Some(&est)
                } else {
                    None
                };
                let built = match measure_build(kind, x, estimation, est_cost, params) {
                    Ok(b) => b,
                    Err(err) => {
                        eprintln!("  [skip] {}: {err}", kind.name());
                        continue;
                    }
                };
                eprintln!(
                    "  RSSI* {param}={value} {:<8} space {:>9.2} MB  time {:>7.2} s",
                    kind.name(),
                    built.peak_bytes as f64 / 1e6,
                    built.wall.as_secs_f64()
                );
                rows.push(row(
                    ExperimentId::Fig14,
                    "RSSI*",
                    kind.name(),
                    param,
                    value,
                    "construction_space_mb",
                    built.peak_bytes as f64 / 1e6,
                ));
                rows.push(row(
                    ExperimentId::Fig16,
                    "RSSI*",
                    kind.name(),
                    param,
                    value,
                    "construction_time_s",
                    built.wall.as_secs_f64(),
                ));
            }
        };

    // (a) vs ℓ at the default z.
    for &ell in &config.ell_sweep {
        eprintln!("[rssi vs-ell] ell={ell}");
        measure_one(
            &base.weighted,
            base.default_z,
            ell,
            "ell",
            ell as f64,
            &mut rows,
        );
    }
    // (b) vs z at the default ℓ.
    for &z in &base.z_sweep {
        eprintln!("[rssi vs-z] z={z}");
        measure_one(&base.weighted, z, config.default_ell, "z", z, &mut rows);
    }
    // (c) vs σ at fixed n.
    for sigma in [16usize, 32, 64, 91] {
        eprintln!("[rssi vs-sigma] sigma={sigma}");
        let x = rssi_scaled(base_n, sigma, 0x0551);
        measure_one(
            &x,
            base.default_z,
            config.default_ell,
            "sigma",
            sigma as f64,
            &mut rows,
        );
    }
    // (d) vs n at fixed σ = 32.
    for factor in [1usize, 2, 4] {
        let n = base_n * factor;
        eprintln!("[rssi vs-n] n={n}");
        let x = rssi_scaled(n, 32, 0x0551);
        measure_one(
            &x,
            base.default_z,
            config.default_ell,
            "n",
            n as f64,
            &mut rows,
        );
    }
    rows
}

/// Design-choice ablations: grid vs simple query, k-mer order, k sweep.
fn ablation(config: &Config) -> Vec<Row> {
    use ius_index::{IndexVariant, MinimizerIndex, UncertainIndex};
    use ius_sampling::KmerOrder;
    let mut rows = Vec::new();
    let dataset = efm_star(config.scale);
    let x = &dataset.weighted;
    let z = dataset.default_z;
    let ell = config.default_ell;
    let e = ExperimentId::Ablation;
    eprintln!("[ablation] {} z={z} ell={ell}", dataset.name);
    let est = ZEstimation::build(x, z).expect("estimation");
    let patterns = sample_patterns(&est, ell, config.max_patterns, 0xAB1A);

    // (1) Simple verification query vs grid query, on tree and array forms.
    for (label, variant) in [
        ("MWST", IndexVariant::Tree),
        ("MWST-G", IndexVariant::TreeGrid),
        ("MWSA", IndexVariant::Array),
        ("MWSA-G", IndexVariant::ArrayGrid),
    ] {
        let params = IndexParams::new(z, ell, x.sigma()).expect("params");
        let index = MinimizerIndex::build_from_estimation(x, &est, params, variant).expect("index");
        let q = measure_queries(&index, &patterns, x);
        rows.push(row(
            e,
            dataset.name,
            label,
            "query",
            0.0,
            "avg_query_us",
            q.avg_micros,
        ));
        rows.push(row(
            e,
            dataset.name,
            label,
            "query",
            0.0,
            "index_size_mb",
            index.size_bytes() as f64 / 1e6,
        ));
    }

    // (2) k-mer order: Karp–Rabin fingerprints vs lexicographic.
    for (label, order) in [
        ("KR-order", KmerOrder::default()),
        ("lex-order", KmerOrder::Lexicographic),
    ] {
        let params = IndexParams::new(z, ell, x.sigma())
            .expect("params")
            .with_order(order);
        let index = MinimizerIndex::build_from_estimation(x, &est, params, IndexVariant::Array)
            .expect("index");
        rows.push(row(
            e,
            dataset.name,
            label,
            "order",
            0.0,
            "sampled_factors",
            index.num_sampled_factors() as f64,
        ));
        rows.push(row(
            e,
            dataset.name,
            label,
            "order",
            0.0,
            "index_size_mb",
            index.size_bytes() as f64 / 1e6,
        ));
    }

    // (3) k sweep (Lemma 1: density is O(1/ℓ) once k ≳ log_σ ℓ).
    for k in [2usize, 4, 6, 8, 12] {
        if k > ell {
            continue;
        }
        let params = IndexParams::new(z, ell, x.sigma())
            .expect("params")
            .with_k(k)
            .expect("valid k");
        let index = MinimizerIndex::build_from_estimation(x, &est, params, IndexVariant::Array)
            .expect("index");
        rows.push(row(
            e,
            dataset.name,
            "k-sweep",
            "k",
            k as f64,
            "sampled_factors",
            index.num_sampled_factors() as f64,
        ));
    }
    rows
}
