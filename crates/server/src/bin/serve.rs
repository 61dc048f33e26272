//! `serve` — run the query server over a persisted or freshly built index.
//!
//! ```text
//! # serve a persisted index; the corpus it was built over is regenerated
//! # from the named preset:
//! serve --index mwsa.iusx --corpus pangenome --n 100000
//!
//! # build in-process, optionally persisting for later serves/reloads:
//! serve --build mwsa-g --corpus uniform --n 100000 --save mwsa-g.iusx
//!
//! # serve a *mutable* live corpus (enables APPEND / DELETE_RANGE / FLUSH /
//! # COMPACT): seed from a preset, or reopen a persisted manifest dir —
//! # which is saved back on graceful shutdown:
//! serve --live --build mwsa-g --corpus uniform --n 100000
//! serve --live --build mwsa-g --corpus uniform --n 100000 --live-dir state/
//! serve --live --live-dir state/
//!
//! # serve a segmented corpus: a live index seeded in 12500-row segments
//! # (n = 50000 gives 4 segments plus the overlap rows in the memtable):
//! serve --live --build mwsa-g --corpus rssi --n 50000 --flush-threshold 12500
//! ```
//!
//! Corpus presets mirror the benchmark corpora (`BENCH_*.json`); `--z` and
//! `--ell` default to each preset's benchmark parameters. The server runs
//! until a client sends `SHUTDOWN` (or the process is killed).

use ius_datasets::corpora::bench_corpus;
use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant};
use ius_live::{FsyncPolicy, LiveConfig, LiveIndex};
use ius_server::{ServedIndex, Server, ServerConfig};
use ius_weighted::WeightedString;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    index: Option<PathBuf>,
    build: Option<IndexFamily>,
    corpus: Option<String>,
    n: usize,
    seed: Option<u64>,
    z: Option<f64>,
    ell: Option<usize>,
    max_pattern_len: Option<usize>,
    save: Option<PathBuf>,
    live: bool,
    live_dir: Option<PathBuf>,
    flush_threshold: Option<usize>,
    fsync: Option<FsyncPolicy>,
    host: String,
    port: u16,
    workers: Option<usize>,
    queue_depth: Option<usize>,
    metrics_interval: Option<u64>,
    slow_query_ms: Option<u64>,
}

fn print_help() {
    println!(
        "serve — run the uncertain-string query server\n\n\
         index source (exactly one):\n\
         \x20 --index <path>        load a persisted index file (needs --corpus: the\n\
         \x20                       corpus it was built over)\n\
         \x20 --build <family>      build in-process: naive|wst|wsa|mwst|mwsa|mwst-g|mwsa-g|\n\
         \x20                       se-mwst|se-mwsa (needs --corpus)\n\n\
         corpus (synthetic presets, regenerated deterministically):\n\
         \x20 --corpus <name>       uniform|uniform_high_entropy|pangenome|rssi\n\
         \x20 --n <len>             corpus length (default 100000)\n\
         \x20 --seed <seed>         override the preset's generator seed\n\
         \x20 --z <z>               weight threshold (default: preset's benchmark z)\n\
         \x20 --ell <ell>           minimum pattern length (default: preset's benchmark ell)\n\n\
         build options:\n\
         \x20 --save <path>         persist the built index before serving\n\n\
         live mode (mutable corpus — APPEND/DELETE_RANGE/FLUSH/COMPACT):\n\
         \x20 --live                serve a live index (seed with --build/--corpus,\n\
         \x20                       or reopen --live-dir)\n\
         \x20 --live-dir <dir>      open the IUSL manifest dir if it exists; the live\n\
         \x20                       state is saved back there on graceful shutdown\n\
         \x20 --max-pattern-len <m> longest pattern served; segments overlap by m-1 rows\n\
         \x20                       (default 2*ell)\n\
         \x20 --flush-threshold <r> memtable rows per segment flush (default 8192); a\n\
         \x20                       seeded corpus of n rows serves from\n\
         \x20                       ceil((n-m+1)/r) segments\n\
         \x20 --fsync <policy>      arm the write-ahead log (needs --live-dir): every\n\
         \x20                       mutation is logged before it is acked, and a crash\n\
         \x20                       replays the log on reopen. Policies: record (fsync\n\
         \x20                       each record), interval:<ms> (fsync at most every\n\
         \x20                       <ms> milliseconds), never (leave flushing to the OS)\n\n\
         server options:\n\
         \x20 --host <host>         bind host (default 127.0.0.1)\n\
         \x20 --port <port>         bind port (default 7878; 0 = ephemeral)\n\
         \x20 --workers <w>         worker threads (default: all CPUs)\n\
         \x20 --queue-depth <d>     admission-queue capacity (default 64)\n\n\
         observability:\n\
         \x20 --metrics-interval <s> dump the merged metrics snapshot (per-stage query\n\
         \x20                       histograms, queue-wait/service split, live/WAL\n\
         \x20                       timings, slow-query log) to stderr every <s> seconds\n\
         \x20 --slow-query-ms <ms>  slow-query log threshold (default 50; 0 logs every\n\
         \x20                       query)\n"
    );
}

fn parse_family(name: &str) -> Result<IndexFamily, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "naive" => IndexFamily::Naive,
        "wst" => IndexFamily::Wst,
        "wsa" => IndexFamily::Wsa,
        "mwst" => IndexFamily::Minimizer(IndexVariant::Tree),
        "mwsa" => IndexFamily::Minimizer(IndexVariant::Array),
        "mwst-g" => IndexFamily::Minimizer(IndexVariant::TreeGrid),
        "mwsa-g" => IndexFamily::Minimizer(IndexVariant::ArrayGrid),
        "se-mwst" => IndexFamily::SpaceEfficient(IndexVariant::Tree),
        "se-mwsa" => IndexFamily::SpaceEfficient(IndexVariant::Array),
        other => return Err(format!("unknown index family {other:?}")),
    })
}

/// `(corpus, default z, default ell)` of one named preset — the canonical
/// benchmark configurations, shared with the harness through
/// `ius_datasets::corpora` so the served corpus can never drift from the
/// one a persisted index was built over.
fn corpus_preset(
    name: &str,
    n: usize,
    seed: Option<u64>,
) -> Result<(WeightedString, f64, usize), String> {
    bench_corpus(name, n, seed)
        .map(|corpus| (corpus.x, corpus.z, corpus.ell))
        .ok_or_else(|| {
            format!(
                "unknown corpus preset {name:?} (use uniform|uniform_high_entropy|pangenome|rssi)"
            )
        })
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        index: None,
        build: None,
        corpus: None,
        n: 100_000,
        seed: None,
        z: None,
        ell: None,
        max_pattern_len: None,
        save: None,
        live: false,
        live_dir: None,
        flush_threshold: None,
        fsync: None,
        host: "127.0.0.1".into(),
        port: 7878,
        workers: None,
        queue_depth: None,
        metrics_interval: None,
        slow_query_ms: None,
    };
    let mut i = 0usize;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--index" => parsed.index = Some(PathBuf::from(value(args, i, "--index")?)),
            "--build" => parsed.build = Some(parse_family(&value(args, i, "--build")?)?),
            "--corpus" => parsed.corpus = Some(value(args, i, "--corpus")?),
            "--n" => {
                parsed.n = value(args, i, "--n")?
                    .parse()
                    .map_err(|e| format!("bad --n: {e}"))?
            }
            "--seed" => {
                parsed.seed = Some(
                    value(args, i, "--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            "--z" => {
                parsed.z = Some(
                    value(args, i, "--z")?
                        .parse()
                        .map_err(|e| format!("bad --z: {e}"))?,
                )
            }
            "--ell" => {
                parsed.ell = Some(
                    value(args, i, "--ell")?
                        .parse()
                        .map_err(|e| format!("bad --ell: {e}"))?,
                )
            }
            "--max-pattern-len" => {
                parsed.max_pattern_len = Some(
                    value(args, i, "--max-pattern-len")?
                        .parse()
                        .map_err(|e| format!("bad --max-pattern-len: {e}"))?,
                )
            }
            "--save" => parsed.save = Some(PathBuf::from(value(args, i, "--save")?)),
            "--live" => {
                parsed.live = true;
                i += 1;
                continue;
            }
            "--live-dir" => parsed.live_dir = Some(PathBuf::from(value(args, i, "--live-dir")?)),
            "--flush-threshold" => {
                parsed.flush_threshold = Some(
                    value(args, i, "--flush-threshold")?
                        .parse()
                        .map_err(|e| format!("bad --flush-threshold: {e}"))?,
                )
            }
            "--fsync" => {
                parsed.fsync = Some(
                    FsyncPolicy::parse(&value(args, i, "--fsync")?)
                        .map_err(|e| format!("bad --fsync: {e}"))?,
                )
            }
            "--host" => parsed.host = value(args, i, "--host")?,
            "--port" => {
                parsed.port = value(args, i, "--port")?
                    .parse()
                    .map_err(|e| format!("bad --port: {e}"))?
            }
            "--workers" => {
                parsed.workers = Some(
                    value(args, i, "--workers")?
                        .parse()
                        .map_err(|e| format!("bad --workers: {e}"))?,
                )
            }
            "--queue-depth" => {
                parsed.queue_depth = Some(
                    value(args, i, "--queue-depth")?
                        .parse()
                        .map_err(|e| format!("bad --queue-depth: {e}"))?,
                )
            }
            "--metrics-interval" => {
                let seconds: u64 = value(args, i, "--metrics-interval")?
                    .parse()
                    .map_err(|e| format!("bad --metrics-interval: {e}"))?;
                if seconds == 0 {
                    return Err("--metrics-interval must be positive".into());
                }
                parsed.metrics_interval = Some(seconds);
            }
            "--slow-query-ms" => {
                parsed.slow_query_ms = Some(
                    value(args, i, "--slow-query-ms")?
                        .parse()
                        .map_err(|e| format!("bad --slow-query-ms: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    if parsed.live {
        if parsed.index.is_some() {
            return Err(
                "--live serves a mutable index; --index is for static files (use --live-dir \
                 to reopen saved live state)"
                    .into(),
            );
        }
        if parsed.save.is_some() {
            return Err(
                "--live state is a manifest directory, not a single index file; use \
                 --live-dir instead of --save"
                    .into(),
            );
        }
        let can_open = parsed
            .live_dir
            .as_ref()
            .is_some_and(|dir| dir.join("live.iusl").exists());
        if !can_open && parsed.build.is_none() {
            return Err(
                "--live needs --build/--corpus to seed a fresh corpus, or --live-dir \
                 pointing at an existing manifest"
                    .into(),
            );
        }
        if can_open && (parsed.build.is_some() || parsed.corpus.is_some()) {
            return Err(
                "--live-dir points at an existing manifest, which would be reopened and \
                 the --build/--corpus seed silently discarded; drop --build/--corpus to \
                 reopen, or remove the manifest directory to reseed"
                    .into(),
            );
        }
        if parsed.build.is_some() && parsed.corpus.is_none() {
            return Err("--build needs --corpus".into());
        }
        if parsed.fsync.is_some() && parsed.live_dir.is_none() {
            return Err(
                "--fsync arms the write-ahead log, which lives next to the manifest; \
                 it needs --live-dir"
                    .into(),
            );
        }
    } else {
        if parsed.live_dir.is_some()
            || parsed.flush_threshold.is_some()
            || parsed.fsync.is_some()
            || parsed.max_pattern_len.is_some()
        {
            return Err(
                "--live-dir, --flush-threshold, --fsync, and --max-pattern-len need --live".into(),
            );
        }
        if parsed.index.is_some() == parsed.build.is_some() {
            return Err("exactly one of --index and --build is required".into());
        }
        if parsed.build.is_some() && parsed.corpus.is_none() {
            return Err("--build needs --corpus".into());
        }
    }
    Ok(parsed)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            print_help();
            std::process::exit(2);
        }
    };

    // Regenerate the corpus when one is named (needed for --build and for
    // single-machine --index files).
    let corpus = args.corpus.as_deref().map(|name| {
        let (x, z, ell) = corpus_preset(name, args.n, args.seed).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2);
        });
        eprintln!(
            "corpus {name}: n = {}, sigma = {} (z = {}, ell = {})",
            x.len(),
            x.sigma(),
            args.z.unwrap_or(z),
            args.ell.unwrap_or(ell)
        );
        (Arc::new(x), args.z.unwrap_or(z), args.ell.unwrap_or(ell))
    });

    // Live mode: the server keeps a handle so graceful shutdown can save
    // the mutated state back into --live-dir.
    let mut live_handle: Option<Arc<LiveIndex>> = None;
    let (served, reload_path) = if args.live {
        let live_config = LiveConfig {
            flush_threshold: args.flush_threshold.unwrap_or(8_192),
            ..Default::default()
        };
        let manifest_exists = args
            .live_dir
            .as_ref()
            .is_some_and(|dir| dir.join("live.iusl").exists());
        let live = if manifest_exists {
            let dir = args.live_dir.as_ref().expect("checked by parse_args");
            let live = LiveIndex::open(dir, live_config).unwrap_or_else(|e| {
                eprintln!("error: cannot open live dir {}: {e}", dir.display());
                std::process::exit(1);
            });
            eprintln!("reopened live state from {}", dir.display());
            live
        } else {
            let family = args.build.expect("checked by parse_args");
            let (x, z, ell) = corpus.clone().expect("checked by parse_args");
            let params = IndexParams::new(z, ell, x.sigma()).unwrap_or_else(|e| {
                eprintln!("error: invalid parameters: {e}");
                std::process::exit(2);
            });
            let spec = IndexSpec::new(family, params);
            let bound = args.max_pattern_len.unwrap_or(2 * ell);
            LiveIndex::from_corpus(&x, spec, bound, live_config).unwrap_or_else(|e| {
                eprintln!("error: live seed build failed: {e}");
                std::process::exit(1);
            })
        };
        if let Some(policy) = args.fsync {
            let dir = args.live_dir.as_ref().expect("checked by parse_args");
            live.enable_durability(dir, policy).unwrap_or_else(|e| {
                eprintln!("error: cannot arm the WAL in {}: {e}", dir.display());
                std::process::exit(1);
            });
            eprintln!("write-ahead log armed (fsync {policy})");
        }
        let stats = live.live_stats();
        eprintln!(
            "live corpus: n = {}, {} segment(s), {} memtable row(s)",
            stats.corpus_len, stats.segments, stats.memtable_rows
        );
        if stats.recovered_records > 0 {
            eprintln!(
                "recovered {} mutation(s) from the write-ahead log",
                stats.recovered_records
            );
        }
        let live = Arc::new(live);
        live_handle = Some(live.clone());
        (ServedIndex::live(live), None)
    } else if let Some(path) = &args.index {
        let served = ServedIndex::load(path, corpus.as_ref().map(|(x, _, _)| x.clone()))
            .unwrap_or_else(|e| {
                eprintln!("error: cannot serve {}: {e}", path.display());
                std::process::exit(1);
            });
        (served, Some(path.clone()))
    } else {
        let family = args.build.expect("checked by parse_args");
        let (x, z, ell) = corpus.clone().expect("checked by parse_args");
        let params = IndexParams::new(z, ell, x.sigma()).unwrap_or_else(|e| {
            eprintln!("error: invalid parameters: {e}");
            std::process::exit(2);
        });
        let index = IndexSpec::new(family, params)
            .build(&x)
            .unwrap_or_else(|e| {
                eprintln!("error: build failed: {e}");
                std::process::exit(1);
            });
        if let Some(path) = &args.save {
            let mut file = std::fs::File::create(path).expect("create --save file");
            index.save_to(&mut file).expect("persist index");
            eprintln!("saved index to {}", path.display());
        }
        (ServedIndex::single(index, x), args.save.clone())
    };

    let mut config = ServerConfig::default();
    if let Some(workers) = args.workers {
        config.workers = workers;
    }
    if let Some(depth) = args.queue_depth {
        config.queue_depth = depth;
    }
    if let Some(ms) = args.slow_query_ms {
        config.slow_query_threshold = Duration::from_millis(ms);
    }
    eprintln!(
        "serving {} (corpus n = {}, index {} MB)",
        served.name(),
        served.corpus_len(),
        served.size_bytes() / (1 << 20)
    );
    let server = Server::bind(
        (args.host.as_str(), args.port),
        served,
        reload_path,
        &config,
    )
    .unwrap_or_else(|e| {
        eprintln!("error: bind failed: {e}");
        std::process::exit(1);
    });
    println!(
        "listening on {} ({} workers, queue depth {})",
        server.local_addr(),
        config.workers,
        config.queue_depth
    );
    // Periodic metrics dump: a detached reporter thread scrapes the merged
    // snapshot (never touching the hot path) and prints the text rendering
    // to stderr. It exits promptly once the server shuts down.
    let reporter = args.metrics_interval.map(|seconds| {
        let handle = server.metrics_handle();
        std::thread::spawn(move || {
            let tick = Duration::from_millis(200);
            let mut elapsed = Duration::ZERO;
            while !handle.is_shutdown() {
                std::thread::sleep(tick);
                elapsed += tick;
                if elapsed >= Duration::from_secs(seconds) {
                    elapsed = Duration::ZERO;
                    eprintln!("{}", handle.snapshot().dump());
                }
            }
        })
    });
    server.join();
    if let Some(reporter) = reporter {
        let _ = reporter.join();
    }
    if let (Some(live), Some(dir)) = (&live_handle, &args.live_dir) {
        match live.save_to_dir(dir) {
            Ok(()) => eprintln!("saved live state to {}", dir.display()),
            Err(e) => eprintln!("error: saving live state to {} failed: {e}", dir.display()),
        }
    }
    eprintln!("server shut down");
}
