//! `servebench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload and prints every metric with its unit and sample
//! count, then the one-line JSON result. Exit code 2 on a bad command
//! line or a failed set-up, 3 when the system gave a wrong answer; no
//! result is printed then.

use servebench::{run, BenchError, Config, Workload, DEFAULT_SEED};

fn parse(args: &[String]) -> Result<Config, BenchError> {
    let usage = |m: String| BenchError::Usage(m);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(format!("{flag} needs a value")))?;
        let bad = || usage(format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| usage(format!("unknown workload {value:?}")))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage(format!("--trace takes 0 or 1, not {value:?}"))),
                }
            }
            _ => return Err(usage(format!("unknown flag {flag:?}"))),
        }
    }
    let workload = workload.ok_or_else(|| usage("--workload is required".into()))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(usage(format!(
            "--seconds must be in (0, 120], not {seconds}"
        )));
    }
    Ok(Config::new(workload, seed, seconds, trace))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|config| {
        let report = run(&config)?;
        report.render(config.trace).map_err(BenchError::Setup)
    });
    match result {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
