//! The repository benchmark for the SmartDS reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <write_dense|sealed_mix|rack_chaos> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats untraced runs of the workload for at least
//! `--seconds` of run time and reports the end-to-end metrics. `--trace 1`
//! makes one untraced and one fully traced run plus per-layer
//! microbenchmarks, reports the per-layer metrics, and writes a Chrome
//! trace to `.bench_out/<workload>.trace.json`. Either way the last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `benchmark/README.md`.

mod audit;
mod calib;
mod clock;
mod endtoend;
mod layers;
mod output;
mod sim;
mod spans;
mod stats;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::Spec::new(&args.workload, args.seed) else {
        eprintln!(
            "benchmark: unknown workload {} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    if args.trace {
        let path = Path::new(".bench_out").join(format!("{}.trace.json", spec.name));
        layers::run(&spec, &path);
    } else {
        endtoend::run(&spec, args.seconds);
    }
    ExitCode::SUCCESS
}
