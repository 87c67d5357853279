//! `bench_e2e`: the end-to-end benchmark of the host segmentation
//! pipeline, with a per-layer traced ledger.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload <paper-sweep|scenes-2048|noise-tiled|speckle-batch> \
//!     --seed <u64> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One workload per process, at most `min(2, available_parallelism)`
//! threads. `--trace 0` prints the end-to-end metrics, measured with
//! telemetry off; `--trace 1` prints the per-layer metrics of a separate
//! traced run. Both print `name value unit` lines and end with one JSON
//! line. Wrong or panicked calls are counted in `failed`, not turned into
//! an exit code; the exit status is non-zero only when the benchmark
//! itself cannot run. See README.md for the workloads and metrics.

mod alloc;
mod entry;
mod host;
mod measure;
mod report;
mod stats;
#[cfg(test)]
mod tests;
mod trace;

use entry::{Inputs, Scale, Workload};
use measure::Settings;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: bench_e2e --workload <paper-sweep|scenes-2048|noise-tiled|speckle-batch> \
                     --seed <u64> [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 20.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("bench_e2e: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let inputs = Inputs::generate(args.workload, args.seed, Scale::Full);
    let settings = Settings::new(args.seconds);
    match measure::run(&inputs, args.trace, &settings) {
        Ok(outcome) => {
            let table = if args.trace {
                &report::PER_LAYER[..]
            } else {
                &report::END_TO_END[..]
            };
            print!("{}", outcome.report.render(table));
        }
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            std::process::exit(1);
        }
    }
}
