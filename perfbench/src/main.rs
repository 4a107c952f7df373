//! The repository benchmark: one command, three closed-loop workloads.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload daemon-steady|solve-scale|epoch-sim --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run does a fixed amount of work that depends only on
//! `(workload, seed, seconds)`: the same arguments replay the same op
//! sequence, so two runs differ in their timings and nothing else. Each
//! run checks its outputs before it reports; a run that fails a check
//! prints `"correct": false` with no numbers and exits non-zero.
//!
//! With `--trace 0` the run reports the end-to-end metrics, measured with
//! no tracing. With `--trace 1` it reports the per-layer metrics: the
//! benchmark times its own calls into each layer's public functions,
//! keeps the spans in memory and writes them to `.perfbench/` at the end.
//! `perfbench/README.md` lists every metric and what it means on each
//! workload.

mod daemon_steady;
mod epoch_sim;
mod report;
mod solve_scale;
mod speed;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: mvcom-perfbench --workload daemon-steady|solve-scale|epoch-sim \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Scratch space under the working directory: one
/// directory per process, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".perfbench").join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let work = WorkDir::create().map_err(|e| format!("create .perfbench: {e}"))?;
    let mut report = match args.workload.as_str() {
        "daemon-steady" => daemon_steady::run(args.seed, args.seconds, args.trace, &work.0),
        "solve-scale" => solve_scale::run(args.seed, args.seconds, args.trace),
        "epoch-sim" => epoch_sim::run(args.seed, args.seconds, args.trace),
        other => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    }?;
    if args.trace {
        let path = PathBuf::from(".perfbench")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        report
            .write_spans(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        report.note(format!("spans written to {}", path.display()));
    } else {
        report.metric("peak_rss_mb", stats::peak_rss_mb()?);
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
