//! `benchmark`: paper sessions per second, end to end and layer by layer.
//!
//! ```text
//! benchmark --workload <paper-matrix|chaos-mpc|fleet-scale>
//!           [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--json <path>]
//! ```
//!
//! Each run makes an untimed warm-up pass, then timed passes with seeds
//! `seed`, `seed + 1`, … until `--seconds` have passed (and at least
//! three are done). Every pass generates fresh inputs from its seed,
//! runs a fixed batch of sessions through the program's public entry
//! points, and checks the outputs outside the timed region. With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it runs every pass a second time through span-recording mirrors and
//! reports the per-layer metrics instead. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is non-zero when a check failed.

// lint:allow-file(determinism, "benchmark entry point: reads argv and reports the host's core count")

mod checks;
mod layers;
mod probe;
mod run;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use ee360_support::alloc::CountingAlloc;
use ee360_support::json::{to_string, to_string_pretty};
use ee360_support::parallel::hardware_threads;

use crate::checks::DEFAULT_SEED;
use crate::workload::{Size, Workload};

/// Counts live heap bytes for `peak_heap_mb`.
#[global_allocator]
pub static ALLOC: CountingAlloc = CountingAlloc::new();

/// Worker threads: the host's cores, at most two.
const MAX_THREADS: usize = 2;

const USAGE: &str = "usage: benchmark --workload <paper-matrix|chaos-mpc|fleet-scale> \
                     [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--json <path>]";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    json: Option<PathBuf>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut json = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--json" => json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        json,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = hardware_threads().min(MAX_THREADS);
    let size = Size::full(args.seconds as f64);
    let report = run::run(args.workload, args.seed, &size, threads, args.trace);

    let passes = report.passes.len();
    println!(
        "workload {} seed {} threads {threads} (available_parallelism {}) passes {passes}",
        args.workload.name(),
        args.seed,
        hardware_threads(),
    );
    for (i, p) in report.passes.iter().enumerate() {
        println!(
            "pass {i}: setup {:.4} s, sessions {:.4} s ({:.4} reference s, probe {:.4} s), \
             {} sessions, {} segments, {:.1} segments/s",
            p.setup_s,
            p.run_s,
            run::reference_s(p, p.run_s),
            p.probe_s,
            p.sessions,
            p.segments,
            p.segments as f64 / p.run_s
        );
    }
    if !args.trace {
        let [q1, median, q3] = run::quartiles(
            report
                .passes
                .iter()
                .map(|p| p.segments as f64 / p.run_s)
                .collect(),
        );
        println!("segments per host second: median {median:.1} q1 {q1:.1} q3 {q3:.1}");
    }
    for m in &report.metrics {
        match m.quartiles {
            Some([q1, _, q3]) => println!(
                "{:<40} {:>14.6} {:<6} q1 {q1:.6} q3 {q3:.6} n {passes}",
                m.name, m.value, m.unit
            ),
            None => println!("{:<40} {:>14.6} {}", m.name, m.value, m.unit),
        }
    }
    let sim = report.sim;
    println!(
        "sim (first passes): qoe {:?} energy_mj_per_segment {:?} stall_s_per_session {:?}",
        sim.qoe_mean, sim.energy_mj_per_segment, sim.stall_s_per_session
    );
    println!("failed {} of {} sessions", report.failed, report.attempted);
    for problem in &report.problems {
        println!("check failed: {problem}");
    }
    if let Some(path) = &args.json {
        let written = to_string_pretty(&report.to_json(true))
            .map_err(|e| format!("{e:?}"))
            .and_then(|text| std::fs::write(path, text + "\n").map_err(|e| e.to_string()));
        if let Err(e) = written {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    match to_string(&report.to_json(false)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("benchmark: cannot serialise the result: {e:?}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse("--workload chaos-mpc --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::ChaosMpc,
                seed: 7,
                seconds: 3,
                trace: true,
                json: None,
            }
        );
        let args = parse("--workload fleet-scale").unwrap();
        assert_eq!(args.seed, DEFAULT_SEED);
        assert!(!args.trace);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload paper-matrix --trace 2").is_err());
        assert!(parse("--workload paper-matrix --seed").is_err());
        assert!(parse("--workload paper-matrix --bogus 1").is_err());
    }
}
