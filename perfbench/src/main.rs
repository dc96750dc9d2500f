//! `mate-perfbench --workload <od-cold|wt-ingest> --seed <n>
//! --seconds <n> --trace <0|1>`
//!
//! Runs one workload at `small` scale from the repository root and prints,
//! as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Lakes are built
//! under `.perfbench_work/` in the working directory and removed on exit.

use mate_perfbench::report::{END_TO_END, PER_LAYER};
use mate_perfbench::run::{run_end_to_end, run_traced, Plan, SCALE};
use mate_perfbench::sys;
use mate_perfbench::workload::{WorkDir, Workload};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: mate-perfbench --workload <od-cold|wt-ingest> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 12, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan {
        workload: args.workload,
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
    };
    let work = match WorkDir::new(Path::new(".perfbench_work")) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (result, catalogue) = if args.trace {
        (run_traced(&plan, &work), PER_LAYER)
    } else {
        (run_end_to_end(&plan, &work), END_TO_END)
    };
    drop(work);
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = result.outcome.failed == 0;
    println!(
        "# workload {} seed {} scale {SCALE:?} nproc {} trace {} seconds {}",
        plan.workload.name(),
        plan.seed,
        sys::nproc(),
        u8::from(args.trace),
        args.seconds
    );
    for note in &result.notes {
        println!("# {note}");
    }
    for (name, unit) in catalogue {
        if let Some(v) = result.metrics.get(name) {
            println!("# {name:<34} {v:>14.4} {unit}");
        }
    }
    match result.metrics.result_line(
        catalogue,
        correct,
        result.outcome.attempted,
        result.outcome.failed,
    ) {
        Ok(line) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
