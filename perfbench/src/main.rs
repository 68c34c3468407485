//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--family <n>] [--step-bin <path>] [--work-dir <path>]`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`:
//! every end-to-end metric with `--trace 0`, every per-layer metric
//! with `--trace 1`. Mismatches are printed by name on standard error.

use std::path::PathBuf;
use std::process::ExitCode;

use step_perfbench::{run, Opts};

fn parse_args() -> Result<(String, Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        family: 0,
        seconds: 20.0,
        trace: false,
        work_dir: PathBuf::from(".bench_work"),
        step_bin: None,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("seed"))?,
            "--family" => opts.family = value.parse().map_err(|_| bad("family"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--step-bin" => opts.step_bin = Some(PathBuf::from(value)),
            "--work-dir" => opts.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&workload, &opts) {
        Ok(out) => {
            let unmeasured: Vec<&str> = out
                .report
                .metrics
                .iter()
                .filter(|m| !m.value.is_finite())
                .map(|m| m.name.as_str())
                .collect();
            if !unmeasured.is_empty() {
                eprintln!("perfbench: no value for {}", unmeasured.join(", "));
            }
            let correct = out.mismatches.is_empty() && out.failed == 0 && unmeasured.is_empty();
            println!(
                "{}",
                out.report.json_line(correct, out.attempted, out.failed)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
