//! Minimal QDIMACS front-end for the CEGAR 2QBF solver.
//!
//! Usage: `qbf2_solve <file.qdimacs|-> [--max-iters n]`
//!
//! Prints `s cnf 1` (true) or `s cnf 0` (false), the QDIMACS-standard
//! result lines.

use std::io::Read;

use step_qbf::{solve_qdimacs, Qbf2Config, QbfOutcome};

const USAGE: &str = "usage: qbf2_solve <file.qdimacs|-> [--max-iters n]";

/// Bad invocation: why and the usage on stderr, exit 2.
fn usage_error(why: &str) -> ! {
    eprintln!("{why}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut max_iters = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-iters" => {
                i += 1;
                let Some(value) = args.get(i) else {
                    usage_error("--max-iters: missing value")
                };
                match value.parse() {
                    Ok(n) => max_iters = Some(n),
                    Err(e) => usage_error(&format!("--max-iters: bad value `{value}` ({e})")),
                }
            }
            p if path.is_none() => path = Some(p.to_owned()),
            other => usage_error(&format!("{other}: unexpected argument")),
        }
        i += 1;
    }
    let Some(path) = path else {
        usage_error("<file>: missing argument")
    };
    let text = if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).expect("read stdin");
        s
    } else {
        std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let config = Qbf2Config {
        max_iterations: max_iters,
        ..Qbf2Config::default()
    };
    match solve_qdimacs(&text, config) {
        Ok(QbfOutcome::True) => {
            println!("s cnf 1");
            std::process::exit(10);
        }
        Ok(QbfOutcome::False) => {
            println!("s cnf 0");
            std::process::exit(20);
        }
        Ok(QbfOutcome::Unknown) => {
            println!("s cnf -1");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
