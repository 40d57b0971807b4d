//! The `dagsched` command-line entry point.
//!
//! Parsing and execution are unit-tested in the libraries
//! (`dagsched_experiments::sweep`, `dagsched_fuzz::cli`); this binary only
//! dispatches and sets the exit code.

use std::process::ExitCode;

const USAGE: &str = "\
usage: dagsched <command> [options]

commands:
  sweep  run a scheduler sweep grid sharded over worker threads
           (see `dagsched sweep help`)
  fuzz   coverage-guided adversarial workload fuzzing against the
           invariant and differential oracles (see `dagsched fuzz help`)
  help   print this message
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => {
            let report = dagsched_experiments::sweep::parse(&args[1..])
                .and_then(|cmd| dagsched_experiments::sweep::execute(&cmd));
            match report {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("dagsched sweep: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("fuzz") => {
            let report = dagsched_fuzz::cli::parse(&args[1..])
                .and_then(|cmd| dagsched_fuzz::cli::execute(&cmd));
            match report {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("dagsched fuzz: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        None | Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("dagsched: unknown command {other:?}; try `help`");
            ExitCode::FAILURE
        }
    }
}
