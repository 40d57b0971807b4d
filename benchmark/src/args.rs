//! Command-line arguments shared by both binaries.

use std::time::Duration;

/// `--workload <name|all> --seed <u64> --seconds <n> --trace <0|1>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// A workload name from [`crate::workloads::NAMES`], or `all`.
    pub workload: String,
    /// Seed every op input is derived from.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: Duration,
    /// Whether the traced per-layer run was asked for.
    pub trace: bool,
}

const USAGE: &str = "usage: --workload <sweep-steady|parked-dense|fuzz-campaign|tables-full|all> \
[--seed <u64>] [--seconds <n>] [--trace <0|1>]";

impl Args {
    /// Parse `argv` without the program name. `--seed` defaults to 1,
    /// `--seconds` to 30 and `--trace` to 0.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: Duration::from_secs(30),
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            match flag.as_str() {
                "--workload" => {
                    if value != "all" && !crate::workloads::NAMES.contains(&value.as_str()) {
                        return Err(format!("unknown workload {value:?}\n{USAGE}"));
                    }
                    args.workload = value.clone();
                }
                "--seed" => {
                    args.seed = value
                        .parse()
                        .map_err(|_| format!("--seed expects a u64, got {value:?}"))?;
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                        .ok_or_else(|| format!("--seconds expects 0..=3600, got {value:?}"))?;
                    args.seconds = Duration::from_secs_f64(s);
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                    };
                }
                _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
            }
        }
        if args.workload.is_empty() {
            return Err(format!("--workload is required\n{USAGE}"));
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = Args::parse(&argv(
            "--workload parked-dense --seed 18446744073709551615 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "parked-dense");
        assert_eq!(a.seed, u64::MAX);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload nope",
            "--workload all --seed -1",
            "--workload all --seconds nan",
            "--workload all --trace 2",
            "--workload all --bogus 1",
            "--workload",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad:?} was accepted");
        }
    }
}
