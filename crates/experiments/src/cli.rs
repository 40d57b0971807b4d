//! The `instances` command-line tool: generate, inspect and replay workload
//! instances through the text codec, so experiments are reproducible from
//! files rather than only from seeds.
//!
//! ```text
//! instances gen  [--kind standard|cluster] [--m N] [--n N] [--seed S]
//! instances info                      # reads an instance from stdin
//! instances run  [--sched NAME] [--eps E] [--speed NUM/DEN] [--wc]
//! ```
//!
//! Parsing and execution live here (unit-tested); the binary is a thin
//! wrapper.

use crate::common::SchedKind;
use dagsched_core::{AlgoParams, SchedError, Speed};
use dagsched_engine::{simulate, SimConfig};
use dagsched_opt::fractional_ub;
use dagsched_sched::SchedulerS;
use dagsched_workload::{codec, ClusterTraceGen, Instance, WorkloadGen};

/// A parsed `instances` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate an instance and print its text encoding.
    Gen {
        /// Which generator to use.
        kind: GenKind,
        /// Machine size.
        m: u32,
        /// Job count.
        n: usize,
        /// Master seed.
        seed: u64,
    },
    /// Print summary statistics of an instance read from stdin.
    Info,
    /// Replay an instance (from stdin) under a scheduler.
    Run {
        /// Which scheduler to run.
        sched: SchedKind,
        /// Engine speed.
        speed: Speed,
        /// Use the work-conserving extension of S.
        work_conserving: bool,
    },
    /// Print usage.
    Help,
}

/// Which generator `gen` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenKind {
    /// [`WorkloadGen::standard`].
    Standard,
    /// [`ClusterTraceGen::new`].
    Cluster,
}

/// The usage text.
pub const USAGE: &str = "\
usage: instances <command> [options]

commands:
  gen    generate an instance, print the text format to stdout
           --kind standard|cluster   (default standard)
           --m N    processors       (default 8)
           --n N    jobs             (default 50)
           --seed S                  (default 42)
  info   read an instance from stdin, print summary statistics
  run    read an instance from stdin, simulate a scheduler
           --sched S|S-profit|EDF|HDF|FIFO|LLF|RANDOM  (default S)
           --eps E                   (default 1.0, for S variants)
           --speed NUM/DEN           (default 1/1)
           --wc                      (work-conserving S)
  help   print this message
";

fn take_val<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_speed(text: &str) -> Result<Speed, SchedError> {
    let (n, d) = match text.split_once('/') {
        Some((n, d)) => (n, d),
        None => (text, "1"),
    };
    let num: u32 = n
        .parse()
        .map_err(|_| SchedError::Unsupported(format!("bad speed numerator {n:?}")))?;
    let den: u32 = d
        .parse()
        .map_err(|_| SchedError::Unsupported(format!("bad speed denominator {d:?}")))?;
    Speed::new(num, den)
}

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, SchedError> {
    let bad = |m: String| Err(SchedError::Unsupported(m));
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("gen") => {
            let kind = match take_val(args, "--kind").unwrap_or("standard") {
                "standard" => GenKind::Standard,
                "cluster" => GenKind::Cluster,
                other => return bad(format!("unknown --kind {other:?}")),
            };
            let m = take_val(args, "--m")
                .unwrap_or("8")
                .parse()
                .map_err(|_| SchedError::Unsupported("--m expects a positive integer".into()))?;
            let n = take_val(args, "--n")
                .unwrap_or("50")
                .parse()
                .map_err(|_| SchedError::Unsupported("--n expects a positive integer".into()))?;
            let seed = take_val(args, "--seed")
                .unwrap_or("42")
                .parse()
                .map_err(|_| SchedError::Unsupported("--seed expects an integer".into()))?;
            Ok(Command::Gen { kind, m, n, seed })
        }
        Some("info") => Ok(Command::Info),
        Some("run") => {
            let eps: f64 = take_val(args, "--eps")
                .unwrap_or("1.0")
                .parse()
                .map_err(|_| SchedError::Unsupported("--eps expects a float".into()))?;
            AlgoParams::from_epsilon(eps)?;
            let sched = match take_val(args, "--sched").unwrap_or("S") {
                "S" => SchedKind::S { epsilon: eps },
                "S-profit" => SchedKind::SProfit { epsilon: eps },
                "EDF" => SchedKind::Edf,
                "HDF" => SchedKind::Hdf,
                "FIFO" => SchedKind::Fifo,
                "LLF" => SchedKind::Llf,
                "RANDOM" => SchedKind::Random { seed: 7 },
                other => return bad(format!("unknown --sched {other:?}")),
            };
            let speed = parse_speed(take_val(args, "--speed").unwrap_or("1/1"))?;
            Ok(Command::Run {
                sched,
                speed,
                work_conserving: args.iter().any(|a| a == "--wc"),
            })
        }
        Some(other) => bad(format!("unknown command {other:?}; try `help`")),
    }
}

/// Execute a parsed command. `input` carries stdin for `info`/`run`;
/// the report is returned as a string so tests can assert on it.
pub fn execute(cmd: &Command, input: &str) -> Result<String, SchedError> {
    use std::fmt::Write as _;
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Gen { kind, m, n, seed } => {
            let inst = match kind {
                GenKind::Standard => WorkloadGen::standard(*m, *n, *seed).generate()?,
                GenKind::Cluster => ClusterTraceGen::new(*m, *n, *seed).generate()?,
            };
            Ok(codec::encode(&inst))
        }
        Command::Info => {
            let inst = codec::decode(input)?;
            let s = inst.stats();
            let mut out = String::new();
            let _ = writeln!(out, "m:                {}", inst.m());
            let _ = writeln!(out, "jobs:             {}", s.n_jobs);
            let _ = writeln!(out, "total work:       {}", s.total_work);
            let _ = writeln!(out, "total max profit: {}", s.total_profit);
            let _ = writeln!(
                out,
                "window:           [{}, {}]",
                s.first_arrival, s.horizon
            );
            let _ = writeln!(out, "offered load:     {:.3}", s.load_factor);
            let _ = writeln!(out, "mean parallelism: {:.2}", s.mean_parallelism);
            let _ = writeln!(
                out,
                "fractional OPT upper bound: {}",
                fractional_ub(&inst, Speed::ONE)
            );
            Ok(out)
        }
        Command::Run {
            sched,
            speed,
            work_conserving,
        } => {
            let inst: Instance = codec::decode(input)?;
            let cfg = SimConfig::at_speed(*speed);
            let r = if *work_conserving {
                let mut s = match sched {
                    SchedKind::S { epsilon } => {
                        SchedulerS::with_epsilon(inst.m(), *epsilon).work_conserving()
                    }
                    _ => {
                        return Err(SchedError::Unsupported(
                            "--wc only applies to --sched S".into(),
                        ))
                    }
                };
                simulate(&inst, &mut s, &cfg)?
            } else {
                let mut s = sched.build(inst.m());
                simulate(&inst, s.as_mut(), &cfg)?
            };
            let ub = fractional_ub(&inst, Speed::ONE);
            let mut out = String::new();
            let _ = writeln!(out, "scheduler:  {}", r.scheduler);
            let _ = writeln!(out, "speed:      {speed}");
            let _ = writeln!(out, "profit:     {}", r.total_profit);
            let _ = writeln!(
                out,
                "of UB@1:    {:.1}%",
                100.0 * r.total_profit as f64 / ub.max(1) as f64
            );
            let _ = writeln!(out, "completed:  {}", r.completed());
            let _ = writeln!(out, "expired:    {}", r.expired());
            let _ = writeln!(out, "unfinished: {}", r.unfinished());
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_variants() {
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(
            parse(&argv("gen --kind cluster --m 4 --n 10 --seed 3")).unwrap(),
            Command::Gen {
                kind: GenKind::Cluster,
                m: 4,
                n: 10,
                seed: 3
            }
        );
        assert_eq!(
            parse(&argv("gen")).unwrap(),
            Command::Gen {
                kind: GenKind::Standard,
                m: 8,
                n: 50,
                seed: 42
            }
        );
        assert_eq!(parse(&argv("info")).unwrap(), Command::Info);
        match parse(&argv("run --sched HDF --speed 3/2")).unwrap() {
            Command::Run {
                sched,
                speed,
                work_conserving,
            } => {
                assert_eq!(sched, SchedKind::Hdf);
                assert_eq!(speed, Speed::new(3, 2).unwrap());
                assert!(!work_conserving);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("gen --kind nope")).is_err());
        assert!(parse(&argv("run --speed x/y")).is_err());
    }

    #[test]
    fn run_rejects_an_invalid_epsilon() {
        for eps in ["0", "-1", "nan", "inf"] {
            for extra in ["", "--wc", "--sched S-profit"] {
                let args = argv(&format!("run --eps {eps} {extra}"));
                assert!(
                    matches!(parse(&args), Err(SchedError::InvalidParams(_))),
                    "{args:?}"
                );
            }
        }
    }

    #[test]
    fn gen_info_run_pipeline() {
        let gen = parse(&argv("gen --m 4 --n 12 --seed 9")).unwrap();
        let text = execute(&gen, "").unwrap();
        assert!(text.starts_with("dagsched-instance v1"));

        let info = execute(&Command::Info, &text).unwrap();
        assert!(info.contains("jobs:             12"));
        assert!(info.contains("fractional OPT upper bound"));

        let run = parse(&argv("run --sched S --eps 1.0")).unwrap();
        let report = execute(&run, &text).unwrap();
        assert!(report.contains("scheduler:  S(eps=1)"), "{report}");
        assert!(report.contains("profit:"));
    }

    #[test]
    fn run_wc_and_speed() {
        let text = execute(
            &Command::Gen {
                kind: GenKind::Standard,
                m: 4,
                n: 10,
                seed: 5,
            },
            "",
        )
        .unwrap();
        let cmd = parse(&argv("run --wc --speed 2")).unwrap();
        let report = execute(&cmd, &text).unwrap();
        assert!(report.contains("S-wc"), "{report}");
        assert!(report.contains("speed:      2x"));
        // --wc with a non-S scheduler is rejected.
        let cmd = parse(&argv("run --wc --sched EDF")).unwrap();
        assert!(execute(&cmd, &text).is_err());
    }

    #[test]
    fn cluster_gen_round_trips() {
        let text = execute(
            &Command::Gen {
                kind: GenKind::Cluster,
                m: 8,
                n: 20,
                seed: 1,
            },
            "",
        )
        .unwrap();
        let info = execute(&Command::Info, &text).unwrap();
        assert!(info.contains("jobs:             20"));
    }

    #[test]
    fn cluster_gen_on_zero_processors_is_an_error() {
        let cmd = parse(&argv("gen --kind cluster --m 0")).unwrap();
        let err = execute(&cmd, "").unwrap_err();
        assert_eq!(err.to_string(), "invalid instance: m must be positive");
    }

    #[test]
    fn gen_beyond_the_job_id_range_is_an_error() {
        for kind in ["standard", "cluster --m 1"] {
            let cmd = parse(&argv(&format!(
                "gen --kind {kind} --n 18446744073709551615"
            )))
            .unwrap();
            let err = execute(&cmd, "").unwrap_err();
            assert_eq!(
                err.to_string(),
                "invalid instance: 18446744073709551615 jobs exceed the job id range \
                 (at most 4294967295)",
                "--kind {kind}"
            );
        }
    }

    #[test]
    fn run_rejects_garbage_input() {
        let cmd = parse(&argv("run")).unwrap();
        assert!(execute(&cmd, "not an instance").is_err());
    }
}
