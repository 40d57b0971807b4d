//! `dagsched-perf`: the end-to-end run, tracing off.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <u64> [--seconds <n>]
//! ```

use dagsched_perf::args::Args;
use dagsched_perf::measure::{run_e2e, run_each_workload};
use dagsched_perf::workloads::{FuzzCampaign, ParkedDense, SweepSteady, TablesFull, Workload};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        eprintln!(
            "the traced run is the dagsched-perf-trace binary: bash benchmark/run.sh ... --trace 1"
        );
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "all" => return run_each_workload(&args),
        SweepSteady::NAME => run_e2e::<SweepSteady>(&args),
        ParkedDense::NAME => run_e2e::<ParkedDense>(&args),
        FuzzCampaign::NAME => run_e2e::<FuzzCampaign>(&args),
        TablesFull::NAME => run_e2e::<TablesFull>(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
