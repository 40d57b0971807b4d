//! `dagsched-perf-trace`: the traced run, reporting per-layer metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml \
//!     --features trace --bin dagsched-perf-trace -- \
//!     --workload <name|all> --seed <u64> [--seconds <n>] --trace 1
//! ```

use dagsched_perf::args::Args;
use dagsched_perf::measure::{
    catch, print_metric, report_check, result_line, run_each_workload, MIN_OPS,
};
use dagsched_perf::trace::{out_path, traced_loop, Traced, Tracer};
use dagsched_perf::workloads::{
    op_seed, FuzzCampaign, ParkedDense, SweepSteady, TablesFull, Workload, WARMUP_OP_SEED,
};
use std::process::ExitCode;

fn run_traced<W: Traced>(args: &Args) -> Result<(), String> {
    let w = W::setup(args.seed);
    let warm = catch(|| w.op(WARMUP_OP_SEED)).and_then(|o| w.summarize(&o));
    let warm_digest = warm.as_ref().ok().map(|s| s.digest);
    // Warm the traced path too, in a tracer that is thrown away.
    let _ = catch(|| w.traced_op(WARMUP_OP_SEED, &mut Tracer::new()));

    let (log, tr) = traced_loop(&w, args.seed, args.seconds, MIN_OPS, warm_digest);
    let first = log.first.map_or(0, |s| s.digest);
    let check = catch(|| w.check(op_seed(args.seed, 0), first));
    let metrics = tr.layer_metrics(check.as_ref().ok().and_then(|c| c.fast_naive));

    println!(
        "workload {}  seed {}  (traced: {} ops, counts over the first {MIN_OPS})",
        W::NAME,
        args.seed,
        log.attempted()
    );
    for m in &metrics {
        print_metric(m, "");
    }
    println!("busy time by layer call:");
    print!("{}", tr.busy_report());
    report_check(&warm, &log, &check);
    let path = out_path(W::NAME, args.seed);
    std::fs::create_dir_all(path.parent().expect("out/ has a parent"))
        .and_then(|()| tr.write_jsonl(&path, &metrics))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("trace: {} spans -> {}", tr.spans.len(), path.display());
    let correct = warm.is_ok() && log.failed == 0 && check.is_ok();
    println!(
        "{}",
        result_line(correct, log.attempted(), log.failed, &metrics)?
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) if a.trace => a,
        Ok(_) => {
            eprintln!("the end-to-end run is the dagsched-perf binary: pass --trace 1 here");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "all" => return run_each_workload(&args),
        SweepSteady::NAME => run_traced::<SweepSteady>(&args),
        ParkedDense::NAME => run_traced::<ParkedDense>(&args),
        FuzzCampaign::NAME => run_traced::<FuzzCampaign>(&args),
        TablesFull::NAME => run_traced::<TablesFull>(&args),
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
