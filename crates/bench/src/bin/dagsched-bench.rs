//! Perf-regression exporter: run the hot-path harness and write
//! `BENCH_pr10.json`, optionally failing against a committed baseline.
//!
//! ```text
//! dagsched-bench [--quick] [--out PATH] [--baseline PATH]
//!                [--max-regress FRAC] [--min-sweep-speedup X]
//!                [--min-sprofit-speedup X] [--min-related-gain X]
//! ```
//!
//! * `--quick` — reduced sizes/iterations (the CI smoke configuration);
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_pr10.json` in the current directory);
//! * `--baseline PATH` — compare this run's
//!   admission/backfill/arrival/profit speedups and related-machines gain
//!   against the ones recorded in `PATH`; exit non-zero if any fell more
//!   than `--max-regress` (default `0.25`, i.e. 25%) below it. A baseline
//!   without some of these keys (an older `BENCH_prN.json` format) is
//!   accepted — the missing comparison is simply skipped. Keys the
//!   baseline carries but this report no longer produces
//!   (`event_kernel_speedup` and `view_delta_speedup`, whose groups were
//!   retired) are skipped too;
//! * `--min-sweep-speedup X` — require the B1 sweep's 4-thread speedup to
//!   reach at least `X`. Only enforced when the machine has ≥ 4 cores: a
//!   parallel speedup is physically bounded by the core count, so on a
//!   smaller box the measured ratio is recorded but not gated;
//! * `--min-sprofit-speedup X` — require the profit group's gated minimum
//!   (the rewritten general-profit scheduler's slot-plan fast path vs the
//!   frozen per-tick twin, `parked/…` cases) to reach at least `X`. Unlike
//!   the sweep gate this is a same-process legacy-vs-optimized ratio, so it
//!   is enforced unconditionally;
//! * `--min-related-gain X` — require the related-machines group's
//!   completed-profit gain (group-aware vs aggregate-blind placement on
//!   the skewed platform) to reach at least `X`. Profit is deterministic
//!   per (instance, scheduler, config), so this gate is machine-
//!   independent and enforced unconditionally.
//!
//! Admission/backfill speedups are legacy-vs-optimized ratios measured in
//! the same process, so the baseline comparison is machine-independent: a
//! regression means the optimized code got slower *relative to the frozen
//! legacy code on the same box*, not that the box changed. The sweep
//! speedup is the exception — it is hardware-bound, which is why the
//! report carries `host_cores` and the gates above are conditional.

use dagsched_bench::hotpath::{json_number, run_all};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    let mut out = String::from("BENCH_pr10.json");
    let mut baseline: Option<String> = None;
    let mut max_regress = 0.25f64;
    let mut min_sweep_speedup: Option<f64> = None;
    let mut min_sprofit_speedup: Option<f64> = None;
    let mut min_related_gain: Option<f64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--baseline" => baseline = Some(args.next().expect("--baseline needs a path")),
            "--max-regress" => {
                max_regress = args
                    .next()
                    .expect("--max-regress needs a fraction")
                    .parse()
                    .expect("--max-regress must be a number")
            }
            "--min-sweep-speedup" => {
                min_sweep_speedup = Some(
                    args.next()
                        .expect("--min-sweep-speedup needs a number")
                        .parse()
                        .expect("--min-sweep-speedup must be a number"),
                )
            }
            "--min-sprofit-speedup" => {
                min_sprofit_speedup = Some(
                    args.next()
                        .expect("--min-sprofit-speedup needs a number")
                        .parse()
                        .expect("--min-sprofit-speedup must be a number"),
                )
            }
            "--min-related-gain" => {
                min_related_gain = Some(
                    args.next()
                        .expect("--min-related-gain needs a number")
                        .parse()
                        .expect("--min-related-gain must be a number"),
                )
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    eprintln!(
        "dagsched-bench: running hot-path harness ({} mode)...",
        if quick { "quick" } else { "full" }
    );
    let report = run_all(quick);
    let json = report.to_json();
    for c in report
        .admission
        .iter()
        .chain(report.backfill.iter())
        .chain(report.arrival.iter())
        .chain(report.profit.iter())
    {
        eprintln!(
            "  {:<24} legacy {:>12.0} ns   new {:>12.0} ns   speedup {:>6.2}x",
            c.id, c.legacy_ns, c.new_ns, c.speedup
        );
    }
    for c in &report.related {
        eprintln!(
            "  {:<24} aware profit {:>8}   blind profit {:>8}   gain {:>6.2}x",
            c.id, c.aware_profit, c.blind_profit, c.gain
        );
    }
    for c in &report.sweep {
        eprintln!(
            "  {:<24} t1     {:>12.0} ns   t{} {:>12.0} ns   speedup {:>6.2}x",
            c.id, c.t1_ns, c.threads, c.tn_ns, c.speedup
        );
    }
    for c in &report.fuzz {
        eprintln!(
            "  {:<24} {:>6} execs in {:>10.0} ns   {:>7.0} execs/sec ({} features)",
            c.id, c.execs, c.elapsed_ns, c.execs_per_sec, c.features
        );
    }
    let (adm, bf, arr, sp, rg, sw) = (
        report.admission_speedup(),
        report.backfill_speedup(),
        report.arrival_speedup(),
        report.sprofit_speedup(),
        report.related_machines_gain(),
        report.sweep_speedup(),
    );
    eprintln!(
        "  admission_speedup {adm:.2}x, backfill_speedup {bf:.2}x, \
         arrival_speedup {arr:.2}x, sprofit_speedup {sp:.2}x, \
         related_machines_gain {rg:.2}x, sweep_speedup {sw:.2}x, \
         fuzz {:.0} execs/sec (host_cores {})",
        report.fuzz_execs_per_sec(),
        report.host_cores
    );

    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::from(1);
    }
    eprintln!("wrote {out}");

    let mut failed = false;
    if let Some(path) = baseline {
        let base = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("failed to read baseline {path}: {e}");
                return ExitCode::from(1);
            }
        };
        // Only the report's own keys are compared, so keys of retired
        // groups that an older baseline still holds are never read.
        for (key, current) in [
            ("admission_speedup", adm),
            ("backfill_speedup", bf),
            ("arrival_speedup", arr),
            ("sprofit_speedup", sp),
            ("related_machines_gain", rg),
        ] {
            let Some(expected) = json_number(&base, key) else {
                // An older baseline simply lacks keys added after its era
                // (pre-arrival or pre-profit formats); the
                // legacy-vs-optimized keys it does carry are still gated.
                if key == "arrival_speedup"
                    || key == "sprofit_speedup"
                    || key == "related_machines_gain"
                {
                    eprintln!("note: baseline {path} has no {key} (skipping)");
                    continue;
                }
                eprintln!("baseline {path} has no {key}");
                failed = true;
                continue;
            };
            let floor = expected * (1.0 - max_regress);
            if current < floor {
                eprintln!(
                    "REGRESSION: {key} {current:.2}x is below {floor:.2}x \
                     (baseline {expected:.2}x - {:.0}%)",
                    max_regress * 100.0
                );
                failed = true;
            } else {
                eprintln!("ok: {key} {current:.2}x >= floor {floor:.2}x (baseline {expected:.2}x)");
            }
        }
        // The sweep ratio is hardware-bound, so the baseline comparison is
        // informational only when the baseline lacks the key (pre-sweep
        // format) or either box has fewer than 4 cores.
        match json_number(&base, "sweep_speedup") {
            None => eprintln!("note: baseline {path} has no sweep_speedup (skipping)"),
            Some(expected) => {
                let base_cores = json_number(&base, "host_cores").unwrap_or(1.0);
                if report.host_cores < 4 || base_cores < 4.0 {
                    eprintln!(
                        "note: sweep_speedup {sw:.2}x vs baseline {expected:.2}x not gated \
                         (host_cores {} / baseline cores {base_cores:.0})",
                        report.host_cores
                    );
                } else {
                    let floor = expected * (1.0 - max_regress);
                    if sw < floor {
                        eprintln!(
                            "REGRESSION: sweep_speedup {sw:.2}x is below {floor:.2}x \
                             (baseline {expected:.2}x)"
                        );
                        failed = true;
                    } else {
                        eprintln!("ok: sweep_speedup {sw:.2}x >= floor {floor:.2}x");
                    }
                }
            }
        }
    }

    if let Some(min) = min_sprofit_speedup {
        if sp < min {
            eprintln!("FAIL: sprofit_speedup {sp:.2}x is below the required {min:.2}x");
            failed = true;
        } else {
            eprintln!("ok: sprofit_speedup {sp:.2}x >= required {min:.2}x");
        }
    }

    if let Some(min) = min_related_gain {
        if rg < min {
            eprintln!("FAIL: related_machines_gain {rg:.2}x is below the required {min:.2}x");
            failed = true;
        } else {
            eprintln!("ok: related_machines_gain {rg:.2}x >= required {min:.2}x");
        }
    }

    if let Some(min) = min_sweep_speedup {
        if report.host_cores < 4 {
            eprintln!(
                "note: --min-sweep-speedup {min:.2} not enforced on a \
                 {}-core machine (need >= 4)",
                report.host_cores
            );
        } else if sw < min {
            eprintln!("FAIL: sweep_speedup {sw:.2}x is below the required {min:.2}x");
            failed = true;
        } else {
            eprintln!("ok: sweep_speedup {sw:.2}x >= required {min:.2}x");
        }
    }

    if failed {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
