//! The measurement harness: set-up, the timed closed loop, statistics and
//! the result line both binaries print last.

use crate::args::Args;
use crate::host::{Reference, REFERENCE_MS};
use crate::workloads::{op_seed, OpSummary, Workload, WARMUP_OP_SEED};
use std::panic::{self, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` scales the fastest. The first runs before the
/// measured loop and the rest are spread evenly over it, so a run that
/// starts in a slow spell of a shared host still times some set-ups
/// outside it.
const SETUP_REPS: u32 = 5;

/// The op-time quantile the gated metrics report. A shared host slows
/// whole stretches of a run by up to 1.6x, so the median flips with the
/// share of slow ops; the fast tenth tracks the code (see README.md).
const FAST_Q: f64 = 0.1;

/// Every run measures at least this many ops, however short `--seconds`.
/// The traced run takes its exact counts over exactly these first ops.
pub const MIN_OPS: u64 = 3;

/// The end-to-end metrics and their units, in report order. Every time
/// among them is scaled to the reference host speed of [`crate::host`].
pub const E2E_METRICS: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_ms_p10_refhost", "ms"),
    ("items_per_s_refhost", "items/s"),
    ("peak_rss_mb", "MB"),
];

/// Run `f`, turning a panic into an error so one bad op cannot abort the
/// run.
pub fn catch<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(match payload.downcast::<String>() {
            Ok(s) => format!("panic: {s}"),
            Err(payload) => match payload.downcast::<&str>() {
                Ok(s) => format!("panic: {s}"),
                Err(_) => "panic".into(),
            },
        }),
    }
}

/// Summarize one op's output; on a fixed-input workload the digest must
/// also match the warm-up op's.
pub(crate) fn judge_op<W: Workload>(
    w: &W,
    out: Result<W::Out, String>,
    warm: Option<u64>,
) -> Result<OpSummary, String> {
    let s = w.summarize(&out?)?;
    if W::FIXED_INPUTS && Some(s.digest) != warm {
        return Err("output differs from the warm-up op's on the same inputs".into());
    }
    Ok(s)
}

/// The record of a run's measured ops.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Wall time of every attempted op, in order.
    pub ns: Vec<u64>,
    /// Ops that returned an error, panicked or failed their check.
    pub failed: u64,
    /// Items completed by the ops that succeeded.
    pub items: u64,
    /// Items per second of each op that succeeded, in order.
    pub rates: Vec<f64>,
    /// The first op's summary, when it succeeded.
    pub first: Option<OpSummary>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl OpLog {
    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.ns.len() as u64
    }
}

/// The closed loop: run op 0, 1, 2, … until at least `min_ops` have run
/// and `seconds` have passed. `op(index)` runs one op and returns its
/// measured wall time and outcome.
pub fn closed_loop(
    seconds: Duration,
    min_ops: u64,
    mut op: impl FnMut(u64) -> (Duration, Result<OpSummary, String>),
) -> OpLog {
    let deadline = Instant::now() + seconds;
    let mut log = OpLog::default();
    let mut index = 0;
    while index < min_ops || Instant::now() < deadline {
        let (dt, outcome) = op(index);
        log.ns.push(dt.as_nanos() as u64);
        match outcome {
            Ok(s) => {
                log.items += s.items;
                log.rates.push(s.items as f64 / dt.as_secs_f64());
                if index == 0 {
                    log.first = Some(s);
                }
            }
            Err(e) => {
                log.failed += 1;
                if log.errors.len() < 3 {
                    log.errors.push(format!("op {index}: {e}"));
                }
            }
        }
        index += 1;
    }
    log
}

/// Set the workload up once, followed by one warm-up op on fixed inputs.
/// Returns the set-up, the time both took in seconds, and the warm-up
/// op's summary.
fn set_up<W: Workload>(seed: u64) -> (W, f64, Result<OpSummary, String>) {
    let t = Instant::now();
    let w = W::setup(seed);
    let warm = catch(|| w.op(WARMUP_OP_SEED));
    let secs = t.elapsed().as_secs_f64();
    let warm = warm.and_then(|o| w.summarize(&o));
    (w, secs, warm)
}

/// The `q`-quantile of unsorted values.
fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

/// The `q`-quantile of sorted values, interpolating between neighbours.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no values");
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A metric as both binaries report it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The JSON object the driver reads from the last line of standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// Print one metric for a reader, with an optional note.
pub fn print_metric(m: &Metric, note: &str) {
    println!("{:<34} {:>16.4} {:<8} {note}", m.name, m.value, m.unit);
}

/// The end-to-end run of one workload: set up, measure, check, report.
pub fn run_e2e<W: Workload>(args: &Args) -> Result<(), String> {
    let (w, secs, mut warm) = set_up::<W>(args.seed);
    let warm_digest = warm.as_ref().ok().map(|s| s.digest);
    let mut setup_secs = vec![secs];
    let mut set_up_again = || {
        let (_, secs, again) = set_up::<W>(args.seed);
        setup_secs.push(secs);
        if warm.is_ok() && again != warm {
            warm = Err(format!("a repeated set-up's warm-up op gave {again:?}"));
        }
    };
    let mut host = Reference::new();
    let mut ref_ms = Vec::new();
    let (start, gap) = (Instant::now(), args.seconds / SETUP_REPS);
    let mut setups = 1;
    let log = closed_loop(args.seconds, MIN_OPS, |i| {
        if setups < SETUP_REPS && start.elapsed() >= gap * setups {
            set_up_again();
            setups += 1;
        }
        let s = op_seed(args.seed, i);
        let t = Instant::now();
        let out = catch(|| w.op(s));
        let dt = t.elapsed();
        // About one kernel sample per 50 ms of op time, so long ops
        // still give a steady host speed.
        for _ in 0..=dt.as_millis() / 50 {
            ref_ms.push(host.time_ms());
        }
        (dt, judge_op(&w, out, warm_digest))
    });
    for _ in setups..SETUP_REPS {
        set_up_again();
    }
    let first = log.first.map_or(0, |s| s.digest);
    let check = catch(|| w.check(op_seed(args.seed, 0), first));

    let mut ms: Vec<f64> = log.ns.iter().map(|&n| n as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    let n = ms.len();
    let rate = if log.rates.is_empty() {
        0.0
    } else {
        quantile_of(&log.rates, 1.0 - FAST_Q)
    };
    // How much slower than the reference host this run's host was.
    let host_ms = quantile_of(&ref_ms, FAST_Q);
    let slowdown = host_ms / REFERENCE_MS;
    let setup_raw = quantile_of(&setup_secs, 0.0);
    let values = [
        setup_raw / slowdown,
        quantile(&ms, FAST_Q) / slowdown,
        rate * slowdown,
        peak_rss_mb()?,
    ];
    let notes = [
        "setup_s_raw at the reference host speed".into(),
        format!("op_ms_p10 at the reference host speed; n = {n} ops"),
        "items_per_s at the reference host speed".into(),
        "VmHWM".into(),
    ];
    let metric = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.into(),
        value,
        unit,
    };
    let metrics: Vec<Metric> = E2E_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, value, unit))
        .collect();
    let tail = if n >= 100 {
        ""
    } else {
        "; fewer than 10 samples above it"
    };
    // Reported but not gated: raw times move with the host's load as much
    // as with the code (see README.md).
    let raw = [
        (
            metric("setup_s_raw", setup_raw, "s"),
            format!(
                "fastest of {SETUP_REPS} set-ups spread over the run, each with one warm-up op"
            ),
        ),
        (
            metric("op_ms_p10", quantile(&ms, FAST_Q), "ms"),
            format!("n = {n} ops"),
        ),
        (
            metric("op_ms_p50", quantile(&ms, 0.5), "ms"),
            format!("n = {n} ops"),
        ),
        (
            metric("op_ms_p90", quantile(&ms, 0.9), "ms"),
            format!("n = {n} ops{tail}"),
        ),
        (
            metric("items_per_s", rate, "items/s"),
            format!("90th percentile of {} per-op rates", log.rates.len()),
        ),
        (
            metric("host.ref_ms_p10", host_ms, "ms"),
            format!(
                "{} kernel samples; {REFERENCE_MS} on the reference host",
                ref_ms.len()
            ),
        ),
    ];

    println!(
        "workload {}  seed {}  (end-to-end, tracing off)",
        W::NAME,
        args.seed
    );
    for (m, note) in metrics.iter().zip(&notes) {
        print_metric(m, note);
    }
    for (m, note) in &raw {
        print_metric(m, &format!("not gated; {note}"));
    }
    let failed_frac = metric("failed_frac", log.failed as f64 / n as f64, "");
    print_metric(&failed_frac, &format!("{} of {n} ops", log.failed));
    report_check(&warm, &log, &check);
    let correct = warm.is_ok() && log.failed == 0 && check.is_ok();
    println!(
        "{}",
        result_line(correct, log.attempted(), log.failed, &metrics)?
    );
    Ok(())
}

/// Print the warm-up, per-op and once-per-run check outcomes.
pub fn report_check(
    warm: &Result<OpSummary, String>,
    log: &OpLog,
    check: &Result<crate::workloads::Check, String>,
) {
    if let Err(e) = warm {
        println!("warm-up op failed: {e}");
    }
    for e in &log.errors {
        println!("failed {e}");
    }
    match check {
        Ok(c) => {
            println!("check: ok: {}", c.note);
            if let Some((fast, naive)) = c.fast_naive {
                println!(
                    "check: fast-forward {:.3} ms, naive {:.3} ms on the checked runs (naive/fast = {:.3})",
                    fast.as_secs_f64() * 1e3,
                    naive.as_secs_f64() * 1e3,
                    naive.as_secs_f64() / fast.as_secs_f64()
                );
            }
        }
        Err(e) => println!("check: FAILED: {e}"),
    }
}

/// `--workload all`: run every workload in a fresh process of the current
/// binary, one after another.
pub fn run_each_workload(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the current binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in crate::workloads::NAMES {
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.as_secs_f64().to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name}: exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile_of(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn result_line_has_the_driver_keys() {
        let line = result_line(
            true,
            7,
            0,
            &[Metric {
                name: "op_ms_p10".into(),
                value: 1.25,
                unit: "ms",
            }],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\"op_ms_p10\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        let nan = Metric {
            name: "x".into(),
            value: f64::NAN,
            unit: "s",
        };
        assert!(result_line(true, 1, 0, &[nan]).is_err());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
