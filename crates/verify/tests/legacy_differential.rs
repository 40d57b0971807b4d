//! Hot-path rewrite oracle: the optimized schedulers must be
//! **byte-identical** to their frozen pre-rewrite implementations.
//!
//! The allocation-free rework (incremental treap band index, slab job
//! state, sorted-`Vec` queues, `allocate_into`) and S's targeted completion
//! scan claim to change *nothing* observable: same admissions in the same
//! order, same allocations, same event stream. This file holds them to that
//! claim. Each optimized scheduler runs side by side with its retained
//! legacy twin from `dagsched_sched::oracle` on the stream-equivalence
//! corpus (standard and overload workloads, multiple speeds and node-pick
//! policies, both engine paths) and on hand-built instances aimed at the
//! targeted scan's skip rules, and the comparison is on
//!
//! * [`SimResult`] equality — outcome per job, profit, end time, step and
//!   tick counters — and
//! * the full JSONL [`EventLog`] — every arrival, admission decision,
//!   execution window, node completion, completion and expiry must
//!   serialize to the same bytes.

use dagsched_core::{AlgoParams, JobId, Speed, Time};
use dagsched_dag::{gen, DagJobSpec};
use dagsched_engine::{simulate_observed, NodePick, OnlineScheduler, SimConfig};
use dagsched_sched::oracle::{OracleEdfAc, OracleSNoAdmission, OracleSchedulerS};
use dagsched_sched::{EdfAc, SNoAdmission, SchedulerS};
use dagsched_verify::EventLog;
use dagsched_workload::{
    ArrivalProcess, DeadlinePolicy, Instance, JobSpec, StepProfitFn, WorkloadGen,
};

type SchedFactory = Box<dyn Fn() -> Box<dyn OnlineScheduler>>;

/// Run one scheduler with an `EventLog`; return the log plus outcome facts.
fn run_logged(
    inst: &Instance,
    sched: &mut dyn OnlineScheduler,
    cfg: &SimConfig,
) -> (String, String) {
    let mut log = EventLog::new();
    let r = simulate_observed(inst, sched, cfg, &mut log).expect("simulation runs");
    // SimResult has no Eq; its Debug form covers every field (scheduler
    // name, per-job outcomes, profit, end, tick/step counters), so equal
    // Debug strings mean equal results.
    (format!("{r:?}"), log.to_jsonl())
}

/// Point at the first differing line so a failure is debuggable, and dump
/// both logs to `target/tmp/` so CI can upload them as artifacts.
fn assert_identical(new: &str, legacy: &str, label: &str) {
    if new == legacy {
        return;
    }
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("legacy-diff-logs");
    if std::fs::create_dir_all(&dir).is_ok() {
        let slug: String = label
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '-' })
            .collect();
        let _ = std::fs::write(dir.join(format!("{slug}.new.jsonl")), new);
        let _ = std::fs::write(dir.join(format!("{slug}.legacy.jsonl")), legacy);
        eprintln!("{label}: diverging logs dumped to {}", dir.display());
    }
    for (i, (a, b)) in new.lines().zip(legacy.lines()).enumerate() {
        assert_eq!(a, b, "{label}: new vs legacy diverge at line {i}");
    }
    panic!(
        "{label}: one stream is a prefix of the other ({} vs {} lines)",
        new.lines().count(),
        legacy.lines().count()
    );
}

/// The recommended constants for `ε = 1`.
fn eps1() -> AlgoParams {
    AlgoParams::from_epsilon(1.0).expect("valid epsilon")
}

/// The optimized/legacy pairs under differential test.
fn pairs(m: u32, params: AlgoParams) -> Vec<(&'static str, SchedFactory, SchedFactory)> {
    vec![
        (
            "S",
            Box::new(move || Box::new(SchedulerS::new(m, params)) as Box<dyn OnlineScheduler>),
            Box::new(move || {
                Box::new(OracleSchedulerS::new(m, params)) as Box<dyn OnlineScheduler>
            }),
        ),
        (
            "S-wc",
            Box::new(move || {
                Box::new(SchedulerS::new(m, params).work_conserving()) as Box<dyn OnlineScheduler>
            }),
            Box::new(move || {
                Box::new(OracleSchedulerS::new(m, params).work_conserving())
                    as Box<dyn OnlineScheduler>
            }),
        ),
        (
            "S-noadmit",
            Box::new(move || Box::new(SNoAdmission::new(m, params)) as Box<dyn OnlineScheduler>),
            Box::new(move || {
                Box::new(OracleSNoAdmission::new(m, params)) as Box<dyn OnlineScheduler>
            }),
        ),
        (
            "EDF-AC",
            Box::new(move || Box::new(EdfAc::new(m)) as Box<dyn OnlineScheduler>),
            Box::new(move || Box::new(OracleEdfAc::new(m)) as Box<dyn OnlineScheduler>),
        ),
    ]
}

/// Every speed × node pick × engine path the comparison covers.
fn configs() -> Vec<SimConfig> {
    let mut out = Vec::new();
    for speed in [
        Speed::ONE,
        Speed::new(3, 2).expect("positive"),
        Speed::integer(2).expect("positive"),
    ] {
        for pick in [NodePick::Fifo, NodePick::CriticalPathFirst] {
            // Both engine paths: the naive tick loop calls allocate_into
            // every tick, the fast-forward path once per event — the legacy
            // twins only override `allocate`, so this also proves the
            // default `allocate_into` bridge is faithful.
            for fast_forward in [true, false] {
                out.push(SimConfig {
                    speed,
                    pick: pick.clone(),
                    fast_forward,
                    ..SimConfig::default()
                });
            }
        }
    }
    out
}

fn check_all(inst: &Instance, m: u32, params: AlgoParams, label: &str) {
    for cfg in configs() {
        for (name, mk_new, mk_legacy) in &pairs(m, params) {
            let (res_new, log_new) = run_logged(inst, mk_new().as_mut(), &cfg);
            let (res_legacy, log_legacy) = run_logged(inst, mk_legacy().as_mut(), &cfg);
            let tag = format!(
                "{label}: {name} speed {:?} pick {:?} ff {}",
                cfg.speed, cfg.pick, cfg.fast_forward
            );
            assert_eq!(res_new, res_legacy, "{tag}: SimResult diverged");
            assert_identical(&log_new, &log_legacy, &tag);
        }
    }
}

#[test]
fn optimized_schedulers_match_legacy_on_standard_workloads() {
    for seed in [7u64, 191, 2024] {
        let m = 4 + (seed % 5) as u32;
        let inst = WorkloadGen::standard(m, 30, seed)
            .generate()
            .expect("valid workload");
        check_all(&inst, m, eps1(), &format!("standard seed {seed}"));
    }
}

#[test]
fn optimized_schedulers_match_legacy_under_overload() {
    // Overload maximizes admission churn: band rejections, P-queue scans on
    // every completion, expiries — the paths the rewrite touched hardest.
    let m = 6;
    let inst = WorkloadGen {
        arrivals: ArrivalProcess::poisson_for_load(4.0, 60.0, m),
        deadlines: DeadlinePolicy::SlackFactor(1.2),
        ..WorkloadGen::standard(m, 50, 99)
    }
    .generate()
    .expect("valid workload");
    check_all(&inst, m, eps1(), "overload");
}

// ------------------------------------------------- targeted-scan inputs
//
// Hand-built instances on m = 4, where the band capacity b·m ≈ 3.46 holds
// three allotment-1 jobs. A single-node job of work W has allotment 1,
// budget x = W and density profit / W.

const M: u32 = 4;

fn job(id: u32, arrival: u64, dag: DagJobSpec, deadline: u64, profit: u64) -> JobSpec {
    JobSpec::new(
        JobId(id),
        Time(arrival),
        dag.into_shared(),
        StepProfitFn::deadline(Time(deadline), profit),
    )
}

/// `(arrival, dag, relative deadline, profit)` rows, numbered in order.
fn instance(rows: Vec<(u64, DagJobSpec, u64, u64)>) -> Instance {
    let jobs = rows
        .into_iter()
        .enumerate()
        .map(|(i, (t, dag, d, p))| job(i as u32, t, dag, d, p))
        .collect();
    Instance::new(M, jobs).expect("valid instance")
}

/// A parked job whose deadline falls exactly on a completion instant, next
/// to one whose deadline is a tick later (no longer fresh then) and one
/// still fresh enough to start.
fn deadline_on_completion() -> Instance {
    let one = gen::single;
    instance(vec![
        // Three density-1 jobs fill the band and all complete at t = 5.
        (0, one(5), 100, 5),
        (0, one(5), 100, 5),
        (0, one(5), 100, 5),
        // Parked in the same band: deadline at the completion, one after
        // (no longer fresh at t = 5), and one that is still fresh.
        (0, one(2), 5, 2),
        (0, one(2), 6, 2),
        (0, one(3), 9, 3),
        // The same pattern again later, against a completion at t = 12.
        (5, one(7), 100, 7),
        (5, one(7), 100, 7),
        (5, one(7), 100, 7),
        (6, one(2), 6, 2),
        (6, one(2), 7, 2),
    ])
}

/// A parked job whose deadline falls on a completion far outside its band,
/// after an earlier scan (t = 1) already checked it: only the deadline
/// index can bring it into the scan at t = 5.
fn deadline_on_far_completion() -> Instance {
    let one = gen::single;
    instance(vec![
        // Density 1: fill the band and run past the horizon of interest.
        (0, one(50), 200, 50),
        (0, one(50), 200, 50),
        (0, one(50), 200, 50),
        // Parked behind them, with deadlines 5 and 6.
        (0, one(2), 5, 2),
        (0, one(2), 6, 2),
        // Density 10⁶: completions at t = 1 and t = 5.
        (0, one(1), 100, 1_000_000),
        (0, one(5), 100, 5_000_000),
    ])
}

/// The constants of [`not_delta_good_then_fresh`]: `ε = 0.7`.
fn eps07() -> AlgoParams {
    AlgoParams::from_epsilon(0.7).expect("valid epsilon")
}

/// `NotDeltaGood` deferrals that are δ-fresh, started by the next
/// completion, which is far outside their density band. The allotment is
/// rounded up, so in exact arithmetic an admissible job is δ-good; only
/// float rounding can put `(1+2δ)x` past `D`. Under `ε = 0.7` the block
/// job `W = 180, L = 3, D = 243` gets `n = 1` and `x = 180`, and
/// `1.35 · 180` rounds to just above 243. It stays δ-fresh (slack ≥
/// `1.175 · 180 = 211.5`) for 31 ticks.
fn not_delta_good_then_fresh() -> Instance {
    let block = || gen::block(60, 3);
    instance(vec![
        (0, block(), 243, 1),
        (0, gen::single(1), 100, 1_000_000),
        (3, block(), 243, 2),
        (3, gen::single(1), 100, 1_000_000),
        (3, block(), 243, 3),
    ])
}

/// Starved `Q` jobs expire at t = 16 and free their band; the next
/// completion (t = 20) is far outside that band, so only the expiry's
/// removal can re-check the job parked there. A scan at t = 1 has already
/// checked (and refused) it once.
fn q_expiry_frees_band() -> Instance {
    let one = gen::single;
    instance(vec![
        // Density 1, δ-good (16 ≥ 1.5·10), starved below, expire at 16.
        (0, one(10), 16, 10),
        (0, one(10), 16, 10),
        (0, one(10), 16, 10),
        // Four denser jobs hold all four processors until t = 20.
        (0, one(20), 100, 20_000_000),
        (0, one(20), 100, 20_000_000),
        (0, one(20), 100, 20_000_000),
        (0, one(20), 100, 20_000_000_000_000),
        // Completes at t = 1: the scan that first refuses job 8.
        (0, one(1), 100, 1_000_000_000),
        // Parked in the density-1 band; fresh until well after t = 20.
        (0, one(3), 50, 3),
    ])
}

/// Parked densities exactly at `v·c` and `v/c` of removed `Q` jobs, and
/// just inside them. Run with `c = 32`, so both products are exact.
fn band_boundaries() -> (Instance, AlgoParams) {
    let params = AlgoParams::new(1.0, 0.25, 32.0).expect("valid constants");
    let one = gen::single;
    let inst = instance(vec![
        // v = 1: three Q jobs, completing at t = 4, 6, 8.
        (0, one(4), 200, 4),
        (0, one(6), 200, 6),
        (0, one(8), 200, 8),
        // Density 32 = v·c: three admitted, two parked behind them.
        (0, one(10), 200, 320),
        (0, one(12), 200, 384),
        (0, one(14), 200, 448),
        (0, one(3), 200, 96),
        (0, one(5), 200, 160),
        // Density 1/32 = v/c: three admitted, two parked behind them.
        (0, one(32), 200, 1),
        (0, one(64), 200, 2),
        (0, one(96), 300, 3),
        (0, one(32), 200, 1),
        (0, one(64), 200, 2),
        // Just inside (v/c, v·c): 31.99 and 1/31.99.
        (0, one(100), 300, 3_199),
        (0, one(3_199), 5_000, 100),
        // Later arrivals at the same densities, against a fuller Q.
        (2, one(2), 100, 64),
        (2, one(32), 100, 1),
        (2, one(1), 100, 1),
    ]);
    (inst, params)
}

/// Parked jobs just inside `(v/c, v·c)` (densities 31 and 1/31, `c = 32`)
/// that only the band anchored at `v = 1` blocks. A far-away completion at
/// t = 1 checks them once; the completion at `v` at t = 4 must re-check
/// and start both, so a re-check interval narrower than `(v/c, v·c)`
/// shows.
fn band_edges_inside() -> Instance {
    let one = gen::single;
    instance(vec![
        (0, one(4), 200, 4),
        (0, one(6), 200, 6),
        (0, one(8), 200, 8),
        (0, one(1), 100, 1_000_000),
        (0, one(1), 200, 31),
        (0, one(31), 200, 1),
    ])
}

/// A parked job that S-wc runs on spare processors until it completes,
/// so the completion hook fires for a job still in `P`.
fn wc_parked_completes() -> Instance {
    let one = gen::single;
    instance(vec![
        (0, one(50), 200, 50),
        (0, one(50), 200, 50),
        (0, one(50), 200, 50),
        (0, one(5), 200, 5),
        (0, one(5), 200, 5),
        (20, one(5), 40, 5),
    ])
}

/// Every targeted-scan input with its constants.
fn targeted_scan_inputs() -> Vec<(&'static str, Instance, AlgoParams)> {
    let (boundaries, c32) = band_boundaries();
    vec![
        ("deadline-on-completion", deadline_on_completion(), eps1()),
        (
            "deadline-on-far-completion",
            deadline_on_far_completion(),
            eps1(),
        ),
        (
            "not-delta-good-then-fresh",
            not_delta_good_then_fresh(),
            eps07(),
        ),
        ("q-expiry-frees-band", q_expiry_frees_band(), eps1()),
        ("band-boundaries", boundaries, c32),
        ("band-edges-inside", band_edges_inside(), c32),
        ("wc-parked-completes", wc_parked_completes(), eps1()),
    ]
}

#[test]
fn optimized_schedulers_match_legacy_on_targeted_scan_inputs() {
    for (label, inst, params) in targeted_scan_inputs() {
        check_all(&inst, M, params, label);
    }
}

#[test]
fn targeted_scan_inputs_reach_their_cases() {
    // Each input must actually exercise the rule it aims at; read it off
    // S's own event stream on the default configuration.
    let cfg = SimConfig::default();
    let log_of = |inst: &Instance, mut s: SchedulerS| run_logged(inst, &mut s, &cfg).1;
    let s = || SchedulerS::with_epsilon(M, 1.0);

    let log = log_of(&deadline_on_completion(), s());
    assert!(
        log.contains(r#""decision":"rejected","reason":"deadline-passed""#),
        "no parked job was dropped at a completion on its deadline"
    );
    let log = log_of(&deadline_on_far_completion(), s());
    assert!(
        log.contains(
            r#"{"ev":"admission","t":5,"job":3,"decision":"rejected","reason":"deadline-passed"}"#
        ),
        "the parked job was not dropped at the far completion on its deadline"
    );

    let log = log_of(&not_delta_good_then_fresh(), SchedulerS::new(M, eps07()));
    assert!(log.contains(r#""job":0,"decision":"deferred","reason":"not-delta-good""#));
    assert!(
        log.contains(r#"{"ev":"admission","t":1,"job":0,"decision":"admitted"}"#),
        "the NotDeltaGood deferral was not started at the next completion"
    );

    let log = log_of(&q_expiry_frees_band(), s());
    assert!(log.contains(r#"{"ev":"expire","t":16,"job":0}"#));
    assert!(
        log.contains(r#"{"ev":"admission","t":20,"job":8,"decision":"admitted"}"#),
        "the band freed by expiries was not refilled at the next completion"
    );

    let (_, c32) = band_boundaries();
    let log = log_of(&band_edges_inside(), SchedulerS::new(M, c32));
    for job in [4, 5] {
        assert!(log.contains(&format!(
            r#""job":{job},"decision":"deferred","reason":"band-capacity""#
        )));
        assert!(
            log.contains(&format!(
                r#"{{"ev":"admission","t":4,"job":{job},"decision":"admitted"}}"#
            )),
            "in-band job {job} was not started when its band's anchor completed"
        );
    }

    let log = log_of(&wc_parked_completes(), s().work_conserving());
    assert!(log.contains(r#""job":4,"decision":"deferred","reason":"band-capacity""#));
    assert!(
        log.contains(r#"{"ev":"complete","t":5,"job":4,"#),
        "the parked job did not complete through backfill"
    );
}

#[test]
fn reset_reused_s_matches_fresh_legacy() {
    // One S and one S-wc value serve every input in turn, reset between
    // runs: the scan's since-last-scan logs and deadline heap must not
    // leak from one run into the next.
    let overload = WorkloadGen {
        arrivals: ArrivalProcess::poisson_for_load(4.0, 60.0, M),
        deadlines: DeadlinePolicy::SlackFactor(1.2),
        ..WorkloadGen::standard(M, 50, 99)
    }
    .generate()
    .expect("valid workload");
    let mut inputs: Vec<(&str, Instance)> = targeted_scan_inputs()
        .into_iter()
        .filter(|(_, _, params)| params.c() == eps1().c())
        .map(|(label, inst, _)| (label, inst))
        .collect();
    inputs.push(("overload", overload));
    let cfg = SimConfig::default();
    for wc in [false, true] {
        let mut s = SchedulerS::with_epsilon(M, 1.0);
        let legacy = || OracleSchedulerS::with_epsilon(M, 1.0);
        if wc {
            s = s.work_conserving();
        }
        // Twice round, so every input also runs after every other.
        for (i, (label, inst)) in inputs.iter().chain(&inputs).enumerate() {
            if i > 0 {
                assert!(s.reset());
            }
            let (res_new, log_new) = run_logged(inst, &mut s, &cfg);
            let mut oracle = legacy();
            if wc {
                oracle = oracle.work_conserving();
            }
            let (res_legacy, log_legacy) = run_logged(inst, &mut oracle, &cfg);
            let tag = format!("reset-reused run {i} ({label}) wc {wc}");
            assert_eq!(res_new, res_legacy, "{tag}: SimResult diverged");
            assert_identical(&log_new, &log_legacy, &tag);
        }
    }
}
