//! Production vs paper: [`SchedulerS`], S-wc and [`SchedulerSProfit`] must
//! be **byte-identical** to [`PaperS`] (Section 3) and [`PaperSProfit`]
//! (Section 5), the transcriptions of `dagsched_sched::paper`.
//!
//! The production schedulers' band queues, slab job state, `allocate_into`,
//! targeted completion scan, segment plan and bounded-stability windows
//! claim to change *nothing* observable: same admissions in the same order,
//! same allocations, same event stream. This file holds them to that claim,
//! run for run, through [`assert_same_run`]: the same outcome and the same
//! JSONL event log, every arrival, admission decision, execution window,
//! node completion, completion and expiry serialized to the same bytes. S
//! and S-wc also take exactly the transcription's steps; `PaperSProfit`
//! claims no stability, so the engine asks it every tick and S-profit's
//! step count is not compared.
//!
//! Corpus: the standard and overload workloads under every speed × node
//! pick × engine path; hand-built instances aimed at S's targeted scan and
//! its skip rules (S and S-wc), with the production S reset and reused
//! across them; the tail-step cap, a parked majority and a parked slot plan
//! (S-profit); the fuzzer's collision family; and proptest-driven paused
//! `run_until` runs at random horizons. The corpus runs go to two worker
//! threads, and the standard instances' default-config runs once more to
//! four, interleaved, so byte-identity also holds with runs on concurrent
//! threads.
//! S and S-wc run `with_invariant_checks()`, so each completion scan also
//! replays the full walk and checks every job it passed over.
//!
//! S-noadmit, EDF-AC and RANDOM are not in the paper. Their runs on the same
//! inputs and configs are pinned by golden digests (FNV-1a of the
//! `SimResult` `Debug` text and of the JSONL log, recorded at `50cc33e`),
//! and RANDOM's production path is also held to its own naive per-tick run.

mod support;

use dagsched_core::{AlgoParams, JobId, Time};
use dagsched_dag::{gen, DagJobSpec};
use dagsched_engine::{NodePick, OnlineScheduler, SimConfig, SimDriver, SimResult};
use dagsched_fuzz::ir::fnv1a;
use dagsched_sched::{PaperS, SchedulerS, SchedulerSProfit};
use dagsched_workload::{Instance, JobSpec, StepProfitFn, WorkloadGen};
use support::{
    assert_same_run, check_corpus, entry, eps1, matrix, naive, overload, run_logged, run_paced,
    Against, Steps,
};

/// Speeds 1, 3/2 and 2: S and S-wc, the standard and overload corpus.
const TO_2: &[(u32, u32)] = &[(1, 1), (3, 2), (2, 1)];
/// Speeds 1 and 3/2: S-profit's own inputs and RANDOM's digests.
const TO_3_2: &[(u32, u32)] = &[(1, 1), (3, 2)];

/// Every speed in `speeds` × {FIFO, critical-path-first} picks × both
/// engine paths. The naive tick loop calls `allocate_into` every tick, the
/// fast-forward path once per event; the transcriptions override only
/// `allocate`, so this also proves the default `allocate_into` bridge
/// faithful, and the production schedulers must be byte-faithful on the
/// path where they are asked every tick like the transcriptions.
fn configs(speeds: &[(u32, u32)]) -> Vec<SimConfig> {
    let picks = [NodePick::Fifo, NodePick::CriticalPathFirst];
    matrix(speeds, &picks, &[true, false], &[true])
}

/// The roster entries with a transcription.
const PAIRED: Against = Against::Paper(&["S", "S-wc", "S-profit"]);
/// Scheduler S, plain and work-conserving.
const S_PAIRS: Against = Against::Paper(&["S", "S-wc"]);
/// The general-profit scheduler.
const S_PROFIT: Against = Against::Paper(&["S-profit"]);

/// Appends one line per config × scheduler in `which` to `all`: `prefix`
/// of the run, its config, and the digests of its `SimResult` `Debug` text
/// and JSONL event log.
fn digest(
    inst: &Instance,
    params: AlgoParams,
    cfgs: &[SimConfig],
    which: &[&str],
    prefix: impl Fn(&SimResult) -> String,
    all: &mut String,
) {
    for cfg in cfgs {
        for name in which {
            let (res, log) = run_logged(inst, (entry(name).make)(inst.m(), params).as_mut(), cfg);
            all.push_str(&format!(
                "{} {:?} {:?} {} {:#x} {:#x}\n",
                prefix(&res),
                cfg.speed,
                cfg.pick,
                cfg.fast_forward,
                fnv1a(format!("{res:?}").as_bytes()),
                fnv1a(log.to_jsonl().as_bytes()),
            ));
        }
    }
}

/// S-noadmit's and EDF-AC's digest lines, each led by the scheduler name.
fn digest_baselines(inst: &Instance, params: AlgoParams, label: &str, all: &mut String) {
    let named = |r: &SimResult| format!("{label} {}", r.scheduler);
    let cfgs = configs(TO_2);
    digest(inst, params, &cfgs, &["S-noadmit", "EDF-AC"], named, all);
}

/// RANDOM's digest lines.
fn digest_random(inst: &Instance, label: &str, all: &mut String) {
    let cfgs = configs(TO_3_2);
    digest(inst, eps1(), &cfgs, &["RANDOM"], |_| label.into(), all);
}

#[test]
fn optimized_schedulers_match_legacy_on_standard_workloads() {
    for (label, inst) in support::standard_instances() {
        check_corpus(&inst, eps1(), &configs(TO_2), S_PAIRS, &label);
    }
}

#[test]
fn rewrites_match_oracles_on_standard_workloads() {
    for (label, inst) in support::standard_instances() {
        check_corpus(&inst, eps1(), &configs(TO_2), S_PROFIT, &label);
    }
}

#[test]
fn rewrites_match_oracles_across_threads() {
    support::check_standard_across_threads(PAIRED);
}

#[test]
fn optimized_schedulers_match_legacy_under_overload() {
    check_corpus(
        &overload(6, 50),
        eps1(),
        &configs(TO_2),
        S_PAIRS,
        "overload",
    );
}

#[test]
fn rewrites_match_oracles_under_overload() {
    check_corpus(
        &overload(6, 50),
        eps1(),
        &configs(TO_2),
        S_PROFIT,
        "overload",
    );
}

#[test]
fn baselines_are_golden_on_standard_workloads_and_overload() {
    let mut all = String::new();
    for (label, inst) in support::standard_instances() {
        digest_baselines(&inst, eps1(), &label, &mut all);
    }
    digest_baselines(&overload(6, 50), eps1(), "overload", &mut all);
    assert_eq!(all.len(), 9978);
    assert_eq!(fnv1a(all.as_bytes()), 0x6c7e_6d14_7825_5d72);
}

#[test]
fn random_is_golden_on_standard_workloads_and_overload() {
    let mut all = String::new();
    for (label, inst) in support::standard_instances() {
        digest_random(&inst, &label, &mut all);
    }
    digest_random(&overload(6, 50), "overload", &mut all);
    assert_eq!(all.len(), 3054);
    assert_eq!(fnv1a(all.as_bytes()), 0xbab1_c014_3642_63bf);
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

/// Block jobs on the δ-good boundary under `ε = 0.7`: `W = 180, L = 3,
/// D = 243`. Read exactly, the `f64` constant `1+2δ = 1.35` lies just above
/// 27/20, so at `n = 1` the budget `x = 180` misses `D` by a hair
/// (`1.35 · 180 > 243`) and the least δ-good allotment is `n = 2`. Float
/// arithmetic took `n = 1` from the rounded quotient and then deferred the
/// job as not δ-good; exactly, an admissible job is always δ-good, and these
/// start at arrival on two processors.
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

/// Stretches a band-blocked probe lets the completion scan jump over. Three
/// density-50 `Q` jobs fill every own window reaching past `50/c ≈ 0.949`;
/// three density-0.5 `Q` jobs, one of which completes at t = 100, anchor
/// the band `[0.5, 26.4)`. The scan at t = 100 re-checks all of `P`:
///
/// * job 6 (density 1) fails on its own window, so `[0.949, 1]` is one
///   own-window stretch: jobs 7 and 9 are passed over, but job 8 (0.975),
///   whose deadline is t = 100, is still dropped there;
/// * job 10 (0.94), just below that stretch, fits and is started, which
///   fills the 0.5 anchors' band;
/// * job 11 (0.6) then fails on those anchors, so `[0.5, 0.6]` is one
///   anchor stretch, and job 12 (0.55) is passed over.
///
/// Jobs 13 and 14 park at t = 112, inside the own-window stretch; the
/// completion at t = 113 is far outside their band, so its scan passes
/// over both: a job deferred since the last scan is probed only inside a
/// re-check interval.
fn blocked_stretches() -> Instance {
    let one = gen::single;
    instance(vec![
        (0, one(1_000), 10_000, 50_000),
        (0, one(1_000), 10_000, 50_000),
        (0, one(1_000), 10_000, 50_000),
        (0, one(100), 500, 50),
        (0, one(100), 500, 50),
        (0, one(100), 500, 50),
        (0, one(100), 1_000, 100),
        (0, one(100), 1_000, 99),
        (0, one(40), 100, 39),
        (0, one(100), 1_000, 95),
        (0, one(100), 1_000, 94),
        (0, one(100), 1_000, 60),
        (0, one(100), 1_000, 55),
        (112, one(100), 1_000, 98),
        (112, one(100), 1_000, 96),
        (112, one(1), 100, 1_000_000),
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
        ("blocked-stretches", blocked_stretches(), eps1()),
    ]
}

#[test]
fn optimized_schedulers_match_legacy_on_targeted_scan_inputs() {
    for (label, inst, params) in targeted_scan_inputs() {
        check_corpus(&inst, params, &configs(TO_2), S_PAIRS, label);
    }
}

#[test]
fn baselines_are_golden_on_targeted_scan_inputs() {
    let mut all = String::new();
    for (label, inst, params) in targeted_scan_inputs() {
        digest_baselines(&inst, params, label, &mut all);
    }
    assert_eq!(all.len(), 21012);
    assert_eq!(fnv1a(all.as_bytes()), 0x5a3e_61e0_aebf_deef);
}

#[test]
fn targeted_scan_inputs_reach_their_cases() {
    // Each input must actually exercise the rule it aims at; read it off
    // S's own event stream on the default configuration.
    let cfg = SimConfig::default();
    let log_of = |inst: &Instance, mut s: SchedulerS| run_logged(inst, &mut s, &cfg).1.to_jsonl();
    let s = || SchedulerS::with_epsilon(M, 1.0).with_invariant_checks();

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

    let log = log_of(
        &not_delta_good_then_fresh(),
        SchedulerS::new(M, eps07()).with_invariant_checks(),
    );
    assert!(
        !log.contains("not-delta-good"),
        "admissible jobs are δ-good"
    );
    assert!(
        log.contains(r#"{"ev":"admission","t":0,"job":0,"decision":"admitted"}"#),
        "the boundary job was not started at arrival"
    );

    let log = log_of(&q_expiry_frees_band(), s());
    assert!(log.contains(r#"{"ev":"expire","t":16,"job":0}"#));
    assert!(
        log.contains(r#"{"ev":"admission","t":20,"job":8,"decision":"admitted"}"#),
        "the band freed by expiries was not refilled at the next completion"
    );

    let (_, c32) = band_boundaries();
    let log = log_of(
        &band_edges_inside(),
        SchedulerS::new(M, c32).with_invariant_checks(),
    );
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

    let mut stretched = s();
    let log = run_logged(&blocked_stretches(), &mut stretched, &cfg)
        .1
        .to_jsonl();
    for job in [6, 7, 8, 9, 10, 11, 12] {
        assert!(log.contains(&format!(
            r#"{{"ev":"admission","t":0,"job":{job},"decision":"deferred","reason":"band-capacity"}}"#
        )));
    }
    let dropped = log
        .find(r#"{"ev":"admission","t":100,"job":8,"decision":"rejected","reason":"deadline-passed"}"#)
        .expect("the expired job inside the own-window stretch was not dropped at t = 100");
    let started = log
        .find(r#"{"ev":"admission","t":100,"job":10,"decision":"admitted"}"#)
        .expect("the job just below the own-window stretch was not started at t = 100");
    assert!(
        dropped < started,
        "the expired job's rejection lost its place in the walk"
    );
    assert!(log.contains(r#""job":14,"decision":"deferred","reason":"band-capacity""#));
    for (t, job) in [(100, 7), (100, 9), (100, 12), (113, 13), (113, 14)] {
        assert!(
            !log.contains(&format!(r#""t":{t},"job":{job},"#)),
            "job {job}, inside a blocked stretch, has an event at t = {t}"
        );
    }
    // Probing every candidate, as the scan did before it skipped blocked
    // stretches and the deferrals outside every re-check interval, takes
    // 36 probes on this run.
    assert_eq!(
        stretched.metrics().admission_probes,
        19,
        "the scans did not pass over the blocked stretches"
    );

    let log = log_of(&wc_parked_completes(), s().work_conserving());
    assert!(log.contains(r#""job":4,"decision":"deferred","reason":"band-capacity""#));
    assert!(
        log.contains(r#"{"ev":"complete","t":5,"job":4,"#),
        "the parked job did not complete through backfill"
    );
}

/// Due keys (deadline passed) on both sides of, and inside, the completion
/// scan's one re-check interval, and deferrals inside and outside it.
/// Three density-2,000 `Q` jobs and job 3 (density 12) hold the
/// processors; jobs 3–5 fill the band anchored at 10, so job 9 (10) parks,
/// and jobs 6–8 (0.1) the one job 10 (0.005) would join. Job 3 completes
/// at t = 50, and its interval `(0.23, 632)` holds jobs 9, 12 (15, deadline
/// 50) and 15 (20, parked at t = 49): the scan takes the due key 12 with
/// the interval's `P` slice, not a second time from the due list, and the
/// deferral 15 as an interval key. Jobs 11 (1,000), 14 and 13 (infeasible,
/// 0.025 and 0.0125), all with deadline 50, lie outside it, above and
/// below, and so does job 10, deferred at t = 0 and never probed. The walk
/// rejects 11, starts 15, rejects 12, fails on 9 and jumps to the
/// stretch's bottom (0.38), then rejects 14 and 13 (each removal shifts
/// `P` below the spent interval).
fn extras_around_an_interval() -> Instance {
    let one = gen::single;
    instance(vec![
        (0, one(500), 2_000, 1_000_000),
        (0, one(500), 2_000, 1_000_000),
        (0, one(500), 2_000, 1_000_000),
        (0, one(50), 1_000, 600),
        (0, one(500), 2_000, 5_000),
        (0, one(500), 2_000, 5_000),
        (0, one(500), 2_000, 50),
        (0, one(500), 2_000, 50),
        (0, one(500), 2_000, 50),
        (0, one(100), 1_000, 1_000),
        (0, one(200), 2_000, 1),
        (40, one(4), 10, 4_000),
        (40, one(4), 10, 60),
        (40, one(20), 10, 1),
        (40, one(20), 10, 2),
        (49, one(10), 1_000, 200),
    ])
}

/// A blocked-stretch jump from one re-check interval into a lower one.
/// Job 0 (density 1, allotment 3) is starved by jobs 1 (100,000) and 2
/// (2,200) and expires at t = 30, leaving the interval `(0.019, 52.7)`
/// without a scan; job 1 completes at t = 40, adding `(1,897, 5.3·10⁶)`.
/// Jobs 4–6 (densities 40, 1,000, 1,000; t = 31) fill the band anchored at
/// 40. At t = 40 job 7 (2,000) fails on that anchor, whose band reaches past
/// it, so the walk jumps to 40: inside the lower interval it rejects job 9
/// (48, deadline 40), passes over job 8 (45) and starts job 3 (10), parked
/// at t = 5 behind job 0.
fn jump_into_a_lower_interval() -> Instance {
    let one = gen::single;
    instance(vec![
        (0, gen::block(4, 10), 30, 60),
        (0, one(40), 100, 4_000_000),
        (0, one(1_000), 3_000, 2_200_000),
        (5, one(100), 1_000, 1_000),
        (31, one(1_000), 3_000, 40_000),
        (31, one(1_000), 3_000, 1_000_000),
        (31, one(1_000), 3_000, 1_000_000),
        (32, one(100), 1_000, 200_000),
        (32, one(100), 1_000, 4_500),
        (32, one(4), 8, 192),
    ])
}

#[test]
fn optimized_schedulers_match_legacy_on_scan_walk_inputs() {
    for (label, inst) in [
        ("extras-around-an-interval", extras_around_an_interval()),
        ("jump-into-a-lower-interval", jump_into_a_lower_interval()),
    ] {
        check_corpus(&inst, eps1(), &configs(TO_2), S_PAIRS, label);
    }
}

#[test]
fn scan_walk_inputs_reach_their_cases() {
    let cfg = SimConfig::default();
    let rejected = |t: u64, job: u32| {
        format!(
            r#"{{"ev":"admission","t":{t},"job":{job},"decision":"rejected","reason":"deadline-passed"}}"#
        )
    };
    let admitted = |t: u64, job: u32| {
        format!(r#"{{"ev":"admission","t":{t},"job":{job},"decision":"admitted"}}"#)
    };

    let log_of = |inst: &Instance| {
        let mut s = SchedulerS::with_epsilon(M, 1.0).with_invariant_checks();
        run_logged(inst, &mut s, &cfg).1.to_jsonl()
    };

    let log = log_of(&extras_around_an_interval());
    assert!(log.contains(r#"{"ev":"complete","t":50,"job":3,"#));
    let walk = [
        rejected(50, 11),
        admitted(50, 15),
        rejected(50, 12),
        rejected(50, 14),
        rejected(50, 13),
    ];
    let at: Vec<usize> = walk
        .iter()
        .map(|ev| {
            log.find(ev.as_str())
                .unwrap_or_else(|| panic!("missing {ev}"))
        })
        .collect();
    assert!(
        at.windows(2).all(|w| w[0] < w[1]),
        "the scan at t = 50 walked out of order"
    );
    for job in [9, 10] {
        assert!(
            !log.contains(&format!(r#""t":50,"job":{job},"#)),
            "job {job} was started"
        );
    }

    let log = log_of(&jump_into_a_lower_interval());
    assert!(log.contains(r#"{"ev":"expire","t":30,"job":0}"#));
    assert!(log.contains(r#"{"ev":"complete","t":40,"job":1,"#));
    let dropped = log
        .find(&rejected(40, 9))
        .expect("job 9 was not dropped at t = 40");
    let started = log
        .find(&admitted(40, 3))
        .expect("job 3 was not started at t = 40");
    assert!(dropped < started, "the jump's rejection lost its place");
    for job in [7, 8] {
        assert!(
            !log.contains(&format!(r#""t":40,"job":{job},"#)),
            "job {job}, inside the blocked stretch, has an event at t = 40"
        );
    }
    // The scan under test is each run's first, and it probes exactly the
    // keys above: jobs 11, 15, 12, 9, 14, 13 at t = 50 and 7, 9, 3 at
    // t = 40. A key walked twice, one of the passed-over stretch, or a
    // deferral outside every interval (job 10) would add one.
    let probes_until = |inst: &Instance, t: u64| {
        let mut s = SchedulerS::with_epsilon(M, 1.0);
        SimDriver::new(inst, &mut s, &cfg)
            .run_until(Time(t))
            .expect("run_until runs");
        s.metrics().admission_probes
    };
    assert_eq!(
        (
            probes_until(&extras_around_an_interval(), 51),
            probes_until(&jump_into_a_lower_interval(), 41)
        ),
        (6, 3),
        "probes of the scan under test"
    );
}

/// Three started jobs in three density bands on m = 4: the densest
/// (density 1,000) takes three processors, the next (density 1) needs
/// three more and is passed over, and the last (density 0.01) runs on the
/// remaining processor. Highest-density-first execution skips a job that
/// does not fit rather than stopping at it.
#[test]
fn execution_passes_over_a_job_that_does_not_fit() {
    let inst = instance(vec![
        (0, gen::block(4, 10), 30, 60_000),
        (0, gen::block(4, 10), 30, 60),
        (0, gen::single(100), 200, 1),
    ]);
    check_corpus(&inst, eps1(), &configs(TO_2), S_PAIRS, "pass over a misfit");
    let mut s = SchedulerS::with_epsilon(M, 1.0);
    let log = run_logged(&inst, &mut s, &SimConfig::default())
        .1
        .to_jsonl();
    for job in 0..3 {
        assert!(log.contains(&format!(
            r#"{{"ev":"admission","t":0,"job":{job},"decision":"admitted"}}"#
        )));
    }
    assert!(
        log.contains(
            r#"{"ev":"window","t":0,"ticks":10,"jobs":[[0,4],[1,4],[2,1]],"alloc":[[0,3],[2,1]]"#
        ),
        "job 2 did not run beside job 0"
    );
}

#[test]
fn reset_reused_s_matches_fresh_paper_s() {
    // One S and one S-wc value serve every input in turn, reset between
    // runs: the scan's since-last-scan logs and deadline heap must not
    // leak from one run into the next.
    let mut inputs: Vec<(&str, Instance)> = targeted_scan_inputs()
        .into_iter()
        .filter(|(_, _, params)| params.c() == eps1().c())
        .map(|(label, inst, _)| (label, inst))
        .collect();
    inputs.push(("overload", overload(M, 50)));
    let cfg = SimConfig::default();
    for wc in [false, true] {
        let mut s = SchedulerS::with_epsilon(M, 1.0);
        let paper = || PaperS::with_epsilon(M, 1.0);
        if wc {
            s = s.work_conserving();
        }
        // Twice round, so every input also runs after every other.
        for (i, (label, inst)) in inputs.iter().chain(&inputs).enumerate() {
            if i > 0 {
                assert!(s.reset());
            }
            let got = run_logged(inst, &mut s, &cfg);
            let mut reference = paper();
            if wc {
                reference = reference.work_conserving();
            }
            let want = run_logged(inst, &mut reference, &cfg);
            let tag = format!("reset-reused run {i} ({label}) wc {wc}");
            assert_same_run(&tag, &got, &want, Steps::Equal);
        }
    }
}

// ------------------------------------------------------- S-profit inputs

/// Lone single-node jobs whose profit pays 10 up to tick 1 and 5 forever
/// after, so only the tail step can hold a deadline, and the `(1+ε)L`
/// floor (`2L + 1` at `ε = 1`) sets it. The tail step ends
/// `horizon − r + k + 2` ticks past the later of the last bound and that
/// floor, `k = ⌈1.25 L⌉` slots.
///
/// * Job 0 (`L = 3`, `k = 4`, empty plan) needs `D = 7`; its slots
///   `[0, 4)` make the plan's horizon 3.
/// * Job 1 (`L = 7`, `k = 9`, `r = 1`) needs `D = 15`, the floor. Measured
///   from the last bound, the cap (`1 + 2 + 9 + 2 = 14`) would end a tick
///   before it and reject the job; measured from the floor it ends at 28.
/// * Job 2 (`L = 6`, `k = 8`, `r = 1`) needs `D = 13`.
fn tail_cap_instance() -> Instance {
    let profit = StepProfitFn::steps(vec![(Time(1), 10)], 5).expect("valid profit");
    let jobs = [(0, 3), (1, 7), (1, 6)]
        .into_iter()
        .enumerate()
        .map(|(i, (r, work))| {
            JobSpec::new(
                JobId(i as u32),
                Time(r),
                gen::single(work).into_shared(),
                profit.clone(),
            )
        })
        .collect();
    Instance::new(4, jobs).expect("valid tail-cap instance")
}

#[test]
fn tail_step_cap_is_pinned() {
    let inst = tail_cap_instance();
    check_corpus(&inst, eps1(), &configs(TO_3_2), S_PROFIT, "tail cap");
    let mut s = SchedulerSProfit::with_epsilon(4, 1.0);
    let r = dagsched_engine::simulate(&inst, &mut s, &SimConfig::default()).expect("run succeeds");
    let deadlines: Vec<Option<Time>> = (0..3).map(|i| s.assigned_deadline(JobId(i))).collect();
    assert_eq!(deadlines, [Some(Time(7)), Some(Time(16)), Some(Time(14))]);
    assert_eq!(r.total_profit, 15, "every job earns the tail");
}

/// The parked majority with plain deadlines: most background jobs are
/// rejected at admission (band conflicts) and wait out their profit
/// unallocated, so the run is dominated by plan gaps — exactly the
/// stretches the bounded-stability bulk-skip fast-forwards through in one
/// window each.
fn parked_deadlines() -> Instance {
    support::parked_majority(
        StepProfitFn::deadline(Time(50_000), 1),
        StepProfitFn::deadline(Time(40), 3),
    )
}

#[test]
fn rewrites_match_oracles_with_a_parked_majority() {
    let inst = parked_deadlines();
    check_corpus(&inst, eps1(), &configs(TO_3_2), S_PROFIT, "parked majority");
}

#[test]
fn random_is_golden_with_a_parked_majority() {
    let mut all = String::new();
    digest_random(&parked_deadlines(), "parked majority", &mut all);
    assert_eq!(all.len(), 768);
    assert_eq!(fnv1a(all.as_bytes()), 0xe8fc_4654_5026_cf19);
}

/// The slot-plan regime of `fastforward_guard.rs` at 40 background jobs:
/// two-step profits (background cliffs at 25,000 and 50,000, wave cliffs
/// at 40 and 90) leave one long plan gap. It runs once, on the default
/// config: the transcription steps every one of the 50,001 ticks.
#[test]
fn sprofit_matches_oracle_on_a_parked_slot_plan() {
    let two_step = |a, pa, b, pb| StepProfitFn::steps(vec![(Time(a), pa), (Time(b), pb)], 0);
    let inst = support::parked_majority(
        two_step(25_000, 4, 50_000, 2).expect("valid background profit"),
        two_step(40, 3, 90, 1).expect("valid wave profit"),
    );
    let cfgs = [SimConfig::default()];
    check_corpus(&inst, eps1(), &cfgs, S_PROFIT, "parked slot plan");
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Pausing a fast-path driver at arbitrary horizons matches the
        /// one-shot reference run (S-profit's transcription, RANDOM's naive
        /// path): segment-plan state, the replay cache, and the
        /// bounded-stability windows all survive `run_until` boundaries.
        #[test]
        fn paused_fast_run_matches_one_shot_oracle(
            seed in 0u64..500,
            hseed in 0u64..500,
            n_pauses in 1usize..12,
            pair in 0usize..2,
        ) {
            let m = 4 + (seed % 5) as u32;
            let inst = WorkloadGen::standard(m, 20, seed)
                .generate()
                .expect("valid workload");
            let e = entry(["S-profit", "RANDOM"][pair]);
            let fast = SimConfig::default();
            let (reference, steps, cfg) = match e.paper {
                Some((paper, steps)) => (paper, steps, fast.clone()),
                None => (e.make, Steps::AtMost, naive(&fast)),
            };
            let want = run_logged(&inst, reference(m, eps1()).as_mut(), &cfg);
            let pauses = support::random_pauses(hseed, n_pauses, inst.stats().horizon.ticks() + 8);
            let mut sched = (e.make)(m, eps1());
            let got = run_paced(&inst, sched.as_mut(), &fast, Some(&pauses));
            let label = format!("paused fast seed {seed} {}", e.name);
            assert_same_run(&label, &got, &want, steps);
        }
    }
}

/// The fuzzer's collision family: same-step admit+expire batches and dense
/// ready churn through the shared generator, so this suite and the fuzzer
/// sample the same distribution.
#[test]
fn rewrites_match_oracles_on_the_fuzz_collision_corpus() {
    let cfgs = [SimConfig::default()];
    for (ci, inst) in support::collision_corpus().iter().enumerate() {
        check_corpus(
            inst,
            eps1(),
            &cfgs,
            PAIRED,
            &format!("fuzz collision #{ci}"),
        );
    }
}

#[test]
fn random_is_golden_on_the_fuzz_collision_corpus() {
    let mut all = String::new();
    for (ci, inst) in support::collision_corpus().iter().enumerate() {
        digest_random(inst, &format!("fuzz collision #{ci}"), &mut all);
    }
    assert_eq!(all.len(), 12566);
    assert_eq!(fnv1a(all.as_bytes()), 0xadfc_223b_40ef_f671);
}
