//! Satellite 1: random workloads × speeds × every production scheduler,
//! with the runtime checkers attached — zero violations expected.
//!
//! The S-specific suite (band capacity, allotment discipline, δ-goodness)
//! attaches only to scheduler S and its work-conserving variant; the
//! universal work-conservation checker and the event log attach to every
//! scheduler, baselines and EDF-AC included.

mod support;

use dagsched_core::{AlgoParams, Speed};
use dagsched_engine::{simulate_observed, Observers, OnlineScheduler, SimConfig};
use dagsched_sched::SchedulerS;
use dagsched_verify::{EventLog, InvariantSuite, WorkConservationChecker};
use dagsched_workload::{ArrivalProcess, DeadlinePolicy, Instance, WorkloadGen};
use proptest::prelude::*;

/// A compact generated workload description.
#[derive(Debug, Clone)]
struct Cfg {
    m: u32,
    n_jobs: usize,
    seed: u64,
    slack_deci: u32, // deadline slack factor in 1/10ths
    load_deci: u32,  // offered load in 1/10ths
    speed_pick: u8,  // index into SPEEDS
}

const SPEEDS: [(u32, u32); 3] = [(1, 1), (3, 2), (2, 1)];

fn arb_cfg() -> impl Strategy<Value = Cfg> {
    (
        2u32..=12,
        5usize..=35,
        0u64..1000,
        10u32..=30,
        5u32..=50,
        0u8..3,
    )
        .prop_map(|(m, n_jobs, seed, slack_deci, load_deci, speed_pick)| Cfg {
            m,
            n_jobs,
            seed,
            slack_deci,
            load_deci,
            speed_pick,
        })
}

fn build(cfg: &Cfg) -> Instance {
    WorkloadGen {
        arrivals: ArrivalProcess::poisson_for_load(cfg.load_deci as f64 / 10.0, 60.0, cfg.m),
        deadlines: DeadlinePolicy::SlackFactor(cfg.slack_deci as f64 / 10.0),
        ..WorkloadGen::standard(cfg.m, cfg.n_jobs, cfg.seed)
    }
    .generate()
    .expect("valid workload")
}

fn sim_cfg(cfg: &Cfg) -> SimConfig {
    let (num, den) = SPEEDS[cfg.speed_pick as usize];
    SimConfig {
        speed: Speed::new(num, den).expect("positive"),
        ..SimConfig::default()
    }
}

/// Run one scheduler with the universal checkers attached; panic on any
/// work-conservation violation.
fn run_universal(inst: &Instance, sched: &mut dyn OnlineScheduler, cfg: &SimConfig, label: &str) {
    let mut work = WorkConservationChecker::new().lenient();
    let mut log = EventLog::new();
    {
        let mut fanout = Observers::new(vec![&mut work, &mut log]);
        simulate_observed(inst, sched, cfg, &mut fanout).expect("simulation runs");
    }
    assert!(
        work.violations().is_empty(),
        "{label}: work-conservation violations: {:?}",
        work.violations()
    );
    assert!(
        log.to_jsonl()
            .lines()
            .last()
            .expect("stream nonempty")
            .contains(r#""ev":"end""#),
        "{label}: truncated event stream"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scheduler S (plain and work-conserving) passes the full invariant
    /// suite — Observation 3, Lemma 1, δ-goodness, work conservation — at
    /// every event of every random run.
    #[test]
    fn scheduler_s_clean_under_full_suite(cfg in arb_cfg()) {
        let inst = build(&cfg);
        let sim = sim_cfg(&cfg);

        let mut suite = InvariantSuite::for_scheduler_s(
            AlgoParams::from_epsilon(1.0).expect("valid epsilon"),
        ).lenient();
        let mut s = SchedulerS::with_epsilon(cfg.m, 1.0);
        simulate_observed(&inst, &mut s, &sim, &mut suite).expect("S runs");
        suite.assert_clean();

        let mut suite_wc = InvariantSuite::for_scheduler_s(
            AlgoParams::from_epsilon(1.0).expect("valid epsilon"),
        ).allow_backfill().lenient();
        let mut swc = SchedulerS::with_epsilon(cfg.m, 1.0).work_conserving();
        simulate_observed(&inst, &mut swc, &sim, &mut suite_wc).expect("S-wc runs");
        suite_wc.assert_clean();
    }

    /// Every production scheduler conserves work exactly and emits a
    /// complete event stream on every random run.
    #[test]
    fn all_schedulers_conserve_work(cfg in arb_cfg()) {
        let inst = build(&cfg);
        let sim = sim_cfg(&cfg);
        for e in &support::ROSTER {
            run_universal(&inst, (e.make)(cfg.m, support::eps1()).as_mut(), &sim, e.name);
        }
    }
}
