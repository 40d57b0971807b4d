//! Resumability oracle: driving a [`SimDriver`] incrementally — one `step()`
//! at a time, or in `run_until` bursts at arbitrary horizons — must be
//! **byte-identical** to the one-shot `simulate_observed` wrapper.
//!
//! `stream_equiv.rs` proves the two execution paths (reference and
//! fast-forward) emit the same event stream; this file proves that *how the
//! driver is paced* is equally invisible: same `SimResult` (including the
//! step count) and the same JSONL event log, for every production scheduler,
//! both engine paths, and proptest-chosen pause points.

use dagsched_core::{AlgoParams, Speed, Time};
use dagsched_engine::{
    simulate_observed, NodePick, OnlineScheduler, SimConfig, SimDriver, SimObserver, SimResult,
};
use dagsched_sched::{Edf, EdfAc, Fifo, GreedyDensity, LeastLaxity, SNoAdmission, SchedulerS};
use dagsched_verify::EventLog;
use dagsched_workload::{ArrivalProcess, DeadlinePolicy, Instance, WorkloadGen};

type SchedFactory = Box<dyn Fn() -> Box<dyn OnlineScheduler>>;

fn factories(m: u32) -> Vec<(&'static str, SchedFactory)> {
    let params = AlgoParams::from_epsilon(1.0).expect("valid epsilon");
    vec![
        (
            "S",
            Box::new(move || Box::new(SchedulerS::with_epsilon(m, 1.0)) as _),
        ),
        (
            "S-wc",
            Box::new(move || Box::new(SchedulerS::with_epsilon(m, 1.0).work_conserving()) as _),
        ),
        (
            "S-noadmit",
            Box::new(move || Box::new(SNoAdmission::new(m, params)) as _),
        ),
        ("FIFO", Box::new(move || Box::new(Fifo::new(m)) as _)),
        ("EDF", Box::new(move || Box::new(Edf::new(m)) as _)),
        (
            "HDF",
            Box::new(move || Box::new(GreedyDensity::new(m)) as _),
        ),
        ("LLF", Box::new(move || Box::new(LeastLaxity::new(m)) as _)),
        ("EDF-AC", Box::new(move || Box::new(EdfAc::new(m)) as _)),
    ]
}

/// The one-shot reference: `simulate_observed` with an `EventLog`.
fn one_shot(
    inst: &Instance,
    mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
    cfg: &SimConfig,
) -> (SimResult, EventLog) {
    let mut log = EventLog::new();
    let r = simulate_observed(inst, mk().as_mut(), cfg, &mut log).expect("one-shot runs");
    (r, log)
}

/// Drive the run one `step()` at a time.
fn stepped(
    inst: &Instance,
    mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
    cfg: &SimConfig,
) -> (SimResult, EventLog) {
    let mut log = EventLog::new();
    let mut sched = mk();
    let mut driver =
        SimDriver::with_observer(inst, sched.as_mut(), cfg, &mut log as &mut dyn SimObserver);
    while driver.step().expect("step runs") {}
    let r = driver.finish().expect("finish after completion");
    (r, log)
}

/// Drive the run in `run_until` bursts at the given horizons (ascending or
/// not — the driver treats a past horizon as a no-op), then finish.
fn paused(
    inst: &Instance,
    mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
    cfg: &SimConfig,
    horizons: &[Time],
) -> (SimResult, EventLog) {
    let mut log = EventLog::new();
    let mut sched = mk();
    let mut driver =
        SimDriver::with_observer(inst, sched.as_mut(), cfg, &mut log as &mut dyn SimObserver);
    for &h in horizons {
        driver.run_until(h).expect("run_until runs");
    }
    let r = driver.finish().expect("finish runs");
    (r, log)
}

fn assert_matches(label: &str, got: (SimResult, EventLog), want: &(SimResult, EventLog)) {
    assert!(
        got.0.same_outcome(&want.0),
        "{label}: outcome diverges from one-shot\n\
         got : profit {} ticks {}\nwant: profit {} ticks {}",
        got.0.total_profit,
        got.0.ticks_simulated,
        want.0.total_profit,
        want.0.ticks_simulated,
    );
    assert_eq!(
        got.0.steps_executed, want.0.steps_executed,
        "{label}: step count diverges"
    );
    if got.1 != want.1 {
        let (got, want) = (got.1.to_jsonl(), want.1.to_jsonl());
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "{label}: event streams diverge at line {i}");
        }
        panic!(
            "{label}: streams are a prefix of each other ({} vs {} lines)",
            got.lines().count(),
            want.lines().count()
        );
    }
}

fn configs() -> Vec<SimConfig> {
    let mut out = Vec::new();
    for speed in [Speed::ONE, Speed::new(3, 2).expect("positive")] {
        for fast_forward in [true, false] {
            out.push(SimConfig {
                speed,
                pick: NodePick::Fifo,
                fast_forward,
                ..SimConfig::default()
            });
        }
    }
    out.push(SimConfig {
        pick: NodePick::CriticalPathFirst,
        ..SimConfig::default()
    });
    out
}

#[test]
fn stepped_drive_matches_one_shot_for_every_production_scheduler() {
    for (seed, m) in [(7u64, 4u32), (191, 6), (2024, 8)] {
        let inst = WorkloadGen::standard(m, 25, seed)
            .generate()
            .expect("valid workload");
        for cfg in configs() {
            for (name, mk) in &factories(m) {
                let want = one_shot(&inst, mk, &cfg);
                let got = stepped(&inst, mk, &cfg);
                assert_matches(&format!("seed {seed} {name} stepped"), got, &want);
            }
        }
    }
}

#[test]
fn stepped_drive_matches_one_shot_under_overload() {
    // Admission churn + expiries: the densest event stream.
    let m = 6;
    let inst = WorkloadGen {
        arrivals: ArrivalProcess::poisson_for_load(4.0, 60.0, m),
        deadlines: DeadlinePolicy::SlackFactor(1.2),
        ..WorkloadGen::standard(m, 40, 99)
    }
    .generate()
    .expect("valid workload");
    for cfg in configs() {
        for (name, mk) in &factories(m) {
            let want = one_shot(&inst, mk, &cfg);
            let got = stepped(&inst, mk, &cfg);
            assert_matches(&format!("overload {name} stepped"), got, &want);
        }
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Pausing at arbitrary horizons never perturbs the run: SimResult
        /// and JSONL stream stay byte-identical to the one-shot wrapper.
        #[test]
        fn run_until_at_random_horizons_is_invisible(
            seed in 0u64..500,
            hseed in 0u64..500,
            n_pauses in 1usize..12,
            sched_idx in 0usize..8,
            ff in 0u8..2,
        ) {
            let m = 4 + (seed % 5) as u32;
            let inst = WorkloadGen::standard(m, 20, seed)
                .generate()
                .expect("valid workload");
            let cfg = SimConfig {
                fast_forward: ff == 1,
                ..SimConfig::default()
            };
            let mks = factories(m);
            let (name, mk) = &mks[sched_idx % mks.len()];
            // Random pause horizons across (and past) the instance window.
            let span = inst.stats().horizon.ticks() + 8;
            let mut rng = dagsched_core::Rng64::seed_from(hseed);
            let horizons: Vec<Time> = (0..n_pauses)
                .map(|_| Time(rng.gen_range(span.max(1))))
                .collect();
            let want = one_shot(&inst, mk, &cfg);
            let got = paused(&inst, mk, &cfg, &horizons);
            assert_matches(
                &format!("seed {seed} {name} pauses {horizons:?}"),
                got,
                &want,
            );
        }
    }
}
