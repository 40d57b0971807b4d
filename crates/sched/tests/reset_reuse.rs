//! `reset()` must make scheduler reuse invisible.
//!
//! The sweep runtime reuses one scheduler value across many cells when
//! `reset()` returns `true`. The contract is byte-identity: a run on a
//! reset scheduler must equal a run on a freshly constructed one — same
//! outcomes, same profit, even the same step count. These tests run every
//! production scheduler through run → reset → run on two different
//! workloads and compare both runs against fresh-scheduler references.

use dagsched_core::AlgoParams;
use dagsched_engine::{simulate, OnlineScheduler, SimConfig, SimResult};
use dagsched_sched::{
    Edf, EdfAc, Fifo, GreedyDensity, LeastLaxity, RandomOrder, SNoAdmission, SchedulerS,
    SchedulerSProfit,
};
use dagsched_workload::{ArrivalProcess, DeadlinePolicy, Instance, WorkloadGen};

type SchedFactory = Box<dyn Fn() -> Box<dyn OnlineScheduler>>;

fn factories(m: u32) -> Vec<(&'static str, SchedFactory)> {
    let params = AlgoParams::from_epsilon(1.0).unwrap();
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
            "S-profit",
            Box::new(move || Box::new(SchedulerSProfit::with_epsilon(m, 1.0)) as _),
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
        (
            "RANDOM",
            Box::new(move || Box::new(RandomOrder::new(m, 77)) as _),
        ),
        ("EDF-AC", Box::new(move || Box::new(EdfAc::new(m)) as _)),
    ]
}

fn workloads(m: u32) -> (Instance, Instance) {
    let a = WorkloadGen {
        deadlines: DeadlinePolicy::SlackFactor(2.0),
        ..WorkloadGen::standard(m, 60, 13)
    }
    .generate()
    .unwrap();
    // A genuinely different shape, so leftover state from A would show.
    let b = WorkloadGen {
        arrivals: ArrivalProcess::poisson_for_load(3.0, 40.0, m),
        deadlines: DeadlinePolicy::SlackFactor(1.3),
        ..WorkloadGen::standard(m, 80, 29)
    }
    .generate()
    .unwrap();
    (a, b)
}

fn assert_identical(name: &str, phase: &str, got: &SimResult, want: &SimResult) {
    assert!(
        got.same_outcome(want),
        "{name}: {phase} run on a reset scheduler diverges from fresh\n\
         reset: profit {} ticks {}\nfresh: profit {} ticks {}",
        got.total_profit,
        got.ticks_simulated,
        want.total_profit,
        want.ticks_simulated,
    );
    assert_eq!(
        got.steps_executed, want.steps_executed,
        "{name}: {phase} step count differs after reset"
    );
}

#[test]
fn run_reset_run_is_byte_identical_to_fresh_schedulers() {
    let m = 8u32;
    let (a, b) = workloads(m);
    let cfg = SimConfig::default();
    for (name, mk) in factories(m) {
        let fresh_a = simulate(&a, mk().as_mut(), &cfg).unwrap();
        let fresh_b = simulate(&b, mk().as_mut(), &cfg).unwrap();

        let mut reused = mk();
        let first = simulate(&a, reused.as_mut(), &cfg).unwrap();
        assert_identical(name, "first", &first, &fresh_a);
        assert!(
            reused.reset(),
            "{name} is a production scheduler: must reset"
        );
        let second = simulate(&b, reused.as_mut(), &cfg).unwrap();
        assert_identical(name, "second", &second, &fresh_b);

        // And again on the *same* workload: the strongest leak detector.
        assert!(reused.reset());
        let third = simulate(&a, reused.as_mut(), &cfg).unwrap();
        assert_identical(name, "third", &third, &fresh_a);
    }
}

#[test]
fn reset_disables_admission_reporting() {
    // Fresh construction has reporting off; a reset must return there, so
    // an unobserved run after an observed one buffers nothing.
    let mut s = SchedulerS::with_epsilon(4, 1.0);
    s.enable_admission_reporting();
    let (a, _) = workloads(4);
    simulate(&a, &mut s, &SimConfig::default()).unwrap();
    assert!(s.reset());
    simulate(&a, &mut s, &SimConfig::default()).unwrap();
    let mut drained = Vec::new();
    s.drain_admission_events(&mut drained);
    assert!(
        drained.is_empty(),
        "reporting survived reset: {} events",
        drained.len()
    );
}

#[test]
fn default_reset_declines() {
    // The paper transcription keeps the default: reset() refuses, telling
    // sweep runners to build fresh.
    let mut o = dagsched_sched::PaperS::with_epsilon(4, 1.0);
    assert!(!OnlineScheduler::reset(&mut o));
}
