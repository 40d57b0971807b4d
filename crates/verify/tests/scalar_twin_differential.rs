//! Scalar-twin differential suite: a single-group [`MachineGroups`] platform
//! must be **byte-identical** — `SimResult` and JSONL event stream — to the
//! frozen pre-refactor scalar-speed path ([`PlatformMode::Scalar`]).
//!
//! The grouped path is the production arithmetic (per-processor units at a
//! group-lcm scale, per-processor completion distances, placement-order claim
//! binding); the scalar twin is the pre-refactor engine frozen behind
//! `SimConfig::platform`. On a uniform platform the two must be
//! indistinguishable at every observable layer:
//!
//! * over the stream-equivalence corpus (standard seeds + the overload
//!   workload), at 1 and N sweep threads through
//!   [`parallel_map`](dagsched_engine::parallel_map);
//! * on proptest-chosen workloads, speeds (integral and fractional),
//!   schedulers and pick policies;
//! * under paused [`SimDriver::run_until`] at arbitrary horizons.

use dagsched_core::{AlgoParams, MachineGroups, Speed, Time};
use dagsched_engine::{
    parallel_map, simulate_observed, NodePick, OnlineScheduler, PlatformMode, SimConfig, SimDriver,
    SimObserver, SimResult,
};
use dagsched_sched::{
    AggregateBlind, Edf, EdfAc, Fifo, GreedyDensity, LeastLaxity, SNoAdmission, SchedulerS,
};
use dagsched_verify::EventLog;
use dagsched_workload::{ArrivalProcess, DeadlinePolicy, Instance, WorkloadGen};
use proptest::prelude::*;

type SchedFactory = Box<dyn Fn() -> Box<dyn OnlineScheduler> + Send + Sync>;

fn factories(m: u32) -> Vec<(&'static str, SchedFactory)> {
    let params = AlgoParams::from_epsilon(1.0).expect("valid epsilon");
    vec![
        (
            "S",
            Box::new(move || Box::new(SchedulerS::with_epsilon(m, 1.0)) as Box<dyn OnlineScheduler>)
                as SchedFactory,
        ),
        (
            "S-noadmit",
            Box::new(move || Box::new(SNoAdmission::new(m, params)) as Box<dyn OnlineScheduler>),
        ),
        (
            "FIFO",
            Box::new(move || Box::new(Fifo::new(m)) as Box<dyn OnlineScheduler>),
        ),
        (
            "EDF",
            Box::new(move || Box::new(Edf::new(m)) as Box<dyn OnlineScheduler>),
        ),
        (
            "EDF-blind",
            Box::new(move || Box::new(AggregateBlind(Edf::new(m))) as Box<dyn OnlineScheduler>),
        ),
        (
            "HDF",
            Box::new(move || Box::new(GreedyDensity::new(m)) as Box<dyn OnlineScheduler>),
        ),
        (
            "LLF",
            Box::new(move || Box::new(LeastLaxity::new(m)) as Box<dyn OnlineScheduler>),
        ),
        (
            "EDF-AC",
            Box::new(move || Box::new(EdfAc::new(m)) as Box<dyn OnlineScheduler>),
        ),
    ]
}

/// The legacy scalar path: no groups, frozen `PlatformMode::Scalar`.
fn scalar_cfg(base: &SimConfig) -> SimConfig {
    SimConfig {
        groups: None,
        platform: PlatformMode::Scalar,
        ..base.clone()
    }
}

/// The production path on the same platform: an explicit single uniform
/// group under `PlatformMode::Grouped`.
fn grouped_cfg(base: &SimConfig, m: u32) -> SimConfig {
    SimConfig {
        groups: Some(MachineGroups::uniform(m, base.speed).expect("m >= 1")),
        platform: PlatformMode::Grouped,
        ..base.clone()
    }
}

fn run_cfg(
    inst: &Instance,
    mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
    cfg: &SimConfig,
) -> (SimResult, String) {
    let mut log = EventLog::new();
    let r = simulate_observed(inst, mk().as_mut(), cfg, &mut log).expect("run succeeds");
    (r, log.to_jsonl())
}

/// Full byte-identity: every `SimResult` field (outcome, exact counters,
/// trace) and the whole JSONL stream.
fn assert_twin(label: &str, grouped: &(SimResult, String), scalar: &(SimResult, String)) {
    let (g, s) = (&grouped.0, &scalar.0);
    assert!(
        g.same_outcome(s),
        "{label}: outcome diverges (profit {} vs {})",
        g.total_profit,
        s.total_profit
    );
    assert_eq!(
        g.scaled_units_processed, s.scaled_units_processed,
        "{label}"
    );
    assert_eq!(g.work_scale, s.work_scale, "{label}");
    assert_eq!(g.ticks_simulated, s.ticks_simulated, "{label}");
    assert_eq!(g.steps_executed, s.steps_executed, "{label}");
    assert_eq!(g.end_time, s.end_time, "{label}");
    assert_eq!(
        format!("{g:?}"),
        format!("{s:?}"),
        "{label}: SimResult debug reprs differ"
    );
    if grouped.1 != scalar.1 {
        for (i, (gl, sl)) in grouped.1.lines().zip(scalar.1.lines()).enumerate() {
            assert_eq!(gl, sl, "{label}: JSONL diverges at line {i}");
        }
        panic!(
            "{label}: JSONL streams are a prefix of each other \
             ({} vs {} lines)",
            grouped.1.lines().count(),
            scalar.1.lines().count()
        );
    }
}

fn corpus() -> Vec<(String, u32, Instance)> {
    let mut out = Vec::new();
    for seed in [7u64, 191, 2024] {
        let m = 4 + (seed % 5) as u32;
        let inst = WorkloadGen::standard(m, 30, seed)
            .generate()
            .expect("valid workload");
        out.push((format!("standard seed {seed}"), m, inst));
    }
    let m = 6;
    let inst = WorkloadGen {
        arrivals: ArrivalProcess::poisson_for_load(4.0, 60.0, m),
        deadlines: DeadlinePolicy::SlackFactor(1.2),
        ..WorkloadGen::standard(m, 50, 99)
    }
    .generate()
    .expect("valid workload");
    out.push(("overload".into(), m, inst));
    out
}

const SPEEDS: [(u32, u32); 3] = [(1, 1), (3, 2), (2, 1)];

/// One corpus cell: workload index × speed index × scheduler index.
#[derive(Debug, Clone, Copy)]
struct Cell {
    inst_idx: usize,
    speed_idx: usize,
    sched_idx: usize,
}

/// Run one cell both ways and assert the twin contract; return a compact
/// fingerprint so thread-count determinism can also be asserted.
fn check_cell(corpus: &[(String, u32, Instance)], c: &Cell) -> (u64, u64, String) {
    let (label, m, inst) = &corpus[c.inst_idx];
    let (num, den) = SPEEDS[c.speed_idx];
    let base = SimConfig {
        speed: Speed::new(num, den).expect("positive"),
        ..SimConfig::default()
    };
    let mks = factories(*m);
    let (name, mk) = &mks[c.sched_idx];
    let grouped = run_cfg(inst, mk, &grouped_cfg(&base, inst.m()));
    let scalar = run_cfg(inst, mk, &scalar_cfg(&base));
    assert_twin(
        &format!("{label}: {name} at speed {num}/{den}"),
        &grouped,
        &scalar,
    );
    (grouped.0.total_profit, grouped.0.ticks_simulated, grouped.1)
}

/// The whole stream-equivalence corpus, swept at 1 thread and at N threads:
/// every cell satisfies the twin contract, and the sweep output itself is
/// independent of the thread count.
#[test]
fn single_group_matches_scalar_twin_across_corpus_and_threads() {
    let corpus = corpus();
    let n_scheds = factories(1).len();
    let mut cells = Vec::new();
    for inst_idx in 0..corpus.len() {
        for speed_idx in 0..SPEEDS.len() {
            for sched_idx in 0..n_scheds {
                cells.push(Cell {
                    inst_idx,
                    speed_idx,
                    sched_idx,
                });
            }
        }
    }
    let serial = parallel_map(cells.clone(), 1, |c| check_cell(&corpus, c));
    let threaded = parallel_map(cells, 8, |c| check_cell(&corpus, c));
    assert_eq!(serial, threaded, "sweep results depend on the thread count");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single-group platform — arbitrary m, fractional or integral
    /// speed, any scheduler, either pick policy — is byte-identical to the
    /// scalar twin.
    #[test]
    fn any_single_group_matches_scalar_twin(
        m in 2u32..=10,
        n_jobs in 5usize..=25,
        seed in 0u64..1000,
        speed_idx in 0usize..5,
        sched_idx in 0usize..8,
        cpf in 0u8..2,
    ) {
        let speeds = [(1u32, 1u32), (3, 2), (2, 1), (5, 3), (7, 4)];
        let (num, den) = speeds[speed_idx];
        let inst = WorkloadGen::standard(m, n_jobs, seed)
            .generate()
            .expect("valid workload");
        let base = SimConfig {
            speed: Speed::new(num, den).expect("positive"),
            pick: if cpf == 1 { NodePick::CriticalPathFirst } else { NodePick::Fifo },
            ..SimConfig::default()
        };
        let mks = factories(m);
        let (name, mk) = &mks[sched_idx % mks.len()];
        let grouped = run_cfg(&inst, mk, &grouped_cfg(&base, m));
        let scalar = run_cfg(&inst, mk, &scalar_cfg(&base));
        assert_twin(
            &format!("seed {seed} m {m} {name} speed {num}/{den}"),
            &grouped,
            &scalar,
        );
    }

    /// Pausing a grouped-platform driver at arbitrary `run_until` horizons
    /// still matches the one-shot scalar twin: platform mode and pacing are
    /// jointly invisible.
    #[test]
    fn paused_grouped_run_matches_one_shot_scalar(
        seed in 0u64..500,
        hseed in 0u64..500,
        n_pauses in 1usize..10,
        sched_idx in 0usize..8,
    ) {
        let m = 3 + (seed % 6) as u32;
        let inst = WorkloadGen::standard(m, 20, seed)
            .generate()
            .expect("valid workload");
        let base = SimConfig {
            speed: Speed::new(3, 2).expect("positive"),
            ..SimConfig::default()
        };
        let mks = factories(m);
        let (name, mk) = &mks[sched_idx % mks.len()];
        let scalar = run_cfg(&inst, mk, &scalar_cfg(&base));

        let span = inst.stats().horizon.ticks() + 8;
        let mut rng = dagsched_core::Rng64::seed_from(hseed);
        let cfg = grouped_cfg(&base, m);
        let mut log = EventLog::new();
        let mut sched = mk();
        let mut driver = SimDriver::with_observer(
            &inst,
            sched.as_mut(),
            &cfg,
            &mut log as &mut dyn SimObserver,
        );
        for _ in 0..n_pauses {
            driver
                .run_until(Time(rng.gen_range(span.max(1))))
                .expect("run_until runs");
        }
        let r = driver.finish().expect("finish runs");
        assert_twin(
            &format!("paused seed {seed} {name}"),
            &(r, log.to_jsonl()),
            &scalar,
        );
    }
}
