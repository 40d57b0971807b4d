//! Differential oracle for the PR-10 hot-path rewrites: the incremental
//! slot-plan [`SchedulerSProfit`] (segment plan + bounded-stability
//! fast-forward + delta cached replay) and the bounded-stability
//! [`RandomOrder`] against their frozen pre-rewrite twins
//! [`OracleSProfit`] / [`OracleRandomOrder`].
//!
//! The twins have **no** stability claim, so they always run the per-tick
//! reference path; the rewrites run the windowed fast path by default. The
//! outcome must still be byte-identical — same `SimResult` (every field
//! [`SimResult::same_outcome`] compares) and the same JSONL event stream
//! (the event log coalesces a window of `s` identical reference ticks into
//! exactly the record the fast path emits in one call). The one field that
//! legitimately differs is `steps_executed` — that *is* the speedup — so
//! this suite never compares it.
//!
//! Corpus: the standard seeds, an overload mix, a parked-majority
//! instance (mostly rejected jobs → the plan-gap bulk-skip carries the
//! run), the fuzzer's collision family, a multi-thread sweep, and
//! proptest-driven paused `run_until` runs at random horizons.

use dagsched_core::{JobId, Speed, Time};
use dagsched_engine::{
    parallel_map, simulate_observed, NodePick, OnlineScheduler, SimConfig, SimDriver, SimObserver,
    SimResult,
};
use dagsched_sched::oracle::{OracleRandomOrder, OracleSProfit};
use dagsched_sched::{RandomOrder, SchedulerSProfit};
use dagsched_verify::EventLog;
use dagsched_workload::{
    ArrivalProcess, DeadlinePolicy, Instance, JobSpec, StepProfitFn, WorkloadGen,
};

type SchedFactory = Box<dyn Fn() -> Box<dyn OnlineScheduler> + Sync>;

/// (name, rewritten scheduler, frozen oracle twin).
fn pairs(m: u32) -> Vec<(&'static str, SchedFactory, SchedFactory)> {
    vec![
        (
            "S-profit",
            Box::new(move || Box::new(SchedulerSProfit::with_epsilon(m, 1.0)) as _),
            Box::new(move || Box::new(OracleSProfit::with_epsilon(m, 1.0)) as _),
        ),
        (
            "RANDOM",
            Box::new(move || Box::new(RandomOrder::new(m, 42)) as _),
            Box::new(move || Box::new(OracleRandomOrder::new(m, 42)) as _),
        ),
    ]
}

/// One observed run.
fn run_one(
    inst: &Instance,
    mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
    cfg: &SimConfig,
) -> (SimResult, String) {
    let mut log = EventLog::new();
    let r = simulate_observed(inst, mk().as_mut(), cfg, &mut log).expect("run succeeds");
    (r, log.to_jsonl())
}

fn assert_matches(label: &str, fast: (SimResult, String), oracle: &(SimResult, String)) {
    assert!(
        fast.0.same_outcome(&oracle.0),
        "{label}: rewrite outcome diverges from frozen oracle\n\
         rewrite: profit {} ticks {} end {:?}\noracle : profit {} ticks {} end {:?}",
        fast.0.total_profit,
        fast.0.ticks_simulated,
        fast.0.end_time,
        oracle.0.total_profit,
        oracle.0.ticks_simulated,
        oracle.0.end_time,
    );
    // NOTE: `steps_executed` is deliberately NOT compared — the rewrite's
    // whole point is taking fewer engine steps for the same schedule.
    if fast.1 != oracle.1 {
        for (i, (f, o)) in fast.1.lines().zip(oracle.1.lines()).enumerate() {
            assert_eq!(f, o, "{label}: event streams diverge at line {i}");
        }
        panic!(
            "{label}: streams are a prefix of each other ({} vs {} lines)",
            fast.1.lines().count(),
            oracle.1.lines().count()
        );
    }
}

fn check_pair(
    inst: &Instance,
    mk_fast: &dyn Fn() -> Box<dyn OnlineScheduler>,
    mk_oracle: &dyn Fn() -> Box<dyn OnlineScheduler>,
    cfg: &SimConfig,
    label: &str,
) {
    let oracle = run_one(inst, mk_oracle, cfg);
    let fast = run_one(inst, mk_fast, cfg);
    assert_matches(label, fast, &oracle);
}

fn check_all(inst: &Instance, m: u32, label: &str) {
    for speed in [Speed::ONE, Speed::new(3, 2).expect("positive")] {
        for pick in [NodePick::Fifo, NodePick::CriticalPathFirst] {
            // The rewrites must also be byte-faithful on the naive path,
            // where the segment plan replaces the per-tick BTreeMap scan
            // step for step.
            for fast_forward in [true, false] {
                let cfg = SimConfig {
                    speed,
                    pick: pick.clone(),
                    fast_forward,
                    ..SimConfig::default()
                };
                for (name, mk_fast, mk_oracle) in &pairs(m) {
                    check_pair(
                        inst,
                        mk_fast,
                        mk_oracle,
                        &cfg,
                        &format!(
                            "{label}: {name} at speed {speed:?} pick {pick:?} ff {fast_forward}"
                        ),
                    );
                }
            }
        }
    }
}

#[test]
fn rewrites_match_oracles_on_standard_workloads() {
    for seed in [7u64, 191, 2024] {
        let m = 4 + (seed % 5) as u32;
        let inst = WorkloadGen::standard(m, 30, seed)
            .generate()
            .expect("valid workload");
        check_all(&inst, m, &format!("standard seed {seed}"));
    }
}

#[test]
fn rewrites_match_oracles_under_overload() {
    // Tight deadlines + hot arrivals: maximal admission churn, so the
    // slot-plan split/insert/release machinery is exercised hardest.
    let m = 6;
    let inst = WorkloadGen {
        arrivals: ArrivalProcess::poisson_for_load(4.0, 60.0, m),
        deadlines: DeadlinePolicy::SlackFactor(1.2),
        ..WorkloadGen::standard(m, 50, 99)
    }
    .generate()
    .expect("valid workload");
    check_all(&inst, m, "overload");
}

/// 40 long background jobs (work 5,000) arrive at `t = 0` behind a brief
/// wave of 20 chain jobs, one every other tick. Most background jobs are
/// rejected at admission (band conflicts) and wait out their profit
/// unallocated, so the run is dominated by plan gaps — exactly the
/// stretches the bounded-stability bulk-skip fast-forwards through in one
/// window each.
fn parked_instance(background: StepProfitFn, wave: StepProfitFn) -> Instance {
    use dagsched_dag::gen;
    let mut jobs: Vec<JobSpec> = (0..40u32)
        .map(|i| {
            JobSpec::new(
                JobId(i),
                Time(0),
                gen::single(5_000).into_shared(),
                background.clone(),
            )
        })
        .collect();
    for i in 0..20u32 {
        jobs.push(JobSpec::new(
            JobId(40 + i),
            Time(2 * i as u64),
            gen::chain(3, 2).into_shared(),
            wave.clone(),
        ));
    }
    Instance::new(4, jobs).expect("valid parked instance")
}

#[test]
fn rewrites_match_oracles_with_a_parked_majority() {
    let inst = parked_instance(
        StepProfitFn::deadline(Time(50_000), 1),
        StepProfitFn::deadline(Time(40), 3),
    );
    check_all(&inst, 4, "parked majority");
}

/// The slot-plan regime of `fastforward_guard.rs` at 40 background jobs:
/// two-step profits (background cliffs at 25,000 and 50,000, wave cliffs
/// at 40 and 90) leave one long plan gap. Only the S-profit pair runs it,
/// once: the oracle steps every one of the 50,001 ticks.
#[test]
fn sprofit_matches_oracle_on_a_parked_slot_plan() {
    let two_step = |a, pa, b, pb| StepProfitFn::steps(vec![(Time(a), pa), (Time(b), pb)], 0);
    let inst = parked_instance(
        two_step(25_000, 4, 50_000, 2).expect("valid background profit"),
        two_step(40, 3, 90, 1).expect("valid wave profit"),
    );
    let (name, mk_fast, mk_oracle) = &pairs(4)[0];
    check_pair(
        &inst,
        mk_fast,
        mk_oracle,
        &SimConfig::default(),
        &format!("parked slot plan: {name}"),
    );
}

/// The standard corpus again through the multi-thread harness: each
/// (instance, pair) runs both sides on a worker thread. Byte-identity
/// must hold at N threads exactly as at 1.
#[test]
fn rewrites_match_oracles_across_threads() {
    let insts: Vec<(u64, Instance)> = [7u64, 191, 2024]
        .iter()
        .map(|&seed| {
            let m = 4 + (seed % 5) as u32;
            (
                seed,
                WorkloadGen::standard(m, 30, seed)
                    .generate()
                    .expect("valid workload"),
            )
        })
        .collect();
    let mut tasks: Vec<(usize, usize)> = Vec::new();
    for i in 0..insts.len() {
        for s in 0..pairs(1).len() {
            tasks.push((i, s));
        }
    }
    let insts_ref = &insts;
    let results = parallel_map(tasks, 4, |&(i, s)| {
        let (seed, inst) = &insts_ref[i];
        let mks = pairs(inst.m());
        let (name, mk_fast, mk_oracle) = &mks[s];
        let oracle = run_one(inst, mk_oracle, &SimConfig::default());
        let fast = run_one(inst, mk_fast, &SimConfig::default());
        (format!("threaded seed {seed} {name}"), fast, oracle)
    });
    for (label, fast, oracle) in results {
        assert_matches(&label, fast, &oracle);
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Pausing a fast-path driver at arbitrary horizons matches the
        /// one-shot frozen-oracle run: segment-plan state, the delta
        /// replay cache, and the bounded-stability windows all survive
        /// `run_until` boundaries.
        #[test]
        fn paused_fast_run_matches_one_shot_oracle(
            seed in 0u64..500,
            hseed in 0u64..500,
            n_pauses in 1usize..12,
            pair_idx in 0usize..2,
        ) {
            let m = 4 + (seed % 5) as u32;
            let inst = WorkloadGen::standard(m, 20, seed)
                .generate()
                .expect("valid workload");
            let mks = pairs(m);
            let (name, mk_fast, mk_oracle) = &mks[pair_idx % mks.len()];
            let oracle = run_one(&inst, mk_oracle, &SimConfig::default());

            let span = inst.stats().horizon.ticks() + 8;
            let mut rng = dagsched_core::Rng64::seed_from(hseed);
            let cfg = SimConfig::default();
            let mut log = EventLog::new();
            let mut sched = mk_fast();
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
            assert_matches(
                &format!("paused fast seed {seed} {name}"),
                (r, log.to_jsonl()),
                &oracle,
            );
        }
    }
}

/// The fuzzer's collision family: same-step admit+expire batches and dense
/// ready churn through the shared generator, so this suite and the fuzzer
/// sample the same distribution.
#[test]
fn rewrites_match_oracles_on_the_fuzz_collision_corpus() {
    let corpus = dagsched_fuzz::collision_instances(0xDE17A, 16);
    for (ci, inst) in corpus.iter().enumerate() {
        let m = inst.m();
        for (name, mk_fast, mk_oracle) in &pairs(m) {
            check_pair(
                inst,
                mk_fast,
                mk_oracle,
                &SimConfig::default(),
                &format!("fuzz collision #{ci} {name}"),
            );
        }
    }
}
