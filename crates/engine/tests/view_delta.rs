//! The maintained tick view against its specification: after *every* step
//! of *any* run, `Lifecycle::view()` must equal what
//! `Lifecycle::rebuild_view` reconstructs from the alive list — same jobs,
//! same ready counts, same (arrival) order. This is the engine-level half
//! of the view-handoff oracle; the naive-vs-fast `stream_equiv` suite in
//! the verify crate pins the scheduler-facing half (full runs,
//! byte-identical output against the naive path's rebuilt view).
//!
//! Also pins the engine's allocation replay by counting `allocate_into`
//! calls: on the production path a stable scheduler is asked once per
//! change of the view and its allocation is replayed in between; a
//! scheduler that declares no stability is asked every step; the naive
//! reference path asks every tick. No path calls `allocate_delta`.

use dagsched_core::{JobId, Time};
use dagsched_dag::gen;
use dagsched_engine::{
    simulate, Allocation, JobInfo, JobStatus, NodePick, OnlineScheduler, SimConfig, SimDriver,
    SimResult, TickView, ViewDelta,
};
use dagsched_sched::{Edf, SchedulerS};
use dagsched_workload::{Instance, JobSpec, StepProfitFn, WorkloadGen};

/// Greedy arrival-order scheduler that counts its `allocate_into` calls.
/// Its `allocate_delta` panics: the engine must never call it.
struct CountingGreedy {
    stable: bool,
    asks: u64,
}

impl CountingGreedy {
    /// Declares `allocation_stable_between_events`.
    fn new() -> CountingGreedy {
        CountingGreedy {
            stable: true,
            asks: 0,
        }
    }

    /// The same policy with no stability declaration: asked every step.
    fn per_tick() -> CountingGreedy {
        CountingGreedy {
            stable: false,
            asks: 0,
        }
    }
}

impl OnlineScheduler for CountingGreedy {
    fn name(&self) -> String {
        "counting-greedy".into()
    }
    fn on_arrival(&mut self, _info: &JobInfo, _now: Time) {}
    fn on_completion(&mut self, _id: JobId, _now: Time) {}
    fn on_expiry(&mut self, _id: JobId, _now: Time) {}
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut out = Vec::new();
        self.allocate_into(view, &mut out);
        out
    }
    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        self.asks += 1;
        out.clear();
        let mut left = view.m;
        for &(id, r) in view.jobs() {
            if left == 0 {
                break;
            }
            let k = r.min(left);
            if k > 0 {
                out.push((id, k));
                left -= k;
            }
        }
    }
    fn allocate_delta(
        &mut self,
        _delta: &ViewDelta,
        _view: &TickView<'_>,
        _out: &mut Allocation,
    ) -> bool {
        panic!("the engine must not call allocate_delta");
    }
    fn allocation_stable_between_events(&self) -> bool {
        self.stable
    }
}

/// Step `inst` to completion under `cfg`, asserting after every step that
/// the maintained view equals a fresh rebuild.
fn run_pinned(inst: &Instance, cfg: &SimConfig, sched: &mut dyn OnlineScheduler) -> SimResult {
    let mut driver = SimDriver::new(inst, sched, cfg);
    let mut rebuilt: Vec<(JobId, u32)> = Vec::new();
    loop {
        let more = driver.step().expect("step succeeds");
        driver.lifecycle().rebuild_view(&mut rebuilt);
        assert_eq!(
            driver.lifecycle().view(),
            &rebuilt[..],
            "maintained view diverged from rebuild at t={:?}",
            driver.now()
        );
        if !more {
            break;
        }
    }
    driver.finish().expect("finish succeeds")
}

/// Both engine paths: production and naive reference.
fn knob_grid() -> Vec<SimConfig> {
    [true, false]
        .into_iter()
        .map(|fast_forward| SimConfig {
            fast_forward,
            ..SimConfig::default()
        })
        .collect()
}

#[test]
fn maintained_view_equals_rebuild_on_standard_workloads() {
    for seed in [3u64, 41, 977] {
        let m = 3 + (seed % 4) as u32;
        let inst = WorkloadGen::standard(m, 25, seed)
            .generate()
            .expect("valid workload");
        let mut outcomes = Vec::new();
        for cfg in knob_grid() {
            let mut s = CountingGreedy::new();
            outcomes.push(run_pinned(&inst, &cfg, &mut s).total_profit);
        }
        // Both paths also agree on profit (steps legitimately differ
        // between fast-forward and naive pacing).
        assert!(
            outcomes.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: profits diverge across knobs: {outcomes:?}"
        );
    }
}

#[test]
fn panicking_allocate_delta_runs_clean_on_both_paths() {
    // Stable (replayed between changes, bulk windows) and per-tick (asked
    // every step) runs of the same policy: no path reaches the panicking
    // `allocate_delta`, and all four runs agree on every outcome.
    let inst = WorkloadGen::standard(4, 30, 11)
        .generate()
        .expect("valid workload");
    let mut results = Vec::new();
    for cfg in knob_grid() {
        for mut s in [CountingGreedy::new(), CountingGreedy::per_tick()] {
            results.push(simulate(&inst, &mut s, &cfg).expect("run succeeds"));
        }
    }
    assert!(results[0].total_profit > 0);
    for r in &results[1..] {
        assert!(r.same_outcome(&results[0]), "outcomes diverge");
    }
}

/// Forty parked jobs and one foreground job on two processors: after the
/// initial burst, long stretches pass with an unchanged view.
fn parked_instance() -> Instance {
    let mut jobs: Vec<JobSpec> = (0..40u32)
        .map(|i| {
            JobSpec::new(
                JobId(i),
                Time(0),
                gen::single(10_000).into_shared(),
                StepProfitFn::deadline(Time(500_000), 1),
            )
        })
        .collect();
    jobs.push(JobSpec::new(
        JobId(40),
        Time(0),
        gen::single(2_000).into_shared(),
        StepProfitFn::deadline(Time(500_000), 5),
    ));
    Instance::new(2, jobs).expect("valid parked instance")
}

#[test]
fn empty_deltas_actually_replay_on_a_parked_instance() {
    let inst = parked_instance();
    // The random pick keeps the production path at one tick per step, so
    // every step between two changes of the view is a replay.
    let cfg = SimConfig {
        pick: NodePick::Random(7),
        ..SimConfig::default()
    };
    let mut s = CountingGreedy::new();
    let r = simulate(&inst, &mut s, &cfg).expect("run succeeds");
    assert!(r.total_profit > 0);
    assert_eq!(r.steps_executed, r.ticks_simulated, "one tick per step");
    // One fresh allocation at the start and one after each pair of parked
    // jobs completes; the other 201,979 steps replay.
    assert_eq!(
        (s.asks, r.steps_executed),
        (21, 202_000),
        "fresh allocations and steps"
    );

    // Without a stability declaration the scheduler is asked every step.
    let mut p = CountingGreedy::per_tick();
    let rp = simulate(&inst, &mut p, &cfg).expect("run succeeds");
    assert!(rp.same_outcome(&r));
    assert_eq!(p.asks, rp.steps_executed);
}

#[test]
fn rebuild_mode_never_calls_allocate_delta() {
    // The naive reference path asks once per tick, stable or not (and a
    // call to the panicking `allocate_delta` would fail the run).
    let inst = WorkloadGen::standard(4, 20, 5)
        .generate()
        .expect("valid workload");
    let cfg = SimConfig {
        fast_forward: false,
        ..SimConfig::default()
    };
    for mut s in [CountingGreedy::new(), CountingGreedy::per_tick()] {
        let r = simulate(&inst, &mut s, &cfg).expect("run succeeds");
        assert_eq!(r.steps_executed, r.ticks_simulated);
        assert_eq!(s.asks, r.ticks_simulated, "one ask per tick");
    }
}

#[test]
fn same_step_admit_and_expire_nets_out_of_the_view() {
    // Job 1 arrives already hopeless (deadline 0 profit tail 0): it is
    // admitted and expired within the same step, so the view the
    // scheduler sees never shows it. The maintained view must agree with
    // the rebuild throughout (run_pinned asserts it).
    let jobs = vec![
        JobSpec::new(
            JobId(0),
            Time(0),
            gen::chain(3, 4).into_shared(),
            StepProfitFn::deadline(Time(100), 2),
        ),
        JobSpec::new(
            JobId(1),
            Time(2),
            gen::single(50).into_shared(),
            StepProfitFn::deadline(Time(1), 9),
        ),
    ];
    let inst = Instance::new(2, jobs).expect("valid instance");
    for cfg in knob_grid() {
        let mut s = CountingGreedy::new();
        let r = run_pinned(&inst, &cfg, &mut s);
        assert_eq!(r.total_profit, 2, "only job 0 can earn");
    }
}

/// A large alive set in the `parked-dense` style on `m = 4`: 1,500
/// background jobs at `t = 0` (the front of the view), a foreground stream
/// behind them, completions at the front, expiries mid-view and two
/// expiry waves.
///
/// * Every 50th background job is short (work 30, deadline 1,000): the
///   processor the foreground leaves spare finishes them one by one at the
///   front of the view, so the stored positions of every job behind go
///   stale.
/// * The rest are long (work 5,000) and cannot finish: the even ones
///   expire in one wave at `t = 200`, a merge that starts at the front
///   and keeps every odd one, while the foreground still runs 750
///   positions further back; the odd ones go at `t = 600`.
/// * The foreground is one job per tick for 300 ticks (work 3, deadline
///   10); every seventh is hopeless (work 50, deadline 2) and expires in
///   the middle of the view.
fn large_alive_instance() -> Instance {
    let n = 1_500u32;
    let mut jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            let (work, deadline) = match i {
                _ if i % 50 == 0 => (30, 1_000),
                _ if i % 2 == 0 => (5_000, 200),
                _ => (5_000, 600),
            };
            JobSpec::new(
                JobId(i),
                Time(0),
                gen::single(work).into_shared(),
                StepProfitFn::deadline(Time(deadline), 1),
            )
        })
        .collect();
    for i in 0..300u32 {
        let (work, deadline) = if i % 7 == 3 { (50, 2) } else { (3, 10) };
        jobs.push(JobSpec::new(
            JobId(n + i),
            Time(u64::from(i)),
            gen::single(work).into_shared(),
            StepProfitFn::deadline(Time(deadline), 3),
        ));
    }
    Instance::new(4, jobs).expect("valid large-alive instance")
}

#[test]
fn maintained_view_equals_rebuild_with_a_large_alive_set() {
    let inst = large_alive_instance();
    for cfg in knob_grid() {
        let mut edf = Edf::new(4);
        let mut s = SchedulerS::with_epsilon(4, 1.0);
        let scheds: [&mut dyn OnlineScheduler; 2] = [&mut edf, &mut s];
        for sched in scheds {
            let name = sched.name();
            let r = run_pinned(&inst, &cfg, sched);
            // The shape the test relies on: front completions, mid-view
            // expiries and both waves all happen.
            let (background, foreground) = r.outcomes.split_at(1_500);
            assert!(
                background.iter().step_by(50).any(|o| o.is_completed()),
                "{name}: no completion at the front"
            );
            assert!(
                foreground
                    .iter()
                    .any(|o| matches!(o, JobStatus::Expired { .. })),
                "{name}: no mid-view expiry"
            );
            for (i, at) in [(2, 200), (1, 600)] {
                assert_eq!(
                    background[i],
                    JobStatus::Expired { at: Time(at) },
                    "{name}: job {i} leaves in its wave"
                );
            }
        }
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Collision-dense instances: single-digit arrivals, works and
    /// deadlines force same-step admit/expire/complete interleavings.
    fn collision_instance(seed: u64, n: usize, m: u32) -> Instance {
        let mut rng = dagsched_core::Rng64::seed_from(seed);
        let mut arrivals: Vec<u64> = (0..n).map(|_| rng.gen_range(8)).collect();
        arrivals.sort_unstable();
        let jobs: Vec<JobSpec> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let work = 1 + rng.gen_range(6);
                let dag = if rng.gen_range(2) == 0 {
                    gen::single(work).into_shared()
                } else {
                    gen::chain(2, work.max(1)).into_shared()
                };
                let deadline = 1 + rng.gen_range(9);
                JobSpec::new(
                    JobId(i as u32),
                    Time(a),
                    dag,
                    StepProfitFn::deadline(Time(deadline), 1 + rng.gen_range(5)),
                )
            })
            .collect();
        Instance::new(m, jobs).expect("valid collision instance")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// After arbitrary admit/expire/complete interleavings, on both
        /// paths, the maintained view equals a fresh rebuild at every step
        /// and the two paths agree on the profit.
        #[test]
        fn maintained_view_equals_rebuild_under_ties(
            seed in 0u64..2000,
            n in 2usize..12,
            m in 1u32..4,
            stable in 0u8..2,
        ) {
            let inst = collision_instance(seed, n, m);
            let mut profits = Vec::new();
            for cfg in knob_grid() {
                let mut s = if stable == 1 {
                    CountingGreedy::new()
                } else {
                    CountingGreedy::per_tick()
                };
                profits.push(run_pinned(&inst, &cfg, &mut s).total_profit);
            }
            prop_assert_eq!(
                profits[0], profits[1],
                "fast vs naive profit diverged (seed {}, n {}, m {})",
                seed, n, m
            );
        }

        /// Pausing a production run at arbitrary horizons leaves the maintained
        /// view equal to a rebuild at every pause point and at the end.
        #[test]
        fn paused_runs_keep_the_view_pinned(
            seed in 0u64..500,
            hseed in 0u64..500,
            n_pauses in 1usize..8,
        ) {
            let m = 2 + (seed % 3) as u32;
            let inst = WorkloadGen::standard(m, 15, seed)
                .generate()
                .expect("valid workload");
            let span = inst.stats().horizon.ticks() + 8;
            let mut rng = dagsched_core::Rng64::seed_from(hseed);
            let cfg = SimConfig::default();
            let mut s = CountingGreedy::new();
            let mut driver = SimDriver::new(&inst, &mut s, &cfg);
            let mut rebuilt: Vec<(JobId, u32)> = Vec::new();
            for _ in 0..n_pauses {
                driver
                    .run_until(Time(rng.gen_range(span.max(1))))
                    .expect("run_until runs");
                driver.lifecycle().rebuild_view(&mut rebuilt);
                prop_assert_eq!(driver.lifecycle().view(), &rebuilt[..]);
            }
            driver.finish().expect("finish runs");
        }
    }
}
