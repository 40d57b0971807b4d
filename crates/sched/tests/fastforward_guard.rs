//! Guards on the fast-forward opt-in: schedulers that are *boundedly*
//! stable run the event path with `stable_until`-capped windows, schedulers
//! with no stability claim at all stay on the reference path, and a
//! [`Trace`] observer changes no scheduler's step count. On a parked slot
//! plan, SProfit's step, tick and fresh-allocation counts are pinned
//! exactly.
//!
//! On the reference path every simulated tick is one engine step, so
//! `steps_executed == ticks_simulated` is the observable signature that no
//! bulk window was taken — and for RandomOrder, whose windows are pinned to
//! a single tick, the same equality proves the cap is honored (every tick
//! still consumes exactly one RNG draw).

use dagsched_core::{JobId, Speed, Time};
use dagsched_dag::gen;
use dagsched_engine::{
    simulate, simulate_observed, Allocation, JobInfo, NodePick, OnlineScheduler, SimConfig,
    TickView, Trace,
};
use dagsched_sched::{RandomOrder, SchedulerS, SchedulerSProfit};
use dagsched_workload::{Instance, JobSpec, StepProfitFn, WorkloadGen};

fn workload(m: u32, seed: u64) -> Instance {
    WorkloadGen::standard(m, 25, seed)
        .generate()
        .expect("valid")
}

#[test]
fn random_order_windows_are_single_ticks() {
    let m = 5;
    let r = RandomOrder::new(m, 42);
    assert!(
        !r.allocation_stable_between_events(),
        "RandomOrder consumes RNG state per call; it must not claim full stability"
    );
    assert!(r.bounded_stability(), "but it is boundedly stable");
    assert_eq!(
        r.stable_until(Time(17)),
        Some(Time(18)),
        "every window is one tick wide"
    );
    let inst = workload(m, 7);
    let res = simulate(&inst, &mut RandomOrder::new(m, 42), &SimConfig::default()).expect("runs");
    assert_eq!(
        res.steps_executed, res.ticks_simulated,
        "a wider window would skip RNG draws"
    );
    // The single-tick windows replay the reference path's RNG sequence
    // exactly: the outcome matches a run with fast-forward disabled.
    let naive_cfg = SimConfig {
        fast_forward: false,
        ..SimConfig::default()
    };
    let naive = simulate(&inst, &mut RandomOrder::new(m, 42), &naive_cfg).expect("runs");
    assert!(res.same_outcome(&naive), "window path changed the schedule");
}

#[test]
fn general_profit_scheduler_fast_forwards_between_slot_boundaries() {
    let m = 5;
    let s = SchedulerSProfit::with_epsilon(m, 1.0);
    assert!(
        !s.allocation_stable_between_events(),
        "SProfit's slot plan is keyed on absolute time; it must not claim full stability"
    );
    assert!(s.bounded_stability(), "but it is piecewise constant");
    let inst = workload(m, 7);
    let fast = simulate(
        &inst,
        &mut SchedulerSProfit::with_epsilon(m, 1.0),
        &SimConfig::default(),
    )
    .expect("runs");
    assert!(
        fast.steps_executed < fast.ticks_simulated,
        "bounded stability must unlock bulk windows ({} steps / {} ticks)",
        fast.steps_executed,
        fast.ticks_simulated
    );
    let naive_cfg = SimConfig {
        fast_forward: false,
        ..SimConfig::default()
    };
    let naive = simulate(
        &inst,
        &mut SchedulerSProfit::with_epsilon(m, 1.0),
        &naive_cfg,
    )
    .expect("runs");
    assert_eq!(
        naive.steps_executed, naive.ticks_simulated,
        "fast_forward: false pins the reference path"
    );
    assert!(
        fast.same_outcome(&naive),
        "window path changed the schedule"
    );
    assert_eq!(fast.ticks_simulated, naive.ticks_simulated);
}

/// The slot-plan regime: `n` long background jobs (work 5,000, a two-step
/// profit with cliffs at `horizon / 2` and `horizon`) arrive at `t = 0` on
/// an `m = 4` machine; band capacity admits a handful and parks the rest.
/// A brief wave of small two-step chain jobs (one every other tick, cliffs
/// at 40 and 90) churns the plan early on. After it drains, the run is one
/// long plan gap that SProfit declares stable.
fn profit_instance(n: usize, horizon: u64) -> Instance {
    let mid = (horizon / 2).max(2);
    let background = StepProfitFn::steps(vec![(Time(mid), 4), (Time(horizon), 2)], 0)
        .expect("valid background profit");
    let wave =
        StepProfitFn::steps(vec![(Time(40), 3), (Time(90), 1)], 0).expect("valid wave profit");
    let mut jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            JobSpec::new(
                JobId(i as u32),
                Time(0),
                gen::single(5_000).into_shared(),
                background.clone(),
            )
        })
        .collect();
    for i in 0..n / 2 {
        jobs.push(JobSpec::new(
            JobId((n + i) as u32),
            Time(2 * i as u64),
            gen::chain(3, 2).into_shared(),
            wave.clone(),
        ));
    }
    Instance::new(4, jobs).expect("valid profit instance")
}

/// Exact step and tick counts of SProfit on the slot-plan regime. Bounded
/// stability is what turns tens of thousands of ticks into a few hundred
/// steps; a lost window shows up here as a changed `steps_executed`.
#[test]
fn general_profit_step_counts_are_pinned_on_parked_plans() {
    for (n, steps, ticks) in [(40, 74, 50_001), (160, 194, 50_001)] {
        let inst = profit_instance(n, 50_000);
        let run = |fast_forward| {
            let cfg = SimConfig {
                fast_forward,
                ..SimConfig::default()
            };
            simulate(&inst, &mut SchedulerSProfit::with_epsilon(4, 1.0), &cfg).expect("runs")
        };
        let (fast, naive) = (run(true), run(false));
        assert!(
            fast.same_outcome(&naive),
            "window path changed the schedule at n {n}"
        );
        assert_eq!(
            (fast.steps_executed, fast.ticks_simulated),
            (steps, ticks),
            "n {n}"
        );
    }
}

/// SProfit behind a wrapper that counts the engine's `allocate_into`
/// calls.
struct AskCount {
    s: SchedulerSProfit,
    asks: u64,
}

impl OnlineScheduler for AskCount {
    fn name(&self) -> String {
        self.s.name()
    }
    fn on_arrival(&mut self, info: &JobInfo, now: Time) {
        self.s.on_arrival(info, now);
    }
    fn on_completion(&mut self, id: JobId, now: Time) {
        self.s.on_completion(id, now);
    }
    fn on_expiry(&mut self, id: JobId, now: Time) {
        self.s.on_expiry(id, now);
    }
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        self.s.allocate(view)
    }
    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        self.asks += 1;
        self.s.allocate_into(view, out);
    }
    fn bounded_stability(&self) -> bool {
        self.s.bounded_stability()
    }
    fn stable_until(&self, now: Time) -> Option<Time> {
        self.s.stable_until(now)
    }
}

/// The engine replays SProfit's allocation while the view is unchanged and
/// `now` is inside the run (or gap) it was decided in. Exact ask counts on
/// the slot plans above, the same with bulk windows (74 and 194 steps) and
/// with a random pick that turns them off (50,001 steps): replays carry
/// every other step. The naive path asks every tick.
#[test]
fn general_profit_replays_within_slot_runs() {
    for (n, fresh) in [(40, 42), (160, 102)] {
        let inst = profit_instance(n, 50_000);
        let run = |fast_forward, pick| {
            let cfg = SimConfig {
                fast_forward,
                pick,
                ..SimConfig::default()
            };
            let mut s = AskCount {
                s: SchedulerSProfit::with_epsilon(4, 1.0),
                asks: 0,
            };
            let r = simulate(&inst, &mut s, &cfg).expect("runs");
            (r, s.asks)
        };
        let (naive, naive_asks) = run(false, NodePick::Fifo);
        assert_eq!(naive_asks, naive.ticks_simulated, "n {n}");
        for pick in [NodePick::Fifo, NodePick::Random(5)] {
            let (fast, asks) = run(true, pick);
            assert!(fast.same_outcome(&naive), "n {n}");
            assert_eq!(asks, fresh, "n {n}, {} steps", fast.steps_executed);
            assert!(asks < fast.steps_executed, "n {n}");
        }
    }
}

/// Runs a scheduler untraced and its twin with a [`Trace`] observer on a
/// workload with fast-forwardable stretches: the traced run must reach the
/// same outcome in the same steps, and its trace must cover every simulated
/// tick in at most one window per step.
fn assert_tracing_keeps_steps(plain: &mut dyn OnlineScheduler, traced: &mut dyn OnlineScheduler) {
    let inst = workload(5, 11);
    let r = simulate(&inst, plain, &SimConfig::default()).expect("runs");
    assert!(
        r.steps_executed < r.ticks_simulated,
        "precondition: bulk windows engage"
    );
    let mut trace = Trace::new();
    let t = simulate_observed(&inst, traced, &SimConfig::default(), &mut trace).expect("runs");
    assert!(t.same_outcome(&r), "tracing changed the schedule");
    assert_eq!(t.steps_executed, r.steps_executed);
    assert_eq!(trace.ticks(), t.ticks_simulated);
    assert!(trace.windows().len() as u64 <= t.steps_executed);
}

#[test]
fn traced_runs_keep_the_untraced_step_count() {
    let s = || SchedulerS::with_epsilon(5, 1.0);
    assert_tracing_keeps_steps(&mut s(), &mut s());
}

#[test]
fn traced_runs_keep_the_untraced_step_count_for_bounded_schedulers() {
    let s = || SchedulerSProfit::with_epsilon(5, 1.0);
    assert_tracing_keeps_steps(&mut s(), &mut s());
}

#[test]
fn stability_flag_is_honored_at_other_speeds() {
    let m = 4;
    let inst = workload(m, 23);
    for speed in [
        Speed::new(3, 2).expect("positive"),
        Speed::integer(2).expect("positive"),
    ] {
        let cfg = SimConfig {
            speed,
            ..SimConfig::default()
        };
        let res = simulate(&inst, &mut RandomOrder::new(m, 9), &cfg).expect("runs");
        assert_eq!(
            res.steps_executed, res.ticks_simulated,
            "single-tick windows mean one step per tick at speed {speed:?}"
        );
        let naive_cfg = SimConfig {
            fast_forward: false,
            speed,
            ..SimConfig::default()
        };
        let naive = simulate(&inst, &mut RandomOrder::new(m, 9), &naive_cfg).expect("runs");
        assert!(
            res.same_outcome(&naive),
            "window path changed the schedule at speed {speed:?}"
        );
    }
}
