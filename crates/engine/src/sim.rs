//! The discrete-time execution engine: configuration and the one-shot
//! entry points.
//!
//! [`SimConfig::fast_forward`] is the one switch between the engine's two
//! execution paths, which produce identical results:
//!
//! * the **production path** (`true`, the default) finds the next event
//!   with an [`EventKernel`](crate::events::EventKernel) (an arrival
//!   cursor and a cursor over the instance's presorted expiry order) and
//!   maintains the scheduler's view incrementally. Between *events* (arrivals, node
//!   completions, expiries, the horizon) nothing visible to a stable
//!   scheduler changes, so while the view is unchanged and the last
//!   allocation's stability window is open it replays that allocation
//!   instead of asking again, and it computes the width of that boring
//!   window and bulk-advances every claimed node across it in one engine
//!   step — O(events) instead of O(ticks). Both engage only when the
//!   scheduler opts in via
//!   [`OnlineScheduler::allocation_stable_between_events`] or
//!   [`OnlineScheduler::bounded_stability`]; bulk windows also need a
//!   deterministic pick policy ([`NodePick::fast_forward_safe`]), and
//!   otherwise the production path runs one tick per step;
//! * the **naive reference path** (`false`) is the direct transcription of
//!   the paper's per-tick model, kept as ground truth. It steps one tick at
//!   a time, skips idle gaps from the arrival list, finds expiries by
//!   scanning the alive jobs, rebuilds the `(id, ready)` view every tick
//!   and calls a full
//!   [`allocate_into`](OnlineScheduler::allocate_into). It shares no event
//!   or handoff code with the production path.
//!
//! Opting in is therefore always safe for correctness *checking*: the
//! naive-vs-fast suite (`crates/verify/tests/stream_equiv.rs`) holds the
//! two paths byte-identical.
//!
//! Both entry points are thin wrappers over the layered, resumable
//! [`SimDriver`]: [`simulate`] drives it with the
//! zero-cost [`NullObserver`](crate::observe::NullObserver) instantiation and [`simulate_observed`] with a
//! dynamic observer — there is exactly one loop body in the engine (see
//! [`driver`](crate::driver) for the layer diagram).

use crate::driver::SimDriver;
use crate::observe::SimObserver;
use crate::pick::NodePick;
use crate::result::SimResult;
use crate::sched_api::OnlineScheduler;
use dagsched_core::{scale_work, MachineGroups, Result, SchedError, Speed, Time};
use dagsched_workload::Instance;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Processor speed (resource augmentation). Ignored when
    /// [`groups`](SimConfig::groups) is set — the groups then define every
    /// processor's speed.
    pub speed: Speed,
    /// The machine-group platform: per-group processor counts and speeds.
    /// `None` (default) means a uniform platform of `m` processors at
    /// [`speed`](SimConfig::speed). When set, the total processor count
    /// must equal the instance's `m`.
    pub groups: Option<MachineGroups>,
    /// How ready nodes are chosen when a job gets processors.
    pub pick: NodePick,
    /// Whether a processor finishing a node mid-tick may continue on another
    /// ready node of the same job within the same tick. With carry-over, a
    /// chain of unit nodes advances exactly `speed` work per tick
    /// (Observation 1); without it, node granularity quantizes progress.
    pub carryover: bool,
    /// Hard stop; `None` derives a bound that any work-conserving schedule
    /// fits in (last useful time + total work + 1).
    pub horizon: Option<Time>,
    /// Run the production path (on by default): the event kernel, the
    /// maintained view with allocation replay, and bulk fast-forward
    /// windows when the scheduler and pick policy allow them. Turn off for
    /// the naive per-tick reference path, e.g. for differential testing.
    /// See the [module docs](self).
    pub fast_forward: bool,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            speed: Speed::ONE,
            groups: None,
            pick: NodePick::Fifo,
            carryover: true,
            horizon: None,
            fast_forward: true,
        }
    }
}

impl SimConfig {
    /// Default configuration at the given speed.
    pub fn at_speed(speed: Speed) -> SimConfig {
        SimConfig {
            speed,
            ..SimConfig::default()
        }
    }

    /// Default configuration on the given platform.
    pub fn on_groups(groups: MachineGroups) -> SimConfig {
        SimConfig {
            groups: Some(groups),
            ..SimConfig::default()
        }
    }

    /// Resolve the effective platform description for an instance of `m`
    /// processors, validating it against this configuration.
    ///
    /// # Errors
    /// [`SchedError::InvalidInstance`] when the group total disagrees with
    /// `m`.
    pub fn resolve_groups(&self, m: u32) -> Result<MachineGroups> {
        match &self.groups {
            Some(g) if g.total() != m => Err(SchedError::InvalidInstance(format!(
                "platform {} has {} processors but the instance has m = {m}",
                g,
                g.total()
            ))),
            Some(g) => Ok(g.clone()),
            None => MachineGroups::uniform(m, self.speed),
        }
    }
}

/// Run `sched` on `inst` under `cfg`.
///
/// # Errors
/// [`SchedError::InvalidAllocation`] if the
/// scheduler ever over-subscribes processors, allocates to a job that is not
/// alive, allocates zero processors, or repeats a job within one tick.
/// [`SchedError::InvalidInstance`] if the configured platform is
/// inconsistent with the instance (see [`SimConfig::resolve_groups`]), or
/// if the instance's total work scaled to the platform overflows `u64`.
/// Engine-model violations are bugs and surface as panics, not errors.
pub fn simulate(
    inst: &Instance,
    sched: &mut dyn OnlineScheduler,
    cfg: &SimConfig,
) -> Result<SimResult> {
    check_platform(inst, cfg)?;
    SimDriver::new(inst, sched, cfg).finish()
}

/// The two ways a driver's construction can panic on a valid instance,
/// surfaced as errors: a platform inconsistent with `m`, and scaled work
/// overflowing `u64` (each job's work is scaled when it arrives; checking
/// the instance total covers every job).
fn check_platform(inst: &Instance, cfg: &SimConfig) -> Result<()> {
    let groups = cfg.resolve_groups(inst.m())?;
    scale_work(inst.total_work().units(), groups.work_scale())?;
    Ok(())
}

/// Run `sched` on `inst` under `cfg` with `obs` receiving the event stream.
///
/// Observation never changes the schedule: the run produces the same
/// [`SimResult`] as [`simulate`], on the same execution path (bulk windows
/// stay enabled under observation — both paths emit the same stream; see
/// [`observe`](crate::observe) for the ordering and equivalence contracts).
/// When the observer is [active](SimObserver::is_active), the engine also
/// asks the scheduler to
/// [record admission decisions](OnlineScheduler::enable_admission_reporting)
/// and forwards them via [`SimObserver::on_admission`].
///
/// # Errors
/// As [`simulate`].
pub fn simulate_observed(
    inst: &Instance,
    sched: &mut dyn OnlineScheduler,
    cfg: &SimConfig,
    obs: &mut dyn SimObserver,
) -> Result<SimResult> {
    check_platform(inst, cfg)?;
    SimDriver::with_observer(inst, sched, cfg, obs).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::JobStatus;
    use crate::sched_api::{Allocation, JobInfo, TickView};
    use dagsched_core::{JobId, NodeId, SchedError, Work};
    use dagsched_dag::gen;
    use dagsched_workload::{Instance, JobSpec, StepProfitFn};
    use std::sync::Arc;

    /// Work-conserving FIFO-by-arrival test scheduler: hands each alive job
    /// as many processors as it has ready nodes, in arrival order.
    struct Greedy;

    impl OnlineScheduler for Greedy {
        fn name(&self) -> String {
            "greedy-test".into()
        }
        fn on_arrival(&mut self, _job: &JobInfo, _now: Time) {}
        fn on_completion(&mut self, _id: JobId, _now: Time) {}
        fn on_expiry(&mut self, _id: JobId, _now: Time) {}
        fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
            let mut left = view.m;
            let mut out = Vec::new();
            for &(id, ready) in view.jobs() {
                if left == 0 {
                    break;
                }
                let k = ready.min(left);
                if k > 0 {
                    out.push((id, k));
                    left -= k;
                }
            }
            out
        }
        fn allocation_stable_between_events(&self) -> bool {
            // Pure function of the view's job list and ready counts.
            true
        }
    }

    /// A scheduler that emits a fixed allocation once (for validation tests).
    struct Fixed(Option<Allocation>);

    impl OnlineScheduler for Fixed {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn on_arrival(&mut self, _job: &JobInfo, _now: Time) {}
        fn on_completion(&mut self, _id: JobId, _now: Time) {}
        fn on_expiry(&mut self, _id: JobId, _now: Time) {}
        fn allocate(&mut self, _view: &TickView<'_>) -> Allocation {
            self.0.take().unwrap_or_default()
        }
    }

    fn one_job(
        dag: Arc<dagsched_dag::DagJobSpec>,
        arrival: u64,
        d: u64,
        p: u64,
        m: u32,
    ) -> Instance {
        Instance::new(
            m,
            vec![JobSpec::new(
                JobId(0),
                Time(arrival),
                dag,
                StepProfitFn::deadline(Time(d), p),
            )],
        )
        .unwrap()
    }

    #[test]
    fn single_node_completes_on_time() {
        let inst = one_job(gen::single(4).into_shared(), 0, 10, 7, 1);
        let r = simulate(&inst, &mut Greedy, &SimConfig::default()).unwrap();
        assert_eq!(
            r.outcomes[0],
            JobStatus::Completed {
                at: Time(4),
                profit: 7
            }
        );
        assert_eq!(r.total_profit, 7);
        assert_eq!(r.work_processed(), 4);
        assert_eq!(r.ticks_simulated, 4);
    }

    #[test]
    fn block_uses_all_processors() {
        // 8 unit nodes, m = 4: two ticks.
        let inst = one_job(gen::block(8, 1).into_shared(), 0, 10, 1, 4);
        let r = simulate(&inst, &mut Greedy, &SimConfig::default()).unwrap();
        assert_eq!(r.makespan(), Some(Time(2)));
    }

    #[test]
    fn speed_two_with_carryover_halves_chain_time() {
        // Chain of 10 unit nodes at speed 2: Observation 1 says span drops at
        // rate 2 → 5 ticks.
        let inst = one_job(gen::chain(10, 1).into_shared(), 0, 100, 1, 1);
        let cfg = SimConfig::at_speed(Speed::integer(2).unwrap());
        let r = simulate(&inst, &mut Greedy, &cfg).unwrap();
        assert_eq!(r.makespan(), Some(Time(5)));
        assert_eq!(r.work_processed(), 10);
    }

    #[test]
    fn speed_two_without_carryover_is_quantized() {
        // Without carry-over, each tick finishes exactly one unit node:
        // the leftover speed is wasted -> 10 ticks.
        let inst = one_job(gen::chain(10, 1).into_shared(), 0, 100, 1, 1);
        let cfg = SimConfig {
            speed: Speed::integer(2).unwrap(),
            carryover: false,
            ..SimConfig::default()
        };
        let r = simulate(&inst, &mut Greedy, &cfg).unwrap();
        assert_eq!(r.makespan(), Some(Time(10)));
    }

    #[test]
    fn rational_speed_is_exact() {
        // Speed 3/2 on a 9-unit node: scaled work 18, 3 units/tick → 6 ticks
        // (vs 9 at unit speed: exactly 1.5x).
        let inst = one_job(gen::single(9).into_shared(), 0, 100, 1, 1);
        let cfg = SimConfig::at_speed(Speed::new(3, 2).unwrap());
        let r = simulate(&inst, &mut Greedy, &cfg).unwrap();
        assert_eq!(r.makespan(), Some(Time(6)));
        assert_eq!(r.work_processed(), 9);
        assert_eq!(r.work_scale, 2);
    }

    #[test]
    fn deadline_boundary_is_inclusive() {
        // 4 work, deadline 4: completes exactly at rel time 4 → paid.
        let inst = one_job(gen::single(4).into_shared(), 3, 4, 9, 1);
        let r = simulate(&inst, &mut Greedy, &SimConfig::default()).unwrap();
        assert_eq!(
            r.outcomes[0],
            JobStatus::Completed {
                at: Time(7),
                profit: 9
            }
        );
        // Deadline 3: cannot make it; expires and earns nothing.
        let inst = one_job(gen::single(4).into_shared(), 3, 3, 9, 1);
        let r = simulate(&inst, &mut Greedy, &SimConfig::default()).unwrap();
        assert_eq!(r.outcomes[0], JobStatus::Expired { at: Time(6) });
        assert_eq!(r.total_profit, 0);
    }

    #[test]
    fn expiry_frees_processors_for_other_jobs() {
        // Job 0: hopeless (work 100, deadline 1). Job 1: fine.
        let inst = Instance::new(
            1,
            vec![
                JobSpec::new(
                    JobId(0),
                    Time(0),
                    gen::single(100).into_shared(),
                    StepProfitFn::deadline(Time(1), 50),
                ),
                JobSpec::new(
                    JobId(1),
                    Time(0),
                    gen::single(5).into_shared(),
                    StepProfitFn::deadline(Time(100), 3),
                ),
            ],
        )
        .unwrap();
        let r = simulate(&inst, &mut Greedy, &SimConfig::default()).unwrap();
        assert!(matches!(r.outcomes[0], JobStatus::Expired { .. }));
        assert!(r.outcomes[1].is_completed());
        assert_eq!(r.total_profit, 3);
    }

    #[test]
    fn idle_gaps_are_skipped() {
        let inst = Instance::new(
            1,
            vec![
                JobSpec::new(
                    JobId(0),
                    Time(0),
                    gen::single(2).into_shared(),
                    StepProfitFn::deadline(Time(10), 1),
                ),
                JobSpec::new(
                    JobId(1),
                    Time(1_000_000),
                    gen::single(2).into_shared(),
                    StepProfitFn::deadline(Time(10), 1),
                ),
            ],
        )
        .unwrap();
        let r = simulate(&inst, &mut Greedy, &SimConfig::default()).unwrap();
        assert_eq!(r.total_profit, 2);
        assert!(
            r.ticks_simulated < 100,
            "engine iterated {} ticks; the million-tick gap must be skipped",
            r.ticks_simulated
        );
        assert_eq!(r.makespan(), Some(Time(1_000_002)));
    }

    #[test]
    fn validation_rejects_bad_allocations() {
        let inst = one_job(gen::single(5).into_shared(), 0, 50, 1, 2);
        // Over-subscription.
        let err = simulate(
            &inst,
            &mut Fixed(Some(vec![(JobId(0), 3)])),
            &SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SchedError::InvalidAllocation(_)));
        // Unknown job.
        let err = simulate(
            &inst,
            &mut Fixed(Some(vec![(JobId(7), 1)])),
            &SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SchedError::InvalidAllocation(_)));
        // Zero processors.
        let err = simulate(
            &inst,
            &mut Fixed(Some(vec![(JobId(0), 0)])),
            &SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SchedError::InvalidAllocation(_)));
        // Duplicate.
        let err = simulate(
            &inst,
            &mut Fixed(Some(vec![(JobId(0), 1), (JobId(0), 1)])),
            &SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SchedError::InvalidAllocation(_)));
    }

    #[test]
    fn lazy_scheduler_hits_horizon_with_unfinished_jobs() {
        let inst = one_job(
            gen::single(5).into_shared(),
            0,
            1_000, // far deadline
            1,
            1,
        );
        // Never allocates anything.
        struct Idle;
        impl OnlineScheduler for Idle {
            fn name(&self) -> String {
                "idle".into()
            }
            fn on_arrival(&mut self, _j: &JobInfo, _t: Time) {}
            fn on_completion(&mut self, _i: JobId, _t: Time) {}
            fn on_expiry(&mut self, _i: JobId, _t: Time) {}
            fn allocate(&mut self, _v: &TickView<'_>) -> Allocation {
                Vec::new()
            }
        }
        let r = simulate(&inst, &mut Idle, &SimConfig::default()).unwrap();
        // The job expires at its last useful time rather than running
        // forever; nothing was processed.
        assert!(matches!(r.outcomes[0], JobStatus::Expired { at } if at == Time(1_000)));
        assert_eq!(r.work_processed(), 0);
    }

    #[test]
    fn over_allocation_beyond_ready_nodes_idles() {
        // A chain on m=4 with a greedy scheduler that asks ready.min(m):
        // ready is always 1, so exactly 1 processor works; makespan = W.
        let inst = one_job(gen::chain(6, 2).into_shared(), 0, 100, 1, 4);
        let r = simulate(&inst, &mut Greedy, &SimConfig::default()).unwrap();
        assert_eq!(r.makespan(), Some(Time(12)));
        assert_eq!(r.work_processed(), 12);
    }

    #[test]
    fn fig1_adversarial_vs_friendly_realizes_theorem1_gap() {
        // m = 4, chain_len = 40: W = 160, L = 40 = W/m.
        let m = 4;
        let dag = gen::fig1(m, 40, 1).into_shared();
        let w = dag.total_work().as_ticks();
        let l = dag.span().as_ticks();
        let inst = one_job(dag, 0, 10_000, 1, m);

        // Adversarial picking: block first, then the chain sequentially.
        let cfg = SimConfig {
            pick: NodePick::AdversarialLowHeight,
            ..SimConfig::default()
        };
        let r = simulate(&inst, &mut Greedy, &cfg).unwrap();
        let expect_worst = (w - l) / m as u64 + l; // 30 + 40 = 70
        assert_eq!(r.makespan(), Some(Time(expect_worst)));

        // Friendly (critical-path-first): chain runs from the start → W/m.
        let cfg = SimConfig {
            pick: NodePick::CriticalPathFirst,
            ..SimConfig::default()
        };
        let r = simulate(&inst, &mut Greedy, &cfg).unwrap();
        assert_eq!(r.makespan(), Some(Time(w / m as u64)));
    }

    #[test]
    fn multi_step_profit_pays_by_completion_time() {
        let f = StepProfitFn::steps(vec![(Time(3), 10), (Time(6), 4)], 0).unwrap();
        let mk = |work: u64| {
            Instance::new(
                1,
                vec![JobSpec::new(
                    JobId(0),
                    Time(0),
                    gen::single(work).into_shared(),
                    f.clone(),
                )],
            )
            .unwrap()
        };
        // Completes at 3 → 10; at 5 → 4; can't by 6 → expires, 0.
        let r = simulate(&mk(3), &mut Greedy, &SimConfig::default()).unwrap();
        assert_eq!(r.total_profit, 10);
        let r = simulate(&mk(5), &mut Greedy, &SimConfig::default()).unwrap();
        assert_eq!(r.total_profit, 4);
        let r = simulate(&mk(9), &mut Greedy, &SimConfig::default()).unwrap();
        assert_eq!(r.total_profit, 0);
        assert!(matches!(r.outcomes[0], JobStatus::Expired { .. }));
    }

    #[test]
    fn fast_forward_collapses_long_nodes_into_steps() {
        // One 1000-unit node: the naive path iterates 1000 ticks; the
        // fast-forward path takes one bulk window plus the completion tick.
        let inst = one_job(gen::single(1000).into_shared(), 0, 5_000, 1, 1);
        let fast = simulate(&inst, &mut Greedy, &SimConfig::default()).unwrap();
        let naive = simulate(
            &inst,
            &mut Greedy,
            &SimConfig {
                fast_forward: false,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert!(fast.same_outcome(&naive));
        assert_eq!(naive.steps_executed, 1000);
        assert_eq!(fast.ticks_simulated, 1000);
        assert_eq!(fast.steps_executed, 2);
    }

    #[test]
    fn fast_forward_stops_at_arrivals_and_expiries() {
        // Job 0 is a long runner; job 1 is hopeless and expires mid-flight;
        // job 2 arrives mid-flight. Both boundaries must be hit exactly for
        // outcomes to match the naive path.
        let inst = Instance::new(
            2,
            vec![
                JobSpec::new(
                    JobId(0),
                    Time(0),
                    gen::single(500).into_shared(),
                    StepProfitFn::deadline(Time(600), 5),
                ),
                JobSpec::new(
                    JobId(1),
                    Time(10),
                    gen::single(10_000).into_shared(),
                    StepProfitFn::deadline(Time(50), 9),
                ),
                JobSpec::new(
                    JobId(2),
                    Time(137),
                    gen::single(40).into_shared(),
                    StepProfitFn::deadline(Time(300), 3),
                ),
            ],
        )
        .unwrap();
        let fast = simulate(&inst, &mut Greedy, &SimConfig::default()).unwrap();
        let naive = simulate(
            &inst,
            &mut Greedy,
            &SimConfig {
                fast_forward: false,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert!(fast.same_outcome(&naive));
        assert_eq!(fast.completed(), 2);
        assert_eq!(fast.expired(), 1);
        assert!(
            fast.steps_executed * 10 < naive.steps_executed,
            "fast {} vs naive {}",
            fast.steps_executed,
            naive.steps_executed
        );
    }

    #[test]
    fn non_stable_scheduler_keeps_reference_path() {
        // Fixed does not opt in: steps == ticks even with fast_forward on.
        let inst = one_job(gen::single(50).into_shared(), 0, 200, 1, 1);
        let r = simulate(
            &inst,
            &mut Fixed(Some(vec![(JobId(0), 1)])),
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.steps_executed, r.ticks_simulated);
    }

    /// Aggregating observer for the differential test below.
    #[derive(Default, PartialEq, Debug)]
    struct Rec {
        started: u32,
        ended: u32,
        arrivals: Vec<JobId>,
        window_ticks: u64,
        progress_units: u64,
        nodes_done: u64,
        completions: Vec<(JobId, Time, u64)>,
        expired: Vec<JobId>,
    }

    impl SimObserver for Rec {
        fn on_start(&mut self, _m: u32, _s: Speed, _h: Time) {
            self.started += 1;
        }
        fn on_job_arrival(&mut self, _t: Time, info: &JobInfo) {
            self.arrivals.push(info.id);
        }
        fn on_window(
            &mut self,
            _at: Time,
            ticks: u64,
            _jobs: &[(JobId, u32)],
            _alloc: &[(JobId, u32)],
            progress: &[(JobId, u64)],
        ) {
            self.window_ticks += ticks;
            self.progress_units += progress.iter().map(|&(_, u)| u).sum::<u64>();
        }
        fn on_node_complete(&mut self, _at: Time, _j: JobId, _n: NodeId) {
            self.nodes_done += 1;
        }
        fn on_job_complete(&mut self, at: Time, job: JobId, profit: u64) {
            self.completions.push((job, at, profit));
        }
        fn on_job_expired(&mut self, _at: Time, job: JobId) {
            self.expired.push(job);
        }
        fn on_end(&mut self, _at: Time) {
            self.ended += 1;
        }
    }

    #[test]
    fn observed_run_matches_unobserved_on_both_paths() {
        use dagsched_workload::WorkloadGen;
        for seed in 0..4 {
            let inst = WorkloadGen::standard(4, 30, seed).generate().unwrap();
            let plain = simulate(&inst, &mut Greedy, &SimConfig::default()).unwrap();
            for fast_forward in [true, false] {
                let cfg = SimConfig {
                    fast_forward,
                    ..SimConfig::default()
                };
                let mut rec = Rec::default();
                let r = simulate_observed(&inst, &mut Greedy, &cfg, &mut rec).unwrap();
                // Observation never perturbs the schedule.
                assert!(r.same_outcome(&plain), "seed {seed} ff {fast_forward}");
                // The stream accounts for every tick, every unit of work and
                // every terminal job event — on both execution paths.
                assert_eq!(rec.started, 1);
                assert_eq!(rec.ended, 1);
                assert_eq!(rec.arrivals.len(), inst.jobs().len());
                assert_eq!(rec.window_ticks, r.ticks_simulated);
                assert_eq!(rec.progress_units, r.scaled_units_processed);
                assert_eq!(rec.completions.len(), r.completed());
                assert_eq!(rec.expired.len(), r.expired());
                for &(id, at, profit) in &rec.completions {
                    assert_eq!(r.outcomes[id.index()], JobStatus::Completed { at, profit });
                }
            }
        }
    }

    #[test]
    fn ungrouped_config_resolves_to_the_uniform_platform() {
        for (m, speed) in [(1, Speed::ONE), (6, Speed::new(5, 4).unwrap())] {
            let cfg = SimConfig::at_speed(speed);
            assert_eq!(
                cfg.resolve_groups(m).unwrap(),
                MachineGroups::uniform(m, speed).unwrap()
            );
        }
    }

    /// One job of work `u64::MAX / 2 + 1` at speed 3/2 (work scale 2): a
    /// valid instance whose scaled work overflows `u64`. Both entry points
    /// return `InvalidInstance` instead of panicking when the job arrives;
    /// one unit less still runs.
    #[test]
    fn scaled_work_overflow_is_an_error_not_a_panic() {
        let inst = |work: u64| {
            Instance::new(
                1,
                vec![JobSpec::new(
                    JobId(0),
                    Time(0),
                    gen::single(work).into_shared(),
                    StepProfitFn::deadline(Time(5), 1),
                )],
            )
            .unwrap()
        };
        let cfg = SimConfig::at_speed(Speed::new(3, 2).unwrap());
        let over = inst(u64::MAX / 2 + 1);
        let r = simulate(&over, &mut Greedy, &cfg);
        assert!(matches!(r, Err(SchedError::InvalidInstance(_))), "{r:?}");
        let r = simulate_observed(&over, &mut Greedy, &cfg, &mut crate::NullObserver);
        assert!(matches!(r, Err(SchedError::InvalidInstance(_))), "{r:?}");
        let fits = simulate(&inst(u64::MAX / 2), &mut Greedy, &cfg).unwrap();
        assert_eq!(fits.outcomes[0], JobStatus::Expired { at: Time(5) });
    }

    #[test]
    fn group_total_must_match_m() {
        let cfg = SimConfig::on_groups("4x1,2x2".parse().unwrap());
        assert_eq!(cfg.resolve_groups(6).unwrap().total(), 6);
        for m in [5, 7] {
            assert!(matches!(
                cfg.resolve_groups(m),
                Err(SchedError::InvalidInstance(_))
            ));
        }
    }

    #[test]
    fn work_conservation_over_random_instances() {
        use dagsched_workload::WorkloadGen;
        for seed in 0..5 {
            let inst = WorkloadGen::standard(4, 25, seed).generate().unwrap();
            let r = simulate(&inst, &mut Greedy, &SimConfig::default()).unwrap();
            // Work processed equals the sum of work of completed jobs plus
            // partial progress of expired/unfinished ones: bounded by total.
            let total: Work = inst.jobs().iter().map(|j| j.work()).sum();
            assert!(r.work_processed() <= total.units());
            let completed_work: u64 = inst
                .jobs()
                .iter()
                .filter(|j| r.outcomes[j.id.index()].is_completed())
                .map(|j| j.work().units())
                .sum();
            assert!(r.work_processed() >= completed_work);
        }
    }
}
