//! Runtime observation of a simulation: the [`SimObserver`] hook API.
//!
//! The paper's correctness story rests on invariants that must hold *at all
//! times* — Observation 3's band capacity, Lemma 1's fixed allotments,
//! δ-goodness of every started job — not just in the final accounting. An
//! observer attaches to [`simulate_observed`](crate::simulate_observed) and
//! receives a callback for every semantic event of the run: job arrivals,
//! admission decisions (forwarded from the scheduler), allocation windows,
//! node and job completions, and expiries. The `dagsched-verify` crate builds
//! continuously-checked invariant monitors and a replayable event log on top
//! of this interface.
//!
//! ## The event-stream equivalence contract
//!
//! Both engine execution paths — the naive per-tick reference path and the
//! event-driven fast-forward path — emit the **same** event stream, making
//! the stream itself a third equivalence oracle (beyond
//! [`SimResult`](crate::SimResult) equality and the per-scheduler
//! differential tests). The one freedom the two paths have is window
//! granularity: the reference path reports each tick as a width-1
//! [`on_window`](SimObserver::on_window), while the fast-forward path reports
//! a whole stable stretch as one wide window. Because a stable window has, by
//! construction, a constant allocation and constant ready counts, adjacent
//! windows with identical `(jobs, alloc)` can be coalesced losslessly —
//! which is exactly what `dagsched-verify`'s `EventLog` does before
//! serializing, restoring byte-identical streams.
//!
//! ## Ordering contract
//!
//! Within one engine step at time `t`, callbacks fire in this order:
//!
//! 1. [`on_job_arrival`](SimObserver::on_job_arrival) for each job with
//!    `arrival ≤ t`, in arrival order;
//! 2. [`on_admission`](SimObserver::on_admission) for every decision the
//!    scheduler recorded while handling those arrivals;
//! 3. [`on_job_expired`](SimObserver::on_job_expired) for each zero-tail job
//!    past its last useful moment;
//! 4. [`on_window`](SimObserver::on_window) for the tick (or bulk window)
//!    starting at `t`;
//! 5. on the fast-forward path, when the step runs through the completion
//!    tick `t'` of the earliest node it runs: `on_window` for the bulk
//!    window of quiet ticks before `t'` at step 4, then `on_window` for
//!    `t'` alone (width 1);
//! 6. [`on_node_complete`](SimObserver::on_node_complete) for each node
//!    finished during the executed tick, in execution order (never fires
//!    inside a bulk window — a bulk window ends strictly before any node
//!    completes);
//! 7. [`on_job_complete`](SimObserver::on_job_complete) at the end of the
//!    executed tick for each job whose last node finished, followed by the
//!    admission decisions the scheduler recorded during its completion
//!    hooks.
//!
//! [`on_start`](SimObserver::on_start) opens the run and
//! [`on_end`](SimObserver::on_end) closes it unconditionally.

use crate::sched_api::JobInfo;
use dagsched_core::{JobId, MachineGroups, NodeId, Speed, Time};

/// Why a scheduler declined (or deferred) starting a job.
///
/// The variants cover the admission vocabularies of the production
/// schedulers: scheduler S's δ-good / band-capacity tests, EDF-AC's
/// demand-bound test, and the unconditional ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionReason {
    /// Condition (2): some density band `[v_j, c·v_j)` would exceed `b·m`.
    BandCapacity,
    /// The job is not δ-good: `D < (1+2δ)·x` at its computed allotment.
    NotDeltaGood,
    /// The deadline is infeasible at any allotment (not δ-good even at
    /// `n = m`).
    Infeasible,
    /// EDF-AC: total admitted demand by some deadline would exceed
    /// `m · (d − now)`.
    DemandBound,
    /// EDF-AC: the job's span does not fit its own window.
    SpanInfeasible,
    /// The job's absolute deadline passed while it waited.
    DeadlinePassed,
    /// No admission control was applied (ablation schedulers).
    Unconditional,
}

impl AdmissionReason {
    /// Stable lower-case token for serialization.
    pub fn token(self) -> &'static str {
        match self {
            AdmissionReason::BandCapacity => "band-capacity",
            AdmissionReason::NotDeltaGood => "not-delta-good",
            AdmissionReason::Infeasible => "infeasible",
            AdmissionReason::DemandBound => "demand-bound",
            AdmissionReason::SpanInfeasible => "span-infeasible",
            AdmissionReason::DeadlinePassed => "deadline-passed",
            AdmissionReason::Unconditional => "unconditional",
        }
    }
}

/// A scheduler's verdict on one job at one decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The job was started (admitted to the running queue).
    Admitted,
    /// The job was parked in a waiting queue and may start at a later event.
    Deferred(AdmissionReason),
    /// The job was dropped permanently.
    Rejected(AdmissionReason),
}

/// One admission decision, as drained from the scheduler by the engine and
/// forwarded to observers via [`SimObserver::on_admission`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionEvent {
    /// The job decided on.
    pub job: JobId,
    /// The verdict.
    pub decision: AdmissionDecision,
}

/// Observer of a simulation run. All methods default to no-ops so observers
/// implement only what they watch.
///
/// See the [module docs](self) for the ordering contract and the event-stream
/// equivalence guarantee between the two engine execution paths.
pub trait SimObserver {
    /// Whether the engine should pay the (small) cost of assembling event
    /// payloads — per-job progress vectors and node-completion lists.
    /// [`NullObserver`] returns `false`, which lets the optimizer erase all
    /// observation work from the unobserved path.
    fn is_active(&self) -> bool {
        true
    }

    /// The run is starting on `m` processors at `speed`, with the given
    /// horizon. On a heterogeneous platform `speed` is the fastest group's
    /// speed and [`on_platform`](Self::on_platform) follows with the full
    /// group description.
    fn on_start(&mut self, m: u32, speed: Speed, horizon: Time) {
        let _ = (m, speed, horizon);
    }

    /// The run's platform is heterogeneous: the full machine-group
    /// description, fired immediately after [`on_start`](Self::on_start).
    /// **Never fires on a uniform platform** — uniform runs keep the exact
    /// pre-group event stream.
    fn on_platform(&mut self, groups: &MachineGroups) {
        let _ = groups;
    }

    /// A job arrived (the scheduler's arrival hook has already run).
    fn on_job_arrival(&mut self, now: Time, info: &JobInfo) {
        let _ = (now, info);
    }

    /// The scheduler recorded an admission decision.
    fn on_admission(&mut self, now: Time, event: AdmissionEvent) {
        let _ = (now, event);
    }

    /// `ticks` consecutive ticks starting at `at` ran with the allocation
    /// `alloc` over alive jobs `jobs` (the scheduler's tick view:
    /// `(id, ready_count)` pairs). `progress` reports the scaled work units
    /// each allocated job advanced across the whole window, aligned with
    /// `alloc`. The reference path always reports `ticks == 1`; the
    /// fast-forward path reports whole stable windows.
    fn on_window(
        &mut self,
        at: Time,
        ticks: u64,
        jobs: &[(JobId, u32)],
        alloc: &[(JobId, u32)],
        progress: &[(JobId, u64)],
    ) {
        let _ = (at, ticks, jobs, alloc, progress);
    }

    /// A DAG node of `job` finished during tick `at`.
    fn on_node_complete(&mut self, at: Time, job: JobId, node: NodeId) {
        let _ = (at, job, node);
    }

    /// `job` completed at time `at`, earning `profit`.
    fn on_job_complete(&mut self, at: Time, job: JobId, profit: u64) {
        let _ = (at, job, profit);
    }

    /// `job` was abandoned at `at`: completing could no longer earn above
    /// its profit tail.
    fn on_job_expired(&mut self, at: Time, job: JobId) {
        let _ = (at, job);
    }

    /// The run ended at time `at`.
    fn on_end(&mut self, at: Time) {
        let _ = at;
    }
}

/// The do-nothing observer: [`simulate`](crate::simulate) runs with this, and
/// its `is_active() == false` lets the engine skip every payload-assembly
/// branch — the unobserved path monomorphizes to exactly the pre-observer
/// code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SimObserver for NullObserver {
    #[inline(always)]
    fn is_active(&self) -> bool {
        false
    }
}

/// Fan-out combinator: forwards every callback to each observer in order.
///
/// ```
/// # use dagsched_engine::observe::{Observers, SimObserver, NullObserver};
/// let mut a = NullObserver;
/// let mut b = NullObserver;
/// let mut set = Observers::new(vec![&mut a, &mut b]);
/// assert!(!set.is_active(), "all-inactive sets stay inactive");
/// ```
pub struct Observers<'a> {
    inner: Vec<&'a mut dyn SimObserver>,
}

impl<'a> Observers<'a> {
    /// Compose a set of observers.
    pub fn new(inner: Vec<&'a mut dyn SimObserver>) -> Observers<'a> {
        Observers { inner }
    }
}

impl SimObserver for Observers<'_> {
    fn is_active(&self) -> bool {
        self.inner.iter().any(|o| o.is_active())
    }
    fn on_start(&mut self, m: u32, speed: Speed, horizon: Time) {
        for o in &mut self.inner {
            o.on_start(m, speed, horizon);
        }
    }
    fn on_platform(&mut self, groups: &MachineGroups) {
        for o in &mut self.inner {
            o.on_platform(groups);
        }
    }
    fn on_job_arrival(&mut self, now: Time, info: &JobInfo) {
        for o in &mut self.inner {
            o.on_job_arrival(now, info);
        }
    }
    fn on_admission(&mut self, now: Time, event: AdmissionEvent) {
        for o in &mut self.inner {
            o.on_admission(now, event);
        }
    }
    fn on_window(
        &mut self,
        at: Time,
        ticks: u64,
        jobs: &[(JobId, u32)],
        alloc: &[(JobId, u32)],
        progress: &[(JobId, u64)],
    ) {
        for o in &mut self.inner {
            o.on_window(at, ticks, jobs, alloc, progress);
        }
    }
    fn on_node_complete(&mut self, at: Time, job: JobId, node: NodeId) {
        for o in &mut self.inner {
            o.on_node_complete(at, job, node);
        }
    }
    fn on_job_complete(&mut self, at: Time, job: JobId, profit: u64) {
        for o in &mut self.inner {
            o.on_job_complete(at, job, profit);
        }
    }
    fn on_job_expired(&mut self, at: Time, job: JobId) {
        for o in &mut self.inner {
            o.on_job_expired(at, job);
        }
    }
    fn on_end(&mut self, at: Time) {
        for o in &mut self.inner {
            o.on_end(at);
        }
    }
}

impl SimObserver for &mut dyn SimObserver {
    fn is_active(&self) -> bool {
        (**self).is_active()
    }
    fn on_start(&mut self, m: u32, speed: Speed, horizon: Time) {
        (**self).on_start(m, speed, horizon);
    }
    fn on_platform(&mut self, groups: &MachineGroups) {
        (**self).on_platform(groups);
    }
    fn on_job_arrival(&mut self, now: Time, info: &JobInfo) {
        (**self).on_job_arrival(now, info);
    }
    fn on_admission(&mut self, now: Time, event: AdmissionEvent) {
        (**self).on_admission(now, event);
    }
    fn on_window(
        &mut self,
        at: Time,
        ticks: u64,
        jobs: &[(JobId, u32)],
        alloc: &[(JobId, u32)],
        progress: &[(JobId, u64)],
    ) {
        (**self).on_window(at, ticks, jobs, alloc, progress);
    }
    fn on_node_complete(&mut self, at: Time, job: JobId, node: NodeId) {
        (**self).on_node_complete(at, job, node);
    }
    fn on_job_complete(&mut self, at: Time, job: JobId, profit: u64) {
        (**self).on_job_complete(at, job, profit);
    }
    fn on_job_expired(&mut self, at: Time, job: JobId) {
        (**self).on_job_expired(at, job);
    }
    fn on_end(&mut self, at: Time) {
        (**self).on_end(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::Work;
    use dagsched_workload::StepProfitFn;

    /// Counts every callback; used to check fan-out and default no-ops.
    #[derive(Default)]
    struct Counter {
        calls: usize,
    }

    impl SimObserver for Counter {
        fn on_start(&mut self, _m: u32, _s: Speed, _h: Time) {
            self.calls += 1;
        }
        fn on_job_arrival(&mut self, _t: Time, _i: &JobInfo) {
            self.calls += 1;
        }
        fn on_admission(&mut self, _t: Time, _e: AdmissionEvent) {
            self.calls += 1;
        }
        fn on_window(
            &mut self,
            _a: Time,
            _t: u64,
            _j: &[(JobId, u32)],
            _al: &[(JobId, u32)],
            _p: &[(JobId, u64)],
        ) {
            self.calls += 1;
        }
        fn on_node_complete(&mut self, _a: Time, _j: JobId, _n: NodeId) {
            self.calls += 1;
        }
        fn on_job_complete(&mut self, _a: Time, _j: JobId, _p: u64) {
            self.calls += 1;
        }
        fn on_job_expired(&mut self, _a: Time, _j: JobId) {
            self.calls += 1;
        }
        fn on_end(&mut self, _a: Time) {
            self.calls += 1;
        }
    }

    #[test]
    fn fan_out_reaches_every_observer_once_per_event() {
        let mut a = Counter::default();
        let mut b = Counter::default();
        {
            let mut set = Observers::new(vec![&mut a, &mut b]);
            assert!(set.is_active());
            set.on_start(4, Speed::ONE, Time(100));
            set.on_job_arrival(
                Time(0),
                &JobInfo {
                    id: JobId(0),
                    arrival: Time(0),
                    work: Work(5),
                    span: Work(1),
                    profit: StepProfitFn::deadline(Time(10), 1),
                },
            );
            set.on_admission(
                Time(0),
                AdmissionEvent {
                    job: JobId(0),
                    decision: AdmissionDecision::Admitted,
                },
            );
            set.on_window(
                Time(0),
                3,
                &[(JobId(0), 2)],
                &[(JobId(0), 1)],
                &[(JobId(0), 3)],
            );
            set.on_node_complete(Time(3), JobId(0), NodeId(0));
            set.on_job_complete(Time(4), JobId(0), 1);
            set.on_job_expired(Time(4), JobId(1));
            set.on_end(Time(5));
        }
        assert_eq!(a.calls, 8);
        assert_eq!(b.calls, 8);
    }

    #[test]
    fn null_observer_is_inactive_and_ignores_everything() {
        let mut n = NullObserver;
        assert!(!n.is_active());
        n.on_start(1, Speed::ONE, Time(1));
        n.on_end(Time(1));
        let mut set = Observers::new(vec![]);
        assert!(!set.is_active(), "empty set is inactive");
        set.on_end(Time(0));
    }

    #[test]
    fn reason_tokens_are_distinct() {
        use AdmissionReason::*;
        let all = [
            BandCapacity,
            NotDeltaGood,
            Infeasible,
            DemandBound,
            SpanInfeasible,
            DeadlinePassed,
            Unconditional,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.token(), b.token());
            }
        }
    }
}
