//! # dagsched-verify
//!
//! Continuously-checked runtime invariants for the simulation engine.
//!
//! The paper's guarantees are *always* statements: Observation 3's band
//! capacity `N(Q, v_j, c·v_j) ≤ b·m`, Lemma 1's allotment bound, and the
//! δ-goodness of every started job must hold at every moment of a run, not
//! just in the final accounting. The post-hoc tests in
//! `tests/theory_invariants.rs` cannot see a transient mid-run violation
//! that self-corrects; the observers in this crate can, because they hook
//! the engine's event stream ([`SimObserver`]) and re-verify the invariants
//! at every event from their own independent bookkeeping.
//!
//! * [`BandCapacityChecker`] — Observation 3 from the live started set;
//! * [`AllotmentChecker`] — Lemma 1 and the exact-allotment discipline;
//! * [`DeltaGoodChecker`] — δ-goodness / δ-freshness of every admission;
//! * [`WorkConservationChecker`] — exact scaled-unit work accounting;
//! * [`EventLog`] — the full stream as compact tokens, rendered as JSONL on
//!   demand, window-coalesced so that the reference and fast-forward
//!   engine paths record equal logs (and so serialize byte-identically);
//! * [`InvariantSuite`] — all four checkers bundled for scheduler S.
//!
//! With the `verify-strict` cargo feature, any violation panics at the
//! offending event (the CI mode); without it, violations accumulate and the
//! caller inspects [`violations`](BandCapacityChecker::violations). Each
//! checker's `lenient()` forces collection regardless of the feature — the
//! mutant tests use it to observe violations instead of unwinding.

#![warn(missing_docs)]

pub mod allot;
pub mod band;
pub mod context;
pub mod good;
pub mod log;
pub mod model;
pub mod violation;
pub mod work;

pub use allot::AllotmentChecker;
pub use band::{band_overload, BandCapacityChecker};
pub use good::DeltaGoodChecker;
pub use log::EventLog;
pub use model::{job_model, JobModel};
pub use violation::Violation;
pub use work::WorkConservationChecker;

use dagsched_core::{AlgoParams, JobId, MachineGroups, NodeId, Speed, Time};
use dagsched_engine::{AdmissionEvent, JobInfo, SimObserver};

/// All scheduler-S invariant checkers in one observer.
///
/// Convenience bundle for tests and sweeps: forwards every event to the
/// band, allotment, δ-good and work-conservation checkers with consistent
/// parameters. For the work-conserving variant S-wc, call
/// [`allow_backfill`](InvariantSuite::allow_backfill).
#[derive(Debug)]
pub struct InvariantSuite {
    /// Observation 3.
    pub band: BandCapacityChecker,
    /// Lemma 1 + allocation discipline.
    pub allot: AllotmentChecker,
    /// δ-goodness / δ-freshness of admissions.
    pub good: DeltaGoodChecker,
    /// Exact work accounting.
    pub work: WorkConservationChecker,
}

impl InvariantSuite {
    /// Create the suite for scheduler S with the given constants.
    pub fn for_scheduler_s(params: AlgoParams) -> InvariantSuite {
        InvariantSuite {
            band: BandCapacityChecker::new(params),
            allot: AllotmentChecker::new(params),
            good: DeltaGoodChecker::new(params),
            work: WorkConservationChecker::new(),
        }
    }

    /// Mirror the scheduler's speed hint in every model-based checker.
    pub fn with_speed_hint(mut self, s: f64) -> InvariantSuite {
        self.band = self.band.with_speed_hint(s);
        self.allot = self.allot.with_speed_hint(s);
        self.good = self.good.with_speed_hint(s);
        self
    }

    /// Relax the exact-allotment discipline for S-wc's backfill.
    pub fn allow_backfill(mut self) -> InvariantSuite {
        self.allot = self.allot.allow_backfill();
        self
    }

    /// Collect violations instead of panicking under `verify-strict`.
    pub fn lenient(mut self) -> InvariantSuite {
        self.band = self.band.lenient();
        self.allot = self.allot.lenient();
        self.good = self.good.lenient();
        self.work = self.work.lenient();
        self
    }

    /// Every violation recorded by any checker.
    pub fn violations(&self) -> Vec<&Violation> {
        self.band
            .violations()
            .iter()
            .chain(self.allot.violations())
            .chain(self.good.violations())
            .chain(self.work.violations())
            .collect()
    }

    /// Panic with a readable list if any checker recorded a violation.
    pub fn assert_clean(&self) {
        let vs = self.violations();
        assert!(
            vs.is_empty(),
            "{} invariant violation(s):\n{}",
            vs.len(),
            vs.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

impl SimObserver for InvariantSuite {
    fn on_start(&mut self, m: u32, speed: Speed, horizon: Time) {
        context::reset_event_index();
        context::bump_event_index();
        self.band.on_start(m, speed, horizon);
        self.allot.on_start(m, speed, horizon);
        self.good.on_start(m, speed, horizon);
        self.work.on_start(m, speed, horizon);
    }
    fn on_platform(&mut self, groups: &MachineGroups) {
        context::bump_event_index();
        self.band.on_platform(groups);
        self.allot.on_platform(groups);
        self.good.on_platform(groups);
        self.work.on_platform(groups);
    }
    fn on_job_arrival(&mut self, now: Time, info: &JobInfo) {
        context::bump_event_index();
        // The model-based checkers share one configuration (every builder
        // above sets it on all three), so derive the model once.
        let model = self.band.models.derive(info);
        for models in [
            &mut self.band.models,
            &mut self.allot.models,
            &mut self.good.models,
        ] {
            models.insert(info.id, model);
        }
        self.work.on_job_arrival(now, info);
    }
    fn on_admission(&mut self, now: Time, event: AdmissionEvent) {
        context::bump_event_index();
        self.band.on_admission(now, event);
        self.allot.on_admission(now, event);
        self.good.on_admission(now, event);
        self.work.on_admission(now, event);
    }
    fn on_window(
        &mut self,
        at: Time,
        ticks: u64,
        jobs: &[(JobId, u32)],
        alloc: &[(JobId, u32)],
        progress: &[(JobId, u64)],
    ) {
        context::bump_event_index();
        self.band.on_window(at, ticks, jobs, alloc, progress);
        self.allot.on_window(at, ticks, jobs, alloc, progress);
        self.good.on_window(at, ticks, jobs, alloc, progress);
        self.work.on_window(at, ticks, jobs, alloc, progress);
    }
    fn on_node_complete(&mut self, at: Time, job: JobId, node: NodeId) {
        context::bump_event_index();
        self.band.on_node_complete(at, job, node);
        self.allot.on_node_complete(at, job, node);
        self.good.on_node_complete(at, job, node);
        self.work.on_node_complete(at, job, node);
    }
    fn on_job_complete(&mut self, at: Time, job: JobId, profit: u64) {
        context::bump_event_index();
        self.band.on_job_complete(at, job, profit);
        self.allot.on_job_complete(at, job, profit);
        self.good.on_job_complete(at, job, profit);
        self.work.on_job_complete(at, job, profit);
    }
    fn on_job_expired(&mut self, at: Time, job: JobId) {
        context::bump_event_index();
        self.band.on_job_expired(at, job);
        self.allot.on_job_expired(at, job);
        self.good.on_job_expired(at, job);
        self.work.on_job_expired(at, job);
    }
    fn on_end(&mut self, at: Time) {
        context::bump_event_index();
        self.band.on_end(at);
        self.allot.on_end(at);
        self.good.on_end(at);
        self.work.on_end(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::Work;
    use dagsched_workload::StepProfitFn;

    /// The suite derives each arrival's model once and hands it to all
    /// three model-based checkers, under the machine size of `on_start`.
    #[test]
    fn suite_hands_every_model_checker_the_arrival_model() {
        let params = AlgoParams::from_epsilon(1.0).unwrap();
        let mut suite = InvariantSuite::for_scheduler_s(params);
        suite.on_start(4, Speed::ONE, Time(100));
        let info = JobInfo {
            id: JobId(3),
            arrival: Time(0),
            work: Work(40),
            span: Work(4),
            profit: StepProfitFn::deadline(Time(50), 1),
        };
        suite.on_job_arrival(Time(0), &info);
        let want = job_model(&info, &params, 4, 1.0);
        for models in [&suite.band.models, &suite.allot.models, &suite.good.models] {
            let got = models.get(JobId(3)).expect("model handed over");
            assert_eq!((got.allot, got.density), (want.allot, want.density));
        }
    }

    /// Regression: the suite must forward `on_platform` to its members.
    /// When it was swallowed, the work checker kept the reporting speed's
    /// scale/units (here 2/1 → scale 1, 2 units/proc) and flagged a
    /// legitimate fast-group window (4 units on the 1x2 processor, work
    /// scaled by the group lcm 2) as a violation.
    #[test]
    fn suite_forwards_on_platform_to_the_work_checker() {
        let groups: MachineGroups = "1x3/2,1x2".parse().unwrap();
        let mut suite = InvariantSuite::for_scheduler_s(AlgoParams::from_epsilon(1.0).unwrap())
            .allow_backfill()
            .lenient();
        suite.on_start(2, Speed::new(2, 1).unwrap(), Time(100));
        suite.on_platform(&groups);
        suite.on_job_arrival(
            Time(0),
            &JobInfo {
                id: JobId(0),
                arrival: Time(0),
                work: Work(3),
                span: Work(3),
                profit: StepProfitFn::deadline(Time(50), 1),
            },
        );
        suite.on_admission(
            Time(0),
            AdmissionEvent {
                job: JobId(0),
                decision: dagsched_engine::AdmissionDecision::Admitted,
            },
        );
        // One tick on the double-speed processor: 4 scaled units against a
        // scaled total of 3 · lcm = 6. Legitimate under the group rates,
        // impossible under the un-forwarded scalar ones.
        suite.on_window(
            Time(0),
            1,
            &[(JobId(0), 1)],
            &[(JobId(0), 1)],
            &[(JobId(0), 4)],
        );
        let vs: Vec<String> = suite
            .work
            .violations()
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert!(vs.is_empty(), "work checker misfired: {vs:?}");
    }
}
