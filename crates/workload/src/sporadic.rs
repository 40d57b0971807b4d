//! Sporadic DAG task sets — the recurring-job model of the real-time
//! literature the paper builds on (Saifullah et al., Li et al., Baruah).
//!
//! A [`SporadicTask`] releases an instance of its DAG repeatedly, at least
//! `period` ticks apart (sporadic = period plus random jitter); each
//! instance must finish within the task's relative deadline. A
//! [`SporadicTaskSet`] unrolls all tasks over a horizon into an ordinary
//! online [`Instance`], so every scheduler in the workspace can run it —
//! and returns the job→task map that task-aware schedulers (federated
//! scheduling, in `dagsched-sched`) need.

use crate::instance::Instance;
use crate::job::JobSpec;
use crate::profit::StepProfitFn;
use dagsched_core::{JobId, Result, Rng64, SchedError, Time};
use dagsched_dag::DagJobSpec;
use std::sync::Arc;

/// One recurring DAG task.
#[derive(Debug, Clone)]
pub struct SporadicTask {
    /// The DAG released at each instance.
    pub dag: Arc<DagJobSpec>,
    /// Minimum inter-arrival time.
    pub period: u64,
    /// Relative deadline of each instance (constrained: `≤ period` is the
    /// usual real-time setting, but not enforced).
    pub rel_deadline: Time,
    /// Profit per completed instance (for throughput-style evaluation;
    /// classic real-time analysis treats every instance as mandatory).
    pub profit: u64,
    /// Maximum extra release delay on top of the period (0 = periodic).
    pub jitter: u64,
}

impl SporadicTask {
    /// Utilization `W / period`.
    pub fn utilization(&self) -> f64 {
        self.dag.total_work().as_f64() / self.period as f64
    }

    /// Density `W / δ` with `δ = min(D, period)` (the sequential-task
    /// density used by partitioned EDF tests), as its exact terms `(W, δ)`.
    pub fn density(&self) -> (u64, u64) {
        let delta = self.rel_deadline.ticks().min(self.period);
        (self.dag.total_work().units(), delta)
    }

    /// Is the task *heavy* in the federated-scheduling sense — impossible
    /// to finish on one dedicated processor within its deadline
    /// (`W > D`)?
    pub fn is_heavy(&self) -> bool {
        self.dag.total_work().units() > self.rel_deadline.ticks()
    }
}

/// A set of sporadic tasks plus unrolling parameters.
#[derive(Debug, Clone)]
pub struct SporadicTaskSet {
    /// Machine size.
    pub m: u32,
    /// The tasks.
    pub tasks: Vec<SporadicTask>,
    /// Unroll releases in `[0, horizon)`.
    pub horizon: Time,
    /// Seed for the sporadic jitter.
    pub seed: u64,
}

impl SporadicTaskSet {
    /// Total utilization `Σ W_i / T_i` (the machine is overloaded in the
    /// long run iff this exceeds `m`).
    pub fn total_utilization(&self) -> f64 {
        self.tasks.iter().map(SporadicTask::utilization).sum()
    }

    /// Unroll into an online [`Instance`]; also returns `task_of_job`
    /// (the task index of each job, indexed by job id).
    ///
    /// # Errors
    /// If the configuration yields no releases before the horizon.
    pub fn generate(&self) -> Result<(Instance, Vec<usize>)> {
        if self.tasks.is_empty() {
            return Err(SchedError::InvalidInstance("no tasks".into()));
        }
        let mut rng = Rng64::seed_from(self.seed);
        // (arrival, task index) events.
        let mut events: Vec<(Time, usize)> = Vec::new();
        for (ti, task) in self.tasks.iter().enumerate() {
            assert!(task.period > 0, "period must be positive");
            let mut t = if task.jitter > 0 {
                rng.gen_range_inclusive(0, task.jitter)
            } else {
                0
            };
            while t < self.horizon.ticks() {
                events.push((Time(t), ti));
                let gap = task.period
                    + if task.jitter > 0 {
                        rng.gen_range_inclusive(0, task.jitter)
                    } else {
                        0
                    };
                t += gap;
            }
        }
        if events.is_empty() {
            return Err(SchedError::InvalidInstance(
                "horizon too short: no releases".into(),
            ));
        }
        events.sort_by_key(|&(t, ti)| (t, ti));
        let mut jobs = Vec::with_capacity(events.len());
        let mut task_of_job = Vec::with_capacity(events.len());
        for (i, (arrival, ti)) in events.iter().enumerate() {
            let task = &self.tasks[*ti];
            jobs.push(JobSpec::new(
                JobId(i as u32),
                *arrival,
                task.dag.clone(),
                StepProfitFn::deadline(task.rel_deadline, task.profit),
            ));
            task_of_job.push(*ti);
        }
        Ok((Instance::new(self.m, jobs)?, task_of_job))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_dag::gen;

    fn task(w_width: u32, period: u64, d: u64) -> SporadicTask {
        SporadicTask {
            dag: gen::block(w_width, 2).into_shared(),
            period,
            rel_deadline: Time(d),
            profit: 1,
            jitter: 0,
        }
    }

    #[test]
    fn utilization_and_density() {
        let t = task(10, 40, 25); // W = 20
        assert!((t.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(t.density(), (20, 25));
        assert!(!t.is_heavy());
        let heavy = task(20, 100, 30); // W = 40 > D = 30
        assert!(heavy.is_heavy());
        // Exact: W = 2^53 + 1 and D = 2^53 round to the same `f64`.
        let mut edge = task(1, 100, 1 << 53);
        edge.dag = gen::single((1 << 53) + 1).into_shared();
        assert!(edge.is_heavy());
    }

    #[test]
    fn periodic_unrolling_counts_and_order() {
        let set = SporadicTaskSet {
            m: 4,
            tasks: vec![task(2, 10, 10), task(3, 25, 20)],
            horizon: Time(100),
            seed: 0,
        };
        let (inst, map) = set.generate().unwrap();
        // Task 0: releases at 0,10,...,90 = 10; task 1: 0,25,50,75 = 4.
        assert_eq!(inst.len(), 14);
        assert_eq!(map.iter().filter(|&&t| t == 0).count(), 10);
        assert_eq!(map.iter().filter(|&&t| t == 1).count(), 4);
        assert!(inst.jobs().windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // total utilization: 4/10·... task0 W=4 per 10 => .4; task1 W=6 per 25 = .24
        assert!((set.total_utilization() - 0.64).abs() < 1e-12);
    }

    #[test]
    fn sporadic_jitter_spreads_releases_but_respects_min_separation() {
        let mut t = task(2, 10, 10);
        t.jitter = 5;
        let set = SporadicTaskSet {
            m: 2,
            tasks: vec![t],
            horizon: Time(500),
            seed: 7,
        };
        let (inst, _) = set.generate().unwrap();
        let arrivals: Vec<u64> = inst.jobs().iter().map(|j| j.arrival.ticks()).collect();
        for w in arrivals.windows(2) {
            assert!(w[1] - w[0] >= 10, "separation below the period");
            assert!(w[1] - w[0] <= 20, "gap beyond period + 2·jitter");
        }
        // Fewer releases than the strictly periodic 50.
        assert!(arrivals.len() < 50);
        assert!(arrivals.len() > 30);
    }

    #[test]
    fn generate_is_deterministic() {
        let set = SporadicTaskSet {
            m: 2,
            tasks: vec![SporadicTask {
                jitter: 3,
                ..task(2, 10, 10)
            }],
            horizon: Time(200),
            seed: 9,
        };
        let (a, _) = set.generate().unwrap();
        let (b, _) = set.generate().unwrap();
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x.arrival, y.arrival);
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        let empty = SporadicTaskSet {
            m: 2,
            tasks: vec![],
            horizon: Time(10),
            seed: 0,
        };
        assert!(empty.generate().is_err());
        let no_releases = SporadicTaskSet {
            m: 2,
            tasks: vec![task(1, 10, 5)],
            horizon: Time(0),
            seed: 0,
        };
        assert!(no_releases.generate().is_err());
    }
}
