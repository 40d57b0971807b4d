//! A complete online problem instance.

use crate::job::JobSpec;
use dagsched_core::{JobId, Result, SchedError, Time, Work, MAX_PROCESSORS};

/// A machine size plus jobs sorted by arrival time.
#[derive(Debug, Clone)]
pub struct Instance {
    m: u32,
    jobs: Vec<JobSpec>,
    /// Σ W_i, checked against `u64` overflow at construction.
    total_work: Work,
    /// Max over jobs of [`JobSpec::last_useful_abs`], computed at
    /// construction.
    horizon: Time,
    /// `(last_useful_abs, id)` of every zero-tail job, ascending; computed
    /// at construction.
    expiry_order: Vec<(Time, JobId)>,
}

/// Aggregate facts about an instance, for experiment reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceStats {
    /// Number of jobs.
    pub n_jobs: usize,
    /// Σ W_i.
    pub total_work: Work,
    /// Σ max-profit.
    pub total_profit: u64,
    /// First arrival.
    pub first_arrival: Time,
    /// Last "useful" time: max over jobs of arrival + last profit bound.
    pub horizon: Time,
    /// Offered load `ΣW / (m · (horizon − first_arrival))`; > 1 means
    /// overload (not all work can possibly finish in its useful window).
    pub load_factor: f64,
    /// Mean parallelism `W/L` across jobs.
    pub mean_parallelism: f64,
}

impl Instance {
    /// Validate and build an instance.
    ///
    /// # Errors
    /// * `m == 0` or `m >` [`MAX_PROCESSORS`],
    /// * no jobs,
    /// * job ids not dense in order (`jobs[i].id.index() == i`),
    /// * arrivals not sorted non-decreasingly,
    /// * total work or total max profit overflowing `u64`.
    pub fn new(m: u32, jobs: Vec<JobSpec>) -> Result<Instance> {
        if m == 0 {
            return Err(SchedError::InvalidInstance("m must be positive".into()));
        }
        if m > MAX_PROCESSORS {
            return Err(SchedError::InvalidInstance(format!(
                "m must be at most {MAX_PROCESSORS}"
            )));
        }
        if jobs.is_empty() {
            return Err(SchedError::InvalidInstance("no jobs".into()));
        }
        for (i, j) in jobs.iter().enumerate() {
            if j.max_profit() == 0 {
                return Err(SchedError::InvalidInstance(format!(
                    "job {i} has maximum profit 0; profits must be positive"
                )));
            }
            if j.id.index() != i {
                return Err(SchedError::InvalidInstance(format!(
                    "job at position {i} has id {}; ids must be dense and ordered",
                    j.id
                )));
            }
        }
        if jobs.windows(2).any(|w| w[1].arrival < w[0].arrival) {
            return Err(SchedError::InvalidInstance(
                "jobs must be sorted by arrival".into(),
            ));
        }
        let (mut work, mut profit, mut horizon, mut zero_tail) = (0u64, 0u64, Time::ZERO, 0);
        for j in &jobs {
            horizon = horizon.max(j.last_useful_abs());
            zero_tail += usize::from(j.profit.tail_value() == 0);
            work = work
                .checked_add(j.work().units())
                .ok_or_else(|| SchedError::InvalidInstance("total work overflows u64".into()))?;
            profit = profit.checked_add(j.max_profit()).ok_or_else(|| {
                SchedError::InvalidInstance("total max profit overflows u64".into())
            })?;
        }
        let mut expiry_order = Vec::with_capacity(zero_tail);
        expiry_order.extend(
            jobs.iter()
                .filter(|j| j.profit.tail_value() == 0)
                .map(|j| (j.last_useful_abs(), j.id)),
        );
        expiry_order.sort_unstable();
        Ok(Instance {
            m,
            jobs,
            total_work: Work(work),
            horizon,
            expiry_order,
        })
    }

    /// Number of processors.
    #[inline]
    pub fn m(&self) -> u32 {
        self.m
    }

    /// The jobs, sorted by arrival, indexed by [`JobId`].
    #[inline]
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Number of jobs.
    #[inline]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Always false (construction requires ≥ 1 job); for clippy symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Σ W_i over every job (fits `u64`: [`new`](Self::new) checks it).
    #[inline]
    pub fn total_work(&self) -> Work {
        self.total_work
    }

    /// Last "useful" time: max over jobs of arrival + last profit bound.
    /// O(1): [`new`](Self::new) computes it.
    #[inline]
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Every zero-tail job's expiry boundary as `(last_useful_abs, id)`,
    /// strictly ascending (ids break ties). The boundary is fixed by the
    /// job, so [`new`](Self::new) sorts the list once; the engine's event
    /// kernel walks it with a cursor. Tail-profit jobs never expire and are
    /// absent.
    #[inline]
    pub fn expiry_order(&self) -> &[(Time, JobId)] {
        &self.expiry_order
    }

    /// Compute aggregate statistics.
    pub fn stats(&self) -> InstanceStats {
        let n_jobs = self.jobs.len();
        let total_work = self.total_work;
        let total_profit: u64 = self.jobs.iter().map(|j| j.max_profit()).sum();
        let first_arrival = self.jobs.first().map(|j| j.arrival).unwrap_or(Time::ZERO);
        let horizon = self.horizon;
        let window = horizon.since(first_arrival).max(1);
        let load_factor = total_work.as_f64() / (self.m as f64 * window as f64);
        let mean_parallelism =
            self.jobs.iter().map(|j| j.dag.parallelism()).sum::<f64>() / n_jobs as f64;
        InstanceStats {
            n_jobs,
            total_work,
            total_profit,
            first_arrival,
            horizon,
            load_factor,
            mean_parallelism,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profit::StepProfitFn;
    use dagsched_dag::gen;

    fn job(id: u32, arrival: u64, width: u32, d: u64, p: u64) -> JobSpec {
        JobSpec::new(
            JobId(id),
            Time(arrival),
            gen::block(width, 2).into_shared(),
            StepProfitFn::deadline(Time(d), p),
        )
    }

    #[test]
    fn valid_instance_and_stats() {
        let inst = Instance::new(4, vec![job(0, 0, 4, 10, 5), job(1, 5, 8, 10, 3)]).unwrap();
        assert_eq!(inst.m(), 4);
        assert_eq!(inst.len(), 2);
        assert!(!inst.is_empty());
        let s = inst.stats();
        assert_eq!(s.n_jobs, 2);
        assert_eq!(s.total_work, Work(8 + 16));
        assert_eq!(s.total_profit, 8);
        assert_eq!(s.first_arrival, Time(0));
        assert_eq!(s.horizon, Time(15));
        assert!((s.load_factor - 24.0 / (4.0 * 15.0)).abs() < 1e-12);
        // block(4): parallelism 4; block(8): parallelism 8 -> mean 6.
        assert!((s.mean_parallelism - 6.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_instances() {
        assert!(Instance::new(0, vec![job(0, 0, 1, 5, 1)]).is_err(), "m = 0");
        assert!(Instance::new(2, vec![]).is_err(), "no jobs");
        assert!(
            Instance::new(2, vec![job(1, 0, 1, 5, 1)]).is_err(),
            "non-dense ids"
        );
        assert!(
            Instance::new(2, vec![job(0, 9, 1, 5, 1), job(1, 3, 1, 5, 1)]).is_err(),
            "unsorted arrivals"
        );
    }

    /// Two jobs of work 2^63 each: every job is valid on its own, but the
    /// instance total overflows, which `stats` (and the engine's automatic
    /// horizon through it) would sum. Likewise for the max-profit total.
    #[test]
    fn totals_overflowing_u64_are_rejected() {
        let huge = |id: u32, work: u64, profit: u64| {
            JobSpec::new(
                JobId(id),
                Time(0),
                gen::single(work).into_shared(),
                StepProfitFn::deadline(Time(10), profit),
            )
        };
        let work = Instance::new(1, vec![huge(0, 1 << 63, 1), huge(1, 1 << 63, 1)]);
        assert!(
            matches!(work, Err(SchedError::InvalidInstance(ref e)) if e.contains("work")),
            "{work:?}"
        );
        let profit = Instance::new(1, vec![huge(0, 1, u64::MAX), huge(1, 1, 1)]);
        assert!(
            matches!(profit, Err(SchedError::InvalidInstance(ref e)) if e.contains("profit")),
            "{profit:?}"
        );
        // One short of overflowing is still an instance.
        let edge = Instance::new(1, vec![huge(0, 1 << 63, 1), huge(1, (1 << 63) - 1, 1)]).unwrap();
        assert_eq!(edge.total_work(), Work(u64::MAX));
        assert_eq!(edge.stats().total_work, Work(u64::MAX));
    }

    #[test]
    fn overload_has_load_factor_above_one() {
        // 10 wide blocks of work 20 each arriving together, window 10, m=2:
        // 200 work / (2*10) = 10.
        let jobs: Vec<JobSpec> = (0..10).map(|i| job(i, 0, 10, 10, 1)).collect();
        let inst = Instance::new(2, jobs).unwrap();
        assert!(inst.stats().load_factor > 1.0);
    }
}
