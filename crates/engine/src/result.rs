//! Simulation outcomes and accounting.

use dagsched_core::Time;

/// Terminal (or non-terminal, at horizon) state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Finished all nodes at the given absolute time, earning `profit`.
    Completed {
        /// Completion time.
        at: Time,
        /// Profit paid, `p(at − arrival)`.
        profit: u64,
    },
    /// Abandoned: from `at` on, completing could earn only the zero tail.
    Expired {
        /// The tick the engine abandoned the job.
        at: Time,
    },
    /// Still incomplete when the simulation ended (earns nothing).
    Unfinished,
}

impl JobStatus {
    /// Profit contributed by this job.
    pub fn profit(&self) -> u64 {
        match self {
            JobStatus::Completed { profit, .. } => *profit,
            _ => 0,
        }
    }

    /// True iff completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobStatus::Completed { .. })
    }
}

/// The full result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Name reported by the scheduler.
    pub scheduler: String,
    /// Per-job outcome, indexed by `JobId`.
    pub outcomes: Vec<JobStatus>,
    /// Σ earned profit.
    pub total_profit: u64,
    /// Processor-steps actually consumed, in *unscaled* work units times the
    /// scale (i.e. scaled units); divide by `work_scale` for work units.
    pub scaled_units_processed: u64,
    /// The engine's work scale (speed denominator).
    pub work_scale: u64,
    /// Number of simulated ticks covered by engine iterations (idle gaps
    /// skipped, fast-forward windows counted at their full width). Identical
    /// between the naive and fast-forward execution paths.
    pub ticks_simulated: u64,
    /// Engine scheduling rounds actually executed: one per naive tick plus
    /// one per bulk fast-forward window. Equals `ticks_simulated` on the
    /// naive path; far smaller when fast-forwarding through long stable
    /// stretches. This is the only field the two paths may disagree on.
    pub steps_executed: u64,
    /// Last tick index the engine looked at, plus one.
    pub end_time: Time,
}

impl SimResult {
    /// Completed job count.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_completed()).count()
    }

    /// Expired job count.
    pub fn expired(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, JobStatus::Expired { .. }))
            .count()
    }

    /// Unfinished job count.
    pub fn unfinished(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, JobStatus::Unfinished))
            .count()
    }

    /// Work units processed (exact if every touched node completed or the
    /// scale divides evenly; otherwise floor).
    pub fn work_processed(&self) -> u64 {
        self.scaled_units_processed / self.work_scale
    }

    /// True iff two runs produced the same observable result: everything
    /// except `steps_executed`, which measures engine effort rather than
    /// schedule outcome. The fast-forward equivalence tests assert this
    /// between the naive and event-driven execution paths.
    pub fn same_outcome(&self, other: &SimResult) -> bool {
        self.scheduler == other.scheduler
            && self.outcomes == other.outcomes
            && self.total_profit == other.total_profit
            && self.scaled_units_processed == other.scaled_units_processed
            && self.work_scale == other.work_scale
            && self.ticks_simulated == other.ticks_simulated
            && self.end_time == other.end_time
    }

    /// Completion time of the last completed job, if any.
    pub fn makespan(&self) -> Option<Time> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                JobStatus::Completed { at, .. } => Some(*at),
                _ => None,
            })
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimResult {
        SimResult {
            scheduler: "test".into(),
            outcomes: vec![
                JobStatus::Completed {
                    at: Time(5),
                    profit: 10,
                },
                JobStatus::Expired { at: Time(3) },
                JobStatus::Completed {
                    at: Time(9),
                    profit: 4,
                },
                JobStatus::Unfinished,
            ],
            total_profit: 14,
            scaled_units_processed: 21,
            work_scale: 2,
            ticks_simulated: 9,
            steps_executed: 9,
            end_time: Time(9),
        }
    }

    #[test]
    fn counters() {
        let r = sample();
        assert_eq!(r.completed(), 2);
        assert_eq!(r.expired(), 1);
        assert_eq!(r.unfinished(), 1);
        assert_eq!(r.makespan(), Some(Time(9)));
        assert_eq!(r.work_processed(), 10);
    }

    #[test]
    fn same_outcome_ignores_steps_executed_only() {
        let a = sample();
        let mut b = sample();
        b.steps_executed = 2;
        assert!(a.same_outcome(&b), "engine effort is not an outcome");
        let mut c = sample();
        c.total_profit = 15;
        assert!(!a.same_outcome(&c));
        let mut d = sample();
        d.ticks_simulated = 10;
        assert!(!a.same_outcome(&d));
    }

    #[test]
    fn status_profit() {
        assert_eq!(
            JobStatus::Completed {
                at: Time(1),
                profit: 7
            }
            .profit(),
            7
        );
        assert_eq!(JobStatus::Expired { at: Time(1) }.profit(), 0);
        assert_eq!(JobStatus::Unfinished.profit(), 0);
        assert!(JobStatus::Completed {
            at: Time(1),
            profit: 0
        }
        .is_completed());
        assert!(!JobStatus::Unfinished.is_completed());
    }
}
