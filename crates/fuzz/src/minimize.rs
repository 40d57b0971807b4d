//! Delta-debugging minimizer for failing instances.
//!
//! Classic ddmin over the job list, then structure shrinking inside each
//! surviving job: clear or drop edges, drop nodes, collapse node works to
//! 1, zero arrivals, and shrink deadlines, profits and the machine count.
//! Every candidate is re-judged by the *same* oracle configuration that
//! found the failure; a shrink step is kept only if some head still fails.
//! The pass loop repeats to a fixpoint under a hard budget of oracle calls,
//! so minimization cost is bounded even on pathological instances.

use crate::ir::{FuzzInstance, FuzzJob};
use crate::oracle::{run_exec_with, OracleSet, Subject};
use dagsched_engine::SimConfig;
use dagsched_workload::Instance;

/// Minimization driver state: the oracle configuration plus a shrinking
/// budget of oracle calls.
struct Shrinker<'a> {
    subject: &'a Subject,
    set: &'a OracleSet,
    base: &'a SimConfig,
    pause_salt: u64,
    budget: u32,
}

impl Shrinker<'_> {
    /// Whether the candidate still fails some oracle head. Consumes budget;
    /// with the budget exhausted every candidate counts as passing, which
    /// freezes the current (already-failing) state.
    fn fails(&mut self, fi: &FuzzInstance) -> bool {
        if self.budget == 0 {
            return false;
        }
        self.budget -= 1;
        match fi.to_instance() {
            Ok(inst) => run_exec_with(
                &inst,
                self.subject,
                self.set,
                self.pause_salt,
                None,
                self.base,
            )
            .failure
            .is_some(),
            Err(_) => false,
        }
    }

    /// Try a transformation; keep it if the result still fails.
    fn try_keep(&mut self, cur: &mut FuzzInstance, cand: FuzzInstance) -> bool {
        if cand != *cur && self.fails(&cand) {
            *cur = cand;
            true
        } else {
            false
        }
    }
}

/// Drop node `node` from a job, remapping edges past it.
fn drop_node(job: &FuzzJob, node: usize) -> FuzzJob {
    let mut out = job.clone();
    out.works.remove(node);
    out.edges = job
        .edges
        .iter()
        .filter(|&&(u, v)| u as usize != node && v as usize != node)
        .map(|&(u, v)| {
            let shift = |x: u32| if x as usize > node { x - 1 } else { x };
            (shift(u), shift(v))
        })
        .collect();
    out
}

/// Shrink `inst` while the oracle configuration keeps failing.
///
/// `base` is the engine configuration the failure was found under — every
/// shrink candidate is re-judged under the same configuration, so a
/// failure specific to (say) a pick policy or a platform shape does not
/// silently vanish during minimization.
///
/// Returns the smallest failing instance found within `max_checks` oracle
/// calls (the original instance if nothing could be removed).
pub fn minimize(
    inst: &Instance,
    subject: &Subject,
    set: &OracleSet,
    pause_salt: u64,
    max_checks: u32,
    base: &SimConfig,
) -> Instance {
    let mut cur = FuzzInstance::from_instance(inst);
    let mut sh = Shrinker {
        subject,
        set,
        base,
        pause_salt,
        budget: max_checks,
    };
    // The IR round-trip can itself perturb behavior (node relabeling,
    // profit-envelope projection); only minimize if the round-tripped
    // instance still fails, otherwise return the original untouched.
    if !sh.fails(&cur) {
        return inst.clone();
    }

    for _round in 0..4 {
        let mut changed = false;

        // 1. ddmin over jobs: remove chunks, halving granularity.
        let mut chunk = (cur.jobs.len() / 2).max(1);
        loop {
            let mut i = 0;
            while i < cur.jobs.len() && cur.jobs.len() > 1 {
                let mut cand = cur.clone();
                let hi = (i + chunk).min(cand.jobs.len());
                cand.jobs.drain(i..hi);
                if !cand.jobs.is_empty() && sh.try_keep(&mut cur, cand) {
                    changed = true;
                } else {
                    i = hi;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }

        // 2. Edges: clear whole jobs' edge sets, then individual edges.
        for j in 0..cur.jobs.len() {
            if !cur.jobs[j].edges.is_empty() {
                let mut cand = cur.clone();
                cand.jobs[j].edges.clear();
                changed |= sh.try_keep(&mut cur, cand);
            }
            let mut e = 0;
            while e < cur.jobs[j].edges.len() {
                let mut cand = cur.clone();
                cand.jobs[j].edges.remove(e);
                if sh.try_keep(&mut cur, cand) {
                    changed = true;
                } else {
                    e += 1;
                }
            }
        }

        // 3. Nodes: drop each, then collapse works to 1.
        for j in 0..cur.jobs.len() {
            let mut k = 0;
            while k < cur.jobs[j].works.len() && cur.jobs[j].works.len() > 1 {
                let mut cand = cur.clone();
                cand.jobs[j] = drop_node(&cand.jobs[j], k);
                if sh.try_keep(&mut cur, cand) {
                    changed = true;
                } else {
                    k += 1;
                }
            }
            for k in 0..cur.jobs[j].works.len() {
                if cur.jobs[j].works[k] > 1 {
                    let mut cand = cur.clone();
                    cand.jobs[j].works[k] = 1;
                    changed |= sh.try_keep(&mut cur, cand);
                }
            }
        }

        // 4. Scalars: zero arrivals, halve deadlines and profits, shrink m.
        for j in 0..cur.jobs.len() {
            if cur.jobs[j].arrival > 0 {
                let mut cand = cur.clone();
                cand.jobs[j].arrival = 0;
                changed |= sh.try_keep(&mut cur, cand);
            }
            while cur.jobs[j].deadline > 1 {
                let mut cand = cur.clone();
                cand.jobs[j].deadline /= 2;
                cand.jobs[j].deadline = cand.jobs[j].deadline.max(1);
                if !sh.try_keep(&mut cur, cand) {
                    break;
                }
                changed = true;
            }
            if cur.jobs[j].profit > 1 {
                let mut cand = cur.clone();
                cand.jobs[j].profit = 1;
                changed |= sh.try_keep(&mut cur, cand);
            }
        }
        while cur.m > 1 {
            let mut cand = cur.clone();
            cand.m /= 2;
            if !sh.try_keep(&mut cur, cand) {
                break;
            }
            changed = true;
        }

        if !changed || sh.budget == 0 {
            break;
        }
    }

    cur.to_instance().unwrap_or_else(|_| inst.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::InvariantProfile;
    use dagsched_core::{JobId, Time};
    use dagsched_engine::{Allocation, JobInfo, OnlineScheduler, TickView};
    use dagsched_workload::WorkloadGen;

    /// A scheduler that allocates a job it never admitted — every instance
    /// with at least one alive job fails the allotment checker, so the
    /// minimizer should be able to shrink hard.
    struct AlwaysBroken;
    impl OnlineScheduler for AlwaysBroken {
        fn name(&self) -> String {
            "always-broken".into()
        }
        fn on_arrival(&mut self, _job: &JobInfo, _now: Time) {}
        fn on_completion(&mut self, _id: JobId, _now: Time) {}
        fn on_expiry(&mut self, _id: JobId, _now: Time) {}
        fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
            view.jobs()
                .first()
                .map(|&(id, _)| (id, 1))
                .into_iter()
                .collect()
        }
    }

    #[test]
    fn minimizer_shrinks_a_universally_failing_instance() {
        let inst = WorkloadGen::standard(4, 14, 3).generate().unwrap();
        let subject = Subject::new(
            "always-broken",
            InvariantProfile::SchedulerS { backfill: false },
            |_m| Box::new(AlwaysBroken),
        );
        let set = OracleSet {
            invariants: true,
            ..OracleSet::NONE
        };
        let base = SimConfig::default();
        assert!(
            run_exec_with(&inst, &subject, &set, 0, None, &base)
                .failure
                .is_some(),
            "precondition: the mutant fails"
        );
        let min = minimize(&inst, &subject, &set, 0, 400, &base);
        assert!(
            run_exec_with(&min, &subject, &set, 0, None, &base)
                .failure
                .is_some(),
            "minimized instance still fails"
        );
        assert_eq!(min.len(), 1, "shrinks to a single job");
        assert_eq!(min.jobs()[0].dag.num_nodes(), 1, "and a single node");
    }
}
