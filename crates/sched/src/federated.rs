//! Federated scheduling of sporadic DAG tasks (Li, Chen, Agrawal, Lu,
//! Gill, Saifullah — ECRTS'14), the real-time substrate the paper's
//! related-work section builds on.
//!
//! Federated scheduling partitions the machine statically:
//!
//! * each **heavy** task (`W_i > D_i`: cannot finish on one processor)
//!   receives `n_i = ⌈(W_i − L_i)/(D_i − L_i)⌉` **dedicated** processors —
//!   by the greedy (work-conserving) bound, every instance then meets its
//!   deadline regardless of DAG structure;
//! * **light** tasks run *sequentially* and are partitioned onto the
//!   remaining processors; a processor's light tasks meet deadlines under
//!   EDF if their total density `Σ W/min(D, T)` is at most 1.
//!
//! [`federated_assignment`] computes the partition (a *schedulability
//! test*: `None` means the set is not federated-schedulable on `m`);
//! [`FederatedScheduler`] executes it as an [`OnlineScheduler`], so the
//! guarantee can be checked empirically against the engine.

use dagsched_core::{JobId, Time};
use dagsched_engine::{Allocation, JobInfo, OnlineScheduler, TickView};
use dagsched_workload::sporadic::SporadicTaskSet;
use std::collections::HashMap;

/// The static partition computed by [`federated_assignment`].
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedAssignment {
    /// Dedicated processor count per task (0 for light tasks).
    pub dedicated: Vec<u32>,
    /// For light tasks, the shared processor they are partitioned onto
    /// (`None` for heavy tasks); indices are `0..shared_count`.
    pub shared_core: Vec<Option<u32>>,
    /// Number of processors serving light tasks.
    pub shared_count: u32,
}

impl FederatedAssignment {
    /// Total processors used.
    pub fn processors_used(&self) -> u32 {
        self.dedicated.iter().sum::<u32>() + self.shared_count
    }
}

/// Compute a federated assignment for the task set on `m` processors, or
/// `None` if the schedulability test fails.
///
/// Heavy tasks with `D_i ≤ L_i` are outright infeasible (even infinite
/// processors cannot help) and fail the test immediately.
pub fn federated_assignment(set: &SporadicTaskSet) -> Option<FederatedAssignment> {
    let m = set.m;
    let n_tasks = set.tasks.len();
    let mut dedicated = vec![0u32; n_tasks];
    let mut shared_core = vec![None; n_tasks];
    let mut used = 0u64;

    // Heavy tasks: dedicated allotments.
    for (i, task) in set.tasks.iter().enumerate() {
        if task.is_heavy() {
            let w = task.dag.total_work().units();
            let l = task.dag.span().units();
            let d = task.rel_deadline.ticks();
            if d <= l {
                return None; // infeasible even with unbounded parallelism
            }
            // n_i = ⌈(W − L)/(D − L)⌉, at least one processor.
            let n = (w - l).div_ceil(d - l).max(1);
            used = used.saturating_add(n);
            dedicated[i] = u32::try_from(n).unwrap_or(u32::MAX);
        }
    }
    if used > m as u64 {
        return None;
    }

    // Light tasks: first-fit-decreasing by density onto shared processors,
    // each processor holding total density ≤ 1 (sequential EDF test for
    // constrained-deadline sporadic tasks). A density `W/δ` is kept as its
    // exact terms: the order cross-multiplies them and each processor's
    // load is a reduced fraction.
    let terms = |i: usize| {
        let (w, delta) = set.tasks[i].density();
        (u128::from(w), u128::from(delta))
    };
    let mut light: Vec<usize> = (0..n_tasks).filter(|&i| !set.tasks[i].is_heavy()).collect();
    // Descending density; the stable sort keeps index order on ties.
    light.sort_by(|&a, &b| {
        let ((wa, da), (wb, db)) = (terms(a), terms(b));
        (wb * da).cmp(&(wa * db))
    });
    let max_shared = (m as u64 - used) as u32;
    let mut core_load: Vec<(u128, u128)> = Vec::new();
    for &i in &light {
        let (w, d) = terms(i);
        if d == 0 || w > d {
            return None; // a light task that alone overloads a processor
        }
        let fit = core_load
            .iter()
            .enumerate()
            .find_map(|(c, &load)| add_if_fits(load, w, d).map(|sum| (c, sum)));
        match fit {
            Some((c, sum)) => {
                core_load[c] = sum;
                shared_core[i] = Some(c as u32);
            }
            None => {
                if core_load.len() as u32 >= max_shared {
                    return None;
                }
                shared_core[i] = Some(core_load.len() as u32);
                core_load.push(add_if_fits((0, 1), w, d).expect("w ≤ d fits an empty core"));
            }
        }
    }

    Some(FederatedAssignment {
        dedicated,
        shared_core,
        shared_count: core_load.len() as u32,
    })
}

/// `num/den + w/d` as a reduced fraction if it is at most 1. `None` when it
/// exceeds 1 or an exact term overflows `u128`: an unverifiable sum counts
/// as not fitting, which keeps the schedulability test sound.
fn add_if_fits((num, den): (u128, u128), w: u128, d: u128) -> Option<(u128, u128)> {
    let sum_num = num.checked_mul(d)?.checked_add(w.checked_mul(den)?)?;
    let sum_den = den.checked_mul(d)?;
    if sum_num > sum_den {
        return None;
    }
    let g = gcd(sum_num, sum_den);
    Some((sum_num / g, sum_den / g))
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Executes a [`FederatedAssignment`]: heavy tasks always receive their
/// dedicated allotment; each shared processor runs EDF over the alive jobs
/// of its light tasks, one processor at a time (sequential execution).
#[derive(Debug)]
pub struct FederatedScheduler {
    assignment: FederatedAssignment,
    /// Task index per job id.
    task_of_job: Vec<usize>,
    /// Alive jobs with their absolute deadlines.
    alive: HashMap<JobId, Time>,
}

impl FederatedScheduler {
    /// Create the scheduler. `task_of_job` comes from
    /// [`SporadicTaskSet::generate`].
    pub fn new(assignment: FederatedAssignment, task_of_job: Vec<usize>) -> FederatedScheduler {
        FederatedScheduler {
            assignment,
            task_of_job,
            alive: HashMap::new(),
        }
    }

    fn task_of(&self, id: JobId) -> usize {
        self.task_of_job[id.index()]
    }
}

impl OnlineScheduler for FederatedScheduler {
    fn name(&self) -> String {
        "FEDERATED".into()
    }

    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        let d = info.abs_deadline().unwrap_or_else(|| {
            info.arrival
                .saturating_add(info.profit.last_useful_time().ticks())
        });
        self.alive.insert(info.id, d);
    }

    fn on_completion(&mut self, id: JobId, _now: Time) {
        self.alive.remove(&id);
    }

    fn on_expiry(&mut self, id: JobId, _now: Time) {
        self.alive.remove(&id);
    }

    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut out: Allocation = Vec::new();
        // Per shared core: the earliest-deadline alive job among its tasks.
        let mut shared_best: Vec<Option<(Time, JobId)>> =
            vec![None; self.assignment.shared_count as usize];
        for &(id, ready) in view.jobs() {
            let task = self.task_of(id);
            let dedicated = self.assignment.dedicated[task];
            if dedicated > 0 {
                let k = dedicated.min(ready.max(1));
                // Heavy task instance: its dedicated cores, capped by ready
                // nodes (surplus would idle anyway).
                out.push((id, k.min(dedicated)));
            } else if let Some(core) = self.assignment.shared_core[task] {
                if ready == 0 {
                    continue;
                }
                let d = self.alive.get(&id).copied().unwrap_or(Time::MAX);
                let slot = &mut shared_best[core as usize];
                if slot.is_none() || matches!(slot, Some((dd, _)) if d < *dd) {
                    *slot = Some((d, id));
                }
            }
        }
        for best in shared_best.into_iter().flatten() {
            out.push((best.1, 1));
        }
        out
    }

    fn allocation_stable_between_events(&self) -> bool {
        // The task→core assignment is fixed offline; per-tick choice depends
        // only on alive deadlines and ready counts, never on `view.now`.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::Rng64;
    use dagsched_dag::gen;
    use dagsched_engine::{simulate, SimConfig};
    use dagsched_workload::sporadic::{SporadicTask, SporadicTaskSet};

    fn heavy_task(m_needed: u32, period: u64) -> SporadicTask {
        // Block of width 4*m_needed, work 2 each, deadline forcing ~m_needed
        // processors: W = 8k, L = 2, D = (W-L)/k + L + slackish.
        let dag = gen::block(4 * m_needed, 2).into_shared();
        let w = dag.total_work().as_f64();
        let l = dag.span().as_f64();
        let d = ((w - l) / m_needed as f64 + l).ceil() as u64 + 1;
        SporadicTask {
            dag,
            period,
            rel_deadline: Time(d),
            profit: 1,
            jitter: 0,
        }
    }

    fn light_task(width: u32, period: u64, d: u64) -> SporadicTask {
        SporadicTask {
            dag: gen::block(width, 2).into_shared(),
            period,
            rel_deadline: Time(d),
            profit: 1,
            jitter: 0,
        }
    }

    #[test]
    fn assignment_dedicates_heavy_and_partitions_light() {
        let set = SporadicTaskSet {
            m: 8,
            tasks: vec![
                heavy_task(3, 100),
                light_task(2, 20, 18), // density 4/18
                light_task(2, 25, 10), // density 4/10
            ],
            horizon: Time(200),
            seed: 0,
        };
        let a = federated_assignment(&set).expect("schedulable");
        assert!(a.dedicated[0] >= 3);
        assert_eq!(a.dedicated[1], 0);
        assert_eq!(a.shared_count, 1, "both light tasks fit one processor");
        assert!(a.processors_used() <= 8);
    }

    #[test]
    fn test_rejects_overloaded_sets() {
        // Two heavy tasks each needing ~3 processors on m = 4.
        let set = SporadicTaskSet {
            m: 4,
            tasks: vec![heavy_task(3, 50), heavy_task(3, 50)],
            horizon: Time(100),
            seed: 0,
        };
        assert!(federated_assignment(&set).is_none());
        // A light task with density > 1 is impossible sequentially...
        let set = SporadicTaskSet {
            m: 4,
            tasks: vec![light_task(3, 20, 5)], // W = 6 > D = 5 -> heavy actually
            horizon: Time(100),
            seed: 0,
        };
        // W > D makes it heavy; D > L so it gets dedicated cores instead.
        assert!(federated_assignment(&set).is_some());
        // An infeasible heavy task (D < L).
        let infeasible = SporadicTask {
            dag: gen::chain(10, 2).into_shared(),
            period: 50,
            rel_deadline: Time(10),
            profit: 1,
            jitter: 0,
        };
        let set = SporadicTaskSet {
            m: 4,
            tasks: vec![infeasible],
            horizon: Time(100),
            seed: 0,
        };
        assert!(federated_assignment(&set).is_none());
    }

    /// Densities `1/2` and `1/2 + 10⁻¹³` sum to just above 1, which a float
    /// test with a `1e-12` slack accepts: they need two shared processors.
    /// A sum of exactly 1 fits one; `δ = min(D, T) = 0` is rejected.
    #[test]
    fn light_packing_is_exact() {
        let task = |work: u64, d: u64, period: u64| SporadicTask {
            dag: gen::single(work).into_shared(),
            period,
            rel_deadline: Time(d),
            profit: 1,
            jitter: 0,
        };
        let assign = |m, tasks| {
            let horizon = Time(100);
            federated_assignment(&SporadicTaskSet {
                m,
                tasks,
                horizon,
                seed: 0,
            })
        };
        let d = 10_000_000_000_000;
        let near = || vec![task(1, 2, 2), task(d / 2 + 1, d, d)];
        let a = assign(2, near()).expect("one task per processor");
        assert_eq!(a.shared_core, vec![Some(1), Some(0)], "denser task first");
        assert!(assign(1, near()).is_none());
        let exact = assign(1, vec![task(1, 2, 2), task(3, 6, 6)]);
        assert_eq!(exact.map(|a| a.shared_count), Some(1));
        assert!(assign(4, vec![task(1, 5, 0)]).is_none());
    }

    #[test]
    fn schedulable_sets_meet_every_deadline_in_simulation() {
        // The federated guarantee, end to end: accepted sets miss nothing.
        let mut rng = Rng64::seed_from(42);
        for trial in 0..5 {
            let set = SporadicTaskSet {
                m: 10,
                tasks: vec![
                    heavy_task(2 + (trial % 2) as u32, 120),
                    light_task(1 + (trial % 3) as u32, 30, 25),
                    light_task(2, 40, 35),
                    light_task(1, 15, 12),
                ],
                horizon: Time(600),
                seed: rng.next_u64(),
            };
            let Some(assign) = federated_assignment(&set) else {
                panic!("trial {trial}: set should be schedulable");
            };
            let (inst, task_of_job) = set.generate().unwrap();
            let n = inst.len();
            let mut sched = FederatedScheduler::new(assign, task_of_job);
            let r = simulate(&inst, &mut sched, &SimConfig::default()).unwrap();
            assert_eq!(
                r.completed(),
                n,
                "trial {trial}: {} deadline misses",
                n - r.completed()
            );
        }
    }

    #[test]
    fn sequential_light_execution_uses_one_processor_per_core() {
        let set = SporadicTaskSet {
            m: 4,
            tasks: vec![light_task(4, 50, 40), light_task(4, 50, 40)],
            horizon: Time(45),
            seed: 0,
        };
        let a = federated_assignment(&set).unwrap();
        let (inst, map) = set.generate().unwrap();
        let mut sched = FederatedScheduler::new(a.clone(), map);
        // Both light tasks released at 0: per tick, each shared core runs
        // exactly one job with one processor.
        let jobs: Vec<(JobId, u32)> = inst
            .jobs()
            .iter()
            .map(|j| (j.id, j.dag.num_nodes() as u32))
            .collect();
        for j in inst.jobs() {
            sched.on_arrival(
                &JobInfo {
                    id: j.id,
                    arrival: j.arrival,
                    work: j.work(),
                    span: j.span(),
                    profit: j.profit.clone(),
                },
                Time(0),
            );
        }
        let alloc = sched.allocate(&TickView::new(4, Time(0), &jobs));
        assert_eq!(alloc.len() as u32, a.shared_count.min(2));
        assert!(alloc.iter().all(|(_, k)| *k == 1));
    }
}
