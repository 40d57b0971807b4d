//! Structural mutators biased toward the paper's adversarial families.
//!
//! Random workload generation almost never produces the instances that
//! stress the scheduler's correctness argument: Section 4's lower-bound
//! constructions (Figure 1/2 shapes), jobs whose densities tie exactly at a
//! band boundary `v · c^k`, deadlines tightened to the Brent bound where
//! δ-goodness flips, and arrival/expiry collisions landing on fast-forward
//! window edges. Each mutator here is one deliberate step toward one of
//! those families; the fuzz loop composes a few per candidate and lets the
//! coverage signal decide what was worth keeping.
//!
//! All randomness flows through the caller's [`Rng64`], so a fixed master
//! seed reproduces the exact mutation trajectory.

use crate::ir::{dag_to_ir, limits, FuzzInstance, FuzzJob};
use dagsched_core::{AlgoParams, Rng64};
use dagsched_dag::gen;

/// The mutator taxonomy (see DESIGN.md §4.7). Weights in [`MUTATORS`] bias
/// selection toward the adversarial families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutator {
    /// Pull a job's deadline to the Brent bound `(W−L)/m + L` ± a tick —
    /// the δ-goodness boundary.
    TightenDeadline,
    /// Set a job's density to `v_j · c^k` (k ∈ {−1, 0, 1}) of another job's,
    /// landing exactly on a density-band boundary.
    DensityTie,
    /// Move a job's arrival onto another job's arrival or expiry instant
    /// (± 1 for window-edge off-by-ones).
    CollideArrival,
    /// Move a job's *expiry* onto another job's arrival or expiry instant.
    CollideExpiry,
    /// Nudge an arrival by ± 1.
    JitterArrival,
    /// Collapse several arrivals onto one instant (an arrival storm).
    Burst,
    /// Replace a job's DAG with a sequential chain and tighten its deadline
    /// near the span — the unstartable-chain family.
    Chainify,
    /// Replace a job's DAG with the Figure 1 lower-bound shape for the
    /// current machine count.
    Fig1ify,
    /// Duplicate a job verbatim (identical arrival and density: maximal
    /// tie pressure).
    DupJob,
    /// Remove a job.
    DropJob,
    /// Insert a fresh small job near an existing arrival.
    AddJob,
    /// Change one node's work by ± 1.
    PerturbWork,
    /// Split a node into two chained halves (same work, longer span).
    SplitNode,
    /// Add a random forward edge.
    AddEdge,
    /// Remove a random edge.
    DropEdge,
    /// Change the machine count.
    ScaleM,
    /// Toggle mid-tick carry-over (Observation 1's chain-progress knob) —
    /// a configuration-axis mutator.
    FlipCarryover,
    /// Cycle to the next deterministic node-pick policy
    /// ([`crate::ir::PICKS`]) — a configuration-axis mutator.
    CyclePick,
    /// Replace the platform shape with a random 2-way related-machines
    /// split of `m` (distinct speeds) — a platform-axis mutator.
    SplitSpeedGroup,
    /// Perturb one platform group's speed; a no-op on a uniform platform.
    PerturbGroupSpeed,
    /// Collapse the platform back to the legacy uniform shape.
    UniformizeGroups,
    /// Append a later, lower profit step past a job's deadline — grows a
    /// general step function (Section 5's setting) out of a deadline job.
    AddProfitStep,
    /// Nudge one extra profit step's bound or value by ± 1 (step-boundary
    /// off-by-ones for the slot-assignment search).
    PerturbProfitStep,
    /// Give a job a nonzero tail value: it never expires, so parked it
    /// stresses the plan-gap bulk-skip instead of the expiry machinery.
    RaiseTail,
    /// Collapse a job's profit back to the pure deadline form.
    FlattenProfit,
    /// Toggle which scheduler the candidate is judged against (S vs the
    /// general-profit S-profit) — a configuration-axis mutator.
    FlipSProfitSubject,
}

/// All mutators with selection weights; the adversarial-family mutators
/// dominate.
pub const MUTATORS: &[(u32, Mutator)] = &[
    (3, Mutator::TightenDeadline),
    (3, Mutator::DensityTie),
    (3, Mutator::CollideArrival),
    (2, Mutator::CollideExpiry),
    (2, Mutator::JitterArrival),
    (2, Mutator::Burst),
    (2, Mutator::Chainify),
    (2, Mutator::Fig1ify),
    (1, Mutator::DupJob),
    (1, Mutator::DropJob),
    (1, Mutator::AddJob),
    (1, Mutator::PerturbWork),
    (1, Mutator::SplitNode),
    (1, Mutator::AddEdge),
    (1, Mutator::DropEdge),
    (1, Mutator::ScaleM),
    (1, Mutator::FlipCarryover),
    (1, Mutator::CyclePick),
    (1, Mutator::SplitSpeedGroup),
    (1, Mutator::PerturbGroupSpeed),
    (1, Mutator::UniformizeGroups),
    (2, Mutator::AddProfitStep),
    (1, Mutator::PerturbProfitStep),
    (1, Mutator::RaiseTail),
    (1, Mutator::FlattenProfit),
    (1, Mutator::FlipSProfitSubject),
];

/// Pick a weighted random mutator and apply it in place.
pub fn mutate(rng: &mut Rng64, fi: &mut FuzzInstance) -> Mutator {
    let total: u32 = MUTATORS.iter().map(|&(w, _)| w).sum();
    let mut roll = rng.gen_range(total as u64) as u32;
    let mut picked = MUTATORS[0].1;
    for &(w, m) in MUTATORS {
        if roll < w {
            picked = m;
            break;
        }
        roll -= w;
    }
    apply(picked, rng, fi);
    picked
}

/// Apply one specific mutator in place. No-ops harmlessly when the instance
/// lacks the needed structure (e.g. [`Mutator::DropEdge`] with no edges).
pub fn apply(mutator: Mutator, rng: &mut Rng64, fi: &mut FuzzInstance) {
    if fi.jobs.is_empty() {
        return;
    }
    let n = fi.jobs.len();
    let pick = rng.gen_range(n as u64) as usize;
    match mutator {
        Mutator::TightenDeadline => {
            let m = fi.m.clamp(1, limits::MAX_M) as u64;
            let job = &mut fi.jobs[pick];
            let (w, l) = (job.total_work(), job.span());
            let brent = (w - l).div_ceil(m) + l;
            // Land on, just under, or just over the bound.
            job.deadline = (brent + rng.gen_range(3)).saturating_sub(1).max(1);
        }
        Mutator::DensityTie => {
            let other = rng.gen_range(n as u64) as usize;
            let c = AlgoParams::from_epsilon(1.0).expect("valid epsilon").c();
            let v = fi.jobs[other].profit.max(1) as f64 / fi.jobs[other].total_work() as f64;
            let k = rng.gen_range(3) as i32 - 1;
            let target = v * c.powi(k);
            let job = &mut fi.jobs[pick];
            job.profit = ((target * job.total_work() as f64).round() as u64).max(1);
        }
        Mutator::CollideArrival => {
            let other = rng.gen_range(n as u64) as usize;
            let target = match rng.gen_range(4) {
                0 => fi.jobs[other].arrival,
                1 => fi.jobs[other].expiry(),
                2 => fi.jobs[other].expiry().saturating_sub(1),
                _ => fi.jobs[other].arrival + 1,
            };
            fi.jobs[pick].arrival = target.min(limits::MAX_ARRIVAL);
        }
        Mutator::CollideExpiry => {
            let other = rng.gen_range(n as u64) as usize;
            let target = if rng.gen_range(2) == 0 {
                fi.jobs[other].arrival
            } else {
                fi.jobs[other].expiry()
            };
            let job = &mut fi.jobs[pick];
            job.deadline = target.saturating_sub(job.arrival).max(1);
        }
        Mutator::JitterArrival => {
            let job = &mut fi.jobs[pick];
            job.arrival = if rng.gen_range(2) == 0 {
                job.arrival.saturating_sub(1)
            } else {
                (job.arrival + 1).min(limits::MAX_ARRIVAL)
            };
        }
        Mutator::Burst => {
            let t = fi.jobs[rng.gen_range(n as u64) as usize].arrival;
            let k = 2 + rng.gen_range(3) as usize;
            for _ in 0..k {
                let j = rng.gen_range(n as u64) as usize;
                fi.jobs[j].arrival = t;
            }
        }
        Mutator::Chainify => {
            let len = 2 + rng.gen_range(5) as u32;
            let grain = 1 + rng.gen_range(4);
            let (works, edges) = dag_to_ir(&gen::chain(len, grain));
            let job = &mut fi.jobs[pick];
            job.works = works;
            job.edges = edges;
            // A chain's span is its work: deadline near the span is the
            // tight-chain family.
            job.deadline = (job.span() + rng.gen_range(3)).saturating_sub(1).max(1);
        }
        Mutator::Fig1ify => {
            // fig1 needs at least 2 machines to have a block part.
            let m = fi.m.clamp(2, limits::MAX_M);
            let chain_len = 2 + rng.gen_range(5) as u32;
            let grain = 1 + rng.gen_range(3);
            let (works, edges) = dag_to_ir(&gen::fig1(m, chain_len, grain));
            let job = &mut fi.jobs[pick];
            job.works = works;
            job.edges = edges;
        }
        Mutator::DupJob => {
            if n < limits::MAX_JOBS {
                let clone = fi.jobs[pick].clone();
                fi.jobs.push(clone);
            }
        }
        Mutator::DropJob => {
            if n > 1 {
                fi.jobs.remove(pick);
            }
        }
        Mutator::AddJob => {
            if n < limits::MAX_JOBS {
                let near = fi.jobs[pick].arrival;
                fi.jobs.push(FuzzJob {
                    arrival: (near + rng.gen_range(3)).min(limits::MAX_ARRIVAL),
                    deadline: 1 + rng.gen_range(12),
                    profit: 1 + rng.gen_range(9),
                    extra_steps: vec![],
                    tail: 0,
                    works: vec![1 + rng.gen_range(8)],
                    edges: vec![],
                });
            }
        }
        Mutator::PerturbWork => {
            let job = &mut fi.jobs[pick];
            if !job.works.is_empty() {
                let i = rng.gen_range(job.works.len() as u64) as usize;
                job.works[i] = if rng.gen_range(2) == 0 {
                    job.works[i].saturating_sub(1).max(1)
                } else {
                    (job.works[i] + 1).min(limits::MAX_WORK)
                };
            }
        }
        Mutator::SplitNode => {
            let job = &mut fi.jobs[pick];
            if job.works.is_empty() || job.works.len() >= limits::MAX_NODES {
                return;
            }
            let i = rng.gen_range(job.works.len() as u64) as usize;
            let w = job.works[i].clamp(1, limits::MAX_WORK);
            if w < 2 {
                return;
            }
            let first = 1 + rng.gen_range(w - 1);
            job.works[i] = first;
            job.works.push(w - first);
            job.edges.push((i as u32, (job.works.len() - 1) as u32));
        }
        Mutator::AddEdge => {
            let job = &mut fi.jobs[pick];
            let nn = job.works.len().min(limits::MAX_NODES);
            if nn < 2 {
                return;
            }
            let u = rng.gen_range((nn - 1) as u64) as u32;
            let v = u + 1 + rng.gen_range((nn as u64 - 1) - u as u64) as u32;
            job.edges.push((u, v));
        }
        Mutator::DropEdge => {
            let job = &mut fi.jobs[pick];
            if !job.edges.is_empty() {
                let i = rng.gen_range(job.edges.len() as u64) as usize;
                job.edges.remove(i);
            }
        }
        Mutator::ScaleM => {
            fi.m = 1 + rng.gen_range(limits::MAX_M as u64) as u32;
        }
        Mutator::FlipCarryover => {
            fi.no_carryover = !fi.no_carryover;
        }
        Mutator::CyclePick => {
            fi.pick_idx = (fi.pick_idx + 1) % crate::ir::PICKS.len() as u8;
        }
        Mutator::SplitSpeedGroup => {
            let m = fi.m.clamp(1, limits::MAX_M);
            if m < 2 {
                return;
            }
            let fast = 1 + rng.gen_range((m - 1) as u64) as u32;
            let mut num = 2 + rng.gen_range((limits::MAX_SPEED - 1) as u64) as u32;
            let den = 1 + rng.gen_range(2) as u32;
            if num == den {
                // Keep the "fast" group genuinely faster than unit speed.
                num += 1;
            }
            // Fast group first or last: both placements stress the
            // fastest-first vs declaration-order distinction.
            let fast_group = (fast, num, den);
            let slow_group = (m - fast, 1, 1);
            fi.speed_groups = if rng.gen_range(2) == 0 {
                vec![fast_group, slow_group]
            } else {
                vec![slow_group, fast_group]
            };
        }
        Mutator::PerturbGroupSpeed => {
            if fi.speed_groups.is_empty() {
                return;
            }
            let i = rng.gen_range(fi.speed_groups.len() as u64) as usize;
            let (_, num, den) = &mut fi.speed_groups[i];
            if rng.gen_range(2) == 0 {
                *num = (*num % limits::MAX_SPEED) + 1;
            } else {
                *den = (*den % limits::MAX_SPEED) + 1;
            }
        }
        Mutator::UniformizeGroups => {
            fi.speed_groups.clear();
        }
        Mutator::AddProfitStep => {
            let job = &mut fi.jobs[pick];
            if job.extra_steps.len() >= limits::MAX_PROFIT_STEPS {
                return;
            }
            // Past the current last step, at a fraction of the current
            // floor value; to_instance repairs whatever lands out of order.
            let last_b = job
                .extra_steps
                .last()
                .map_or(job.deadline, |&(b, _)| b.max(job.deadline));
            let floor = job.extra_steps.last().map_or(job.profit, |&(_, v)| v);
            job.extra_steps.push((
                last_b + 1 + rng.gen_range(40),
                1 + rng.gen_range(floor.max(2) - 1),
            ));
        }
        Mutator::PerturbProfitStep => {
            let job = &mut fi.jobs[pick];
            if job.extra_steps.is_empty() {
                return;
            }
            let i = rng.gen_range(job.extra_steps.len() as u64) as usize;
            let (b, v) = &mut job.extra_steps[i];
            match rng.gen_range(4) {
                0 => *b = b.saturating_sub(1),
                1 => *b += 1,
                2 => *v = v.saturating_sub(1).max(1),
                _ => *v += 1,
            }
        }
        Mutator::RaiseTail => {
            let job = &mut fi.jobs[pick];
            job.tail = 1 + rng.gen_range(job.profit.max(2) - 1);
        }
        Mutator::FlattenProfit => {
            let job = &mut fi.jobs[pick];
            job.extra_steps.clear();
            job.tail = 0;
        }
        Mutator::FlipSProfitSubject => {
            fi.sprofit_subject = !fi.sprofit_subject;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::seed_corpus;

    /// Every mutator, applied repeatedly to every seed, keeps the instance
    /// convertible (the IR's repair contract).
    #[test]
    fn mutators_preserve_convertibility() {
        let mut rng = Rng64::seed_from(42);
        for entry in seed_corpus() {
            for &(_, m) in MUTATORS {
                let mut fi = entry.clone();
                for _ in 0..8 {
                    apply(m, &mut rng, &mut fi);
                    fi.to_instance()
                        .unwrap_or_else(|e| panic!("{m:?} broke convertibility: {e}"));
                }
            }
        }
    }

    /// A fixed seed yields a fixed mutation trajectory.
    #[test]
    fn mutation_trajectory_is_deterministic() {
        let run = || {
            let mut rng = Rng64::seed_from(7);
            let mut fi = seed_corpus().swap_remove(0);
            let mut picks = Vec::new();
            for _ in 0..64 {
                picks.push(mutate(&mut rng, &mut fi));
            }
            (picks, fi)
        };
        assert_eq!(run(), run());
    }

    /// The deadline-tightening mutator lands within a tick of the Brent
    /// bound.
    #[test]
    fn tighten_deadline_targets_brent_bound() {
        let mut rng = Rng64::seed_from(1);
        let mut fi = FuzzInstance::new(
            3,
            vec![FuzzJob {
                arrival: 0,
                deadline: 500,
                profit: 5,
                extra_steps: vec![],
                tail: 0,
                works: vec![4, 4, 4, 4, 4],
                edges: vec![(0, 1), (1, 2)],
            }],
        );
        for _ in 0..32 {
            apply(Mutator::TightenDeadline, &mut rng, &mut fi);
            let job = &fi.jobs[0];
            let brent = (job.total_work() - job.span()).div_ceil(3) + job.span();
            assert!(job.deadline + 1 >= brent, "far below the bound");
            assert!(job.deadline <= brent + 1, "far above the bound");
        }
    }

    /// The configuration-axis mutators toggle their flag and touch nothing
    /// else, so a double application is the identity.
    #[test]
    fn flip_mutators_toggle_only_the_config_axis() {
        let mut rng = Rng64::seed_from(9);
        let base = seed_corpus().swap_remove(0);
        for (m, read) in [
            (
                Mutator::FlipCarryover,
                (|fi: &FuzzInstance| fi.no_carryover) as fn(&FuzzInstance) -> bool,
            ),
            (Mutator::FlipSProfitSubject, |fi: &FuzzInstance| {
                fi.sprofit_subject
            }),
        ] {
            let mut fi = base.clone();
            apply(m, &mut rng, &mut fi);
            assert!(read(&fi), "{m:?} sets its flag");
            assert_eq!(fi.jobs, base.jobs, "{m:?} leaves the workload alone");
            apply(m, &mut rng, &mut fi);
            assert_eq!(fi, base, "{m:?} twice is the identity");
        }
    }

    /// The pick mutator cycles through the whole deterministic policy table
    /// and returns to the start, touching nothing else.
    #[test]
    fn cycle_pick_visits_every_policy() {
        let mut rng = Rng64::seed_from(3);
        let base = seed_corpus().swap_remove(0);
        let mut fi = base.clone();
        let n = crate::ir::PICKS.len() as u8;
        for step in 1..=n {
            apply(Mutator::CyclePick, &mut rng, &mut fi);
            assert_eq!(fi.pick_idx, step % n);
            assert_eq!(fi.jobs, base.jobs, "workload untouched");
        }
        assert_eq!(fi, base, "a full cycle is the identity");
    }

    /// The profit mutators grow valid general step functions: every state
    /// they reach converts, and the converted profit is genuinely general
    /// (multi-step or tailed) after an `AddProfitStep`/`RaiseTail`, while
    /// `FlattenProfit` restores the pure deadline form.
    #[test]
    fn profit_mutators_grow_and_flatten_step_functions() {
        let mut rng = Rng64::seed_from(13);
        let mut fi = seed_corpus().swap_remove(0);
        for _ in 0..16 {
            apply(Mutator::AddProfitStep, &mut rng, &mut fi);
            apply(Mutator::PerturbProfitStep, &mut rng, &mut fi);
            apply(Mutator::RaiseTail, &mut rng, &mut fi);
            let inst = fi.to_instance().expect("profit mutants convert");
            assert!(
                inst.jobs()
                    .iter()
                    .any(|j| j.profit.segments().len() > 1 || j.profit.tail_value() > 0),
                "some job carries a general profit function"
            );
        }
        for j in 0..fi.jobs.len() {
            // FlattenProfit picks a random job; force-flatten all of them.
            fi.jobs[j].extra_steps.clear();
            fi.jobs[j].tail = 0;
        }
        let inst = fi.to_instance().expect("flattened converts");
        assert!(
            inst.jobs().iter().all(|j| j.rel_deadline().is_some()),
            "flattened jobs are pure deadline jobs again"
        );
    }

    /// The platform-shape mutators always leave a shape the repair contract
    /// can fit to `m`, and `UniformizeGroups` restores the legacy platform.
    #[test]
    fn group_mutators_produce_valid_platforms() {
        let mut rng = Rng64::seed_from(11);
        let mut fi = seed_corpus().swap_remove(0);
        apply(Mutator::PerturbGroupSpeed, &mut rng, &mut fi);
        assert!(fi.speed_groups.is_empty(), "perturb on uniform is a no-op");
        for _ in 0..32 {
            apply(Mutator::SplitSpeedGroup, &mut rng, &mut fi);
            let g = fi.platform_groups().expect("split produces a shape");
            assert_eq!(g.total(), fi.m.clamp(1, limits::MAX_M));
            assert!(!g.is_uniform(), "split yields distinct speeds");
            apply(Mutator::PerturbGroupSpeed, &mut rng, &mut fi);
            let g = fi.platform_groups().expect("still shaped");
            assert_eq!(g.total(), fi.m.clamp(1, limits::MAX_M));
        }
        apply(Mutator::UniformizeGroups, &mut rng, &mut fi);
        assert_eq!(fi.platform_groups(), None);
        assert_eq!(fi.base_config().groups, None);
    }
}
