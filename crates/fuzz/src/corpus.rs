//! The deterministic seed corpus: one starting point per adversarial family.
//!
//! Each entry is a small instance already *near* a family the mutators are
//! biased toward, so the loop spends its budget at the interesting
//! boundaries instead of random-walking toward them. Entries are fixed —
//! no randomness beyond hard-coded seeds — so the corpus trajectory is a
//! pure function of the master seed.

use crate::ir::{dag_to_ir, FuzzInstance, FuzzJob};
use crate::mutate::{self, Mutator};
use dagsched_core::Rng64;
use dagsched_dag::gen;
use dagsched_workload::{Instance, WorkloadGen};

/// The hand-built triple-tie nest from the naive-vs-fast suite: on 2
/// processors, tick 10 carries a completion frontier, an expiry boundary
/// and an arrival at once.
fn triple_tie() -> FuzzInstance {
    FuzzInstance::new(
        2,
        vec![
            FuzzJob {
                arrival: 0,
                deadline: 100,
                profit: 7,
                extra_steps: vec![],
                tail: 0,
                works: vec![11],
                edges: vec![],
            },
            FuzzJob {
                arrival: 0,
                deadline: 10,
                profit: 5,
                extra_steps: vec![],
                tail: 0,
                works: vec![25, 25, 25, 25],
                edges: vec![(0, 1), (1, 2), (2, 3)],
            },
            FuzzJob {
                arrival: 10,
                deadline: 20,
                profit: 3,
                extra_steps: vec![],
                tail: 0,
                works: vec![3],
                edges: vec![],
            },
        ],
    )
}

/// Collision-dense: single-digit arrivals, works and deadlines, so
/// simultaneous events are the norm.
fn collisions() -> FuzzInstance {
    let mut rng = Rng64::seed_from(11);
    let jobs = (0..8)
        .map(|_| {
            let work = 1 + rng.gen_range(6);
            let chain = rng.gen_range(2) == 1;
            FuzzJob {
                arrival: rng.gen_range(8),
                deadline: 1 + rng.gen_range(9),
                profit: 1 + rng.gen_range(5),
                extra_steps: vec![],
                tail: 0,
                works: if chain { vec![work, work] } else { vec![work] },
                edges: if chain { vec![(0, 1)] } else { vec![] },
            }
        })
        .collect();
    FuzzInstance::new(2, jobs)
}

/// Two Figure 1 lower-bound jobs with near-Brent deadlines.
fn fig1_family() -> FuzzInstance {
    let m = 3;
    let (works, edges) = dag_to_ir(&gen::fig1(m, 6, 2));
    let mk = |arrival: u64| {
        let mut job = FuzzJob {
            arrival,
            deadline: 1,
            profit: 4,
            extra_steps: vec![],
            tail: 0,
            works: works.clone(),
            edges: edges.clone(),
        };
        job.deadline = (job.total_work() - job.span()).div_ceil(m as u64) + job.span();
        job
    };
    FuzzInstance::new(m, vec![mk(0), mk(1)])
}

/// An arrival burst of identical work with densities in three bands.
fn band_burst() -> FuzzInstance {
    let profits = [4u64, 4, 6, 6, 9, 9];
    let jobs = profits
        .iter()
        .map(|&p| FuzzJob {
            arrival: 3,
            deadline: 6,
            profit: p,
            extra_steps: vec![],
            tail: 0,
            works: vec![4],
            edges: vec![],
        })
        .collect();
    FuzzInstance::new(2, jobs)
}

/// General-profit cliffs: step functions whose later, lower values and
/// tails put the slot-assignment search (Section 5) under pressure — one
/// job per shape: two-step, step+tail, and tail-only-survivor.
fn profit_cliff() -> FuzzInstance {
    FuzzInstance {
        sprofit_subject: true,
        ..FuzzInstance::new(
            2,
            vec![
                FuzzJob {
                    arrival: 0,
                    deadline: 10,
                    profit: 9,
                    extra_steps: vec![(30, 4)],
                    tail: 0,
                    works: vec![10, 10],
                    edges: vec![(0, 1)],
                },
                FuzzJob {
                    arrival: 0,
                    deadline: 5,
                    profit: 8,
                    extra_steps: vec![(12, 5)],
                    tail: 1,
                    works: vec![6],
                    edges: vec![],
                },
                FuzzJob {
                    arrival: 4,
                    deadline: 6,
                    profit: 3,
                    extra_steps: vec![],
                    tail: 2,
                    works: vec![40],
                    edges: vec![],
                },
            ],
        )
    }
}

/// A plain generated workload, to keep one unbiased starting point.
fn standard() -> FuzzInstance {
    let inst = WorkloadGen::standard(3, 10, 42)
        .generate()
        .expect("valid workload");
    FuzzInstance::from_instance(&inst)
}

/// The full seed corpus, in fixed order.
pub fn seed_corpus() -> Vec<FuzzInstance> {
    vec![
        triple_tie(),
        collisions(),
        fig1_family(),
        band_burst(),
        profit_cliff(),
        standard(),
    ]
}

/// Generate `count` valid collision-dense instances by running the
/// collision mutators over the seed corpus — the helper the triple-tie
/// pause tests use to get event-coincidence-heavy workloads cheaply.
pub fn collision_instances(seed: u64, count: usize) -> Vec<Instance> {
    let mut rng = Rng64::seed_from(seed);
    let seeds = seed_corpus();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut fi = seeds[rng.gen_range(seeds.len() as u64) as usize].clone();
        for _ in 0..4 {
            let m = match rng.gen_range(4) {
                0 => Mutator::CollideArrival,
                1 => Mutator::CollideExpiry,
                2 => Mutator::Burst,
                _ => Mutator::TightenDeadline,
            };
            mutate::apply(m, &mut rng, &mut fi);
        }
        if let Ok(inst) = fi.to_instance() {
            out.push(inst);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_converts() {
        let seeds = seed_corpus();
        assert_eq!(seeds.len(), 6);
        for (i, s) in seeds.iter().enumerate() {
            let inst = s.to_instance().unwrap_or_else(|e| panic!("seed {i}: {e}"));
            assert!(inst.len() >= 2, "seed {i} too small");
        }
    }

    /// The seed corpus and the collision instances built from it (equal
    /// expiry ticks, tail-profit jobs): each instance's `expiry_order` is
    /// a filter-and-sort of its zero-tail jobs (hence strictly ascending:
    /// ids are distinct).
    #[test]
    fn expiry_order_is_the_sorted_zero_tail_keys() {
        let seeds = seed_corpus().into_iter().map(|s| s.to_instance().unwrap());
        let mut tails = 0;
        for inst in seeds.chain(collision_instances(3, 24)) {
            let zero_tail = inst.jobs().iter().filter(|j| j.profit.tail_value() == 0);
            let mut want: Vec<_> = zero_tail.map(|j| (j.last_useful_abs(), j.id)).collect();
            want.sort();
            assert_eq!(inst.expiry_order(), want.as_slice());
            tails += inst.len() - want.len();
        }
        assert!(tails > 0, "the corpus must hold tail-profit jobs");
    }

    #[test]
    fn collision_instances_are_deterministic_and_collide() {
        let a = collision_instances(9, 6);
        let b = collision_instances(9, 6);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                dagsched_workload::codec::encode(x),
                dagsched_workload::codec::encode(y)
            );
        }
        // At least one instance has two jobs sharing an arrival tick.
        let shared = a
            .iter()
            .any(|inst| inst.jobs().windows(2).any(|w| w[0].arrival == w[1].arrival));
        assert!(shared, "collision mutators should produce shared instants");
    }
}
