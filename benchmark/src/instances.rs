//! The hand-built instances of the `parked-dense` workload.
//!
//! Both builders follow the parked-set instances of the repository's
//! hot-path harness (`crates/bench/src/hotpath.rs`); `parked_instance` adds
//! a seed that jitters the background jobs' work, so `--seed` reaches this
//! workload's inputs without changing their shape.

use dagsched_core::{JobId, Rng64, Time};
use dagsched_dag::gen;
use dagsched_workload::{Instance, JobSpec, StepProfitFn};

/// A parked-set instance: `n` *background* deadline jobs arrive at `t = 0`
/// with large work (9,500–10,500, drawn from `seed`) and a deadline 500,000
/// ticks out, so under EDF they sit alive, zero-tail and unscheduled while
/// a *foreground* stream of tiny tight-deadline jobs saturates the `m = 4`
/// machine and drives an event every tick. Once the foreground drains the
/// background runs in long bulk windows until the survivors expire in one
/// wave at the horizon.
///
/// `chains` picks the foreground shape: `false` is two single-node jobs of
/// work 2 per tick; `true` is one 2-node chain of work 4 per tick, adding
/// ready-count events at node boundaries. Both keep the foreground load
/// exactly at `m`.
pub fn parked_instance(n: usize, chains: bool, seed: u64) -> Instance {
    let far = Time(500_000);
    let mut rng = Rng64::seed_from(seed).child(chains as u64);
    let mut jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            JobSpec::new(
                JobId(i as u32),
                Time(0),
                gen::single(9_500 + rng.gen_range(1_001)).into_shared(),
                StepProfitFn::deadline(far, 1),
            )
        })
        .collect();
    let per_tick = if chains { 1 } else { 2 };
    for i in 0..n {
        let dag = if chains {
            gen::chain(2, 2).into_shared()
        } else {
            gen::single(2).into_shared()
        };
        jobs.push(JobSpec::new(
            JobId((n + i) as u32),
            Time((i / per_tick) as u64),
            dag,
            StepProfitFn::deadline(Time(60), 3),
        ));
    }
    Instance::new(4, jobs).expect("valid parked instance")
}

/// The slot-plan regime of the general-profit scheduler: `n` long
/// background jobs (work 5,000, a two-step profit with cliffs at
/// `horizon / 2` and `horizon`) arrive at `t = 0` on an `m = 4` machine, so
/// the band capacity admits a handful and parks the rest; a brief wave of
/// small two-step chain jobs (one every other tick, cliffs at 40 and 90)
/// churns the plan early on, and the rest of the run is one long plan gap
/// the engine crosses in bulk windows.
pub fn profit_instance(n: usize, horizon: u64) -> Instance {
    let mid = (horizon / 2).max(2);
    let background = StepProfitFn::steps(vec![(Time(mid), 4), (Time(horizon), 2)], 0)
        .expect("valid background profit");
    let wave =
        StepProfitFn::steps(vec![(Time(40), 3), (Time(90), 1)], 0).expect("valid wave profit");
    let mut jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            JobSpec::new(
                JobId(i as u32),
                Time(0),
                gen::single(5_000).into_shared(),
                background.clone(),
            )
        })
        .collect();
    for i in 0..n / 2 {
        jobs.push(JobSpec::new(
            JobId((n + i) as u32),
            Time(2 * i as u64),
            gen::chain(3, 2).into_shared(),
            wave.clone(),
        ));
    }
    Instance::new(4, jobs).expect("valid profit instance")
}
