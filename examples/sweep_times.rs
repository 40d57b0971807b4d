//! Wall time, steps and ticks of the `sweep-steady` benchmark op, per
//! scheduler, on the fast-forward and the naive engine path.
//!
//! The op is the B1 sweep grid at one workload seed with 400 jobs per
//! instance: 9 schedulers × speeds {1, 3/2} × m {8, 16}, 36 simulations.
//! The example generates the two instances once (outside the timing, which
//! the benchmark's op includes), then simulates every cell `N` times on
//! each path and prints, per scheduler, the least over the `N` runs of its
//! four cells' summed wall time on each path (best of `N`, the figure least
//! disturbed by other load on the host), the naive/fast ratio, and the
//! cells' summed steps and ticks on the fast path. The naive path takes one
//! step per tick.
//!
//! ```sh
//! cargo run --release --example sweep_times -- [N] [seed]   # defaults: 3, 1
//! ```

use dagsched::prelude::*;
use std::time::{Duration, Instant};

/// The instance the sweep runs for machine size `m` at workload seed
/// `seed`: the seed derivation of `SweepGrid::run`, as the benchmark's
/// `sweep_instance` copies it.
fn sweep_instance(grid: &SweepGrid, seed: u64, m: u32) -> Instance {
    let wseed = Rng64::seed_from(grid.base_seed)
        .child(seed)
        .child(m as u64)
        .next_u64();
    WorkloadGen::standard(m, grid.n_jobs, wseed)
        .generate()
        .expect("standard workload generates")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let runs: usize = args
        .next()
        .map_or(3, |a| a.parse().expect("N: a run count"));
    let seed: u64 = args.next().map_or(1, |a| a.parse().expect("seed: a u64"));
    assert!(runs >= 1, "N must be at least 1");

    let mut grid = SweepGrid::b1();
    grid.n_jobs = 400;
    let instances: Vec<Instance> = grid
        .ms
        .iter()
        .map(|&m| sweep_instance(&grid, seed, m))
        .collect();

    // Per scheduler: best fast and naive time, fast steps, ticks.
    let mut best = vec![(Duration::MAX, Duration::MAX); grid.scheds.len()];
    let mut counts = vec![(0u64, 0u64); grid.scheds.len()];
    for _ in 0..runs {
        for (i, kind) in grid.scheds.iter().enumerate() {
            let (mut fast, mut naive) = (Duration::ZERO, Duration::ZERO);
            let (mut steps, mut ticks) = (0, 0);
            for &speed in &grid.speeds {
                for inst in &instances {
                    for fast_forward in [true, false] {
                        let cfg = SimConfig {
                            fast_forward,
                            ..SimConfig::at_speed(speed)
                        };
                        let mut sched = kind.build(inst.m());
                        let start = Instant::now();
                        let r = simulate(inst, sched.as_mut(), &cfg).expect("simulation runs");
                        let took = start.elapsed();
                        if fast_forward {
                            fast += took;
                            steps += r.steps_executed;
                            ticks += r.ticks_simulated;
                        } else {
                            naive += took;
                        }
                    }
                }
            }
            best[i] = (best[i].0.min(fast), best[i].1.min(naive));
            counts[i] = (steps, ticks);
        }
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!(
        "sweep-steady op simulations (seed {seed}, {} jobs), best of {runs} runs:",
        grid.n_jobs
    );
    println!(
        "{:<10} {:>9} {:>9} {:>6} {:>8} {:>8}",
        "scheduler", "fast ms", "naive ms", "ratio", "steps", "ticks"
    );
    let row = |name: &str, fast: Duration, naive: Duration, (steps, ticks): (u64, u64)| {
        println!(
            "{name:<10} {:>9.3} {:>9.3} {:>6.2} {steps:>8} {ticks:>8}",
            ms(fast),
            ms(naive),
            naive.as_secs_f64() / fast.as_secs_f64()
        );
    };
    for ((kind, &(fast, naive)), &c) in grid.scheds.iter().zip(&best).zip(&counts) {
        row(&kind.label(), fast, naive, c);
    }
    let fast: Duration = best.iter().map(|b| b.0).sum();
    let naive: Duration = best.iter().map(|b| b.1).sum();
    let total = counts.iter().fold((0, 0), |(s, t), &(a, b)| (s + a, t + b));
    row("sum", fast, naive, total);
}
