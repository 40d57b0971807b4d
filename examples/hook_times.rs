//! Per-hook wall time of scheduler S on the parked single-node instance of
//! the `parked-dense` benchmark workload: 1,500 background jobs that park
//! in `P` behind the band capacity, and a foreground stream of 1,500 tiny
//! tight-deadline jobs, on `m = 4`.
//!
//! S runs behind a wrapper that times each call of its event hooks and of
//! `allocate_into`. The example simulates the instance `N` times and prints,
//! per hook, the call count and the least total over the `N` runs in ms
//! (best of `N`, the figure least disturbed by other load on the host).
//!
//! ```sh
//! cargo run --release --example hook_times -- [N] [seed]   # defaults: 3, 1
//! ```

use dagsched::prelude::*;
use dagsched_engine::Allocation;
use std::time::{Duration, Instant};

/// The parked single-node instance: `n` background jobs of work
/// 9,500–10,500 (drawn from `seed`) at `t = 0` with deadline 500,000, and
/// `n` foreground jobs of work 2, two per tick, each with deadline 60 ticks
/// after its arrival. A copy of the benchmark's `parked_instance(n, false,
/// seed)`, which lives outside this workspace.
fn parked_instance(n: u32, seed: u64) -> Instance {
    let mut rng = Rng64::seed_from(seed).child(0);
    let mut jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            JobSpec::new(
                JobId(i),
                Time(0),
                daggen::single(9_500 + rng.gen_range(1_001)).into_shared(),
                StepProfitFn::deadline(Time(500_000), 1),
            )
        })
        .collect();
    for i in 0..n {
        jobs.push(JobSpec::new(
            JobId(n + i),
            Time((i / 2) as u64),
            daggen::single(2).into_shared(),
            StepProfitFn::deadline(Time(60), 3),
        ));
    }
    Instance::new(4, jobs).expect("valid parked instance")
}

const HOOKS: [&str; 4] = ["arrival", "completion", "expiry", "allocate_into"];

/// S with a stopwatch on each hook: total time and call count per hook.
struct Timed {
    s: SchedulerS,
    spent: [Duration; 4],
    calls: [u64; 4],
}

impl Timed {
    fn time<R>(&mut self, hook: usize, f: impl FnOnce(&mut SchedulerS) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut self.s);
        self.spent[hook] += start.elapsed();
        self.calls[hook] += 1;
        r
    }
}

impl OnlineScheduler for Timed {
    fn name(&self) -> String {
        self.s.name()
    }
    fn on_arrival(&mut self, info: &JobInfo, now: Time) {
        self.time(0, |s| s.on_arrival(info, now));
    }
    fn on_completion(&mut self, id: JobId, now: Time) {
        self.time(1, |s| s.on_completion(id, now));
    }
    fn on_expiry(&mut self, id: JobId, now: Time) {
        self.time(2, |s| s.on_expiry(id, now));
    }
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        self.time(3, |s| s.allocate(view))
    }
    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        self.time(3, |s| s.allocate_into(view, out));
    }
    fn allocation_stable_between_events(&self) -> bool {
        self.s.allocation_stable_between_events()
    }
    fn group_aware(&self) -> bool {
        self.s.group_aware()
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let runs: usize = args
        .next()
        .map_or(3, |a| a.parse().expect("N: a run count"));
    let seed: u64 = args.next().map_or(1, |a| a.parse().expect("seed: a u64"));
    assert!(runs >= 1, "N must be at least 1");

    let inst = parked_instance(1_500, seed);
    let mut best = [Duration::MAX; 4];
    let mut best_sim = Duration::MAX;
    let mut calls = [0; 4];
    for _ in 0..runs {
        let mut timed = Timed {
            s: SchedulerS::with_epsilon(4, 1.0),
            spent: [Duration::ZERO; 4],
            calls: [0; 4],
        };
        let start = Instant::now();
        simulate(&inst, &mut timed, &SimConfig::default()).expect("simulation runs");
        best_sim = best_sim.min(start.elapsed());
        for (b, spent) in best.iter_mut().zip(timed.spent) {
            *b = (*b).min(spent);
        }
        calls = timed.calls;
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!("S on the parked instance (seed {seed}), best of {runs} runs:");
    println!("{:<14} {:>8} {:>10}", "hook", "calls", "ms");
    for ((hook, calls), best) in HOOKS.iter().zip(calls).zip(best) {
        println!("{hook:<14} {calls:>8} {:>10.3}", ms(best));
    }
    println!("{:<14} {:>8} {:>10.3}", "simulate", "", ms(best_sim));
}
