//! Wall time of the four simulations of the `parked-dense` benchmark op,
//! and per-hook wall time of scheduler S inside one of them.
//!
//! The op runs EDF on the parked single-node and parked-chain instances
//! (1,500 background jobs that sit alive behind a foreground stream of
//! 1,500 tiny tight-deadline jobs, on `m = 4`), S on the single-node
//! instance and S-profit on the slot-plan instance. The example simulates
//! each `N` times and prints the least wall time per simulation and their
//! sum (best of `N`, the figure least disturbed by other load on the host):
//! the engine-and-scheduler half of the op, without the benchmark's set-up
//! or checks. Beside each time it prints the simulation's engine steps and
//! simulated ticks, which are exact and do not vary between runs.
//!
//! It then runs S behind a wrapper that times each call of its event hooks
//! and of `allocate_into`, and prints, per hook, the call count and the
//! least total over the `N` runs in ms.
//!
//! ```sh
//! cargo run --release --example hook_times -- [N] [seed]   # defaults: 3, 1
//! ```

use dagsched::prelude::*;
use dagsched_engine::Allocation;
use std::time::{Duration, Instant};

/// A parked instance: `n` background jobs of work 9,500–10,500 (drawn
/// from `seed`) at `t = 0` with deadline 500,000, and a foreground of `n`
/// jobs with deadline 60 ticks after arrival that keeps `m = 4` saturated:
/// two single-node jobs of work 2 per tick, or (`chains`) one 2-node chain
/// of work 4 per tick. A copy of the benchmark's `parked_instance(n,
/// chains, seed)`, which lives outside this workspace.
fn parked_instance(n: u32, chains: bool, seed: u64) -> Instance {
    let mut rng = Rng64::seed_from(seed).child(chains as u64);
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
    let per_tick = if chains { 1 } else { 2 };
    for i in 0..n {
        let dag = if chains {
            daggen::chain(2, 2)
        } else {
            daggen::single(2)
        };
        jobs.push(JobSpec::new(
            JobId(n + i),
            Time((i / per_tick) as u64),
            dag.into_shared(),
            StepProfitFn::deadline(Time(60), 3),
        ));
    }
    Instance::new(4, jobs).expect("valid parked instance")
}

/// The slot-plan instance of S-profit: `n` background jobs of work 5,000
/// at `t = 0` with profit 4 up to `horizon / 2` and 2 up to `horizon`, and
/// `n / 2` 3-node chains, one every other tick, with profit 3 up to 40 and
/// 1 up to 90. A copy of the benchmark's `profit_instance(n, horizon)`.
fn profit_instance(n: u32, horizon: u64) -> Instance {
    let mid = (horizon / 2).max(2);
    let background = StepProfitFn::steps(vec![(Time(mid), 4), (Time(horizon), 2)], 0)
        .expect("valid background profit");
    let wave =
        StepProfitFn::steps(vec![(Time(40), 3), (Time(90), 1)], 0).expect("valid wave profit");
    let mut jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            JobSpec::new(
                JobId(i),
                Time(0),
                daggen::single(5_000).into_shared(),
                background.clone(),
            )
        })
        .collect();
    for i in 0..n / 2 {
        jobs.push(JobSpec::new(
            JobId(n + i),
            Time(2 * i as u64),
            daggen::chain(3, 2).into_shared(),
            wave.clone(),
        ));
    }
    Instance::new(4, jobs).expect("valid profit instance")
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

    let single = parked_instance(1_500, false, seed);
    let chains = parked_instance(1_500, true, seed);
    let profit = profit_instance(160, 50_000);
    let sims = [
        ("EDF single", SchedKind::Edf, &single),
        ("EDF chains", SchedKind::Edf, &chains),
        ("S", SchedKind::S { epsilon: 1.0 }, &single),
        ("S-profit", SchedKind::SProfit { epsilon: 1.0 }, &profit),
    ];
    let mut best_sims = [Duration::MAX; 4];
    let mut effort = [(0, 0); 4];
    let mut best = [Duration::MAX; 4];
    let mut calls = [0; 4];
    for _ in 0..runs {
        for (((_, kind, inst), b), e) in sims.iter().zip(&mut best_sims).zip(&mut effort) {
            let mut sched = kind.build(inst.m());
            let start = Instant::now();
            let r = simulate(inst, sched.as_mut(), &SimConfig::default()).expect("simulation runs");
            *b = (*b).min(start.elapsed());
            *e = (r.steps_executed, r.ticks_simulated);
        }
        let mut timed = Timed {
            s: SchedulerS::with_epsilon(4, 1.0),
            spent: [Duration::ZERO; 4],
            calls: [0; 4],
        };
        simulate(&single, &mut timed, &SimConfig::default()).expect("simulation runs");
        for (b, spent) in best.iter_mut().zip(timed.spent) {
            *b = (*b).min(spent);
        }
        calls = timed.calls;
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!("parked-dense op simulations (seed {seed}), best of {runs} runs:");
    println!(
        "{:<14} {:>10} {:>8} {:>8}",
        "simulation", "ms", "steps", "ticks"
    );
    for (((name, _, _), best), (steps, ticks)) in sims.iter().zip(best_sims).zip(effort) {
        println!("{name:<14} {:>10.3} {steps:>8} {ticks:>8}", ms(best));
    }
    let sum: Duration = best_sims.iter().sum();
    println!("{:<14} {:>10.3}", "sum", ms(sum));
    println!();
    println!("S's hooks on the parked single-node instance, best of {runs} runs:");
    println!("{:<14} {:>8} {:>10}", "hook", "calls", "ms");
    for ((hook, calls), best) in HOOKS.iter().zip(calls).zip(best) {
        println!("{hook:<14} {calls:>8} {:>10.3}", ms(best));
    }
}
