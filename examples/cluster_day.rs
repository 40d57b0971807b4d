//! A day on a shared cluster: diurnal arrivals, heavy-tailed job sizes and
//! three job classes (interactive / pipeline / batch), scheduled by the
//! paper's S, its work-conserving extension, and HDF — with a `Trace`
//! observer attached to each run so we can compare utilization and
//! preemption behaviour (the axis the paper's future-work section
//! highlights).
//!
//! ```sh
//! cargo run --example cluster_day
//! ```

use dagsched::prelude::*;
use dagsched::workload::ClusterTraceGen;

fn main() {
    let m = 16;
    let gen = ClusterTraceGen::new(m, 250, 2024);
    let instance = gen.generate().expect("valid configuration");
    let stats = instance.stats();
    println!(
        "cluster day: m={m}, {} jobs over {} ticks, offered load {:.2}, day length {}",
        stats.n_jobs,
        stats.horizon.since(stats.first_arrival),
        stats.load_factor,
        gen.day_ticks
    );

    let ub = fractional_ub(&instance, Speed::ONE);

    println!(
        "\n{:<12} {:>8} {:>7} {:>10} {:>12} {:>12}",
        "policy", "profit", "of UB", "completed", "utilization", "preemptions"
    );
    // A `Trace` is an observer: it records the run's allocation windows.
    let run = |sched: &mut dyn OnlineScheduler| {
        let mut trace = Trace::new();
        let r = simulate_observed(&instance, sched, &SimConfig::default(), &mut trace)
            .expect("valid run");
        (r, trace)
    };
    let report = |(r, trace): (SimResult, Trace)| {
        let ts = trace.stats();
        println!(
            "{:<12} {:>8} {:>6.1}% {:>10} {:>11.1}% {:>12}",
            r.scheduler,
            r.total_profit,
            100.0 * r.total_profit as f64 / ub as f64,
            r.completed(),
            100.0 * ts.mean_utilization,
            ts.preemptions
        );
    };

    let mut s = SchedulerS::with_epsilon(m, 1.0);
    report(run(&mut s));
    let mut swc = SchedulerS::with_epsilon(m, 1.0).work_conserving();
    report(run(&mut swc));
    let mut hdf = GreedyDensity::new(m);
    report(run(&mut hdf));

    println!(
        "\nS leaves capacity idle by design (band reservations); the \
         work-conserving extension\nrecovers most of it while keeping the \
         admission guarantees — the trade-off the paper\nlists as future \
         work. First 5 trace ticks of S-wc:"
    );
    let mut swc = SchedulerS::with_epsilon(m, 1.0).work_conserving();
    print!("{}", run(&mut swc).1.render(5));
}
