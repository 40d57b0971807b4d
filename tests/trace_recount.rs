//! `TraceStats` against a brute-force recount on real engine traces.
//!
//! The unit tests in `crates/engine/src/trace.rs` pin the counting rules on
//! hand-built traces; this test re-derives every aggregate from scratch —
//! by a deliberately naive quadratic scan over the trace expanded back to
//! one record per tick — on traces produced by actual simulations, where
//! completions, expiries, idle gaps, plan gaps and allotment changes occur
//! in combinations nobody hand-writes. Every input runs on both engine
//! paths: the naive path reports one window per tick, the production path
//! whole stable windows, and the two traces must be equal.

use dagsched::prelude::*;

/// One tick of an expanded trace: `(tick, alloc)`.
type Tick = (Time, Vec<(JobId, u32)>);

/// The trace with every window expanded to one record per tick.
fn expand(trace: &Trace) -> Vec<Tick> {
    trace
        .windows()
        .iter()
        .flat_map(|w| (0..w.ticks).map(move |t| (w.at.after(t), w.alloc.clone())))
        .collect()
}

/// Quadratic, obviously-correct recount of every `TraceStats` field.
fn recount(ticks: &[Tick], m: u32, completions: &[(JobId, Time)]) -> TraceStats {
    let granted_to = |alloc: &[(JobId, u32)], id: JobId| -> Option<u32> {
        alloc.iter().find(|&&(j, _)| j == id).map(|&(_, k)| k)
    };
    let completed_at = |id: JobId| completions.iter().find(|&&(j, _)| j == id).map(|&(_, t)| t);

    let mut busy_ticks = 0u64;
    let mut processor_ticks = 0u64;
    let mut jobs: Vec<JobId> = Vec::new();
    for (_, alloc) in ticks {
        let granted: u64 = alloc.iter().map(|&(_, k)| k as u64).sum();
        processor_ticks += granted;
        if granted > 0 {
            busy_ticks += 1;
        }
        for &(id, _) in alloc {
            if !jobs.contains(&id) {
                jobs.push(id);
            }
        }
    }

    let mut preemptions = 0u64;
    let mut resize_events = 0u64;
    for pair in ticks.windows(2) {
        let ((prev_at, prev), (cur_at, cur)) = (&pair[0], &pair[1]);
        if prev_at.after(1) != *cur_at {
            continue; // idle gap: ticks are not adjacent in simulated time
        }
        for &(id, k_prev) in prev {
            match granted_to(cur, id) {
                None => {
                    if completed_at(id) != Some(*cur_at) {
                        preemptions += 1;
                    }
                }
                Some(k_cur) if k_cur != k_prev => resize_events += 1,
                Some(_) => {}
            }
        }
    }

    TraceStats {
        busy_ticks,
        processor_ticks,
        mean_utilization: if busy_ticks > 0 {
            processor_ticks as f64 / (busy_ticks as f64 * m as f64)
        } else {
            0.0
        },
        preemptions,
        resize_events,
        jobs_run: jobs.len(),
    }
}

type Build = fn(u32) -> Box<dyn OnlineScheduler>;
const S: Build = |m| Box::new(SchedulerS::with_epsilon(m, 1.0));
const S_WC: Build = |m| Box::new(SchedulerS::with_epsilon(m, 1.0).work_conserving());
/// S-profit's bounded plan gaps run as wide empty-allocation windows on the
/// production path.
const S_PROFIT: Build = |m| Box::new(SchedulerSProfit::with_epsilon(m, 1.0));
const GREEDY: Build = |m| Box::new(GreedyDensity::new(m));
const LLF: Build = |m| Box::new(LeastLaxity::new(m));
const EDF: Build = |m| Box::new(Edf::new(m));

/// Runs each scheduler on `inst` under `cfg` on both engine paths, asserts
/// equal traces, and recounts the statistics from the expanded ticks.
/// Returns each scheduler's statistics, in `builds` order.
fn check(inst: &Instance, builds: &[Build], cfg: &SimConfig, tag: &str) -> Vec<TraceStats> {
    let mut all = Vec::new();
    let completions = |r: &SimResult| -> Vec<(JobId, Time)> {
        let done = r.outcomes.iter().enumerate().filter_map(|(i, o)| match *o {
            JobStatus::Completed { at, .. } => Some((JobId(i as u32), at)),
            _ => None,
        });
        done.collect()
    };
    for build in builds {
        let run = |fast_forward| {
            let mut trace = Trace::new();
            let cfg = SimConfig {
                fast_forward,
                ..cfg.clone()
            };
            let r = simulate_observed(inst, build(inst.m()).as_mut(), &cfg, &mut trace)
                .expect("simulation runs");
            (r, trace)
        };
        let ((r, trace), (naive, naive_trace)) = (run(true), run(false));
        let label = format!("{} {tag}", r.scheduler);
        assert!(r.same_outcome(&naive), "{label}: paths disagree");
        assert_eq!(trace, naive_trace, "{label}: paths record different traces");
        for pair in trace.windows().windows(2) {
            assert!(
                pair[0].at.after(pair[0].ticks) != pair[1].at || pair[0].alloc != pair[1].alloc,
                "{label}: adjacent equal windows were not merged"
            );
        }
        let ticks = expand(&trace);
        assert_eq!(ticks.len() as u64, r.ticks_simulated, "{label}: tick count");
        let got = trace.stats();
        let want = recount(&ticks, inst.m(), &completions(&r));
        assert_eq!(
            got, want,
            "{label}: stats disagree with brute-force recount"
        );
        assert!(got.jobs_run <= inst.len(), "{label}: phantom jobs in trace");
        all.push(got);
    }
    all
}

#[test]
fn stats_match_recount_on_random_instances() {
    for seed in [3u64, 58, 477, 901] {
        let m = 3 + (seed % 6) as u32;
        let inst = WorkloadGen::standard(m, 30, seed)
            .generate()
            .expect("valid workload");
        let builds = [S, S_WC, GREEDY, LLF, S_PROFIT];
        check(
            &inst,
            &builds,
            &SimConfig::default(),
            &format!("seed {seed}"),
        );
    }
}

#[test]
fn stats_match_recount_under_preemption_heavy_overload() {
    // Tight deadlines force expiries mid-run; LLF reshuffles allotments
    // constantly — the richest source of preemption/resize edge cases.
    let m = 4;
    let inst = WorkloadGen {
        arrivals: ArrivalProcess::poisson_for_load(5.0, 40.0, m),
        deadlines: DeadlinePolicy::SlackFactor(1.1),
        ..WorkloadGen::standard(m, 60, 31)
    }
    .generate()
    .expect("valid workload");
    check(
        &inst,
        &[LLF, EDF, S, S_PROFIT],
        &SimConfig::default(),
        "overload",
    );

    // At slack 1.1 no job is δ-good, so S and S-profit run nothing above.
    // At slack 2 both run jobs under the same overload.
    let inst = WorkloadGen {
        arrivals: ArrivalProcess::poisson_for_load(5.0, 40.0, m),
        deadlines: DeadlinePolicy::SlackFactor(2.0),
        ..WorkloadGen::standard(m, 60, 31)
    }
    .generate()
    .expect("valid workload");
    let stats = check(
        &inst,
        &[S, S_PROFIT],
        &SimConfig::default(),
        "overload at slack 2",
    );
    for (name, got) in ["S", "S-profit"].iter().zip(&stats) {
        assert!(got.busy_ticks > 0, "{name} ran nothing at slack 2");
    }
}

#[test]
fn stats_match_recount_on_related_machines() {
    let inst = WorkloadGen::standard(4, 30, 17)
        .generate()
        .expect("valid workload");
    let cfg = SimConfig::on_groups("2x1,2x3/2".parse().expect("valid shape"));
    check(&inst, &[S, S_WC, S_PROFIT, GREEDY, LLF], &cfg, "2x1,2x3/2");
}
