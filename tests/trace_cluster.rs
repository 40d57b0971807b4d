//! Integration tests for execution traces, the work-conserving extension
//! and the cluster-trace workload — the post-paper features.

use dagsched::prelude::*;
use dagsched::workload::ClusterTraceGen;

/// `sched` on `inst` with a [`Trace`] observer attached.
fn traced(inst: &Instance, sched: &mut dyn OnlineScheduler) -> (SimResult, Trace) {
    let mut trace = Trace::new();
    let r = simulate_observed(inst, sched, &SimConfig::default(), &mut trace).unwrap();
    (r, trace)
}

#[test]
fn trace_accounting_matches_sim_result() {
    let inst = WorkloadGen::standard(8, 60, 11).generate().unwrap();
    let mut s = GreedyDensity::new(8);
    let (r, trace) = traced(&inst, &mut s);
    assert_eq!(trace.ticks(), r.ticks_simulated);
    let ts = trace.stats();
    // Granted processor-ticks bound actual work: at unit speed a granted
    // processor does at most 1 unit (it may idle if the job has fewer ready
    // nodes than granted processors).
    assert!(ts.processor_ticks >= r.work_processed());
    assert!(ts.mean_utilization > 0.0 && ts.mean_utilization <= 1.0);
    // Every completed job appears in the trace and its granted
    // processor-ticks cover its work.
    let completed = r
        .outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_completed());
    for id in completed.map(|(i, _)| JobId(i as u32)) {
        assert!(trace.first_start(id).is_some(), "{id} never ran?");
        let w = inst.jobs()[id.index()].work().units();
        assert!(
            trace.processor_ticks_of(id) >= w,
            "{id}: granted {} < work {w}",
            trace.processor_ticks_of(id)
        );
    }
}

#[test]
fn scheduler_s_never_preempts_scheduled_jobs_on_batch_arrivals() {
    // With all jobs present at t=0 and no later arrivals, S's density order
    // inside Q is fixed, so a job that starts executing keeps its allotment
    // until it finishes: zero preemptions (the property motivating the
    // paper's "fewer preemptions" future-work note).
    let inst = WorkloadGen {
        arrivals: ArrivalProcess::AllAtOnce,
        ..WorkloadGen::standard(8, 40, 5)
    }
    .generate()
    .unwrap();
    let mut s = SchedulerS::with_epsilon(8, 1.0);
    let ts = traced(&inst, &mut s).1.stats();
    assert_eq!(ts.preemptions, 0, "S preempted under batch arrivals");
}

#[test]
fn work_conserving_s_dominates_plain_s_on_cluster_days() {
    for seed in [1u64, 2, 3] {
        let inst = ClusterTraceGen::new(16, 150, seed).generate().unwrap();
        let mut plain = SchedulerS::with_epsilon(16, 1.0);
        let (p, p_trace) = traced(&inst, &mut plain);
        let mut wc = SchedulerS::with_epsilon(16, 1.0).work_conserving();
        let (w, w_trace) = traced(&inst, &mut wc);
        assert!(
            w.total_profit >= p.total_profit,
            "seed {seed}: wc {} < plain {}",
            w.total_profit,
            p.total_profit
        );
        // And it uses the machine at least as much.
        let up = p_trace.stats().processor_ticks;
        let uw = w_trace.stats().processor_ticks;
        assert!(uw >= up, "seed {seed}: wc used fewer processor-ticks");
    }
}

#[test]
fn cluster_trace_runs_clean_under_every_scheduler() {
    let inst = ClusterTraceGen::new(8, 100, 9).generate().unwrap();
    let schedulers: Vec<Box<dyn OnlineScheduler>> = vec![
        Box::new(SchedulerS::with_epsilon(8, 1.0)),
        Box::new(SchedulerS::with_epsilon(8, 1.0).work_conserving()),
        Box::new(SchedulerSProfit::with_epsilon(8, 1.0)),
        Box::new(Edf::new(8)),
        Box::new(GreedyDensity::new(8)),
    ];
    for mut sched in schedulers {
        let r = simulate(&inst, sched.as_mut(), &SimConfig::default()).unwrap();
        assert_eq!(r.outcomes.len(), 100);
        assert!(r.total_profit > 0, "{} earned nothing", r.scheduler);
    }
}

#[test]
fn trace_is_identical_across_reruns() {
    let inst = ClusterTraceGen::new(8, 80, 4).generate().unwrap();
    let run = || {
        let mut s = SchedulerS::with_epsilon(8, 1.0).work_conserving();
        traced(&inst, &mut s).1
    };
    assert_eq!(run(), run(), "traces must be bit-identical");
}
