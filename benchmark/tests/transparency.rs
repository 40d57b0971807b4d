//! The traced run must measure the same work the end-to-end run does:
//! traced simulations, the rebuilt sweep, the rebuilt fuzz loop and the
//! staged table pipeline reproduce their untraced counterparts exactly.

use dagsched_engine::{simulate, SimConfig, SimResult};
use dagsched_experiments::SchedKind;
use dagsched_fuzz::{seed_corpus, FuzzSession};
use dagsched_perf::trace::{
    staged_tables, traced_fuzz, traced_simulate, TimedSched, Traced, Tracer,
};
use dagsched_perf::workloads::{
    fuzz_config, op_seed, sweep_grid, sweep_instance, tables_digest, FuzzCampaign, ParkedDense,
    SweepSteady, Workload,
};
use dagsched_workload::Instance;

/// Traced and untraced runs of `kind` on `inst` agree byte for byte,
/// `steps_executed` included.
fn assert_transparent(inst: &Instance, kind: &SchedKind, cfg: &SimConfig) {
    let mut plain = kind.build(inst.m());
    let want: SimResult = simulate(inst, plain.as_mut(), cfg).unwrap();
    let mut tr = Tracer::new();
    let mut timed = TimedSched::new(kind.build(inst.m()), tr.sched_stats());
    let got = traced_simulate(&mut tr, inst, &mut timed, cfg).unwrap();
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "{} diverged under tracing",
        kind.label()
    );
    assert!(tr.sched_stats().borrow().total_ns() > 0);
}

#[test]
fn traced_simulations_match_simulate_on_sweep_instances() {
    let grid = sweep_grid(op_seed(7, 0));
    for &m in &grid.ms {
        let inst = sweep_instance(&grid, m).unwrap();
        for kind in &grid.scheds {
            for &speed in &grid.speeds {
                assert_transparent(&inst, kind, &SimConfig::at_speed(speed));
            }
        }
    }
}

#[test]
fn traced_simulations_match_simulate_on_parked_instances() {
    for (kind, inst) in &ParkedDense::setup(7).sims {
        assert_transparent(inst, kind, &SimConfig::default());
    }
}

#[test]
fn traced_simulations_match_simulate_on_fuzz_seed_instances() {
    for fi in seed_corpus() {
        let inst = fi.to_instance().unwrap();
        let kind = if fi.sprofit_subject {
            SchedKind::SProfit { epsilon: 1.0 }
        } else {
            SchedKind::S { epsilon: 1.0 }
        };
        assert_transparent(&inst, &kind, &fi.base_config());
    }
}

#[test]
fn traced_sweep_replica_equals_the_sweep_cell_for_cell() {
    let w = SweepSteady::setup(3);
    for index in 0..2 {
        let s = op_seed(3, index);
        let plain = w.op(s).unwrap();
        let traced = w.traced_op(s, &mut Tracer::new()).unwrap();
        assert_eq!(traced, plain);
        assert_eq!(plain.len(), sweep_grid(s).len());
    }
}

#[test]
fn traced_parked_op_equals_the_untraced_op() {
    let w = ParkedDense::setup(3);
    let plain = w.summarize(&w.op(0).unwrap()).unwrap();
    let traced = w
        .summarize(&w.traced_op(0, &mut Tracer::new()).unwrap())
        .unwrap();
    assert_eq!(traced, plain);
}

#[test]
fn traced_fuzz_loop_matches_the_session() {
    for index in 0..2 {
        let cfg = fuzz_config(op_seed(5, index));
        let report = FuzzSession::new(cfg.clone()).run();
        let traced = traced_fuzz(&mut Tracer::new(), &cfg).unwrap();
        assert_eq!(
            (
                traced.execs,
                traced.invalid,
                traced.corpus_len,
                traced.features
            ),
            (
                report.execs,
                report.invalid,
                report.corpus_len,
                report.features
            )
        );
        assert!(traced.failures.is_empty() && report.failures.is_empty());
    }
    // The workload's own op pair agrees too.
    let w = FuzzCampaign::setup(5);
    let s = op_seed(5, 0);
    assert_eq!(
        w.traced_op(s, &mut Tracer::new()).unwrap(),
        w.op(s).unwrap()
    );
}

#[test]
fn staged_tables_equal_run_all() {
    let mut tr = Tracer::new();
    let staged = staged_tables(&mut tr, true);
    let all = dagsched_experiments::run_all(true);
    assert_eq!(staged.len(), all.len());
    assert_eq!(tables_digest(&staged), tables_digest(&all));
    // One kept span per stage under the op-less root.
    assert_eq!(tr.spans.len(), 12);
}
