//! Stream-level equivalence oracle: the reference and fast-forward engine
//! paths must emit **byte-identical** JSONL event logs.
//!
//! `crates/sched/tests/fastforward_equiv.rs` compares the two paths at the
//! outcome level (profit, end time, completion sets). This file raises the
//! bar to the whole event stream: every arrival, admission decision,
//! coalesced execution window, node completion, completion and expiry must
//! serialize to the same bytes regardless of which path produced it. An
//! outcome-equal run with a transiently different schedule cannot pass.

use dagsched_core::{AlgoParams, Speed};
use dagsched_engine::{simulate_observed, NodePick, OnlineScheduler, SimConfig};
use dagsched_sched::{Edf, EdfAc, Fifo, GreedyDensity, LeastLaxity, SNoAdmission, SchedulerS};
use dagsched_verify::EventLog;
use dagsched_workload::{ArrivalProcess, DeadlinePolicy, Instance, WorkloadGen};

type SchedFactory = Box<dyn Fn() -> Box<dyn OnlineScheduler>>;

/// Run both paths with an `EventLog` attached; return the two JSONL dumps.
fn log_pair(
    inst: &Instance,
    mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
    cfg: &SimConfig,
) -> (String, String) {
    let mut fast_log = EventLog::new();
    let fast = simulate_observed(inst, mk().as_mut(), cfg, &mut fast_log).expect("fast path runs");
    let naive_cfg = SimConfig {
        fast_forward: false,
        ..cfg.clone()
    };
    let mut naive_log = EventLog::new();
    let naive = simulate_observed(inst, mk().as_mut(), &naive_cfg, &mut naive_log)
        .expect("naive path runs");
    assert!(
        fast.same_outcome(&naive),
        "outcome diverged before stream check"
    );
    (fast_log.to_jsonl(), naive_log.to_jsonl())
}

/// Point at the first differing line so a failure is debuggable, and dump
/// both logs to `target/tmp/` so CI can upload them as artifacts.
fn assert_identical(fast: &str, naive: &str, label: &str) {
    if fast == naive {
        return;
    }
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("event-logs");
    if std::fs::create_dir_all(&dir).is_ok() {
        let slug: String = label
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '-' })
            .collect();
        let _ = std::fs::write(dir.join(format!("{slug}.fast.jsonl")), fast);
        let _ = std::fs::write(dir.join(format!("{slug}.naive.jsonl")), naive);
        eprintln!("{label}: diverging JSONL logs dumped to {}", dir.display());
    }
    for (i, (f, n)) in fast.lines().zip(naive.lines()).enumerate() {
        assert_eq!(f, n, "{label}: streams diverge at line {i}");
    }
    panic!(
        "{label}: streams are a prefix of each other ({} vs {} lines)",
        fast.lines().count(),
        naive.lines().count()
    );
}

fn check_all(inst: &Instance, m: u32, label: &str) {
    let params = AlgoParams::from_epsilon(1.0).expect("valid epsilon");
    let mks: Vec<(&str, SchedFactory)> = vec![
        (
            "S",
            Box::new(move || Box::new(SchedulerS::with_epsilon(m, 1.0))),
        ),
        (
            "S-wc",
            Box::new(move || Box::new(SchedulerS::with_epsilon(m, 1.0).work_conserving())),
        ),
        (
            "S-noadmit",
            Box::new(move || Box::new(SNoAdmission::new(m, params))),
        ),
        ("FIFO", Box::new(move || Box::new(Fifo::new(m)))),
        ("EDF", Box::new(move || Box::new(Edf::new(m)))),
        (
            "GREEDY-DENSITY",
            Box::new(move || Box::new(GreedyDensity::new(m))),
        ),
        ("LLF", Box::new(move || Box::new(LeastLaxity::new(m)))),
        ("EDF-AC", Box::new(move || Box::new(EdfAc::new(m)))),
    ];
    // The fast path hands the reference round its claimed nodes while the
    // naive path picks its own batch, so every deterministic pick runs
    // here; speed 5/4 leaves carryover budget that refills a batch.
    for speed in [
        Speed::ONE,
        Speed::new(5, 4).expect("positive"),
        Speed::new(3, 2).expect("positive"),
        Speed::integer(2).expect("positive"),
    ] {
        for pick in [
            NodePick::Fifo,
            NodePick::Lifo,
            NodePick::CriticalPathFirst,
            NodePick::AdversarialLowHeight,
        ] {
            let cfg = SimConfig {
                speed,
                pick: pick.clone(),
                ..SimConfig::default()
            };
            for (name, mk) in &mks {
                let (fast, naive) = log_pair(inst, mk, &cfg);
                assert_identical(
                    &fast,
                    &naive,
                    &format!("{label}: {name} at speed {speed:?} pick {pick:?}"),
                );
            }
        }
    }
}

#[test]
fn event_streams_identical_on_standard_workloads() {
    for seed in [7u64, 191, 2024] {
        let m = 4 + (seed % 5) as u32;
        let inst = WorkloadGen::standard(m, 30, seed)
            .generate()
            .expect("valid workload");
        check_all(&inst, m, &format!("standard seed {seed}"));
    }
}

#[test]
fn event_streams_identical_under_overload() {
    // Tight deadlines and a hot arrival process maximize admission churn,
    // expiries and window boundaries — the hardest stream to coalesce.
    let m = 6;
    let inst = WorkloadGen {
        arrivals: ArrivalProcess::poisson_for_load(4.0, 60.0, m),
        deadlines: DeadlinePolicy::SlackFactor(1.2),
        ..WorkloadGen::standard(m, 50, 99)
    }
    .generate()
    .expect("valid workload");
    check_all(&inst, m, "overload");
}

/// The logged stream is self-consistent: exactly one start and one end line,
/// every completion/expiry preceded by that job's arrival line.
#[test]
fn logged_stream_is_well_formed() {
    let m = 5;
    let inst = WorkloadGen::standard(m, 25, 13).generate().expect("valid");
    let mut log = EventLog::new();
    let mut s = SchedulerS::with_epsilon(m, 1.0);
    simulate_observed(&inst, &mut s, &SimConfig::default(), &mut log).expect("runs");
    let lines: Vec<&str> = log.lines().collect();
    assert!(lines.first().expect("nonempty").contains(r#""ev":"start""#));
    assert!(lines.last().expect("nonempty").contains(r#""ev":"end""#));
    let count = |kind: &str| {
        lines
            .iter()
            .filter(|l| l.contains(&format!(r#""ev":"{kind}""#)))
            .count()
    };
    assert_eq!(count("start"), 1);
    assert_eq!(count("end"), 1);
    assert_eq!(count("arrive"), inst.len());
    for l in lines {
        assert!(
            l.starts_with('{') && l.ends_with('}'),
            "not a JSON object: {l}"
        );
    }
}
