//! Differential suite for the general-profit scheduler: the production
//! [`SchedulerSProfit`] (segment plan, bounded-stability fast-forward,
//! cached replay) against [`PaperSProfit`], the Section 5 transcription.
//!
//! The transcription claims **no** stability, so the engine asks it every
//! tick; the production scheduler runs the windowed fast path by default.
//! The outcome must still be byte-identical — same `SimResult` (every field
//! [`SimResult::same_outcome`] compares) and the same JSONL event stream
//! (the event log coalesces a window of `s` identical per-tick records into
//! exactly the record the fast path emits in one call). The one field that
//! legitimately differs is `steps_executed`, so this suite never compares
//! it.
//!
//! RANDOM is not in the paper. Its runs on every input and config here are
//! pinned by golden digests (FNV-1a of the `SimResult` `Debug` text and of
//! the JSONL log, recorded at `50cc33e`), and the paused proptest and the
//! threaded sweep hold its production path to its naive per-tick run.
//!
//! Corpus: the standard seeds, an overload mix, a parked-majority
//! instance (mostly rejected jobs → the plan-gap bulk-skip carries the
//! run), the fuzzer's collision family, a multi-thread sweep, and
//! proptest-driven paused `run_until` runs at random horizons. On a
//! mismatch both logs are dumped to `target/tmp/event-logs/`.

use dagsched_core::{JobId, Speed, Time};
use dagsched_engine::{
    parallel_map, simulate_observed, NodePick, OnlineScheduler, SimConfig, SimDriver, SimObserver,
    SimResult,
};
use dagsched_sched::{PaperSProfit, RandomOrder, SchedulerSProfit};
use dagsched_verify::EventLog;
use dagsched_workload::{
    ArrivalProcess, DeadlinePolicy, Instance, JobSpec, StepProfitFn, WorkloadGen,
};

type SchedFactory = Box<dyn Fn() -> Box<dyn OnlineScheduler> + Sync>;

/// The production S-profit and its paper transcription.
fn sprofit(m: u32) -> (SchedFactory, SchedFactory) {
    (
        Box::new(move || Box::new(SchedulerSProfit::with_epsilon(m, 1.0)) as _),
        Box::new(move || Box::new(PaperSProfit::with_epsilon(m, 1.0)) as _),
    )
}

/// The seeded RANDOM baseline.
fn random(m: u32) -> SchedFactory {
    Box::new(move || Box::new(RandomOrder::new(m, 42)) as _)
}

/// The production scheduler of pair 0 (S-profit) or pair 1 (RANDOM).
fn production(pair: usize, m: u32) -> (&'static str, SchedFactory) {
    match pair {
        0 => ("S-profit", sprofit(m).0),
        _ => ("RANDOM", random(m)),
    }
}

/// The run a default-config production run of `pair` must match:
/// S-profit's paper transcription, or RANDOM's own naive per-tick run.
fn reference_run(pair: usize, inst: &Instance) -> (SimResult, String) {
    match pair {
        0 => run_one(inst, &sprofit(inst.m()).1, &SimConfig::default()),
        _ => {
            let naive = SimConfig {
                fast_forward: false,
                ..SimConfig::default()
            };
            run_one(inst, &random(inst.m()), &naive)
        }
    }
}

/// One observed run.
fn run_one(
    inst: &Instance,
    mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
    cfg: &SimConfig,
) -> (SimResult, String) {
    let mut log = EventLog::new();
    let r = simulate_observed(inst, mk().as_mut(), cfg, &mut log).expect("run succeeds");
    (r, log.to_jsonl())
}

/// Dump both logs to `target/tmp/event-logs/`, where CI picks them up.
fn dump_logs(label: &str, production: &str, reference: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("event-logs");
    if std::fs::create_dir_all(&dir).is_ok() {
        let slug: String = label
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '-' })
            .collect();
        let _ = std::fs::write(dir.join(format!("{slug}.production.jsonl")), production);
        let _ = std::fs::write(dir.join(format!("{slug}.reference.jsonl")), reference);
        eprintln!("{label}: diverging logs dumped to {}", dir.display());
    }
}

fn assert_matches(label: &str, fast: (SimResult, String), reference: &(SimResult, String)) {
    if !fast.0.same_outcome(&reference.0) || fast.1 != reference.1 {
        dump_logs(label, &fast.1, &reference.1);
    }
    assert!(
        fast.0.same_outcome(&reference.0),
        "{label}: production outcome diverges from the reference\n\
         production: profit {} ticks {} end {:?}\nreference : profit {} ticks {} end {:?}",
        fast.0.total_profit,
        fast.0.ticks_simulated,
        fast.0.end_time,
        reference.0.total_profit,
        reference.0.ticks_simulated,
        reference.0.end_time,
    );
    // `steps_executed` is deliberately not compared: the production path
    // takes fewer engine steps for the same schedule.
    if fast.1 != reference.1 {
        for (i, (f, o)) in fast.1.lines().zip(reference.1.lines()).enumerate() {
            assert_eq!(f, o, "{label}: event streams diverge at line {i}");
        }
        panic!(
            "{label}: streams are a prefix of each other ({} vs {} lines)",
            fast.1.lines().count(),
            reference.1.lines().count()
        );
    }
}

fn check_pair(
    inst: &Instance,
    (mk_fast, mk_paper): &(SchedFactory, SchedFactory),
    cfg: &SimConfig,
    label: &str,
) {
    let reference = run_one(inst, mk_paper, cfg);
    let fast = run_one(inst, mk_fast, cfg);
    assert_matches(label, fast, &reference);
}

/// Every speed × node pick × engine path the comparison covers. The
/// production scheduler must also be byte-faithful on the naive path, where
/// its segment plan is asked every tick like the transcription.
fn configs() -> Vec<SimConfig> {
    let mut out = Vec::new();
    for speed in [Speed::ONE, Speed::new(3, 2).expect("positive")] {
        for pick in [NodePick::Fifo, NodePick::CriticalPathFirst] {
            for fast_forward in [true, false] {
                out.push(SimConfig {
                    speed,
                    pick: pick.clone(),
                    fast_forward,
                    ..SimConfig::default()
                });
            }
        }
    }
    out
}

fn check_all(inst: &Instance, label: &str) {
    for cfg in configs() {
        check_pair(
            inst,
            &sprofit(inst.m()),
            &cfg,
            &format!(
                "{label}: S-profit at speed {:?} pick {:?} ff {}",
                cfg.speed, cfg.pick, cfg.fast_forward
            ),
        );
    }
}

/// FNV-1a, 64-bit, as `tests/golden_outputs.rs` digests.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends one line per config to `all`: the digests of RANDOM's
/// `SimResult` `Debug` text and JSONL event log on `inst`. RANDOM is not in
/// the paper, so it is pinned by these digests rather than against a
/// second implementation.
fn digest_random(inst: &Instance, label: &str, all: &mut String) {
    for cfg in configs() {
        let (res, log) = run_one(inst, &random(inst.m()), &cfg);
        all.push_str(&format!(
            "{label} {:?} {:?} {} {:#x} {:#x}\n",
            cfg.speed,
            cfg.pick,
            cfg.fast_forward,
            fnv1a(format!("{res:?}").as_bytes()),
            fnv1a(log.as_bytes()),
        ));
    }
}

/// The standard workloads: three seeds of the default generator.
fn standard_workloads() -> Vec<(u64, Instance)> {
    [7u64, 191, 2024]
        .into_iter()
        .map(|seed| {
            let m = 4 + (seed % 5) as u32;
            let inst = WorkloadGen::standard(m, 30, seed)
                .generate()
                .expect("valid workload");
            (seed, inst)
        })
        .collect()
}

/// Tight deadlines + hot arrivals: maximal admission churn, so the
/// slot-plan split/insert/release machinery is exercised hardest.
fn overload_workload() -> Instance {
    let m = 6;
    WorkloadGen {
        arrivals: ArrivalProcess::poisson_for_load(4.0, 60.0, m),
        deadlines: DeadlinePolicy::SlackFactor(1.2),
        ..WorkloadGen::standard(m, 50, 99)
    }
    .generate()
    .expect("valid workload")
}

#[test]
fn rewrites_match_oracles_on_standard_workloads() {
    for (seed, inst) in standard_workloads() {
        check_all(&inst, &format!("standard seed {seed}"));
    }
}

#[test]
fn rewrites_match_oracles_under_overload() {
    let inst = overload_workload();
    check_all(&inst, "overload");
}

#[test]
fn random_is_golden_on_standard_workloads_and_overload() {
    let mut all = String::new();
    for (seed, inst) in standard_workloads() {
        digest_random(&inst, &format!("standard seed {seed}"), &mut all);
    }
    digest_random(&overload_workload(), "overload", &mut all);
    assert_eq!(all.len(), 3054);
    assert_eq!(fnv1a(all.as_bytes()), 0xbab1_c014_3642_63bf);
}

/// Lone single-node jobs whose profit pays 10 up to tick 1 and 5 forever
/// after, so only the tail step can hold a deadline, and the `(1+ε)L`
/// floor (`2L + 1` at `ε = 1`) sets it. The tail step ends
/// `horizon − r + k + 2` ticks past the later of the last bound and that
/// floor, `k = ⌈1.25 L⌉` slots.
///
/// * Job 0 (`L = 3`, `k = 4`, empty plan) needs `D = 7`; its slots
///   `[0, 4)` make the plan's horizon 3.
/// * Job 1 (`L = 7`, `k = 9`, `r = 1`) needs `D = 15`, the floor. Measured
///   from the last bound, the cap (`1 + 2 + 9 + 2 = 14`) would end a tick
///   before it and reject the job; measured from the floor it ends at 28.
/// * Job 2 (`L = 6`, `k = 8`, `r = 1`) needs `D = 13`.
fn tail_cap_instance() -> Instance {
    use dagsched_dag::gen;
    let profit = StepProfitFn::steps(vec![(Time(1), 10)], 5).expect("valid profit");
    let jobs = [(0, 3), (1, 7), (1, 6)]
        .into_iter()
        .enumerate()
        .map(|(i, (r, work))| {
            JobSpec::new(
                JobId(i as u32),
                Time(r),
                gen::single(work).into_shared(),
                profit.clone(),
            )
        })
        .collect();
    Instance::new(4, jobs).expect("valid tail-cap instance")
}

#[test]
fn tail_step_cap_is_pinned() {
    let inst = tail_cap_instance();
    check_all(&inst, "tail cap");
    let mut s = SchedulerSProfit::with_epsilon(4, 1.0);
    let r = dagsched_engine::simulate(&inst, &mut s, &SimConfig::default()).expect("run succeeds");
    let deadlines: Vec<Option<Time>> = (0..3).map(|i| s.assigned_deadline(JobId(i))).collect();
    assert_eq!(deadlines, [Some(Time(7)), Some(Time(16)), Some(Time(14))]);
    assert_eq!(r.total_profit, 15, "every job earns the tail");
}

/// 40 long background jobs (work 5,000) arrive at `t = 0` behind a brief
/// wave of 20 chain jobs, one every other tick. Most background jobs are
/// rejected at admission (band conflicts) and wait out their profit
/// unallocated, so the run is dominated by plan gaps — exactly the
/// stretches the bounded-stability bulk-skip fast-forwards through in one
/// window each.
fn parked_instance(background: StepProfitFn, wave: StepProfitFn) -> Instance {
    use dagsched_dag::gen;
    let mut jobs: Vec<JobSpec> = (0..40u32)
        .map(|i| {
            JobSpec::new(
                JobId(i),
                Time(0),
                gen::single(5_000).into_shared(),
                background.clone(),
            )
        })
        .collect();
    for i in 0..20u32 {
        jobs.push(JobSpec::new(
            JobId(40 + i),
            Time(2 * i as u64),
            gen::chain(3, 2).into_shared(),
            wave.clone(),
        ));
    }
    Instance::new(4, jobs).expect("valid parked instance")
}

#[test]
fn rewrites_match_oracles_with_a_parked_majority() {
    let inst = parked_instance(
        StepProfitFn::deadline(Time(50_000), 1),
        StepProfitFn::deadline(Time(40), 3),
    );
    check_all(&inst, "parked majority");
}

#[test]
fn random_is_golden_with_a_parked_majority() {
    let inst = parked_instance(
        StepProfitFn::deadline(Time(50_000), 1),
        StepProfitFn::deadline(Time(40), 3),
    );
    let mut all = String::new();
    digest_random(&inst, "parked majority", &mut all);
    assert_eq!(all.len(), 768);
    assert_eq!(fnv1a(all.as_bytes()), 0xe8fc_4654_5026_cf19);
}

/// The slot-plan regime of `fastforward_guard.rs` at 40 background jobs:
/// two-step profits (background cliffs at 25,000 and 50,000, wave cliffs
/// at 40 and 90) leave one long plan gap. It runs once, on the default
/// config: the transcription steps every one of the 50,001 ticks.
#[test]
fn sprofit_matches_oracle_on_a_parked_slot_plan() {
    let two_step = |a, pa, b, pb| StepProfitFn::steps(vec![(Time(a), pa), (Time(b), pb)], 0);
    let inst = parked_instance(
        two_step(25_000, 4, 50_000, 2).expect("valid background profit"),
        two_step(40, 3, 90, 1).expect("valid wave profit"),
    );
    check_pair(
        &inst,
        &sprofit(4),
        &SimConfig::default(),
        "parked slot plan: S-profit",
    );
}

/// The standard corpus again through the multi-thread harness: each
/// (instance, pair) runs both sides on a worker thread. Byte-identity
/// must hold at N threads exactly as at 1.
#[test]
fn rewrites_match_oracles_across_threads() {
    let insts = standard_workloads();
    let tasks: Vec<(usize, usize)> = (0..insts.len()).flat_map(|i| [(i, 0), (i, 1)]).collect();
    let insts_ref = &insts;
    let results = parallel_map(tasks, 4, |&(i, pair)| {
        let (seed, inst) = &insts_ref[i];
        let (name, mk_fast) = production(pair, inst.m());
        let fast = run_one(inst, &mk_fast, &SimConfig::default());
        let reference = reference_run(pair, inst);
        (format!("threaded seed {seed} {name}"), fast, reference)
    });
    for (label, fast, reference) in results {
        assert_matches(&label, fast, &reference);
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Pausing a fast-path driver at arbitrary horizons matches the
        /// one-shot reference run (S-profit's transcription, RANDOM's naive
        /// path): segment-plan state, the replay cache, and the
        /// bounded-stability windows all survive `run_until` boundaries.
        #[test]
        fn paused_fast_run_matches_one_shot_oracle(
            seed in 0u64..500,
            hseed in 0u64..500,
            n_pauses in 1usize..12,
            pair in 0usize..2,
        ) {
            let m = 4 + (seed % 5) as u32;
            let inst = WorkloadGen::standard(m, 20, seed)
                .generate()
                .expect("valid workload");
            let (name, mk_fast) = production(pair, m);
            let reference = reference_run(pair, &inst);

            let span = inst.stats().horizon.ticks() + 8;
            let mut rng = dagsched_core::Rng64::seed_from(hseed);
            let cfg = SimConfig::default();
            let mut log = EventLog::new();
            let mut sched = mk_fast();
            let mut driver = SimDriver::with_observer(
                &inst,
                sched.as_mut(),
                &cfg,
                &mut log as &mut dyn SimObserver,
            );
            for _ in 0..n_pauses {
                driver
                    .run_until(Time(rng.gen_range(span.max(1))))
                    .expect("run_until runs");
            }
            let r = driver.finish().expect("finish runs");
            assert_matches(
                &format!("paused fast seed {seed} {name}"),
                (r, log.to_jsonl()),
                &reference,
            );
        }
    }
}

/// The fuzzer's collision family: same-step admit+expire batches and dense
/// ready churn through the shared generator, so this suite and the fuzzer
/// sample the same distribution.
#[test]
fn rewrites_match_oracles_on_the_fuzz_collision_corpus() {
    let corpus = dagsched_fuzz::collision_instances(0xDE17A, 16);
    for (ci, inst) in corpus.iter().enumerate() {
        check_pair(
            inst,
            &sprofit(inst.m()),
            &SimConfig::default(),
            &format!("fuzz collision #{ci} S-profit"),
        );
    }
}

#[test]
fn random_is_golden_on_the_fuzz_collision_corpus() {
    let corpus = dagsched_fuzz::collision_instances(0xDE17A, 16);
    let mut all = String::new();
    for (ci, inst) in corpus.iter().enumerate() {
        digest_random(inst, &format!("fuzz collision #{ci}"), &mut all);
    }
    assert_eq!(all.len(), 12566);
    assert_eq!(fnv1a(all.as_bytes()), 0xadfc_223b_40ef_f671);
}
