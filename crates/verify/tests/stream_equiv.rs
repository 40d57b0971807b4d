//! Engine-path and pacing equivalence: the naive reference path, the
//! production path, and a production driver paced by `step()` or
//! `run_until` must all produce the same run, down to **byte-identical**
//! JSONL event logs.
//!
//! The naive path shares no event or handoff code with the production
//! path: it scans for expiries where production walks the lifecycle's
//! expiry cursor, and rebuilds the view and asks for an allocation every
//! tick where production maintains the view and replays the last
//! allocation until the view changes or its validity end comes. So one
//! comparison checks the production windows and expiry batches, the
//! engine's replay and every scheduler's stability declaration at once. Every comparison is
//! [`assert_same_run`] with a step relation:
//!
//! * **fast vs naive** (`Steps::AtMost`): every roster scheduler on the
//!   standard instances (carry-over on and off), the overload instance and
//!   a hand-built triple tie (arrival, expiry and completion on one tick,
//!   on a window edge) under every speed × deterministic pick; a parked
//!   majority where replay carries the run; the fuzzer's collision family
//!   and collision-dense proptest instances; and a toy greedy scheduler
//!   over random workloads, picks (the random pick included) and
//!   carry-over settings;
//! * **paused vs one-shot naive** (`Steps::AtMost`): pauses exactly on tie
//!   instants and at random horizons, on both paths;
//! * **paced vs one-shot** (`Steps::Equal`): `step()` by `step()` and
//!   `run_until` at random horizons, on the same config.
//!
//! The corpus runs go to two worker threads, and the standard instances'
//! default-config runs once more to four, interleaved, so byte-identity
//! also holds with runs on concurrent threads: neither path has hidden
//! shared state.
//! Step counts differ between the paths by design; the golden digests in
//! `tests/golden_outputs.rs` pin the production path's.

mod support;

use dagsched_core::{JobId, Speed, Time};
use dagsched_engine::{
    simulate_observed, Allocation, JobInfo, NodePick, OnlineScheduler, SimConfig, SimObserver,
    TickView,
};
use dagsched_sched::SchedulerS;
use dagsched_verify::EventLog;
use dagsched_workload::{DeadlinePolicy, Instance, JobSpec, StepProfitFn, WorkloadGen};
use std::path::Path;
use support::{
    assert_same_run, check_corpus, describe, eps1, matrix, naive, overload, run_logged, run_paced,
    Against, Make, Run, Steps, ROSTER,
};

/// Every speed × deterministic pick, on the production path. The fast path
/// hands the reference round its claimed nodes while the naive path picks
/// its own batch, so every deterministic pick runs here; speed 5/4 leaves
/// carry-over budget that refills a batch.
fn fast_configs(carryover: &[bool]) -> Vec<SimConfig> {
    let picks = [
        NodePick::Fifo,
        NodePick::Lifo,
        NodePick::CriticalPathFirst,
        NodePick::AdversarialLowHeight,
    ];
    matrix(
        &[(1, 1), (5, 4), (3, 2), (2, 1)],
        &picks,
        &[true],
        carryover,
    )
}

/// `make`'s runs under `cfg` and under its naive twin.
fn fast_and_naive(inst: &Instance, make: Make, cfg: &SimConfig) -> (Run, Run) {
    let run = |cfg| run_logged(inst, make(inst.m(), eps1()).as_mut(), cfg);
    (run(cfg), run(&naive(cfg)))
}

/// `cfg`'s run against its naive run: same outcome and stream, no more
/// steps.
fn check_fast_vs_naive(inst: &Instance, make: Make, cfg: &SimConfig, label: &str) {
    let (fast, slow) = fast_and_naive(inst, make, cfg);
    assert_same_run(label, &fast, &slow, Steps::AtMost);
}

/// Every roster scheduler, fast against naive, under every config.
fn check_all(inst: &Instance, cfgs: &[SimConfig], label: &str) {
    check_corpus(inst, eps1(), cfgs, Against::Naive, label);
}

#[test]
fn dump_helper_writes_rendered_jsonl() {
    let inst = triple_tie_instance();
    let make: Make = |m, _| Box::new(SchedulerS::with_epsilon(m, 1.0));
    let (fast, slow) = fast_and_naive(&inst, make, &SimConfig::default());
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("dump-pair-selftest");
    let [f, n] = support::dump(&dir, "triple tie: S", &fast.1, &slow.1).expect("dump writes");
    assert!(f.ends_with("triple-tie--S.got.jsonl"), "{}", f.display());
    let (f, n) = (
        std::fs::read_to_string(f).expect("got dump"),
        std::fs::read_to_string(n).expect("want dump"),
    );
    assert_eq!(f, fast.1.to_jsonl());
    assert_eq!(n, slow.1.to_jsonl());
    assert!(
        f.starts_with(r#"{"ev":"start""#) && f.ends_with("}\n"),
        "{f}"
    );
}

/// Log equality is rendered-text equality: over the corpus on both paths,
/// and across schedulers and speeds (where most pairs differ), two logs
/// compare equal exactly when their JSONL does.
#[test]
fn log_equality_is_rendered_equality_on_the_corpus() {
    let mut logs = Vec::new();
    let groups: dagsched_core::MachineGroups = "2x1,2x3/2".parse().expect("valid groups");
    for seed in [7u64, 2024] {
        let inst = WorkloadGen::standard(4, 12, seed)
            .generate()
            .expect("valid");
        let mut cfgs = matrix(&[(1, 1), (3, 2)], &[NodePick::Fifo], &[true], &[true]);
        cfgs.push(SimConfig {
            groups: Some(groups.clone()),
            ..SimConfig::default()
        });
        for cfg in &cfgs {
            for e in &ROSTER {
                let (fast, slow) = fast_and_naive(&inst, e.make, cfg);
                assert!(fast.0.same_outcome(&slow.0), "{} diverged", e.name);
                logs.push(fast.1);
                logs.push(slow.1);
            }
        }
    }
    let text: Vec<String> = logs.iter().map(EventLog::to_jsonl).collect();
    let (mut equal, mut unequal) = (0, 0);
    for (a, ta) in logs.iter().zip(&text) {
        for (b, tb) in logs.iter().zip(&text) {
            assert_eq!(a == b, ta == tb);
            if a == b {
                equal += 1;
            } else {
                unequal += 1;
            }
        }
    }
    assert!(
        equal > logs.len() && unequal > logs.len(),
        "{equal} / {unequal}"
    );
}

/// Whether `cfg` is one of the common configs: speed 1, 3/2 or 2 under the
/// FIFO or critical-path-first pick, carry-over on. Each corpus below runs
/// them in one test and the rest of its matrix in another.
fn is_common(cfg: &SimConfig) -> bool {
    let speeds = [(1, 1), (3, 2), (2, 1)].map(|(n, d)| Speed::new(n, d).expect("positive"));
    cfg.carryover
        && speeds.contains(&cfg.speed)
        && matches!(cfg.pick, NodePick::Fifo | NodePick::CriticalPathFirst)
}

/// The standard instances' configs with `is_common` equal to `common`.
/// Carry-over spends a processor's leftover budget on another node in the
/// same tick; at speed 1 the budget is one unit, never left over.
fn standard_configs(common: bool) -> Vec<SimConfig> {
    let mut cfgs = fast_configs(&[true, false]);
    cfgs.retain(|cfg| (cfg.carryover || cfg.speed != Speed::ONE) && is_common(cfg) == common);
    cfgs
}

/// The overload instance's configs with `is_common` equal to `common`.
fn overload_configs(common: bool) -> Vec<SimConfig> {
    let mut cfgs = fast_configs(&[true]);
    cfgs.retain(|cfg| is_common(cfg) == common);
    cfgs
}

#[test]
fn production_schedulers_match_on_standard_workloads() {
    let cfgs = standard_configs(true);
    for (label, inst) in support::standard_instances() {
        check_all(&inst, &cfgs, &label);
    }
}

#[test]
fn event_streams_identical_on_standard_workloads() {
    let cfgs = standard_configs(false);
    for (label, inst) in support::standard_instances() {
        check_all(&inst, &cfgs, &label);
    }
}

#[test]
fn event_streams_identical_across_threads() {
    support::check_standard_across_threads(Against::Naive);
}

#[test]
fn production_schedulers_match_under_overload() {
    check_all(&overload(6, 50), &overload_configs(true), "overload");
}

#[test]
fn event_streams_identical_under_overload() {
    check_all(&overload(6, 50), &overload_configs(false), "overload");
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
    let text = log.to_jsonl();
    let lines: Vec<&str> = text.lines().collect();
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

/// Hand-built tie nest: on one machine of 2 processors, tick 10 carries a
/// completion frontier (job 0's 11-unit node claimed from t = 0), an expiry
/// boundary (job 1, deadline exactly 10 with an unstartable workload), and
/// an arrival (job 2) — all three event kinds due on the same tick, which
/// is also exactly the preceding window's edge.
fn triple_tie_instance() -> Instance {
    use dagsched_dag::gen;
    let jobs = vec![
        JobSpec::new(
            JobId(0),
            Time(0),
            gen::single(11).into_shared(),
            StepProfitFn::deadline(Time(100), 7),
        ),
        JobSpec::new(
            JobId(1),
            Time(0),
            gen::chain(4, 25).into_shared(),
            StepProfitFn::deadline(Time(10), 5),
        ),
        JobSpec::new(
            JobId(2),
            Time(10),
            gen::single(3).into_shared(),
            StepProfitFn::deadline(Time(20), 3),
        ),
    ];
    Instance::new(2, jobs).expect("valid tie instance")
}

#[test]
fn simultaneous_arrival_expiry_completion_tie() {
    check_all(
        &triple_tie_instance(),
        &fast_configs(&[true]),
        "triple tie at t=10",
    );
}

/// A parked majority: almost every production step sees an unchanged view
/// (or a handful of ready patches) and the engine's replay carries the run,
/// while the naive path rebuilds and re-allocates every tick.
#[test]
fn event_streams_identical_with_a_parked_majority() {
    let inst = support::parked_majority(
        StepProfitFn::deadline(Time(50_000), 1),
        StepProfitFn::deadline(Time(40), 3),
    );
    check_all(&inst, &[SimConfig::default()], "parked majority");
}

/// The fuzzer's collision family, via its shared generator: keeps this
/// suite and the fuzzer's naive-vs-fast oracle head sampling the same
/// distribution.
#[test]
fn event_streams_identical_on_the_fuzz_collision_corpus() {
    for (ci, inst) in support::collision_corpus().iter().enumerate() {
        check_all(
            inst,
            &[SimConfig::default()],
            &format!("fuzz collision #{ci}"),
        );
    }
}

/// A paused run on either path must match the one-shot naive run's outcome
/// and stream, in no more steps.
fn check_paused(inst: &Instance, make: Make, pauses: &[Time], label: &str) {
    let slow_cfg = naive(&SimConfig::default());
    let slow = run_logged(inst, make(inst.m(), eps1()).as_mut(), &slow_cfg);
    for cfg in [SimConfig::default(), slow_cfg.clone()] {
        let paused = run_paced(inst, make(inst.m(), eps1()).as_mut(), &cfg, Some(pauses));
        let label = format!("{label} ff {}", cfg.fast_forward);
        assert_same_run(&label, &paused, &slow, Steps::AtMost);
    }
}

/// Pausing `run_until` *exactly* on a tie instant — the tick where a
/// completion, an arrival, and an expiry all fire — must be invisible on
/// both paths. A pause boundary landing on the tie is the sharpest pacing
/// test there is: the driver must stop on the instant without reordering
/// any of the three coincident events.
mod paused_at_ties {
    use super::*;
    use std::collections::BTreeMap;

    /// Per-tick bitmask of job-level event kinds: 1 = arrival,
    /// 2 = completion, 4 = expiry.
    #[derive(Default)]
    struct TieFinder {
        ticks: BTreeMap<u64, u8>,
    }

    impl SimObserver for TieFinder {
        fn on_job_arrival(&mut self, now: Time, _info: &JobInfo) {
            *self.ticks.entry(now.0).or_default() |= 1;
        }
        fn on_job_complete(&mut self, at: Time, _job: JobId, _profit: u64) {
            *self.ticks.entry(at.0).or_default() |= 2;
        }
        fn on_job_expired(&mut self, at: Time, _job: JobId) {
            *self.ticks.entry(at.0).or_default() |= 4;
        }
    }

    /// The hand-built triple tie at t = 10: pause exactly on the tie, one
    /// tick before, one tick after, and repeatedly on the same instant —
    /// for every scheduler, on both paths, against the one-shot naive run.
    #[test]
    fn pausing_exactly_on_the_triple_tie_is_invisible() {
        let inst = triple_tie_instance();
        let tie = Time(10);
        let schedules: [&[Time]; 4] = [
            &[tie],
            &[Time(9), tie, Time(11)],
            &[tie, tie, Time(11)],
            &[Time(9), Time(9), tie],
        ];
        for e in &ROSTER {
            for (i, pauses) in schedules.iter().enumerate() {
                let label = format!("triple-tie pause #{i} {}", e.name);
                check_paused(&inst, e.make, pauses, &label);
            }
        }
    }

    /// The fuzzer's collision family: discover every tie instant (ticks
    /// where at least two event kinds coincide) with an observer pass, then
    /// pause exactly on each of them on both paths. At least one *triple*
    /// tie must exist across the corpus, or the family has lost its teeth.
    #[test]
    fn pausing_on_discovered_tie_instants_is_invisible() {
        // This seed yields a triple tie (completion = arrival = expiry)
        // within 24 instances.
        let corpus = dagsched_fuzz::collision_instances(0xC0111DF, 24);
        let mut saw_triple = false;
        for (ci, inst) in corpus.iter().enumerate() {
            let s = &ROSTER[0];
            let mut finder = TieFinder::default();
            let mut sched = (s.make)(inst.m(), eps1());
            simulate_observed(inst, sched.as_mut(), &SimConfig::default(), &mut finder)
                .expect("finder run");
            saw_triple |= finder.ticks.values().any(|&mask| mask == 7);
            for (&t, _) in finder.ticks.iter().filter(|&(_, &m)| m.count_ones() >= 2) {
                let label = format!("collision #{ci} pause at {t} {}", s.name);
                check_paused(inst, s.make, &[Time(t)], &label);
            }
        }
        assert!(
            saw_triple,
            "no completion = arrival = expiry instant in the collision corpus"
        );
    }
}

/// Every roster scheduler driven `step()` by `step()` against its one-shot
/// run, on both paths at speeds 1 and 3/2 and under critical-path-first.
fn check_stepped(inst: &Instance, label: &str) {
    let mut cfgs = matrix(
        &[(1, 1), (3, 2)],
        &[NodePick::Fifo],
        &[true, false],
        &[true],
    );
    cfgs.push(SimConfig {
        pick: NodePick::CriticalPathFirst,
        ..SimConfig::default()
    });
    check_corpus(inst, eps1(), &cfgs, Against::OneShot, label);
}

#[test]
fn stepped_drive_matches_one_shot_for_every_production_scheduler() {
    for (seed, m) in [(7u64, 4u32), (191, 6), (2024, 8)] {
        let inst = WorkloadGen::standard(m, 25, seed)
            .generate()
            .expect("valid workload");
        check_stepped(&inst, &format!("seed {seed}"));
    }
}

#[test]
fn stepped_drive_matches_one_shot_under_overload() {
    check_stepped(&overload(6, 40), "overload");
}

/// Work-conserving FIFO-by-arrival scheduler that declares its allocation
/// stable between events: a pure function of the view, so the stability
/// contract holds.
struct Greedy;

impl OnlineScheduler for Greedy {
    fn name(&self) -> String {
        "greedy-ff".into()
    }
    fn on_arrival(&mut self, _job: &JobInfo, _now: Time) {}
    fn on_completion(&mut self, _id: JobId, _now: Time) {}
    fn on_expiry(&mut self, _id: JobId, _now: Time) {}
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut left = view.m;
        let mut out = Vec::new();
        for &(id, ready) in view.jobs() {
            if left == 0 {
                break;
            }
            let k = ready.min(left);
            if k > 0 {
                out.push((id, k));
                left -= k;
            }
        }
        out
    }
    fn allocation_stable_between_events(&self) -> bool {
        true
    }
}

/// Expiring jobs mid-window, multi-job contention, and rational speeds all
/// at once: a deterministic smoke test for the window-boundary math.
#[test]
fn boundaries_with_overloaded_deadlines_match() {
    let inst = WorkloadGen {
        deadlines: DeadlinePolicy::SlackFactor(1.1),
        ..WorkloadGen::standard(3, 40, 42)
    }
    .generate()
    .expect("valid workload");
    for cfg in matrix(
        &[(1, 1), (3, 2), (2, 1)],
        &[NodePick::Fifo],
        &[true],
        &[true],
    ) {
        check_fast_vs_naive(&inst, |_, _| Box::new(Greedy), &cfg, &describe(&cfg));
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;
    use support::random_pauses;

    /// Collision-dense random instances: arrivals, works, and deadlines all
    /// drawn from single-digit ranges so simultaneous events, same-step
    /// admit+expire, multi-removal batches and window-edge coincidences are
    /// the norm, not the exception. With `wide`, jobs are blocks and
    /// diamonds instead of singles and chains, so many nodes turn ready or
    /// finish on one tick and each step changes many ready counts.
    fn collision_instance(seed: u64, n: usize, m: u32, wide: bool) -> Instance {
        use dagsched_dag::gen;
        let mut rng = dagsched_core::Rng64::seed_from(seed);
        let mut arrivals: Vec<u64> = (0..n).map(|_| rng.gen_range(8)).collect();
        arrivals.sort_unstable();
        let jobs: Vec<JobSpec> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let work = 1 + rng.gen_range(6);
                let width = 2 + rng.gen_range(4) as u32;
                let dag = match (wide, rng.gen_range(2)) {
                    (false, 0) => gen::single(work),
                    (false, _) => gen::chain(2, work),
                    (true, 0) => gen::block(width, work),
                    (true, _) => gen::diamond(width, work),
                }
                .into_shared();
                let deadline = 1 + rng.gen_range(9);
                JobSpec::new(
                    JobId(i as u32),
                    Time(a),
                    dag,
                    StepProfitFn::deadline(Time(deadline), 1 + rng.gen_range(5)),
                )
            })
            .collect();
        Instance::new(m, jobs).expect("valid collision instance")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Naive == fast on collision-dense instances for every production
        /// scheduler.
        #[test]
        fn event_streams_identical_under_adversarial_ties(
            seed in 0u64..2000,
            n in 3usize..14,
            m in 1u32..4,
            sched_idx in 0usize..9,
        ) {
            let inst = collision_instance(seed, n, m, false);
            let e = &ROSTER[sched_idx];
            let label = format!("ties seed {seed} n {n} m {m} {}", e.name);
            check_fast_vs_naive(&inst, e.make, &SimConfig::default(), &label);
        }

        /// Naive == fast on collision-dense instances of wide jobs: the
        /// maintained view must take many ready and finished nodes per
        /// step.
        #[test]
        fn event_streams_identical_under_adversarial_ready_churn(
            seed in 0u64..2000,
            n in 3usize..14,
            m in 1u32..6,
            sched_idx in 0usize..9,
        ) {
            let inst = collision_instance(seed, n, m, true);
            let e = &ROSTER[sched_idx];
            let label = format!("churn seed {seed} n {n} m {m} {}", e.name);
            check_fast_vs_naive(&inst, e.make, &SimConfig::default(), &label);
        }

        /// Pausing a driver at arbitrary horizons on either path matches
        /// the one-shot naive run: path and pacing are jointly invisible.
        #[test]
        fn paused_runs_match_one_shot_naive(
            seed in 0u64..500,
            hseed in 0u64..500,
            n_pauses in 1usize..12,
            sched_idx in 0usize..9,
        ) {
            let m = 4 + (seed % 5) as u32;
            let inst = WorkloadGen::standard(m, 20, seed)
                .generate()
                .expect("valid workload");
            let e = &ROSTER[sched_idx];
            let mut pauses = random_pauses(hseed, n_pauses, inst.stats().horizon.ticks() + 8);
            pauses.sort_unstable();
            check_paused(&inst, e.make, &pauses, &format!("paused seed {seed} {}", e.name));
        }

        /// Pausing on collision-dense instances of wide jobs, where pause
        /// instants often land on ties: a view change made just before a
        /// `run_until` boundary is not lost to a replay after it.
        #[test]
        fn paused_collision_runs_match_one_shot_naive(
            seed in 0u64..2000,
            hseed in 0u64..500,
            n in 3usize..14,
            m in 1u32..6,
            n_pauses in 1usize..8,
            sched_idx in 0usize..9,
        ) {
            let inst = collision_instance(seed, n, m, true);
            let e = &ROSTER[sched_idx];
            let mut pauses = random_pauses(hseed, n_pauses, inst.stats().horizon.ticks() + 4);
            pauses.sort_unstable();
            let label = format!("paused collision seed {seed} n {n} m {m} {}", e.name);
            check_paused(&inst, e.make, &pauses, &label);
        }

        /// Pausing at arbitrary horizons, in draw order, never perturbs the
        /// run: the result, step count included, and the stream stay
        /// identical to the one-shot run on the same path.
        #[test]
        fn run_until_at_random_horizons_is_invisible(
            seed in 0u64..500,
            hseed in 0u64..500,
            n_pauses in 1usize..12,
            sched_idx in 0usize..8,
            ff in 0u8..2,
        ) {
            let m = 4 + (seed % 5) as u32;
            let inst = WorkloadGen::standard(m, 20, seed)
                .generate()
                .expect("valid workload");
            let cfg = SimConfig {
                fast_forward: ff == 1,
                ..SimConfig::default()
            };
            let e = &ROSTER[sched_idx];
            // Random pause horizons across (and past) the instance window.
            let horizons = random_pauses(hseed, n_pauses, inst.stats().horizon.ticks() + 8);
            let want = run_logged(&inst, (e.make)(m, eps1()).as_mut(), &cfg);
            let got = run_paced(&inst, (e.make)(m, eps1()).as_mut(), &cfg, Some(&horizons));
            let label = format!("seed {seed} {} pauses {horizons:?}", e.name);
            assert_same_run(&label, &got, &want, Steps::Equal);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The toy greedy scheduler over random workloads × {1, 3/2, 2}
        /// speeds × {Fifo, Random, CriticalPathFirst} picks × carry-over
        /// on/off. The random pick cannot fast-forward, so both runs take
        /// the naive path: the gate itself is under test, and the step
        /// counts must be equal.
        #[test]
        fn fast_forward_equals_naive(
            seed in 0u64..500,
            m in 1u32..9,
            n_jobs in 1usize..25,
            speed_idx in 0u8..3,
            pick_idx in 0u8..3,
            carryover in 0u8..2,
        ) {
            let inst = WorkloadGen::standard(m, n_jobs, seed)
                .generate()
                .expect("valid workload");
            let (num, den) = [(1, 1), (3, 2), (2, 1)][speed_idx as usize];
            let pick = [
                NodePick::Fifo,
                NodePick::Random(seed),
                NodePick::CriticalPathFirst,
            ][pick_idx as usize].clone();
            let cfg = matrix(&[(num, den)], &[pick], &[true], &[carryover == 1]).remove(0);
            let (fast, slow) = fast_and_naive(&inst, |_, _| Box::new(Greedy), &cfg);
            let steps = if pick_idx == 1 { Steps::Equal } else { Steps::AtMost };
            assert_same_run(&format!("seed {seed} m {m} {}", describe(&cfg)), &fast, &slow, steps);
        }
    }
}
