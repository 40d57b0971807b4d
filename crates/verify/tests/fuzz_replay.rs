//! Replay regression for the fuzzer's promoted fixtures.
//!
//! Each fixture under `tests/fixtures/` is a hand-minimized near-miss from
//! the adversarial families (triple-tie instants, Figure 1 DAGs at the
//! Brent bound, density-band burst ties, parked-majority delta churn,
//! carry-over-sensitive chains, pick-sensitive forks, a chain at the
//! δ-good boundary).
//! None currently violates an oracle — the regression is that they stay
//! green under all three heads (invariants, naive-vs-fast,
//! paused-vs-one-shot) as the engine evolves, and that any future counterexample promoted here immediately
//! fails CI. The configuration-axis fixtures are additionally re-judged
//! under the non-default flag they were promoted for, plus a sensitivity
//! check proving the flag actually changes the outcome on that workload.

use dagsched_core::Speed;
use dagsched_engine::{simulate, NodePick, SimConfig};
use dagsched_fuzz::cli::replay_instance;
use dagsched_fuzz::ir::fnv1a;
use dagsched_fuzz::oracle::{run_exec_with, OracleSet, Subject};
use dagsched_sched::Fifo;
use dagsched_workload::{codec, Instance};

const FIXTURES: &[&str] = &[
    "triple-tie.txt",
    "fig1-tight.txt",
    "band-burst.txt",
    "delta-parked.txt",
    "carryover-chain.txt",
    "pick-diamond.txt",
    "profit-cliff.txt",
    "chain-boundary.txt",
];

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn assert_replays_clean(name: &str) {
    let text = fixture(name);
    let verdict =
        replay_instance(&text).unwrap_or_else(|e| panic!("{name} fails an oracle head:\n{e}"));
    // All three heads must have actually run and passed.
    assert_eq!(
        verdict.matches("PASS").count(),
        3,
        "{name}: expected three PASS lines, got:\n{verdict}"
    );
    for head in ["invariants", "naive-vs-fast", "paused-vs-oneshot"] {
        assert!(
            verdict.contains(head),
            "{name}: head {head} missing from verdict:\n{verdict}"
        );
    }
}

/// Judge a fixture through every oracle head under a non-default base
/// config — how the fuzz loop sees candidates whose configuration axis was
/// mutated.
fn assert_heads_clean_under(name: &str, base: &SimConfig) {
    let text = fixture(name);
    let inst = codec::decode(&text).expect("fixture decodes");
    let outcome = run_exec_with(
        &inst,
        &Subject::scheduler_s(),
        &OracleSet::default(),
        fnv1a(text.as_bytes()),
        None,
        base,
    );
    assert!(
        outcome.failure.is_none(),
        "{name} fails under {base:?}: {:?}",
        outcome.failure
    );
}

fn profit_under(inst: &Instance, cfg: &SimConfig) -> u64 {
    let mut sched = Fifo::new(inst.m());
    simulate(inst, &mut sched, cfg)
        .expect("baseline run succeeds")
        .total_profit
}

#[test]
fn triple_tie_fixture_replays_clean() {
    assert_replays_clean("triple-tie.txt");
}

#[test]
fn fig1_tight_fixture_replays_clean() {
    assert_replays_clean("fig1-tight.txt");
}

#[test]
fn band_burst_fixture_replays_clean() {
    assert_replays_clean("band-burst.txt");
}

#[test]
fn delta_parked_fixture_replays_clean() {
    assert_replays_clean("delta-parked.txt");
}

#[test]
fn carryover_fixture_replays_clean() {
    assert_replays_clean("carryover-chain.txt");
}

#[test]
fn pick_fixture_replays_clean() {
    assert_replays_clean("pick-diamond.txt");
}

#[test]
fn profit_cliff_fixture_replays_clean() {
    assert_replays_clean("profit-cliff.txt");
}

/// Every fixture also stays green with the general-profit scheduler as the
/// subject — the fuzz loop's `sprofit_subject` configuration axis judges
/// candidates exactly this way, so a slot-plan fast-path regression on any
/// promoted workload fails here first.
#[test]
fn fixtures_replay_clean_under_the_general_profit_subject() {
    for name in FIXTURES {
        let text = fixture(name);
        let inst = codec::decode(&text).expect("fixture decodes");
        let outcome = run_exec_with(
            &inst,
            &Subject::scheduler_s_profit(),
            &OracleSet::default(),
            fnv1a(text.as_bytes()),
            None,
            &SimConfig::default(),
        );
        assert!(
            outcome.failure.is_none(),
            "{name} fails under the S-profit subject: {:?}",
            outcome.failure
        );
    }
}

/// The carry-over fixture under its promoted flag: every head stays green
/// with carry-over disabled at double speed, and the flag is load-bearing —
/// a work-conserving baseline completes the chain by its deadline only with
/// carry-over on.
#[test]
fn carryover_fixture_exercises_the_flag() {
    let speed = Speed::integer(2).expect("positive");
    let off = SimConfig {
        carryover: false,
        speed,
        ..SimConfig::default()
    };
    assert_heads_clean_under("carryover-chain.txt", &off);
    let inst = codec::decode(&fixture("carryover-chain.txt")).expect("decodes");
    let on = SimConfig {
        carryover: true,
        speed,
        ..SimConfig::default()
    };
    assert_eq!(profit_under(&inst, &on), 5, "carry-over makes the deadline");
    assert_eq!(profit_under(&inst, &off), 0, "node granularity misses it");
}

/// The pick fixture under its promoted flag: every head stays green under
/// critical-path-first, and the pick policy is load-bearing — the ally
/// completes by the deadline, the adversarial low-height pick does not.
#[test]
fn pick_fixture_exercises_the_flag() {
    let cpf = SimConfig {
        pick: NodePick::CriticalPathFirst,
        ..SimConfig::default()
    };
    assert_heads_clean_under("pick-diamond.txt", &cpf);
    let inst = codec::decode(&fixture("pick-diamond.txt")).expect("decodes");
    let alh = SimConfig {
        pick: NodePick::AdversarialLowHeight,
        ..SimConfig::default()
    };
    assert_eq!(profit_under(&inst, &cpf), 5, "critical path first makes it");
    assert_eq!(
        profit_under(&inst, &alh),
        0,
        "postponing the path misses it"
    );
}

/// The profit-cliff fixture's general steps are load-bearing: at unit speed
/// a work-conserving baseline misses every *first* bound (a pure-deadline
/// projection of these profit functions would score zero) yet still earns
/// the later-step and tail values; doubling the speed makes some cliffs and
/// raises the take.
#[test]
fn profit_cliff_fixture_exercises_the_steps() {
    let inst = codec::decode(&fixture("profit-cliff.txt")).expect("decodes");
    let unit = profit_under(&inst, &SimConfig::default());
    assert!(unit > 0, "later steps and tails still pay out");
    let all_first_steps: u64 = inst.jobs().iter().map(|j| j.profit.max_profit()).sum();
    assert!(
        unit < all_first_steps,
        "unit speed misses at least one first bound ({unit} vs {all_first_steps})"
    );
    let fast = SimConfig {
        speed: Speed::integer(2).expect("positive"),
        ..SimConfig::default()
    };
    assert!(
        profit_under(&inst, &fast) > unit,
        "doubling the speed makes cliffs and raises the take"
    );
}

/// The fixture texts round-trip through the codec — a fixture that decodes
/// to something other than what it prints would make the replay command
/// lie about what it tested.
#[test]
fn fixtures_round_trip_through_the_codec() {
    for name in FIXTURES {
        let text = fixture(name);
        let inst = codec::decode(&text).expect("fixture decodes");
        let reencoded = codec::encode(&inst);
        let stripped: String = text
            .lines()
            .filter(|l| !l.trim_start().starts_with('#'))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(reencoded, stripped, "{name} does not round-trip");
    }
}
