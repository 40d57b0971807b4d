//! Exact counts repeat at a fixed seed and move with the seed, and the
//! metrics the binaries print are the ones `BENCHMARK.json` lists.

use dagsched_perf::measure::E2E_METRICS;
use dagsched_perf::trace::{traced_loop, Counts, Traced, Tracer};
use dagsched_perf::workloads::{FuzzCampaign, ParkedDense, SweepSteady, WARMUP_OP_SEED};
use std::time::Duration;

/// The exact counts of a one-op traced run at `seed`.
fn counts<W: Traced>(seed: u64) -> Counts {
    let w = W::setup(seed);
    let warm = w.summarize(&w.op(WARMUP_OP_SEED).unwrap()).unwrap();
    let (log, tr) = traced_loop(&w, seed, Duration::ZERO, 1, Some(warm.digest));
    assert_eq!((log.attempted(), log.failed), (1, 0), "{:?}", log.errors);
    tr.counts()
}

fn assert_exact_and_seeded<W: Traced>() {
    let a = counts::<W>(11);
    assert!(
        a.named.values().any(|&v| v > 0),
        "{}: nothing counted",
        W::NAME
    );
    assert_eq!(
        a,
        counts::<W>(11),
        "{}: counts moved at a fixed seed",
        W::NAME
    );
    assert_ne!(
        a,
        counts::<W>(12),
        "{}: --seed did not reach the inputs",
        W::NAME
    );
}

#[test]
fn sweep_counts_are_exact_and_seeded() {
    assert_exact_and_seeded::<SweepSteady>();
}

#[test]
fn parked_counts_are_exact_and_seeded() {
    assert_exact_and_seeded::<ParkedDense>();
}

#[test]
fn fuzz_counts_are_exact_and_seeded() {
    assert_exact_and_seeded::<FuzzCampaign>();
}

/// The `name` values of one top-level array of `BENCHMARK.json`.
fn listed_names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array ends")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn printed_metrics_are_the_listed_ones() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let e2e: Vec<String> = E2E_METRICS.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(listed_names(&json, "end_to_end"), e2e);
    let layer: Vec<String> = Tracer::new()
        .layer_metrics(None)
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(listed_names(&json, "per_layer"), layer);
    let workloads = listed_names(&json, "workloads");
    assert_eq!(workloads, dagsched_perf::workloads::NAMES);
}
