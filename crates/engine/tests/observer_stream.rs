//! The raw observer stream of the production path, call by call.
//!
//! The JSONL event log and the `Trace` observer coalesce adjacent windows
//! with equal payloads, so they cannot tell one window of `s` ticks from
//! two that add up to it. This file records every `on_window` call as
//! `(at, ticks, progress)` and every `on_node_complete` call as `(at, job,
//! node)`, exactly as the engine makes them, and pins the sequence on three
//! instances: a chain (at speed 1 and at speed 3/2, where a completion tick
//! can leave budget over), a block, and a related-machines platform. A
//! change to how the engine cuts time into steps must keep these calls:
//! observers see each stretch of quiet ticks as one window, each completion
//! tick as a window of one tick, and each node completion at its
//! completion tick.

use dagsched_core::{JobId, NodeId, Speed, Time};
use dagsched_dag::{gen, DagJobSpec};
use dagsched_engine::{simulate_observed, SimConfig, SimObserver};
use dagsched_sched::Fifo;
use dagsched_workload::{Instance, JobSpec, StepProfitFn};
use std::fmt::Write;

/// One line per observer call: `w at+ticks [job:units ...]` for a window,
/// `n at job.node` for a node completion.
#[derive(Default)]
struct Calls(String);

impl SimObserver for Calls {
    fn on_window(
        &mut self,
        at: Time,
        ticks: u64,
        _jobs: &[(JobId, u32)],
        _alloc: &[(JobId, u32)],
        progress: &[(JobId, u64)],
    ) {
        write!(self.0, "w {}+{ticks} [", at.0).unwrap();
        for (i, &(id, units)) in progress.iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(self.0, "{sep}{}:{units}", id.0).unwrap();
        }
        self.0.push_str("]\n");
    }
    fn on_node_complete(&mut self, at: Time, job: JobId, node: NodeId) {
        writeln!(self.0, "n {} {}.{}", at.0, job.0, node.0).unwrap();
    }
}

fn job(id: u32, at: u64, dag: DagJobSpec) -> JobSpec {
    JobSpec::new(
        JobId(id),
        Time(at),
        dag.into_shared(),
        StepProfitFn::deadline(Time(1_000), 1),
    )
}

/// `lines`, each ended by a newline.
fn lines(lines: &[&str]) -> String {
    lines.iter().map(|l| format!("{l}\n")).collect()
}

fn calls(inst: &Instance, cfg: &SimConfig) -> String {
    let mut calls = Calls::default();
    simulate_observed(inst, &mut Fifo::new(inst.m()), cfg, &mut calls).expect("run succeeds");
    calls.0
}

#[test]
fn chain_calls_are_pinned() {
    let inst = Instance::new(1, vec![job(0, 0, gen::chain(4, 5))]).unwrap();
    assert_eq!(
        calls(&inst, &SimConfig::default()),
        lines(&[
            "w 0+4 [0:4]",
            "w 4+1 [0:1]",
            "n 4 0.0",
            "w 5+4 [0:4]",
            "w 9+1 [0:1]",
            "n 9 0.1",
            "w 10+4 [0:4]",
            "w 14+1 [0:1]",
            "n 14 0.2",
            "w 15+4 [0:4]",
            "w 19+1 [0:1]",
            "n 19 0.3",
        ])
    );
    let three_halves = SimConfig::at_speed(Speed::new(3, 2).unwrap());
    assert_eq!(
        calls(&inst, &three_halves),
        lines(&[
            "w 0+3 [0:9]",
            "w 3+1 [0:3]",
            "n 3 0.0",
            "w 4+2 [0:6]",
            "w 6+1 [0:3]",
            "n 6 0.1",
            "w 7+2 [0:6]",
            "w 9+1 [0:3]",
            "n 9 0.2",
            "w 10+3 [0:9]",
            "w 13+1 [0:1]",
            "n 13 0.3",
        ])
    );
}

#[test]
fn block_calls_are_pinned() {
    let inst = Instance::new(
        4,
        vec![job(0, 0, gen::block(6, 4)), job(1, 2, gen::block(3, 5))],
    )
    .unwrap();
    assert_eq!(
        calls(&inst, &SimConfig::default()),
        lines(&[
            "w 0+2 [0:8]",
            "w 2+1 [0:4]",
            "w 3+1 [0:4]",
            "n 3 0.0",
            "n 3 0.1",
            "n 3 0.2",
            "n 3 0.3",
            "w 4+3 [0:6 1:6]",
            "w 7+1 [0:2 1:2]",
            "n 7 0.4",
            "n 7 0.5",
            "w 8+1 [1:3]",
            "n 8 1.0",
            "n 8 1.1",
            "w 9+3 [1:3]",
            "w 12+1 [1:1]",
            "n 12 1.2",
        ])
    );
}

#[test]
fn groups_calls_are_pinned() {
    let inst = Instance::new(
        2,
        vec![
            job(0, 0, gen::single(10)),
            job(1, 0, gen::single(10)),
            job(2, 1, gen::single(100)),
            job(3, 3, gen::chain(3, 5)),
        ],
    )
    .unwrap();
    let cfg = SimConfig::on_groups("1x1,1x2".parse().unwrap());
    assert_eq!(
        calls(&inst, &cfg),
        lines(&[
            "w 0+1 [0:2 1:1]",
            "w 1+2 [0:4 1:2]",
            "w 3+1 [0:2 1:1]",
            "w 4+1 [0:2 1:1]",
            "n 4 0.0",
            "w 5+2 [1:4 2:2]",
            "w 7+1 [1:1 2:1]",
            "n 7 1.0",
            "w 8+4 [2:8 3:4]",
            "w 12+1 [2:2 3:1]",
            "n 12 3.0",
            "w 13+4 [2:8 3:4]",
            "w 17+1 [2:2 3:1]",
            "n 17 3.1",
            "w 18+4 [2:8 3:4]",
            "w 22+1 [2:2 3:1]",
            "n 22 3.2",
            "w 23+33 [2:66]",
            "w 56+1 [2:1]",
            "n 56 2.0",
        ])
    );
}
