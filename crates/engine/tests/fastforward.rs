//! Complexity guarantees of the event-driven fast-forward path:
//! huge-node-work instances must simulate in O(#nodes) engine iterations,
//! not O(total work). The naive-vs-fast equivalence itself is checked over
//! every production scheduler and a toy one by
//! `crates/verify/tests/stream_equiv.rs`.

use dagsched_core::{JobId, Time};
use dagsched_dag::gen;
use dagsched_engine::{simulate, SimConfig};
use dagsched_sched::Fifo;
use dagsched_workload::{Instance, JobSpec, StepProfitFn};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scaling node works by a large factor must not scale engine effort:
    /// a chain takes one step per node while simulated ticks grow with
    /// total work.
    #[test]
    fn steps_stay_bounded_as_node_work_grows(len in 1u32..10, node_work in 1_000u64..50_000) {
        let inst = Instance::new(
            1,
            vec![JobSpec::new(
                JobId(0),
                Time(0),
                gen::chain(len, node_work).into_shared(),
                StepProfitFn::deadline(Time(10 * len as u64 * node_work), 1),
            )],
        )
        .expect("valid instance");
        let r = simulate(&inst, &mut Fifo::new(1), &SimConfig::default()).expect("runs");
        prop_assert_eq!(r.ticks_simulated, len as u64 * node_work);
        // At speed 1 every node finishes with no budget left over, and no
        // boundary falls inside the job's run: one step per node
        // completion (its quiet ticks and its completion tick), exactly.
        prop_assert_eq!(
            r.steps_executed,
            len as u64,
            "steps for {} nodes of work {}", len, node_work
        );
    }
}

/// The ISSUE acceptance bar, pinned as a regression test: ≥ 10× fewer engine
/// iterations on an instance with node work ≥ 1000.
#[test]
fn fast_forward_is_10x_on_huge_nodes() {
    let inst = Instance::new(
        4,
        vec![JobSpec::new(
            JobId(0),
            Time(0),
            gen::fig1(4, 40, 1000).into_shared(),
            StepProfitFn::deadline(Time(1_000_000), 1),
        )],
    )
    .expect("valid instance");
    let fast = simulate(&inst, &mut Fifo::new(4), &SimConfig::default()).expect("fast path runs");
    let naive_cfg = SimConfig {
        fast_forward: false,
        ..SimConfig::default()
    };
    let naive = simulate(&inst, &mut Fifo::new(4), &naive_cfg).expect("naive path runs");
    assert!(fast.same_outcome(&naive));
    assert!(
        fast.steps_executed * 10 <= naive.steps_executed,
        "fast path took {} steps, naive {}",
        fast.steps_executed,
        naive.steps_executed
    );
}
