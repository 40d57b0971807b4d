//! `Instance::expiry_order` against its definition on generated, coded
//! and hand-built instances.

use dagsched_core::{JobId, Time};
use dagsched_dag::gen;
use dagsched_workload::{
    codec, DagFamily, Instance, JobSpec, ProfitShape, StepProfitFn, WorkloadGen,
};

fn job(id: u32, arrival: u64, d: u64, tail: u64) -> JobSpec {
    let profit = if tail == 0 {
        StepProfitFn::deadline(Time(d), 5)
    } else {
        StepProfitFn::steps(vec![(Time(d), 5)], tail).unwrap()
    };
    JobSpec::new(
        JobId(id),
        Time(arrival),
        gen::single(2).into_shared(),
        profit,
    )
}

/// `expiry_order` against its definition: filter the zero-tail jobs,
/// key each by `(last_useful_abs, id)`, sort. Also checks the order is
/// strictly ascending and survives a codec round trip.
fn assert_expiry_order(inst: &Instance) {
    let mut want: Vec<(Time, JobId)> = Vec::new();
    for j in inst.jobs() {
        if j.profit.tail_value() == 0 {
            want.push((j.last_useful_abs(), j.id));
        }
    }
    want.sort();
    let got = inst.expiry_order();
    assert_eq!(got, want.as_slice());
    assert!(got.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
    let decoded = codec::decode(&codec::encode(inst)).unwrap();
    assert_eq!(decoded.expiry_order(), got, "codec round trip");
}

#[test]
fn expiry_order_is_the_sorted_zero_tail_keys() {
    let node_work = (1, 8);
    let families = [
        DagFamily::Single { work: (1, 40) },
        DagFamily::Chain {
            len: (2, 6),
            node_work,
        },
        DagFamily::Block {
            width: (2, 8),
            node_work,
        },
        DagFamily::ForkJoin {
            segments: (1, 3),
            width: (2, 4),
            node_work,
        },
        DagFamily::Layered {
            layers: (2, 4),
            width: (1, 4),
            node_work,
            p_edge: 0.35,
        },
        DagFamily::SeriesParallel {
            nodes: (4, 12),
            node_work,
        },
        DagFamily::Random {
            n: (2, 10),
            p: 0.3,
            node_work,
        },
        DagFamily::Fig1 {
            m: 4,
            chain_len: (2, 5),
            grain: 2,
        },
        DagFamily::standard_mix(node_work),
    ];
    let shapes = [
        ProfitShape::Deadline,
        ProfitShape::SteppedDecay {
            extra_steps: 2,
            time_factor: 1.5,
            value_factor: 0.5,
        },
    ];
    for family in &families {
        for shape in shapes {
            let inst = WorkloadGen {
                family: family.clone(),
                shape,
                ..WorkloadGen::standard(4, 80, 11)
            }
            .generate()
            .unwrap();
            assert_expiry_order(&inst);
        }
    }
    // Tail-profit jobs are absent; equal boundaries order by id.
    let jobs = vec![
        job(0, 0, 12, 0),
        job(1, 0, 10, 1),
        job(2, 2, 10, 0),
        job(3, 3, 2, 0),
        job(4, 4, 10, 1),
    ];
    let inst = Instance::new(2, jobs).unwrap();
    assert_expiry_order(&inst);
    let ids: Vec<u32> = inst.expiry_order().iter().map(|e| e.1 .0).collect();
    assert_eq!(ids, [3, 0, 2]);
}
