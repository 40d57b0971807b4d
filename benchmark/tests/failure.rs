//! A failing op is counted, not fatal: an op whose scheduler emits an
//! invalid allocation, or that panics, fails alone and the loop goes on.

use dagsched_core::{JobId, Time};
use dagsched_engine::{simulate, Allocation, JobInfo, OnlineScheduler, SimConfig, TickView};
use dagsched_perf::measure::{catch, closed_loop};
use dagsched_perf::workloads::OpSummary;
use dagsched_workload::WorkloadGen;
use std::time::{Duration, Instant};

/// Allocates a processor to a job that does not exist.
struct Invalid;

impl OnlineScheduler for Invalid {
    fn name(&self) -> String {
        "invalid".into()
    }
    fn on_arrival(&mut self, _job: &JobInfo, _now: Time) {}
    fn on_completion(&mut self, _id: JobId, _now: Time) {}
    fn on_expiry(&mut self, _id: JobId, _now: Time) {}
    fn allocate(&mut self, _view: &TickView<'_>) -> Allocation {
        vec![(JobId(u32::MAX), 1)]
    }
}

#[test]
fn invalid_scheduler_and_panics_fail_single_ops() {
    let inst = WorkloadGen::standard(4, 20, 1).generate().unwrap();
    let log = closed_loop(Duration::ZERO, 6, |i| {
        let t = Instant::now();
        let out = catch(|| match i {
            1 => simulate(&inst, &mut Invalid, &SimConfig::default())
                .map(|_| 1)
                .map_err(|e| e.to_string()),
            3 => panic!("op {i} panicked"),
            _ => Ok(1),
        });
        (t.elapsed(), out.map(|items| OpSummary { items, digest: 0 }))
    });
    assert_eq!(log.attempted(), 6);
    assert_eq!(log.failed, 2);
    assert_eq!(log.items, 4);
    assert!(log.errors[0].starts_with("op 1:"), "{:?}", log.errors);
    assert!(
        log.errors[1].contains("panic: op 3 panicked"),
        "{:?}",
        log.errors
    );
}
