//! Zero heap allocations per completion scan once S is warm.
//!
//! This binary installs a counting global allocator (test-only — each
//! integration test file is its own binary, so the counter never leaks into
//! other suites) and runs scheduler S on a parked set: background jobs
//! parked behind the band capacity, and a foreground stream of tiny
//! tight-deadline jobs. A wrapper counts the allocator calls inside every
//! `on_completion`, which is where S's completion scan runs. After a
//! warm-up run lets the candidate and expired-key scratch lists reach
//! their high-water marks, every scan of a second run, foreground and
//! background band alike, must not touch the allocator: candidates are
//! copied into hoisted scratch, and blocked stretches are skipped by
//! binary search. A scan that allocated per call, even one small `Vec`,
//! fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dagsched_core::{JobId, Rng64, Time};
use dagsched_dag::gen;
use dagsched_engine::{
    simulate, Allocation, JobInfo, OnlineScheduler, SimConfig, TickView, ViewDelta,
};
use dagsched_sched::SchedulerS;
use dagsched_workload::{Instance, JobSpec, StepProfitFn};

/// Counts every allocator entry (alloc and realloc) on top of [`System`],
/// per thread, so libtest's harness threads cannot leak into a
/// measurement window.
struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // The allocator can be entered during thread teardown, after the TLS
    // slot is gone; those allocations belong to no measurement window.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// S behind a wrapper that logs, per completion, the completed job, the
/// probes its scan made and the allocator calls it made.
struct ScanLog {
    s: SchedulerS,
    scans: Vec<(JobId, u64, u64)>,
}

impl OnlineScheduler for ScanLog {
    fn name(&self) -> String {
        self.s.name()
    }
    fn on_arrival(&mut self, info: &JobInfo, now: Time) {
        self.s.on_arrival(info, now);
    }
    fn on_completion(&mut self, id: JobId, now: Time) {
        let probes = self.s.metrics().admission_probes;
        let before = allocations();
        self.s.on_completion(id, now);
        let calls = allocations() - before;
        let probes = self.s.metrics().admission_probes - probes;
        self.scans.push((id, probes, calls));
    }
    fn on_expiry(&mut self, id: JobId, now: Time) {
        self.s.on_expiry(id, now);
    }
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        self.s.allocate(view)
    }
    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        self.s.allocate_into(view, out);
    }
    fn allocate_delta(
        &mut self,
        delta: &ViewDelta,
        view: &TickView<'_>,
        out: &mut Allocation,
    ) -> bool {
        self.s.allocate_delta(delta, view, out)
    }
    fn allocation_stable_between_events(&self) -> bool {
        self.s.allocation_stable_between_events()
    }
}

/// The `parked-dense` shape on `m = 4`: `n` background jobs of work
/// ~10,000 and a far deadline, and two tiny jobs of deadline 60 per tick.
fn parked_instance(n: u32) -> Instance {
    let mut rng = Rng64::seed_from(1).child(0);
    let mut jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            JobSpec::new(
                JobId(i),
                Time(0),
                gen::single(9_500 + rng.gen_range(1_001)).into_shared(),
                StepProfitFn::deadline(Time(500_000), 1),
            )
        })
        .collect();
    for i in 0..n {
        jobs.push(JobSpec::new(
            JobId(n + i),
            Time((i / 2) as u64),
            gen::single(2).into_shared(),
            StepProfitFn::deadline(Time(60), 3),
        ));
    }
    Instance::new(4, jobs).expect("valid parked instance")
}

#[test]
fn warm_completion_scans_do_not_allocate() {
    let n = 400u32;
    let inst = parked_instance(n);
    let mut log = ScanLog {
        s: SchedulerS::with_epsilon(4, 1.0),
        scans: Vec::new(),
    };
    // Warm-up: one whole run takes every scratch list to its high-water
    // mark, including the expired-key list of the final expiry wave.
    // `reset` keeps that storage.
    simulate(&inst, &mut log, &SimConfig::default()).expect("warm-up runs");
    assert!(log.s.reset());
    log.scans.clear();

    let r = simulate(&inst, &mut log, &SimConfig::default()).expect("measured run");
    assert!(r.total_profit > 0);
    let (background, foreground): (Vec<&(JobId, u64, u64)>, Vec<_>) =
        log.scans.iter().partition(|(id, ..)| id.0 < n);
    // Each background completion re-checks the ~n parked background jobs
    // in its band: it starts the densest and jumps over the rest.
    assert!(background.len() > 50, "background completions ran");
    assert!(background.iter().all(|&&(_, probes, _)| probes >= 2));
    assert!(
        foreground.len() > n as usize / 2,
        "foreground completions ran"
    );
    for &(id, probes, calls) in &log.scans {
        assert_eq!(
            calls, 0,
            "the scan at the completion of {id:?} ({probes} probes) made {calls} allocator calls"
        );
    }
}
