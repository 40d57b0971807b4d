//! Heap allocations of instance generation.
//!
//! This binary installs a counting global allocator (test-only — each
//! integration test file is its own binary, so the counter never leaks into
//! other suites). Generating a job costs its DAG builder's two vectors
//! (node works and edges, each sized once from the generator's
//! parameters), the spec's two derived buffers (`build` allocates no
//! scratch it does not keep), the `Arc` around the spec and the profit
//! function's segment array: six entries for a DAG with edges, five for an
//! edgeless block. The instance adds its arrival and job vectors.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dagsched_dag::gen;
use dagsched_workload::WorkloadGen;

/// Counts every allocator entry (alloc and realloc) on top of [`System`],
/// per thread, so libtest's harness threads never land in a measurement
/// window.
struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator can be entered during thread teardown after
    // the TLS slot is destroyed.
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

/// Allocator entries `f` makes on this thread, and its result.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_CALLS.with(Cell::get);
    let r = f();
    (ALLOC_CALLS.with(Cell::get) - before, r)
}

/// A 400-job standard instance (5,511 nodes): 2,360 allocator entries,
/// 5.9 per job. Growing every builder from empty and keeping Kahn scratch
/// cost 7,636 (19.1 per job).
#[test]
fn standard_instance_allocations_are_pinned() {
    let (calls, inst) = counted(|| WorkloadGen::standard(8, 400, 7).generate().unwrap());
    let nodes: usize = inst.jobs().iter().map(|j| j.dag.num_nodes()).sum();
    assert_eq!((inst.len(), nodes), (400, 5_511));
    assert!(calls <= 7 * 400, "{calls} allocator entries for 400 jobs");
    assert_eq!(calls, 2_360);
}

/// `fork_join(3, 4, 2)`: the builder's node and edge vectors, each sized
/// once, and the spec's two derived buffers (was 23).
#[test]
fn fork_join_build_allocations_are_pinned() {
    let (calls, dag) = counted(|| gen::fork_join(3, 4, 2));
    assert_eq!((dag.num_nodes(), dag.num_edges()), (18, 26));
    assert_eq!(calls, 4);
}
