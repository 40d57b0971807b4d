//! Runtime unfolding of a DAG job.
//!
//! The semi-non-clairvoyant model lets a scheduler observe, at any instant,
//! only the job's *ready* nodes (plus `W`, `L` from arrival). [`UnfoldState`]
//! is that runtime view: it tracks per-node remaining work, maintains the
//! ready set as the DAG unfolds, and answers the aggregate queries
//! (remaining work/span) that *clairvoyant* components — the adversarial
//! node picker and the offline bounds — are allowed to use.
//!
//! Every per-node field — remaining work, unfinished-predecessor count, the
//! ready list's links and membership, and the engine's per-tick *claim*
//! bit — lives in one cell per node, so a job's whole runtime state is a
//! single vector: one allocation for a fresh state, none for a pooled one
//! reset within its capacity.
//!
//! Work here is in **engine-scaled units**: the engine multiplies node works
//! by [`Speed::work_scale`](dagsched_core::Speed::work_scale) so rational
//! speeds stay exact; [`UnfoldState::new`] applies that scale.

use crate::spec::DagJobSpec;
use dagsched_core::{NodeId, Work};
use std::sync::Arc;

const NIL: u32 = u32::MAX;

/// The runtime state of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    /// Remaining scaled work.
    remaining: Work,
    /// Unfinished-predecessor count.
    waiting: u32,
    /// Ready-list links (`NIL` at either end).
    next: u32,
    prev: u32,
    /// Ready-list membership (a node enters at most once, but guard misuse).
    ready: bool,
    /// Claimed by a processor in the engine's current step.
    claimed: bool,
}

/// An intrusive doubly-linked list over node ids, preserving insertion (FIFO)
/// order with O(1) insert/remove — the ready set can be huge (a parallel
/// block has `W − L` simultaneously-ready nodes) and nodes leave it from
/// arbitrary positions as they complete. The links live in the cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadyList {
    head: u32,
    tail: u32,
    len: usize,
}

impl ReadyList {
    const EMPTY: ReadyList = ReadyList {
        head: NIL,
        tail: NIL,
        len: 0,
    };

    fn push_back(&mut self, cells: &mut [Cell], v: NodeId) {
        let i = v.0;
        let c = &mut cells[i as usize];
        debug_assert!(!c.ready, "node already in ready list");
        c.ready = true;
        c.prev = self.tail;
        c.next = NIL;
        if self.tail == NIL {
            self.head = i;
        } else {
            cells[self.tail as usize].next = i;
        }
        self.tail = i;
        self.len += 1;
    }

    fn remove(&mut self, cells: &mut [Cell], v: NodeId) {
        let c = &mut cells[v.index()];
        debug_assert!(c.ready, "node not in ready list");
        c.ready = false;
        let (p, n) = (c.prev, c.next);
        if p == NIL {
            self.head = n;
        } else {
            cells[p as usize].next = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            cells[n as usize].prev = p;
        }
        self.len -= 1;
    }
}

/// A walk along one direction of the ready list: the `next` links from the
/// head (readiness order, `FORWARD`) or the `prev` links from the tail
/// (newest first).
struct ReadyIter<'a, const FORWARD: bool> {
    cells: &'a [Cell],
    cur: u32,
}

impl<const FORWARD: bool> Iterator for ReadyIter<'_, FORWARD> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        if self.cur == NIL {
            return None;
        }
        let v = NodeId(self.cur);
        let c = &self.cells[self.cur as usize];
        self.cur = if FORWARD { c.next } else { c.prev };
        Some(v)
    }
}

/// Mutable execution state of one DAG job.
#[derive(Debug, Clone)]
pub struct UnfoldState {
    spec: Arc<DagJobSpec>,
    /// Per-node state, dense by node id.
    cells: Vec<Cell>,
    ready: ReadyList,
    completed_nodes: usize,
    /// Total remaining scaled work across all nodes.
    remaining_total: Work,
    scale: u64,
}

impl UnfoldState {
    /// Start executing `spec` with node works scaled by `scale`
    /// (the engine passes `speed.work_scale()`; use 1 for unit speed).
    ///
    /// # Panics
    /// If any scaled work overflows `u64`.
    pub fn new(spec: Arc<DagJobSpec>, scale: u64) -> UnfoldState {
        let mut st = UnfoldState {
            spec: spec.clone(),
            cells: Vec::new(),
            ready: ReadyList::EMPTY,
            completed_nodes: 0,
            remaining_total: Work::ZERO,
            scale: 1,
        };
        st.reset_from(spec, scale);
        st
    }

    /// Reinitialize this state to execute `spec` at `scale`, exactly as
    /// [`new`](Self::new) would — but reusing the cell vector. The engine's
    /// job pool calls this on recycled states so arrival storms are
    /// allocation-free once the vector has reached its high-water node
    /// count.
    ///
    /// Observational identity with a fresh state is pinned by
    /// `tests/pooled_reset.rs`; determinism is unaffected because every
    /// observable field (per-node remaining work, waiting-predecessor
    /// counts, the FIFO ready order seeded from `spec.sources()` in id
    /// order, claims, counters) is overwritten, never carried over.
    ///
    /// # Panics
    /// If any scaled work overflows `u64`.
    pub fn reset_from(&mut self, spec: Arc<DagJobSpec>, scale: u64) {
        assert!(scale >= 1, "scale must be at least 1");
        let n = spec.num_nodes();
        let works = spec.node_works();
        self.cells.clear();
        self.cells.extend((0..n).map(|i| {
            Cell {
                remaining: works[i]
                    .checked_scale(scale)
                    .expect("scaled work overflows u64"),
                waiting: spec.pred_count(NodeId(i as u32)),
                next: NIL,
                prev: NIL,
                ready: false,
                claimed: false,
            }
        }));
        self.remaining_total = Work(self.cells.iter().map(|c| c.remaining.units()).sum());
        self.ready = ReadyList::EMPTY;
        for &s in spec.sources() {
            self.ready.push_back(&mut self.cells, s);
        }
        self.completed_nodes = 0;
        self.scale = scale;
        self.spec = spec;
    }

    /// The immutable spec this state executes.
    #[inline]
    pub fn spec(&self) -> &Arc<DagJobSpec> {
        &self.spec
    }

    /// The work scale factor applied at construction.
    #[inline]
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// Number of currently ready (executable, unfinished) nodes.
    #[inline]
    pub fn ready_count(&self) -> usize {
        self.ready.len
    }

    /// Iterate ready nodes in FIFO (readiness) order.
    pub fn ready_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        ReadyIter::<'_, true> {
            cells: &self.cells,
            cur: self.ready.head,
        }
    }

    /// Iterate ready nodes newest-first: exactly the reverse of
    /// [`ready_iter`](Self::ready_iter), lazily, so taking a short prefix
    /// costs O(prefix) rather than O(ready).
    pub fn ready_iter_rev(&self) -> impl Iterator<Item = NodeId> + '_ {
        ReadyIter::<'_, false> {
            cells: &self.cells,
            cur: self.ready.tail,
        }
    }

    /// First `k` ready nodes in FIFO order (fewer if not that many).
    pub fn ready_prefix(&self, k: usize) -> Vec<NodeId> {
        self.ready_iter().take(k).collect()
    }

    /// Is the node currently ready?
    #[inline]
    pub fn is_ready(&self, node: NodeId) -> bool {
        self.cells[node.index()].ready
    }

    /// Is the node claimed by a processor in the engine's current step?
    /// Claims are the engine's per-tick scratch: they never change the
    /// unfold, and [`reset_from`](Self::reset_from) clears them all.
    #[inline]
    pub fn is_claimed(&self, node: NodeId) -> bool {
        self.cells[node.index()].claimed
    }

    /// Claim an unclaimed node.
    #[inline]
    pub fn claim(&mut self, node: NodeId) {
        let c = &mut self.cells[node.index()];
        debug_assert!(!c.claimed, "node {node} already claimed");
        c.claimed = true;
    }

    /// Release a claim (a no-op on an unclaimed node).
    #[inline]
    pub fn release(&mut self, node: NodeId) {
        self.cells[node.index()].claimed = false;
    }

    /// Claim every ready, unclaimed successor of `node`, in successor-id
    /// order, calling `f` on each — how the engine locks the nodes a
    /// completion just unlocked for the rest of the tick.
    pub fn claim_ready_successors(&mut self, node: NodeId, mut f: impl FnMut(NodeId)) {
        for &s in self.spec.successors(node) {
            let c = &mut self.cells[s.index()];
            if c.ready && !c.claimed {
                c.claimed = true;
                f(s);
            }
        }
    }

    /// Remaining scaled work of one node.
    #[inline]
    pub fn node_remaining(&self, node: NodeId) -> Work {
        self.cells[node.index()].remaining
    }

    /// Total remaining scaled work of the job.
    #[inline]
    pub fn remaining_total(&self) -> Work {
        self.remaining_total
    }

    /// All nodes complete?
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.completed_nodes == self.spec.num_nodes()
    }

    /// Number of completed nodes.
    #[inline]
    pub fn completed_nodes(&self) -> usize {
        self.completed_nodes
    }

    /// Execute `budget` scaled work units of a **ready** node.
    ///
    /// Returns `(consumed, completed)`. On completion the node leaves the
    /// ready set and each successor whose predecessors are now all complete
    /// joins it (in successor-id order, keeping unfolding deterministic).
    ///
    /// # Panics
    /// If `node` is not ready (engine bug: scheduling a non-ready or
    /// finished node would violate the model).
    pub fn advance(&mut self, node: NodeId, budget: u64) -> (u64, bool) {
        let c = &mut self.cells[node.index()];
        assert!(c.ready, "advance() on non-ready node {node}");
        let consumed = c.remaining.deplete(budget);
        let finished = c.remaining.is_zero();
        self.remaining_total -= Work(consumed);
        if finished {
            self.ready.remove(&mut self.cells, node);
            self.completed_nodes += 1;
            for &s in self.spec.successors(node) {
                let w = &mut self.cells[s.index()].waiting;
                debug_assert!(*w > 0);
                *w -= 1;
                if *w == 0 {
                    self.ready.push_back(&mut self.cells, s);
                }
            }
        }
        (consumed, finished)
    }

    /// Execute `budget` scaled work units of a **ready** node that is known
    /// not to complete — the event-driven engine's bulk step.
    ///
    /// The fast-forward path computes a window of `s` ticks in which no
    /// claimed node finishes, then drains `s × units_per_tick` from each
    /// claimed node in one call instead of `s` [`advance`](Self::advance)
    /// calls. Because the node cannot complete, no ready-set maintenance or
    /// successor unlocking happens here, which is what makes the call O(1).
    ///
    /// # Panics
    /// If `node` is not ready, or if `budget` would complete the node
    /// (completions must go through [`advance`](Self::advance) so successors
    /// unlock and the ready list stays consistent).
    pub fn advance_bulk(&mut self, node: NodeId, budget: u64) {
        let c = &mut self.cells[node.index()];
        assert!(c.ready, "advance_bulk() on non-ready node {node}");
        let rem = c.remaining.units();
        assert!(
            budget < rem,
            "advance_bulk() budget {budget} would complete node {node} (remaining {rem})"
        );
        let consumed = c.remaining.deplete(budget);
        debug_assert_eq!(consumed, budget);
        self.remaining_total -= Work(consumed);
    }

    /// Remaining span: the work-weighted longest path over *unfinished* work,
    /// in scaled units. Counts partially-executed nodes at their remaining
    /// work. O(V + E); for clairvoyant components and tests only — a
    /// semi-non-clairvoyant scheduler must not call this.
    pub fn remaining_span(&self) -> Work {
        let mut best = vec![0u64; self.spec.num_nodes()];
        let mut span = 0u64;
        for &v in self.spec.topo_order().iter().rev() {
            let tail = self
                .spec
                .successors(v)
                .iter()
                .map(|s| best[s.index()])
                .max();
            let h = self.cells[v.index()].remaining.units() + tail.unwrap_or(0);
            best[v.index()] = h;
            span = span.max(h);
        }
        Work(span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DagBuilder;

    fn chain(lens: &[u64]) -> Arc<DagJobSpec> {
        let mut b = DagBuilder::new();
        let ids: Vec<_> = lens.iter().map(|&w| b.add_node(Work(w))).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        b.build().unwrap().into_shared()
    }

    fn diamond() -> Arc<DagJobSpec> {
        let mut b = DagBuilder::new();
        let s = b.add_node(Work(1));
        let a = b.add_node(Work(4));
        let c = b.add_node(Work(2));
        let t = b.add_node(Work(1));
        b.add_edge(s, a).unwrap();
        b.add_edge(s, c).unwrap();
        b.add_edge(a, t).unwrap();
        b.add_edge(c, t).unwrap();
        b.build().unwrap().into_shared()
    }

    #[test]
    fn initial_state_exposes_sources_only() {
        let st = UnfoldState::new(diamond(), 1);
        assert_eq!(st.ready_count(), 1);
        assert_eq!(st.ready_prefix(10), vec![NodeId(0)]);
        assert!(!st.is_complete());
        assert_eq!(st.remaining_total(), Work(8));
        assert_eq!(st.remaining_span(), Work(6));
    }

    #[test]
    fn unfolds_diamond_and_completes() {
        let mut st = UnfoldState::new(diamond(), 1);
        let (c, done) = st.advance(NodeId(0), 5);
        assert_eq!((c, done), (1, true), "consumes only the node's work");
        // Both branches become ready, in successor order.
        assert_eq!(st.ready_prefix(10), vec![NodeId(1), NodeId(2)]);
        assert!(st.is_ready(NodeId(2)));
        // Partially execute the long branch: stays ready.
        let (c, done) = st.advance(NodeId(1), 3);
        assert_eq!((c, done), (3, false));
        assert!(st.is_ready(NodeId(1)));
        // Finish the short branch; sink not ready yet (one pred left).
        st.advance(NodeId(2), 2);
        assert!(!st.is_ready(NodeId(3)));
        // Finish the long branch; sink becomes ready.
        let (_, done) = st.advance(NodeId(1), 1);
        assert!(done);
        assert_eq!(st.ready_prefix(10), vec![NodeId(3)]);
        st.advance(NodeId(3), 1);
        assert!(st.is_complete());
        assert_eq!(st.ready_count(), 0);
        assert_eq!(st.remaining_total(), Work::ZERO);
        assert_eq!(st.remaining_span(), Work::ZERO);
        assert_eq!(st.completed_nodes(), 4);
    }

    #[test]
    fn ready_iter_rev_reverses_readiness_order() {
        // Two sources feeding a diamond: removals from the head and the
        // middle must keep the `prev` links consistent with `next`.
        let mut b = DagBuilder::new();
        let s0 = b.add_node(Work(1));
        let s1 = b.add_node(Work(1));
        let a = b.add_node(Work(1));
        let c = b.add_node(Work(1));
        b.add_edge(s0, a).unwrap();
        b.add_edge(s0, c).unwrap();
        b.add_edge(s1, c).unwrap();
        let mut st = UnfoldState::new(b.build().unwrap().into_shared(), 1);
        let rev = |st: &UnfoldState| {
            let mut fwd: Vec<_> = st.ready_iter().collect();
            fwd.reverse();
            assert_eq!(st.ready_iter_rev().collect::<Vec<_>>(), fwd);
            fwd
        };
        assert_eq!(rev(&st), vec![s1, s0]);
        st.advance(s0, 1);
        assert_eq!(rev(&st), vec![a, s1]);
        st.advance(s1, 1);
        assert_eq!(rev(&st), vec![c, a]);
        st.advance(c, 1);
        st.advance(a, 1);
        assert_eq!(rev(&st), vec![]);
    }

    #[test]
    #[should_panic(expected = "non-ready")]
    fn advancing_non_ready_node_panics() {
        let mut st = UnfoldState::new(diamond(), 1);
        st.advance(NodeId(3), 1);
    }

    #[test]
    fn advance_bulk_drains_without_completing() {
        let mut st = UnfoldState::new(diamond(), 3);
        // Node 0 has 3 scaled units; drain 2 in bulk.
        st.advance_bulk(NodeId(0), 2);
        assert_eq!(st.node_remaining(NodeId(0)), Work(1));
        assert_eq!(st.remaining_total(), Work(24 - 2));
        assert!(st.is_ready(NodeId(0)), "bulk progress keeps the node ready");
        assert_eq!(st.completed_nodes(), 0);
        // Finishing the last unit through advance() unlocks successors.
        let (c, done) = st.advance(NodeId(0), 1);
        assert_eq!((c, done), (1, true));
        assert_eq!(st.ready_prefix(10), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    #[should_panic(expected = "would complete")]
    fn advance_bulk_rejects_completing_budget() {
        let mut st = UnfoldState::new(diamond(), 1);
        st.advance_bulk(NodeId(0), 1);
    }

    #[test]
    #[should_panic(expected = "non-ready")]
    fn advance_bulk_rejects_non_ready_node() {
        let mut st = UnfoldState::new(diamond(), 1);
        st.advance_bulk(NodeId(3), 1);
    }

    #[test]
    fn advance_bulk_matches_repeated_advance() {
        let mut bulk = UnfoldState::new(chain(&[100, 7]), 2);
        let mut tick = UnfoldState::new(chain(&[100, 7]), 2);
        bulk.advance_bulk(NodeId(0), 2 * 60);
        for _ in 0..60 {
            tick.advance(NodeId(0), 2);
        }
        assert_eq!(
            bulk.node_remaining(NodeId(0)),
            tick.node_remaining(NodeId(0))
        );
        assert_eq!(bulk.remaining_total(), tick.remaining_total());
        assert_eq!(bulk.remaining_span(), tick.remaining_span());
    }

    #[test]
    fn scaling_multiplies_work() {
        let st = UnfoldState::new(chain(&[3, 4]), 5);
        assert_eq!(st.remaining_total(), Work(35));
        assert_eq!(st.node_remaining(NodeId(0)), Work(15));
        assert_eq!(st.remaining_span(), Work(35));
        assert_eq!(st.scale(), 5);
    }

    #[test]
    fn chain_progress_is_sequential() {
        let mut st = UnfoldState::new(chain(&[2, 2, 2]), 1);
        assert_eq!(st.ready_count(), 1);
        st.advance(NodeId(0), 2);
        assert_eq!(st.ready_prefix(3), vec![NodeId(1)]);
        st.advance(NodeId(1), 2);
        st.advance(NodeId(2), 2);
        assert!(st.is_complete());
    }

    #[test]
    fn remaining_span_shrinks_with_critical_progress() {
        let mut st = UnfoldState::new(diamond(), 1);
        st.advance(NodeId(0), 1);
        assert_eq!(st.remaining_span(), Work(5)); // 4 + 1 through the long branch
        st.advance(NodeId(1), 3);
        // 1 left on a (+1 sink = 2), but branch c is untouched: 2 + 1 = 3.
        assert_eq!(st.remaining_span(), Work(3));
        st.advance(NodeId(2), 2); // finish c: critical path now through a
        assert_eq!(st.remaining_span(), Work(2));
    }

    #[test]
    fn ready_list_fifo_order_with_interleaved_removal() {
        // Block of 5 independent nodes: ready in id order.
        let mut b = DagBuilder::new();
        for _ in 0..5 {
            b.add_node(Work(2));
        }
        let mut st = UnfoldState::new(b.build().unwrap().into_shared(), 1);
        assert_eq!(st.ready_prefix(5), (0..5).map(NodeId).collect::<Vec<_>>());
        // Complete the middle one; order of the rest is preserved.
        st.advance(NodeId(2), 2);
        assert_eq!(
            st.ready_prefix(5),
            vec![NodeId(0), NodeId(1), NodeId(3), NodeId(4)]
        );
        // Partial progress does not reorder.
        st.advance(NodeId(0), 1);
        assert_eq!(st.ready_prefix(2), vec![NodeId(0), NodeId(1)]);
        // Complete head and tail.
        st.advance(NodeId(0), 1);
        st.advance(NodeId(4), 2);
        assert_eq!(st.ready_prefix(5), vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn reset_from_matches_fresh_and_reuses_buffers() {
        // Dirty a state on one spec (with claims held), reset onto a
        // different (smaller) one: every cell must equal a fresh state's,
        // with no claim surviving and no reallocation once capacity covers
        // the new spec.
        let mut pooled = UnfoldState::new(diamond(), 3);
        pooled.advance(NodeId(0), 3);
        pooled.claim(NodeId(1));
        pooled.claim(NodeId(2));
        pooled.advance(NodeId(1), 5);
        let small = chain(&[4, 2]);
        let cells_ptr = pooled.cells.as_ptr();
        pooled.reset_from(small.clone(), 2);
        let mut fresh = UnfoldState::new(small, 2);
        assert_eq!(pooled.cells, fresh.cells);
        assert_eq!(pooled.ready, fresh.ready);
        assert_eq!(pooled.remaining_total(), fresh.remaining_total());
        assert_eq!(pooled.scale(), fresh.scale());
        assert_eq!(pooled.completed_nodes(), 0);
        assert_eq!(
            pooled.ready_prefix(16),
            fresh.ready_prefix(16),
            "FIFO ready order must match a fresh unfold"
        );
        assert_eq!(
            pooled.cells.as_ptr(),
            cells_ptr,
            "reset within capacity must not reallocate"
        );
        // The reset state unfolds exactly like the fresh one.
        while !fresh.is_complete() {
            let a = pooled.ready_prefix(1)[0];
            let b = fresh.ready_prefix(1)[0];
            assert_eq!(a, b);
            assert_eq!(pooled.advance(a, 3), fresh.advance(b, 3));
        }
        assert!(pooled.is_complete());
    }

    #[test]
    fn claim_ready_successors_claims_ready_unclaimed_in_id_order() {
        // Source 0 feeds 1..=4; node 4 also waits on source 5.
        let mut b = DagBuilder::new();
        let v: Vec<_> = (0..6).map(|_| b.add_node(Work(1))).collect();
        for &t in &v[1..5] {
            b.add_edge(v[0], t).unwrap();
        }
        b.add_edge(v[5], v[4]).unwrap();
        let mut st = UnfoldState::new(b.build().unwrap().into_shared(), 1);
        st.advance(v[0], 1);
        // 1, 2 and 3 are ready, 4 is not, and 2 is already claimed.
        st.claim(v[2]);
        let mut got = Vec::new();
        st.claim_ready_successors(v[0], |s| got.push(s));
        assert_eq!(got, vec![v[1], v[3]]);
        assert!((1..4).all(|i| st.is_claimed(v[i])) && !st.is_claimed(v[4]));
        st.release(v[3]);
        st.claim_ready_successors(v[0], |s| got.push(s));
        assert_eq!(got, vec![v[1], v[3], v[3]], "only the released node again");
    }

    #[test]
    fn work_conservation_across_unfolding() {
        let mut st = UnfoldState::new(diamond(), 3);
        let total = st.remaining_total().units();
        let mut consumed = 0;
        // Drive to completion with odd-sized budgets.
        while !st.is_complete() {
            let node = st.ready_prefix(1)[0];
            let (c, _) = st.advance(node, 5);
            consumed += c;
        }
        assert_eq!(consumed, total, "every scaled unit accounted exactly once");
    }
}
