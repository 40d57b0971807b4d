//! The density-band admission structure (condition (2) / Observation 3).
//!
//! Scheduler S admits a job `J_i` into the running queue `Q` only if, with
//! `J_i` included, **every** density band `[v_j, c·v_j)` anchored at a queued
//! job's density `v_j` requires at most `b·m` processors:
//!
//! > `N(Q ∪ {J_i}, v_j, c·v_j) ≤ b·m` for all `J_j ∈ Q ∪ {J_i}`.
//!
//! [`DensityBands`] maintains the multiset of `(density, allotment)` pairs of
//! queued jobs and answers the admission question *incrementally*: the jobs
//! live in a balanced tree (a treap keyed by `(density, id)`) where every
//! node caches its own window load `N(Q, v, c·v)` and every subtree caches
//! the maximum cached load and the total allotment below it. Because a
//! candidate at density `d` changes exactly the windows of anchors with
//! `v ≤ d < c·v` — a contiguous density range — both the query and the
//! update are O(log |Q|) range operations (range-max with pending-add tags,
//! and a lazy range-add), instead of an O(|Q|) sliding-window sweep per
//! call. That sweep is [`reference::ReferenceBands`], which the
//! differential proptests compare against and [`PaperS`](crate::PaperS)
//! checks condition (2) with.
//!
//! Observation 3 — the bound holds at all times — is exactly the invariant
//! that insertions are only performed after a successful
//! [`DensityBands::fits`] check; [`DensityBands::check_invariant`]
//! re-verifies it from scratch for tests.

use dagsched_core::{JobId, Rng64};
use std::collections::HashMap;

/// Null link in the node arena.
const NIL: u32 = u32::MAX;

/// One queued job, stored as a treap node.
///
/// `wl`, `max_wl` and `add` follow the classic lazy-tag convention: a node's
/// stored `wl`/`max_wl` are correct *relative to its ancestors' pending
/// `add` tags* (the true value is the stored value plus the sum of `add`
/// over all strict ancestors). `max_wl` aggregates the node's own `wl` and
/// both children's `max_wl` shifted by this node's `add`.
#[derive(Debug, Clone, Copy)]
struct Node {
    density: f64,
    allot: u32,
    id: JobId,
    /// Treap heap priority (drawn from a deterministic stream).
    prio: u64,
    left: u32,
    right: u32,
    /// Total allotment in this subtree (tag-independent).
    sum: u64,
    /// Cached window load of this anchor: `N(Q, v, c·v)`, self included.
    wl: u64,
    /// Max window load over this subtree (see struct docs for tag math).
    max_wl: u64,
    /// Pending delta for both children's subtrees.
    add: i64,
}

/// Multiset of queued jobs ordered by density, supporting the paper's
/// band-capacity queries in O(log n).
#[derive(Debug, Clone)]
pub struct DensityBands {
    nodes: Vec<Node>,
    /// Free slots in `nodes`, reused before growing.
    free: Vec<u32>,
    /// Job id → node slot (slots are stable across rotations).
    index: HashMap<JobId, u32>,
    root: u32,
    /// Deterministic priority stream (bit-reproducible across runs).
    prio_rng: Rng64,
    /// Band width `c > 1`.
    c: f64,
    /// Capacity `b·m`.
    capacity: f64,
}

/// Relative margin against float rounding in density-interval arithmetic.
/// The band arithmetic rounds `c·v` once per comparison (≈ 1e-16
/// relative), so this covers it many times over. Scheduler S widens its
/// re-check intervals by it, and [`DensityBands::blocked_stretch`] narrows
/// its own-window stretch by it: in both, erring that way only costs
/// probes the full scan would also no-op.
pub(crate) const BAND_SLACK: f64 = 1e-9;

/// Seed of the deterministic treap-priority stream (also replayed by
/// [`DensityBands::clear`] so a cleared structure rebuilds the exact shapes
/// a new one would).
const PRIO_SEED: u64 = 0x8BAD_F00D_0B57_AC1E;

impl DensityBands {
    /// Create a structure with band width `c` and capacity `b·m`.
    pub fn new(c: f64, capacity: f64) -> DensityBands {
        assert!(c > 1.0, "band width c must exceed 1");
        assert!(capacity > 0.0, "capacity must be positive");
        DensityBands {
            nodes: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            root: NIL,
            prio_rng: Rng64::seed_from(PRIO_SEED),
            c,
            capacity,
        }
    }

    /// Return to the freshly-constructed state (same `c` and capacity),
    /// keeping allocated storage. The priority stream restarts from
    /// a fixed seed, so subsequent inserts replay exactly what a new
    /// structure would build.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.index.clear();
        self.root = NIL;
        self.prio_rng = Rng64::seed_from(PRIO_SEED);
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True iff no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total allotment of queued jobs with density in `[lo, hi)` —
    /// the paper's `N(Q, lo, hi)`. O(log n).
    pub fn band_load(&self, lo: f64, hi: f64) -> u64 {
        self.sum_range(self.root, lo, hi)
    }

    /// `N(Q, v, ∞)`: total allotment of `v`-dense queued jobs. O(log n).
    pub fn dense_load(&self, v: f64) -> u64 {
        self.sum_ge(self.root, v)
    }

    /// Would adding `(density, allot)` keep every band within capacity?
    ///
    /// Checks `N(Q ∪ {J_i}, v_j, c·v_j) ≤ b·m` for every anchor `v_j` in the
    /// union, in O(log n): the candidate inflates exactly the anchors whose
    /// window `[v, c·v)` contains `density` — the contiguous range
    /// `v ≤ density < c·v` — so the answer is three range-max queries (the
    /// affected range shifted by `allot`, the two unaffected flanks as-is)
    /// plus the candidate's own window sum. Anchors are never approximated:
    /// like the reference sweep, an already-over-capacity population makes
    /// `fits` return false for any candidate.
    pub fn fits(&self, density: f64, allot: u32) -> bool {
        debug_assert!(density.is_finite() && density > 0.0);
        let a = allot as u64;
        // The candidate's own anchor: existing load in [v, c·v) plus itself.
        // (With equal-density members present this equals the load of their
        // shared first anchor, which dominates the per-duplicate windows the
        // reference sweep also examines — the maxima coincide exactly.)
        let own = self.sum_range(self.root, density, self.c * density) + a;
        if own as f64 > self.capacity {
            return false;
        }
        // Affected anchors (v ≤ d < c·v) each gain `a`. An empty range
        // yields 0, and 0 + a ≤ own ≤ capacity — no false rejection.
        if (self.max_affected(self.root, 0, density) + a) as f64 > self.capacity {
            return false;
        }
        // Unaffected anchors keep their load but are still quantified over.
        if self.max_cv_le(self.root, 0, density) as f64 > self.capacity {
            return false;
        }
        if self.max_v_gt(self.root, 0, density) as f64 > self.capacity {
            return false;
        }
        true
    }

    /// The lowest density `lo ≤ d` such that an allotment-1 candidate fits
    /// nowhere in `[lo, d]`, found from two window families; `None` if
    /// neither blocks `d` itself. O(log n).
    ///
    /// * **Anchor window.** A member anchor `v ≤ d < c·v` whose load is
    ///   above `b·m − 1` rejects every candidate in `[v, d]`: its window
    ///   holds them all. The lowest such `v` bounds the stretch.
    /// * **Own window.** Walk the members from `d` upward until their load
    ///   is above `b·m − 1`; call the last one `v_j`. Every `d' ≤ d` with
    ///   `c·d' > v_j` has an own window `[d', c·d')` holding all of them,
    ///   so it is blocked: the stretch reaches down to `v_j/c`, moved
    ///   inward by a relative `1e-9` against float rounding.
    ///
    /// The stretch is sound, not tight: a density it omits may still be
    /// blocked. Both families hold for every allotment, because a larger
    /// allotment only adds load.
    pub fn blocked_stretch(&self, d: f64) -> Option<f64> {
        debug_assert!(d.is_finite() && d > 0.0);
        let anchor = self.first_full_affected(self.root, 0, d);
        let own = if self.full(0) {
            // Not even an empty window takes one processor.
            Some(0.0)
        } else {
            // `capacity.floor()` is the least load `full` accepts.
            let target = self.sum_lt(self.root, d) + self.capacity.floor() as u64;
            self.select_by_sum(self.root, 0, target).and_then(|v_j| {
                // `c·d'` rounds monotonically in `d'`, so checking the
                // bottom keeps every `d' ∈ [lo, d]` above `v_j`.
                let lo = v_j / self.c * (1.0 + BAND_SLACK);
                (lo <= d && self.c * lo > v_j).then_some(lo)
            })
        };
        match (anchor, own) {
            (Some(a), Some(o)) => Some(a.min(o)),
            (a, o) => a.or(o),
        }
    }

    /// Insert a job (caller has already verified [`fits`](Self::fits) when
    /// enforcing the paper's admission rule; insertion itself does not
    /// check, because Observation 3 is the *caller's* invariant).
    ///
    /// O(log n): one window-sum query for the new anchor's cached load, one
    /// lazy range-add over the anchors whose windows absorb the newcomer,
    /// one keyed treap split + two merges to link the node.
    pub fn insert(&mut self, id: JobId, density: f64, allot: u32) {
        assert!(density.is_finite() && density > 0.0, "bad density");
        assert!(allot >= 1, "allotment must be at least 1");
        debug_assert!(
            !self.index.contains_key(&id),
            "job {id:?} inserted twice into DensityBands"
        );
        let own = self.sum_range(self.root, density, self.c * density) + allot as u64;
        let root = self.root;
        self.range_add(root, density, allot as i64);
        let idx = self.alloc_node(id, density, allot, own);
        let (l, r) = self.split_key(root, (density, id.0), false);
        let merged = self.merge(l, idx);
        self.root = self.merge(merged, r);
        self.index.insert(id, idx);
    }

    /// Remove a job by id; returns true if it was present. O(log n).
    pub fn remove(&mut self, id: JobId) -> bool {
        let Some(idx) = self.index.remove(&id) else {
            return false;
        };
        let (density, allot) = {
            let n = &self.nodes[idx as usize];
            (n.density, n.allot)
        };
        let root = self.root;
        let (l, rest) = self.split_key(root, (density, id.0), false);
        let (mid, r) = self.split_key(rest, (density, id.0), true);
        debug_assert_eq!(mid, idx, "split isolated the wrong node");
        self.free.push(mid);
        self.root = self.merge(l, r);
        let root = self.root;
        self.range_add(root, density, -(allot as i64));
        true
    }

    /// Re-verify Observation 3 from scratch: every band anchored at a member
    /// density is within capacity. O(n log n); for tests and debug
    /// assertions.
    pub fn check_invariant(&self) -> bool {
        self.collect()
            .iter()
            .all(|&(_, d, _, _)| self.band_load(d, self.c * d) as f64 <= self.capacity)
    }

    /// Iterate `(id, density, allot)` ascending by `(density, id)`.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, f64, u32)> + '_ {
        self.collect().into_iter().map(|(id, d, a, _)| (id, d, a))
    }

    /// Every cached per-anchor window load must equal a fresh
    /// `band_load(v, c·v)` recomputation. Test hook for the differential
    /// suite; not part of the public contract.
    #[doc(hidden)]
    pub fn cache_coherent(&self) -> bool {
        self.collect()
            .iter()
            .all(|&(_, d, _, wl)| wl == self.band_load(d, self.c * d))
    }

    /// In-order `(id, density, allot, true window load)` snapshot.
    fn collect(&self) -> Vec<(JobId, f64, u32, u64)> {
        let mut out = Vec::with_capacity(self.len());
        self.visit(self.root, 0, &mut out);
        out
    }

    fn visit(&self, t: u32, acc: i64, out: &mut Vec<(JobId, f64, u32, u64)>) {
        if t == NIL {
            return;
        }
        let n = &self.nodes[t as usize];
        let child_acc = acc + n.add;
        self.visit(n.left, child_acc, out);
        out.push((n.id, n.density, n.allot, n.wl.wrapping_add_signed(acc)));
        self.visit(n.right, child_acc, out);
    }

    // ----- node arena -----

    fn alloc_node(&mut self, id: JobId, density: f64, allot: u32, wl: u64) -> u32 {
        let node = Node {
            density,
            allot,
            id,
            prio: self.prio_rng.next_u64(),
            left: NIL,
            right: NIL,
            sum: allot as u64,
            wl,
            max_wl: wl,
            add: 0,
        };
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    // ----- lazy-tag plumbing -----

    /// Shift a whole subtree's window loads by `delta` (lazily).
    fn apply(&mut self, t: u32, delta: i64) {
        if t == NIL {
            return;
        }
        let n = &mut self.nodes[t as usize];
        n.wl = n.wl.wrapping_add_signed(delta);
        n.max_wl = n.max_wl.wrapping_add_signed(delta);
        n.add += delta;
    }

    /// Move a node's pending tag down to its children.
    fn push_down(&mut self, t: u32) {
        let add = self.nodes[t as usize].add;
        if add != 0 {
            let (l, r) = {
                let n = &self.nodes[t as usize];
                (n.left, n.right)
            };
            self.apply(l, add);
            self.apply(r, add);
            self.nodes[t as usize].add = 0;
        }
    }

    /// Recompute `sum` and `max_wl` from the children (tag-aware).
    fn pull(&mut self, t: u32) {
        let (l, r, add, allot, wl) = {
            let n = &self.nodes[t as usize];
            (n.left, n.right, n.add, n.allot, n.wl)
        };
        let mut sum = allot as u64;
        let mut mx = wl;
        if l != NIL {
            let c = &self.nodes[l as usize];
            sum += c.sum;
            mx = mx.max(c.max_wl.wrapping_add_signed(add));
        }
        if r != NIL {
            let c = &self.nodes[r as usize];
            sum += c.sum;
            mx = mx.max(c.max_wl.wrapping_add_signed(add));
        }
        let n = &mut self.nodes[t as usize];
        n.sum = sum;
        n.max_wl = mx;
    }

    // ----- treap structure -----

    /// Split by key: left side holds `(density, id)` strictly below `key`
    /// (or `≤ key` when `inclusive`). The tuple comparison mirrors the
    /// reference sweep's `(density, id.0)` ordering bit-for-bit.
    fn split_key(&mut self, t: u32, key: (f64, u32), inclusive: bool) -> (u32, u32) {
        if t == NIL {
            return (NIL, NIL);
        }
        self.push_down(t);
        let nk = {
            let n = &self.nodes[t as usize];
            (n.density, n.id.0)
        };
        let goes_left = if inclusive { nk <= key } else { nk < key };
        if goes_left {
            let r = self.nodes[t as usize].right;
            let (a, b) = self.split_key(r, key, inclusive);
            self.nodes[t as usize].right = a;
            self.pull(t);
            (t, b)
        } else {
            let l = self.nodes[t as usize].left;
            let (a, b) = self.split_key(l, key, inclusive);
            self.nodes[t as usize].left = b;
            self.pull(t);
            (a, t)
        }
    }

    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.nodes[a as usize].prio >= self.nodes[b as usize].prio {
            self.push_down(a);
            let r = self.nodes[a as usize].right;
            let nr = self.merge(r, b);
            self.nodes[a as usize].right = nr;
            self.pull(a);
            a
        } else {
            self.push_down(b);
            let l = self.nodes[b as usize].left;
            let nl = self.merge(a, l);
            self.nodes[b as usize].left = nl;
            self.pull(b);
            b
        }
    }

    // ----- range add (tree shape untouched; aggregates rebuilt on the path) -----

    /// Add `delta` to the cached window of every anchor whose window
    /// contains `at`: `v ≤ at && c·v > at`.
    fn range_add(&mut self, t: u32, at: f64, delta: i64) {
        if t == NIL {
            return;
        }
        let v = self.nodes[t as usize].density;
        if v > at {
            let l = self.nodes[t as usize].left;
            self.range_add(l, at, delta);
        } else if self.c * v <= at {
            let r = self.nodes[t as usize].right;
            self.range_add(r, at, delta);
        } else {
            self.nodes[t as usize].wl = self.nodes[t as usize].wl.wrapping_add_signed(delta);
            let (l, r) = {
                let n = &self.nodes[t as usize];
                (n.left, n.right)
            };
            self.add_where_cv_gt(l, at, delta);
            self.add_where_v_le(r, at, delta);
        }
        self.pull(t);
    }

    /// All nodes here have `v ≤ at`; add `delta` where `c·v > at`.
    fn add_where_cv_gt(&mut self, t: u32, at: f64, delta: i64) {
        if t == NIL {
            return;
        }
        let v = self.nodes[t as usize].density;
        if self.c * v > at {
            self.nodes[t as usize].wl = self.nodes[t as usize].wl.wrapping_add_signed(delta);
            let (l, r) = {
                let n = &self.nodes[t as usize];
                (n.left, n.right)
            };
            self.apply(r, delta);
            self.add_where_cv_gt(l, at, delta);
        } else {
            let r = self.nodes[t as usize].right;
            self.add_where_cv_gt(r, at, delta);
        }
        self.pull(t);
    }

    /// All nodes here have `c·v > at`; add `delta` where `v ≤ at`.
    fn add_where_v_le(&mut self, t: u32, at: f64, delta: i64) {
        if t == NIL {
            return;
        }
        let v = self.nodes[t as usize].density;
        if v <= at {
            self.nodes[t as usize].wl = self.nodes[t as usize].wl.wrapping_add_signed(delta);
            let (l, r) = {
                let n = &self.nodes[t as usize];
                (n.left, n.right)
            };
            self.apply(l, delta);
            self.add_where_v_le(r, at, delta);
        } else {
            let l = self.nodes[t as usize].left;
            self.add_where_v_le(l, at, delta);
        }
        self.pull(t);
    }

    // ----- read-only range queries (`acc` carries pending ancestor tags) -----

    /// Total allotment with density in `[lo, hi)`.
    fn sum_range(&self, t: u32, lo: f64, hi: f64) -> u64 {
        if t == NIL {
            return 0;
        }
        let n = &self.nodes[t as usize];
        if n.density < lo {
            self.sum_range(n.right, lo, hi)
        } else if n.density >= hi {
            self.sum_range(n.left, lo, hi)
        } else {
            n.allot as u64 + self.sum_ge(n.left, lo) + self.sum_lt(n.right, hi)
        }
    }

    fn sum_ge(&self, t: u32, lo: f64) -> u64 {
        if t == NIL {
            return 0;
        }
        let n = &self.nodes[t as usize];
        if n.density >= lo {
            let right = if n.right == NIL {
                0
            } else {
                self.nodes[n.right as usize].sum
            };
            n.allot as u64 + right + self.sum_ge(n.left, lo)
        } else {
            self.sum_ge(n.right, lo)
        }
    }

    fn sum_lt(&self, t: u32, hi: f64) -> u64 {
        if t == NIL {
            return 0;
        }
        let n = &self.nodes[t as usize];
        if n.density < hi {
            let left = if n.left == NIL {
                0
            } else {
                self.nodes[n.left as usize].sum
            };
            n.allot as u64 + left + self.sum_lt(n.right, hi)
        } else {
            self.sum_lt(n.left, hi)
        }
    }

    /// Would a window of this load reject an allotment-1 candidate?
    fn full(&self, load: u64) -> bool {
        (load + 1) as f64 > self.capacity
    }

    /// `n`'s density if its own window is full (`acc` as in the queries
    /// below).
    fn full_at(&self, n: &Node, acc: i64) -> Option<f64> {
        self.full(n.wl.wrapping_add_signed(acc))
            .then_some(n.density)
    }

    /// Density of the lowest anchor with `v ≤ d && c·v > d` whose window
    /// is [`full`](Self::full).
    fn first_full_affected(&self, t: u32, acc: i64, d: f64) -> Option<f64> {
        if t == NIL {
            return None;
        }
        let n = &self.nodes[t as usize];
        let child_acc = acc + n.add;
        if n.density > d {
            self.first_full_affected(n.left, child_acc, d)
        } else if self.c * n.density <= d {
            self.first_full_affected(n.right, child_acc, d)
        } else {
            self.first_full_cv_gt(n.left, child_acc, d)
                .or_else(|| self.full_at(n, acc))
                .or_else(|| self.first_full_v_le(n.right, child_acc, d))
        }
    }

    /// All nodes here have `v ≤ d`; the lowest full anchor with `c·v > d`.
    fn first_full_cv_gt(&self, t: u32, acc: i64, d: f64) -> Option<f64> {
        if t == NIL {
            return None;
        }
        let n = &self.nodes[t as usize];
        let child_acc = acc + n.add;
        if self.c * n.density > d {
            self.first_full_cv_gt(n.left, child_acc, d)
                .or_else(|| self.full_at(n, acc))
                .or_else(|| self.first_full(n.right, child_acc))
        } else {
            self.first_full_cv_gt(n.right, child_acc, d)
        }
    }

    /// All nodes here have `c·v > d`; the lowest full anchor with `v ≤ d`.
    fn first_full_v_le(&self, t: u32, acc: i64, d: f64) -> Option<f64> {
        if t == NIL {
            return None;
        }
        let n = &self.nodes[t as usize];
        let child_acc = acc + n.add;
        if n.density <= d {
            self.first_full(n.left, child_acc)
                .or_else(|| self.full_at(n, acc))
                .or_else(|| self.first_full_v_le(n.right, child_acc, d))
        } else {
            self.first_full_v_le(n.left, child_acc, d)
        }
    }

    /// The lowest full anchor of a whole subtree; the `max_wl` guard keeps
    /// the descent on one path.
    fn first_full(&self, t: u32, acc: i64) -> Option<f64> {
        if t == NIL {
            return None;
        }
        let n = &self.nodes[t as usize];
        if !self.full(n.max_wl.wrapping_add_signed(acc)) {
            return None;
        }
        let child_acc = acc + n.add;
        self.first_full(n.left, child_acc)
            .or_else(|| self.full_at(n, acc))
            .or_else(|| self.first_full(n.right, child_acc))
    }

    /// Density of the first member, in order, at which the running
    /// allotment total reaches `target`; `None` if the total falls short.
    fn select_by_sum(&self, t: u32, below: u64, target: u64) -> Option<f64> {
        if t == NIL {
            return None;
        }
        let n = &self.nodes[t as usize];
        let left = if n.left == NIL {
            0
        } else {
            self.nodes[n.left as usize].sum
        };
        if below + left >= target {
            self.select_by_sum(n.left, below, target)
        } else if below + left + n.allot as u64 >= target {
            Some(n.density)
        } else {
            self.select_by_sum(n.right, below + left + n.allot as u64, target)
        }
    }

    /// Max cached window over anchors with `v ≤ d && c·v > d`.
    fn max_affected(&self, t: u32, acc: i64, d: f64) -> u64 {
        if t == NIL {
            return 0;
        }
        let n = &self.nodes[t as usize];
        let child_acc = acc + n.add;
        if n.density > d {
            self.max_affected(n.left, child_acc, d)
        } else if self.c * n.density <= d {
            self.max_affected(n.right, child_acc, d)
        } else {
            let mut mx = n.wl.wrapping_add_signed(acc);
            mx = mx.max(self.max_suffix_cv_gt(n.left, child_acc, d));
            mx.max(self.max_prefix_v_le(n.right, child_acc, d))
        }
    }

    /// All nodes here have `v ≤ d`; max window where `c·v > d`.
    fn max_suffix_cv_gt(&self, t: u32, acc: i64, d: f64) -> u64 {
        if t == NIL {
            return 0;
        }
        let n = &self.nodes[t as usize];
        let child_acc = acc + n.add;
        if self.c * n.density > d {
            let mut mx = n.wl.wrapping_add_signed(acc);
            if n.right != NIL {
                mx = mx.max(
                    self.nodes[n.right as usize]
                        .max_wl
                        .wrapping_add_signed(child_acc),
                );
            }
            mx.max(self.max_suffix_cv_gt(n.left, child_acc, d))
        } else {
            self.max_suffix_cv_gt(n.right, child_acc, d)
        }
    }

    /// All nodes here have `c·v > d`; max window where `v ≤ d`.
    fn max_prefix_v_le(&self, t: u32, acc: i64, d: f64) -> u64 {
        if t == NIL {
            return 0;
        }
        let n = &self.nodes[t as usize];
        let child_acc = acc + n.add;
        if n.density <= d {
            let mut mx = n.wl.wrapping_add_signed(acc);
            if n.left != NIL {
                mx = mx.max(
                    self.nodes[n.left as usize]
                        .max_wl
                        .wrapping_add_signed(child_acc),
                );
            }
            mx.max(self.max_prefix_v_le(n.right, child_acc, d))
        } else {
            self.max_prefix_v_le(n.left, child_acc, d)
        }
    }

    /// Max cached window over anchors with `c·v ≤ d` (low flank).
    fn max_cv_le(&self, t: u32, acc: i64, d: f64) -> u64 {
        if t == NIL {
            return 0;
        }
        let n = &self.nodes[t as usize];
        let child_acc = acc + n.add;
        if self.c * n.density <= d {
            let mut mx = n.wl.wrapping_add_signed(acc);
            if n.left != NIL {
                mx = mx.max(
                    self.nodes[n.left as usize]
                        .max_wl
                        .wrapping_add_signed(child_acc),
                );
            }
            mx.max(self.max_cv_le(n.right, child_acc, d))
        } else {
            self.max_cv_le(n.left, child_acc, d)
        }
    }

    /// Max cached window over anchors with `v > d` (high flank).
    fn max_v_gt(&self, t: u32, acc: i64, d: f64) -> u64 {
        if t == NIL {
            return 0;
        }
        let n = &self.nodes[t as usize];
        let child_acc = acc + n.add;
        if n.density > d {
            let mut mx = n.wl.wrapping_add_signed(acc);
            if n.right != NIL {
                mx = mx.max(
                    self.nodes[n.right as usize]
                        .max_wl
                        .wrapping_add_signed(child_acc),
                );
            }
            mx.max(self.max_v_gt(n.left, child_acc, d))
        } else {
            self.max_v_gt(n.right, child_acc, d)
        }
    }
}

pub mod reference {
    //! The direct form of condition (2) — a sorted `Vec` with an O(n)
    //! sliding-window sweep per query — kept as the behavioral reference
    //! for the incremental [`DensityBands`](super::DensityBands). The differential
    //! proptests (`tests/bands_differential.rs`) replay every operation
    //! against both structures and demand identical answers.

    use dagsched_core::JobId;

    /// An entry of the structure: one queued job.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Entry {
        density: f64,
        allot: u32,
        id: JobId,
    }

    /// The O(n)-per-query density-band structure.
    #[derive(Debug, Clone)]
    pub struct ReferenceBands {
        /// Sorted ascending by (density, id).
        entries: Vec<Entry>,
        c: f64,
        capacity: f64,
    }

    impl ReferenceBands {
        /// Create a structure with band width `c` and capacity `b·m`.
        pub fn new(c: f64, capacity: f64) -> ReferenceBands {
            assert!(c > 1.0, "band width c must exceed 1");
            assert!(capacity > 0.0, "capacity must be positive");
            ReferenceBands {
                entries: Vec::new(),
                c,
                capacity,
            }
        }

        /// Number of queued jobs.
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        /// True iff no jobs are queued.
        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        /// Total allotment of queued jobs with density in `[lo, hi)`.
        pub fn band_load(&self, lo: f64, hi: f64) -> u64 {
            self.entries
                .iter()
                .filter(|e| e.density >= lo && e.density < hi)
                .map(|e| e.allot as u64)
                .sum()
        }

        /// `N(Q, v, ∞)`: total allotment of `v`-dense queued jobs.
        pub fn dense_load(&self, v: f64) -> u64 {
            self.entries
                .iter()
                .filter(|e| e.density >= v)
                .map(|e| e.allot as u64)
                .sum()
        }

        /// Would adding `(density, allot)` keep every band within capacity?
        /// One O(n) merged sliding-window sweep.
        pub fn fits(&self, density: f64, allot: u32) -> bool {
            debug_assert!(density.is_finite() && density > 0.0);
            let cand = Entry {
                density,
                allot,
                id: JobId(u32::MAX),
            };
            let pos = self
                .entries
                .partition_point(|e| (e.density, e.id.0) < (cand.density, cand.id.0));
            let get = |i: usize| -> Entry {
                match i.cmp(&pos) {
                    std::cmp::Ordering::Less => self.entries[i],
                    std::cmp::Ordering::Equal => cand,
                    std::cmp::Ordering::Greater => self.entries[i - 1],
                }
            };
            let n = self.entries.len() + 1;
            let mut j = 0usize;
            let mut window: u64 = 0;
            for i in 0..n {
                if i > 0 {
                    window -= get(i - 1).allot as u64;
                }
                while j < n && get(j).density < self.c * get(i).density {
                    window += get(j).allot as u64;
                    j += 1;
                }
                if window as f64 > self.capacity {
                    return false;
                }
            }
            true
        }

        /// Insert a job (no fits check — Observation 3 is the caller's
        /// invariant).
        pub fn insert(&mut self, id: JobId, density: f64, allot: u32) {
            assert!(density.is_finite() && density > 0.0, "bad density");
            assert!(allot >= 1, "allotment must be at least 1");
            let e = Entry { density, allot, id };
            let pos = self
                .entries
                .partition_point(|x| (x.density, x.id.0) < (e.density, e.id.0));
            self.entries.insert(pos, e);
        }

        /// Remove a job by id; returns true if it was present.
        pub fn remove(&mut self, id: JobId) -> bool {
            match self.entries.iter().position(|e| e.id == id) {
                Some(i) => {
                    self.entries.remove(i);
                    true
                }
                None => false,
            }
        }

        /// Re-verify Observation 3 from scratch (O(n²)).
        pub fn check_invariant(&self) -> bool {
            self.entries
                .iter()
                .all(|e| self.band_load(e.density, self.c * e.density) as f64 <= self.capacity)
        }

        /// Iterate `(id, density, allot)` ascending by density.
        pub fn iter(&self) -> impl Iterator<Item = (JobId, f64, u32)> + '_ {
            self.entries.iter().map(|e| (e.id, e.density, e.allot))
        }
    }
}

/// Standalone band check over an arbitrary slot population (used by the
/// general-profit scheduler, whose per-tick populations `J(t)` are not kept
/// in a persistent [`DensityBands`]).
///
/// Returns true iff adding `(density, allot)` to `members` keeps
/// `N(members ∪ {cand}, v_j, c·v_j) ≤ capacity` for every anchor in the
/// union. `members` need not be sorted.
pub fn fits_population(
    members: &[(f64, u32)],
    density: f64,
    allot: u32,
    c: f64,
    capacity: f64,
) -> bool {
    let mut all: Vec<(f64, u32)> = Vec::with_capacity(members.len() + 1);
    all.extend_from_slice(members);
    all.push((density, allot));
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    for i in 0..all.len() {
        let anchor = all[i].0;
        let hi = c * anchor;
        let load: u64 = all[i..]
            .iter()
            .take_while(|(d, _)| *d < hi)
            .map(|(_, a)| *a as u64)
            .sum();
        if load as f64 > capacity {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceBands;
    use super::*;

    fn bands(c: f64, cap: f64) -> DensityBands {
        DensityBands::new(c, cap)
    }

    #[test]
    fn empty_structure_accepts_anything_within_capacity() {
        let b = bands(4.0, 10.0);
        assert!(b.is_empty());
        assert!(b.fits(1.0, 10));
        assert!(!b.fits(1.0, 11), "a single job above capacity is rejected");
    }

    #[test]
    fn band_load_and_dense_load() {
        let mut b = bands(4.0, 100.0);
        b.insert(JobId(0), 1.0, 5);
        b.insert(JobId(1), 2.0, 7);
        b.insert(JobId(2), 10.0, 3);
        assert_eq!(b.band_load(1.0, 4.0), 12, "[1, 4) holds densities 1, 2");
        assert_eq!(b.band_load(2.0, 10.0), 7);
        assert_eq!(b.band_load(2.0, 10.1), 10, "upper bound exclusive");
        assert_eq!(b.dense_load(2.0), 10);
        assert_eq!(b.dense_load(0.5), 15);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn fits_detects_band_overflow_at_any_anchor() {
        // c = 2, capacity = 10.
        let mut b = bands(2.0, 10.0);
        b.insert(JobId(0), 1.0, 6);
        // Candidate at density 1.5, allot 5: band [1.0, 2.0) would hold 11.
        assert!(!b.fits(1.5, 5));
        // Allot 4: band holds exactly 10 — allowed (≤).
        assert!(b.fits(1.5, 4));
        // Candidate at density 2.5: bands [1,2)={6}, [2.5,5)={5} both fine.
        assert!(b.fits(2.5, 5));
        // The *candidate's* anchor can be the violated one: members at 3.0
        // (6) plus candidate at 1.6 with c=2 → band [1.6, 3.2) holds both.
        let mut b = bands(2.0, 10.0);
        b.insert(JobId(0), 3.0, 6);
        assert!(!b.fits(1.6, 5));
        assert!(b.fits(1.4, 5), "band [1.4, 2.8) excludes the 3.0 job");
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut b = bands(2.0, 10.0);
        b.insert(JobId(3), 1.0, 4);
        b.insert(JobId(4), 1.5, 4);
        assert!(!b.fits(1.2, 3));
        assert!(b.remove(JobId(4)));
        assert!(b.fits(1.2, 3));
        assert!(!b.remove(JobId(4)), "double remove is a no-op");
        assert!(b.remove(JobId(3)));
        assert!(b.is_empty());
    }

    #[test]
    fn invariant_checker_agrees_with_fits() {
        let mut b = bands(3.0, 8.0);
        for (i, (d, a)) in [(1.0, 3u32), (2.0, 3), (5.0, 2), (9.0, 6)]
            .iter()
            .enumerate()
        {
            assert!(b.fits(*d, *a), "entry {i} should fit");
            b.insert(JobId(i as u32), *d, *a);
            assert!(b.check_invariant(), "invariant after insert {i}");
        }
        // A violating insert breaks the checker (bypassing fits).
        b.insert(JobId(99), 1.5, 4);
        assert!(!b.check_invariant());
    }

    #[test]
    fn duplicate_densities_accumulate() {
        let mut b = bands(2.0, 10.0);
        for i in 0..5 {
            assert!(b.fits(1.0, 2));
            b.insert(JobId(i), 1.0, 2);
        }
        // Sixth job of allot 2 at the same density would hit 12 > 10.
        assert!(!b.fits(1.0, 2));
        assert!(b.fits(2.0, 10), "a disjoint band is unaffected");
        // Note [1,2) has load 10, and [2,4) would have 10: both exactly full.
    }

    #[test]
    fn fits_population_matches_structure() {
        let members = [(1.0, 3u32), (2.5, 4), (6.0, 2)];
        let mut b = bands(2.0, 8.0);
        for (i, (d, a)) in members.iter().enumerate() {
            b.insert(JobId(i as u32), *d, *a);
        }
        for (d, a) in [
            (1.1, 2u32),
            (1.1, 6),
            (3.0, 4),
            (3.0, 5),
            (12.0, 8),
            (12.0, 9),
        ] {
            assert_eq!(
                b.fits(d, a),
                fits_population(&members, d, a, 2.0, 8.0),
                "disagreement at ({d}, {a})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "band width")]
    fn rejects_c_not_above_one() {
        let _ = DensityBands::new(1.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "band width")]
    fn reference_rejects_c_not_above_one() {
        let _ = ReferenceBands::new(1.0, 5.0);
    }

    #[test]
    fn window_cache_survives_interleaved_updates() {
        // Exercise the lazy-tag machinery: interleave inserts and removes
        // across overlapping bands, then demand the cached per-anchor
        // windows equal fresh recomputations.
        let mut b = bands(2.0, 1e9);
        let mut rng = Rng64::seed_from(11);
        let mut live: Vec<u32> = Vec::new();
        for i in 0..200u32 {
            if !live.is_empty() && rng.gen_bool(0.4) {
                let k = rng.gen_range(live.len() as u64) as usize;
                assert!(b.remove(JobId(live.swap_remove(k))));
            } else {
                let d = 10f64.powf(rng.gen_f64_range(-2.0, 2.0));
                b.insert(JobId(i), d, 1 + rng.gen_range(8) as u32);
                live.push(i);
            }
            assert!(b.cache_coherent(), "cache diverged after op {i}");
        }
        assert_eq!(b.len(), live.len());
    }

    #[test]
    fn agrees_with_reference_on_a_fixed_script() {
        let (c, cap) = (3.0, 9.0);
        let mut fast = DensityBands::new(c, cap);
        let mut slow = ReferenceBands::new(c, cap);
        let script = [
            (0u32, 1.0, 3u32),
            (1, 1.0, 2), // equal-density tie
            (2, 3.0, 2), // exactly c·1.0: outside [1, 3)
            (3, 0.5, 1),
            (4, 1.5, 1),
        ];
        for &(i, d, a) in &script {
            assert_eq!(fast.fits(d, a), slow.fits(d, a), "fits({d}, {a})");
            fast.insert(JobId(i), d, a);
            slow.insert(JobId(i), d, a);
        }
        for &(lo, hi) in &[(0.5, 1.5), (1.0, 3.0), (1.0, 3.1), (0.0, f64::INFINITY)] {
            assert_eq!(fast.band_load(lo, hi), slow.band_load(lo, hi));
        }
        fast.remove(JobId(1));
        slow.remove(JobId(1));
        for probe in [0.4f64, 0.5, 1.0, 1.5, 2.9, 3.0, 9.0] {
            assert_eq!(fast.fits(probe, 4), slow.fits(probe, 4), "fits({probe})");
            assert_eq!(fast.dense_load(probe), slow.dense_load(probe));
        }
        assert_eq!(fast.check_invariant(), slow.check_invariant());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_jobs() -> impl Strategy<Value = Vec<(f64, u32)>> {
            proptest::collection::vec((0.01f64..100.0, 1u32..6), 0..12)
        }

        proptest! {
            /// `fits` is exactly "insert would preserve check_invariant".
            #[test]
            fn fits_iff_invariant_preserved(
                jobs in arb_jobs(),
                cand_d in 0.01f64..100.0,
                cand_a in 1u32..6,
                c in 1.5f64..8.0,
                cap in 4.0f64..20.0,
            ) {
                // Build greedily, inserting only what fits (like S does).
                let mut b = DensityBands::new(c, cap);
                for (i, (d, a)) in jobs.iter().enumerate() {
                    if b.fits(*d, *a) {
                        b.insert(JobId(i as u32), *d, *a);
                    }
                }
                prop_assert!(b.check_invariant(), "greedy build holds Obs. 3");
                let fits = b.fits(cand_d, cand_a);
                let mut b2 = b.clone();
                b2.insert(JobId(9999), cand_d, cand_a);
                prop_assert_eq!(fits, b2.check_invariant());
            }

            /// fits_population agrees with the incremental structure for
            /// arbitrary populations.
            #[test]
            fn population_check_agrees(
                jobs in arb_jobs(),
                cand_d in 0.01f64..100.0,
                cand_a in 1u32..6,
            ) {
                let c = 3.0;
                let cap = 9.0;
                let mut b = DensityBands::new(c, cap);
                for (i, (d, a)) in jobs.iter().enumerate() {
                    b.insert(JobId(i as u32), *d, *a);
                }
                prop_assert_eq!(
                    b.fits(cand_d, cand_a),
                    fits_population(&jobs, cand_d, cand_a, c, cap)
                );
            }
        }
    }
}
