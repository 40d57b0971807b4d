//! Immutable, validated DAG job descriptions.

use dagsched_core::{NodeId, Result, SchedError, Work};
use std::sync::Arc;

/// A validated DAG job: node processing times plus precedence edges, with the
/// quantities the theory needs precomputed at construction.
///
/// Immutable by design — the engine shares one spec (via [`Arc`]) across the
/// algorithm run, the optimal-bound computation, and any number of replays.
///
/// Three heap buffers hold everything: the builder's node works, one
/// [`NodeId`] array holding the successor lists then the topological order,
/// and one row per node for its successor offset, predecessor count and
/// height.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagJobSpec {
    node_work: Vec<Work>,
    /// `[successors | topological order]`. The first `num_edges` entries are
    /// the successor adjacency in compressed-sparse-row form, sorted per
    /// node; the last `n` are Kahn's FIFO order, whose first `num_sources`
    /// entries are the sources in id order (Kahn's queue starts with them).
    order: Vec<NodeId>,
    /// `n + 1` rows: node `v`'s row is `rows[v + 1]`, and `rows[0]` is a
    /// sentinel whose `succ_end` is 0, so `v`'s successors are
    /// `order[rows[v].succ_end .. rows[v + 1].succ_end]`.
    rows: Vec<NodeRow>,
    /// Number of nodes with no predecessors.
    num_sources: u32,
    /// Total work `W` = Σ node works.
    total_work: Work,
    /// Critical-path length `L` (work-weighted longest path).
    span: Work,
}

/// One node's derived fields (see `DagJobSpec::rows`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct NodeRow {
    /// End of this node's successor list in `order`.
    succ_end: u32,
    /// Number of predecessors.
    preds: u32,
    /// Work-weighted longest path starting at the node (inclusive). A node
    /// is on a critical path iff its *depth + height* equals `L`; the
    /// adversarial node-pick policy prefers low heights. During
    /// `DagBuilder::build` it first holds the fill cursor of the node's
    /// successor list, then its remaining in-degree for Kahn's algorithm.
    height: u64,
}

impl DagJobSpec {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_work.len()
    }

    /// Processing time of one node.
    #[inline]
    pub fn node_work(&self, node: NodeId) -> Work {
        self.node_work[node.index()]
    }

    /// All node processing times, indexed by [`NodeId`].
    #[inline]
    pub fn node_works(&self) -> &[Work] {
        &self.node_work
    }

    /// Total work `W`.
    #[inline]
    pub fn total_work(&self) -> Work {
        self.total_work
    }

    /// Critical-path length (span) `L`.
    #[inline]
    pub fn span(&self) -> Work {
        self.span
    }

    /// Average parallelism `W / L` (≥ 1 for any non-empty DAG).
    pub fn parallelism(&self) -> f64 {
        self.total_work.as_f64() / self.span.as_f64()
    }

    /// Successors of a node (sorted).
    #[inline]
    pub fn successors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.order[self.rows[i].succ_end as usize..self.rows[i + 1].succ_end as usize]
    }

    /// Number of predecessors of a node.
    #[inline]
    pub fn pred_count(&self, node: NodeId) -> u32 {
        self.rows[node.index() + 1].preds
    }

    /// A topological order over all nodes: Kahn's FIFO order, starting
    /// from the sources in id order.
    #[inline]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.order[self.num_edges()..]
    }

    /// Longest work-weighted path starting at `node` (inclusive of its work).
    #[inline]
    pub fn height(&self, node: NodeId) -> Work {
        Work(self.rows[node.index() + 1].height)
    }

    /// Nodes with no predecessors, in id order (the initial ready set).
    /// Precomputed at [`build`](DagBuilder::build) time — callers on the
    /// arrival hot path (e.g. `UnfoldState::reset_from`) get a slice, not a
    /// fresh allocation.
    #[inline]
    pub fn sources(&self) -> &[NodeId] {
        let start = self.num_edges();
        &self.order[start..start + self.num_sources as usize]
    }

    /// Number of edges (the CSR flat length; no rescan).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.order.len() - self.node_work.len()
    }

    /// Wrap in an [`Arc`] for sharing with the engine.
    pub fn into_shared(self) -> Arc<DagJobSpec> {
        Arc::new(self)
    }
}

/// Incremental construction of a [`DagJobSpec`].
///
/// ```
/// use dagsched_dag::DagBuilder;
/// use dagsched_core::Work;
///
/// let mut b = DagBuilder::new();
/// let src = b.add_node(Work(2));
/// let mid = b.add_node(Work(3));
/// let snk = b.add_node(Work(1));
/// b.add_edge(src, mid).unwrap();
/// b.add_edge(mid, snk).unwrap();
/// let dag = b.build().unwrap();
/// assert_eq!(dag.total_work(), Work(6));
/// assert_eq!(dag.span(), Work(6)); // a pure chain: span == work
/// ```
#[derive(Debug, Default, Clone)]
pub struct DagBuilder {
    node_work: Vec<Work>,
    edges: Vec<(NodeId, NodeId)>,
}

impl DagBuilder {
    /// An empty builder.
    pub fn new() -> DagBuilder {
        DagBuilder::default()
    }

    /// A builder with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> DagBuilder {
        DagBuilder {
            node_work: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add a node with the given processing time and return its id.
    pub fn add_node(&mut self, work: Work) -> NodeId {
        let id = NodeId(self.node_work.len() as u32);
        self.node_work.push(work);
        id
    }

    /// Add a precedence edge `from → to` (`to` cannot start before `from`
    /// completes).
    ///
    /// # Errors
    /// Rejects self-loops and ids that have not been created yet. Duplicate
    /// edges and cycles are detected at [`build`](Self::build) time.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<()> {
        let n = self.node_work.len() as u32;
        if from.0 >= n || to.0 >= n {
            return Err(SchedError::InvalidDag(format!(
                "edge {from}->{to} references a node >= {n}"
            )));
        }
        if from == to {
            return Err(SchedError::InvalidDag(format!("self-loop on {from}")));
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Current number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_work.len()
    }

    /// Validate and finalize.
    ///
    /// # Errors
    /// * empty DAG,
    /// * a node with zero work (the model's nodes are non-empty instruction
    ///   sequences; zero-work nodes would make "processor steps" ill-defined),
    /// * duplicate edges,
    /// * cycles (reported with a witness node).
    pub fn build(self) -> Result<DagJobSpec> {
        let n = self.node_work.len();
        if n == 0 {
            return Err(SchedError::InvalidDag(
                "a job needs at least one node".into(),
            ));
        }
        if let Some(i) = self.node_work.iter().position(|w| w.is_zero()) {
            return Err(SchedError::InvalidDag(format!("node n{i} has zero work")));
        }
        let m = self.edges.len();
        if u32::try_from(m).is_err() {
            return Err(SchedError::InvalidDag(format!(
                "too many edges for CSR offsets: {m}"
            )));
        }
        // CSR adjacency by counting sort: out-degrees, then prefix sums
        // give each node's row end, then every edge lands at its source's
        // fill cursor, and each row is sorted in place.
        let mut rows = vec![NodeRow::default(); n + 1];
        for &(from, to) in &self.edges {
            rows[from.index() + 1].succ_end += 1;
            rows[to.index() + 1].preds += 1;
        }
        for i in 1..=n {
            rows[i].succ_end += rows[i - 1].succ_end;
            rows[i].height = u64::from(rows[i - 1].succ_end);
        }
        let mut order = vec![NodeId(0); m + n];
        let (succ, topo) = order.split_at_mut(m);
        for &(from, to) in &self.edges {
            let cursor = &mut rows[from.index() + 1].height;
            succ[*cursor as usize] = to;
            *cursor += 1;
        }
        let row =
            |rows: &[NodeRow], v: usize| rows[v].succ_end as usize..rows[v + 1].succ_end as usize;
        for v in 0..n {
            let list = &mut succ[row(&rows, v)];
            list.sort_unstable();
            if list.windows(2).any(|w| w[0] == w[1]) {
                return Err(SchedError::InvalidDag("duplicate edge".into()));
            }
        }

        // Kahn's algorithm: the queue is the topological order. Sources
        // enter in id order; `height` holds each node's remaining in-degree.
        let mut tail = 0;
        for v in 0..n {
            let r = &mut rows[v + 1];
            r.height = u64::from(r.preds);
            if r.preds == 0 {
                topo[tail] = NodeId(v as u32);
                tail += 1;
            }
        }
        let num_sources = tail as u32;
        let mut head = 0;
        while head < tail {
            let v = topo[head].index();
            head += 1;
            for &s in &succ[row(&rows, v)] {
                let indeg = &mut rows[s.index() + 1].height;
                *indeg -= 1;
                if *indeg == 0 {
                    topo[tail] = s;
                    tail += 1;
                }
            }
        }
        if tail != n {
            let witness = (0..n).find(|&i| rows[i + 1].height > 0).unwrap();
            return Err(SchedError::InvalidDag(format!(
                "cycle detected (through n{witness})"
            )));
        }

        // Heights (longest path from node, inclusive) in reverse topo order;
        // every in-degree is 0 by now, and a node's successors come after
        // it, so each height is written before it is read. span = max
        // height. u64 work sums cannot overflow for realistic instances but
        // we use checked adds to fail loudly.
        let mut span = 0;
        for &v in topo.iter().rev() {
            let best_succ = succ[row(&rows, v.index())]
                .iter()
                .map(|s| rows[s.index() + 1].height)
                .max()
                .unwrap_or(0);
            let h = self.node_work[v.index()]
                .units()
                .checked_add(best_succ)
                .ok_or_else(|| SchedError::InvalidDag("work overflow on path".into()))?;
            rows[v.index() + 1].height = h;
            span = span.max(h);
        }
        let total = self
            .node_work
            .iter()
            .try_fold(0u64, |acc, w| acc.checked_add(w.units()))
            .ok_or_else(|| SchedError::InvalidDag("total work overflow".into()))?;

        Ok(DagJobSpec {
            node_work: self.node_work,
            order,
            rows,
            num_sources,
            total_work: Work(total),
            span: Work(span),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(b: &mut DagBuilder, w: u64) -> NodeId {
        b.add_node(Work(w))
    }

    #[test]
    fn single_node() {
        let mut b = DagBuilder::new();
        node(&mut b, 5);
        let d = b.build().unwrap();
        assert_eq!(d.num_nodes(), 1);
        assert_eq!(d.total_work(), Work(5));
        assert_eq!(d.span(), Work(5));
        assert_eq!(d.parallelism(), 1.0);
        assert_eq!(d.sources(), vec![NodeId(0)]);
        assert_eq!(d.num_edges(), 0);
    }

    #[test]
    fn chain_span_equals_work() {
        let mut b = DagBuilder::new();
        let ids: Vec<_> = (0..4).map(|_| node(&mut b, 3)).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        let d = b.build().unwrap();
        assert_eq!(d.total_work(), Work(12));
        assert_eq!(d.span(), Work(12));
        assert_eq!(d.height(ids[0]), Work(12));
        assert_eq!(d.height(ids[3]), Work(3));
        assert_eq!(d.topo_order(), &ids[..]);
    }

    #[test]
    fn independent_block_span_is_max_node() {
        let mut b = DagBuilder::new();
        node(&mut b, 2);
        node(&mut b, 7);
        node(&mut b, 3);
        let d = b.build().unwrap();
        assert_eq!(d.total_work(), Work(12));
        assert_eq!(d.span(), Work(7));
        assert!((d.parallelism() - 12.0 / 7.0).abs() < 1e-12);
        assert_eq!(d.sources().len(), 3);
    }

    #[test]
    fn diamond_heights_and_span() {
        // s(1) -> a(4), b(2) -> t(1): span = 1+4+1 = 6.
        let mut b = DagBuilder::new();
        let s = node(&mut b, 1);
        let a = node(&mut b, 4);
        let bb = node(&mut b, 2);
        let t = node(&mut b, 1);
        for (f, g) in [(s, a), (s, bb), (a, t), (bb, t)] {
            b.add_edge(f, g).unwrap();
        }
        let d = b.build().unwrap();
        assert_eq!(d.span(), Work(6));
        assert_eq!(d.height(s), Work(6));
        assert_eq!(d.height(a), Work(5));
        assert_eq!(d.height(bb), Work(3));
        assert_eq!(d.height(t), Work(1));
        assert_eq!(d.pred_count(t), 2);
        assert_eq!(d.successors(s), &[a, bb]);
    }

    #[test]
    fn rejects_empty_zero_work_self_loop_dup_and_oob() {
        assert!(DagBuilder::new().build().is_err());

        let mut b = DagBuilder::new();
        b.add_node(Work(0));
        assert!(b.build().is_err());

        let mut b = DagBuilder::new();
        let a = node(&mut b, 1);
        assert!(b.add_edge(a, a).is_err());
        assert!(b.add_edge(a, NodeId(5)).is_err());

        let mut b = DagBuilder::new();
        let a = node(&mut b, 1);
        let c = node(&mut b, 1);
        b.add_edge(a, c).unwrap();
        b.add_edge(a, c).unwrap();
        assert!(matches!(b.build(), Err(SchedError::InvalidDag(m)) if m.contains("duplicate")));
    }

    #[test]
    fn rejects_cycles() {
        let mut b = DagBuilder::new();
        let x = node(&mut b, 1);
        let y = node(&mut b, 1);
        let z = node(&mut b, 1);
        b.add_edge(x, y).unwrap();
        b.add_edge(y, z).unwrap();
        b.add_edge(z, x).unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, SchedError::InvalidDag(m) if m.contains("cycle")));
    }

    #[test]
    fn topo_order_respects_edges() {
        let mut b = DagBuilder::new();
        let ids: Vec<_> = (0..6).map(|_| node(&mut b, 1)).collect();
        // Edges chosen so id order != topo necessity: 5 -> 0, 3 -> 1.
        b.add_edge(ids[5], ids[0]).unwrap();
        b.add_edge(ids[3], ids[1]).unwrap();
        let d = b.build().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 6];
            for (i, v) in d.topo_order().iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        assert!(pos[5] < pos[0]);
        assert!(pos[3] < pos[1]);
    }

    #[test]
    fn precomputed_sources_and_edges_match_brute_force() {
        use dagsched_core::Rng64;
        // The build()-time fields must agree with a from-scratch recount on
        // random DAGs: sources = nodes with pred_count 0 in id order,
        // num_edges = Σ successors(v).len() = edges added to the builder.
        let mut rng = Rng64::seed_from(0xC5A0);
        for _ in 0..50 {
            let n = 1 + rng.gen_range(40) as u32;
            let mut b = DagBuilder::new();
            let ids: Vec<NodeId> = (0..n)
                .map(|_| b.add_node(Work(1 + rng.gen_range(9))))
                .collect();
            let mut added = 0usize;
            for i in 0..n as usize {
                for j in (i + 1)..n as usize {
                    if rng.gen_bool(0.15) {
                        b.add_edge(ids[i], ids[j]).unwrap();
                        added += 1;
                    }
                }
            }
            let d = b.build().unwrap();
            let brute_sources: Vec<NodeId> = (0..n)
                .map(NodeId)
                .filter(|v| d.pred_count(*v) == 0)
                .collect();
            assert_eq!(d.sources(), brute_sources);
            let brute_edges: usize = (0..n).map(|v| d.successors(NodeId(v)).len()).sum();
            assert_eq!(d.num_edges(), brute_edges);
            assert_eq!(d.num_edges(), added);
            // CSR successor slices are sorted per node and consistent with
            // pred counts.
            let mut pred_recount = vec![0u32; n as usize];
            for v in 0..n {
                let succ = d.successors(NodeId(v));
                assert!(succ.windows(2).all(|w| w[0] < w[1]), "unsorted row {v}");
                for s in succ {
                    pred_recount[s.index()] += 1;
                }
            }
            for v in 0..n {
                assert_eq!(pred_recount[v as usize], d.pred_count(NodeId(v)));
            }
        }
    }

    /// What [`DagBuilder::build`] must return for `works` and `edges`,
    /// derived the slow way: the same errors in the same order, else every
    /// accessor's answer (`topo` is Kahn's FIFO order from the sources in
    /// id order, following each node's sorted successors).
    struct Model {
        succ: Vec<Vec<NodeId>>,
        preds: Vec<u32>,
        sources: Vec<NodeId>,
        topo: Vec<NodeId>,
        heights: Vec<Work>,
        span: Work,
        total: Work,
    }

    fn model(works: &[u64], edges: &[(u32, u32)]) -> std::result::Result<Model, SchedError> {
        let invalid = |m: String| Err(SchedError::InvalidDag(m));
        let n = works.len();
        if n == 0 {
            return invalid("a job needs at least one node".into());
        }
        if let Some(i) = works.iter().position(|&w| w == 0) {
            return invalid(format!("node n{i} has zero work"));
        }
        let mut succ = vec![Vec::new(); n];
        let mut preds = vec![0u32; n];
        for &(a, b) in edges {
            if succ[a as usize].contains(&NodeId(b)) {
                return invalid("duplicate edge".into());
            }
            succ[a as usize].push(NodeId(b));
            preds[b as usize] += 1;
        }
        for list in &mut succ {
            list.sort();
        }
        let sources: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|v| preds[v.index()] == 0)
            .collect();
        let mut indeg = preds.clone();
        let mut queue: std::collections::VecDeque<NodeId> = sources.iter().copied().collect();
        let mut topo = Vec::new();
        while let Some(v) = queue.pop_front() {
            topo.push(v);
            for &s in &succ[v.index()] {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push_back(s);
                }
            }
        }
        if let Some(w) = indeg.iter().position(|&d| d > 0) {
            return invalid(format!("cycle detected (through n{w})"));
        }
        // Longest path from each node by exhaustive recursion (the graph is
        // acyclic here).
        fn longest(v: usize, works: &[u64], succ: &[Vec<NodeId>]) -> u64 {
            let tail = succ[v].iter().map(|s| longest(s.index(), works, succ));
            works[v] + tail.max().unwrap_or(0)
        }
        let heights: Vec<Work> = (0..n).map(|v| Work(longest(v, works, &succ))).collect();
        Ok(Model {
            span: *heights.iter().max().unwrap(),
            total: Work(works.iter().sum()),
            succ,
            preds,
            sources,
            topo,
            heights,
        })
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            /// `build` agrees with the model on random edge lists: forward
            /// edges only (always acyclic) half the time, any direction
            /// otherwise (cycles), with duplicate edges and zero-work nodes
            /// drawn now and then.
            #[test]
            fn build_matches_the_model(
                raw_works in collection::vec(0u64..48, 0..13),
                raw_edges in collection::vec((0u32..64, 0u32..64), 0..16),
                mode in 0u8..4,
            ) {
                let works: Vec<u64> = raw_works.iter().map(|&w| w / 2).collect();
                let n = works.len() as u32;
                let edges: Vec<(u32, u32)> = if n == 0 {
                    Vec::new()
                } else {
                    raw_edges
                        .iter()
                        .map(|&(a, b)| (a % n, b % n))
                        .filter(|(a, b)| a != b)
                        .map(|(a, b)| if mode < 2 { (a.min(b), a.max(b)) } else { (a, b) })
                        .collect()
                };
                let mut b = DagBuilder::new();
                for &w in &works {
                    b.add_node(Work(w));
                }
                for &(from, to) in &edges {
                    b.add_edge(NodeId(from), NodeId(to)).unwrap();
                }
                match (b.build(), model(&works, &edges)) {
                    (Err(got), Err(want)) => prop_assert_eq!(got, want),
                    (Ok(d), Ok(want)) => {
                        for v in 0..n {
                            let v = NodeId(v);
                            prop_assert_eq!(d.successors(v), &want.succ[v.index()][..]);
                            prop_assert_eq!(d.pred_count(v), want.preds[v.index()]);
                            prop_assert_eq!(d.height(v), want.heights[v.index()]);
                            prop_assert_eq!(d.node_work(v), Work(works[v.index()]));
                        }
                        prop_assert_eq!(d.sources(), &want.sources[..]);
                        prop_assert_eq!(d.topo_order(), &want.topo[..]);
                        prop_assert_eq!(d.span(), want.span);
                        prop_assert_eq!(d.total_work(), want.total);
                        prop_assert_eq!(d.num_edges(), edges.len());
                    }
                    (got, want) => panic!(
                        "build gave {:?}, the model {:?}",
                        got.map(|_| ()),
                        want.map(|_| ())
                    ),
                }
            }
        }
    }

    #[test]
    fn with_capacity_builds_same_result() {
        let mut b = DagBuilder::with_capacity(2, 1);
        let x = node(&mut b, 1);
        let y = node(&mut b, 2);
        b.add_edge(x, y).unwrap();
        let d = b.build().unwrap();
        assert_eq!(d.span(), Work(3));
    }
}
