//! DAG generators: the paper's adversarial constructions plus the synthetic
//! families the experiments mix.
//!
//! All generators produce validated [`DagJobSpec`]s. Shapes:
//!
//! * [`single`], [`chain`], [`block`], [`diamond`] — degenerate building
//!   blocks covering the parallelism extremes (`W/L = 1` … `W/L = W`);
//! * [`fig1`] — Figure 1: a chain of length `L = W/m` **in parallel with** an
//!   independent block of `W − L` work. A clairvoyant scheduler finishes in
//!   `W/m`; an unlucky semi-non-clairvoyant one needs `(W−L)/m + L`, which
//!   forces speed augmentation `2 − 1/m` (Theorem 1);
//! * [`fig2`] — Figure 2: a chain **followed by** a block, showing even
//!   clairvoyant schedulers need `≈ (W−L)/m + L`, so demanding deadlines
//!   `D ≥ (W−L)/m + L` is reasonable;
//! * [`fork_join`] — Cilk-style repeated parallel segments;
//! * [`layered_random`] — random level graphs (edges between adjacent
//!   layers);
//! * [`series_parallel`] — recursive series/parallel compositions;
//! * [`random_dag`] — Erdős–Rényi over a topological order.

use crate::spec::{DagBuilder, DagJobSpec};
use dagsched_core::{NodeId, Rng64, Work};

/// One node of the given work (a purely sequential, minimal job).
pub fn single(work: u64) -> DagJobSpec {
    let mut b = DagBuilder::with_capacity(1, 0);
    b.add_node(Work(work));
    b.build().expect("single node is always valid")
}

/// A chain of `len ≥ 1` nodes, each with `node_work` units: `W = L`.
pub fn chain(len: u32, node_work: u64) -> DagJobSpec {
    assert!(len >= 1 && node_work >= 1);
    let mut b = DagBuilder::with_capacity(len as usize, len.saturating_sub(1) as usize);
    let mut prev: Option<NodeId> = None;
    for _ in 0..len {
        let v = b.add_node(Work(node_work));
        if let Some(p) = prev {
            b.add_edge(p, v).expect("chain edges are valid");
        }
        prev = Some(v);
    }
    b.build().expect("chain is always valid")
}

/// `width ≥ 1` independent nodes of `node_work` units each: `L = node_work`.
pub fn block(width: u32, node_work: u64) -> DagJobSpec {
    assert!(width >= 1 && node_work >= 1);
    let mut b = DagBuilder::with_capacity(width as usize, 0);
    for _ in 0..width {
        b.add_node(Work(node_work));
    }
    b.build().expect("block is always valid")
}

/// Source → `width` parallel nodes → sink, with unit-work source/sink.
pub fn diamond(width: u32, node_work: u64) -> DagJobSpec {
    assert!(width >= 1 && node_work >= 1);
    let mut b = DagBuilder::with_capacity(width as usize + 2, 2 * width as usize);
    let s = b.add_node(Work(1));
    for _ in 0..width {
        b.add_node(Work(node_work));
    }
    let t = b.add_node(Work(1));
    for m in 1..=width {
        b.add_edge(s, NodeId(m)).unwrap();
        b.add_edge(NodeId(m), t).unwrap();
    }
    b.build().expect("diamond is always valid")
}

/// **Figure 1** of the paper, parameterized by the machine size `m ≥ 2` and a
/// chain length in nodes (`grain` work units per node).
///
/// The job is a chain of `chain_len` nodes *alongside* an independent block
/// of `(m−1)·chain_len` nodes, so that
/// `L = chain_len·grain = W/m` and `W = m·chain_len·grain`.
///
/// * Clairvoyant optimal: run the chain on one processor and spread the block
///   over the remaining `m−1` → makespan `W/m`.
/// * Adversarial semi-non-clairvoyant: execute the whole block first
///   (`(W−L)/m` time) and then the chain (`L` time) → `(W−L)/m + L`
///   `= (2 − 1/m)·W/m`.
pub fn fig1(m: u32, chain_len: u32, grain: u64) -> DagJobSpec {
    assert!(m >= 2 && chain_len >= 1 && grain >= 1);
    let block_nodes = (m - 1) as usize * chain_len as usize;
    let mut b = DagBuilder::with_capacity(chain_len as usize + block_nodes, chain_len as usize);
    // The chain first (ids 0..chain_len) ...
    let mut prev: Option<NodeId> = None;
    for _ in 0..chain_len {
        let v = b.add_node(Work(grain));
        if let Some(p) = prev {
            b.add_edge(p, v).unwrap();
        }
        prev = Some(v);
    }
    // ... then the independent block.
    for _ in 0..block_nodes {
        b.add_node(Work(grain));
    }
    b.build().expect("fig1 is always valid")
}

/// **Figure 2** of the paper: a chain of `chain_len` nodes followed by a
/// block of `block_width` nodes that all depend on the chain's last node.
/// Every node has `grain` work (the paper's `ε`).
///
/// Even a clairvoyant scheduler on `m` processors needs
/// `chain_len·grain + ceil(block_width/m)·grain` — which approaches
/// `(W−L)/m + L` as `grain → 0` relative to `W`.
pub fn fig2(chain_len: u32, block_width: u32, grain: u64) -> DagJobSpec {
    assert!(chain_len >= 1 && block_width >= 1 && grain >= 1);
    let mut b = DagBuilder::with_capacity(
        chain_len as usize + block_width as usize,
        chain_len as usize - 1 + block_width as usize,
    );
    let mut prev: Option<NodeId> = None;
    for _ in 0..chain_len {
        let v = b.add_node(Work(grain));
        if let Some(p) = prev {
            b.add_edge(p, v).unwrap();
        }
        prev = Some(v);
    }
    let last = prev.expect("chain_len >= 1");
    for _ in 0..block_width {
        let v = b.add_node(Work(grain));
        b.add_edge(last, v).unwrap();
    }
    b.build().expect("fig2 is always valid")
}

/// `segments` sequential fork-join segments: each is one fork node, `width`
/// parallel child nodes, then a join node feeding the next segment.
///
/// `segments·(width + 2)` nodes and `2·segments·width + segments − 1` edges.
pub fn fork_join(segments: u32, width: u32, node_work: u64) -> DagJobSpec {
    assert!(segments >= 1 && width >= 1 && node_work >= 1);
    let (s, w) = (segments as usize, width as usize);
    let mut b = DagBuilder::with_capacity(s * (w + 2), 2 * s * w + s - 1);
    let mut join: Option<NodeId> = None;
    for _ in 0..segments {
        let fork = b.add_node(Work(node_work));
        if let Some(j) = join {
            b.add_edge(j, fork).unwrap();
        }
        for _ in 0..width {
            b.add_node(Work(node_work));
        }
        let j = b.add_node(Work(node_work));
        // The children are the ids between the fork and the join.
        for k in fork.0 + 1..j.0 {
            b.add_edge(fork, NodeId(k)).unwrap();
            b.add_edge(NodeId(k), j).unwrap();
        }
        join = Some(j);
    }
    b.build().expect("fork_join is always valid")
}

/// A random layered DAG: `layers` levels with `width_lo..=width_hi` nodes
/// each, node work uniform in `work_lo..=work_hi`, and each non-first-layer
/// node gets ≥ 1 predecessor in the previous layer plus extras with
/// probability `p_edge`.
pub fn layered_random(
    rng: &mut Rng64,
    layers: u32,
    (width_lo, width_hi): (u32, u32),
    (work_lo, work_hi): (u64, u64),
    p_edge: f64,
) -> DagJobSpec {
    assert!(layers >= 1 && width_lo >= 1 && width_lo <= width_hi);
    assert!(work_lo >= 1 && work_lo <= work_hi);
    // Room for every layer at its widest; edges sized for the mean width,
    // one anchor plus `p_edge` of the rest of the previous layer per node.
    let (layers_n, hi) = (layers as usize, width_hi as usize);
    let mean_width = f64::from(width_lo + width_hi) / 2.0;
    let per_node = 1.0 + p_edge.clamp(0.0, 1.0) * (mean_width - 1.0);
    let edges = (layers_n - 1) as f64 * mean_width * per_node;
    let mut b = DagBuilder::with_capacity(layers_n * hi, edges.ceil() as usize);
    // Each layer is a contiguous id range; the previous one is `prev`.
    let mut prev = 0..0;
    for _ in 0..layers {
        let width = rng.gen_range_inclusive(width_lo as u64, width_hi as u64) as u32;
        let first = b.num_nodes() as u32;
        for _ in 0..width {
            b.add_node(Work(rng.gen_range_inclusive(work_lo, work_hi)));
        }
        let layer = first..first + width;
        if !prev.is_empty() {
            for v in layer.clone() {
                // A guaranteed predecessor keeps layers genuinely dependent.
                let anchor = prev.start + rng.gen_range(u64::from(prev.end - prev.start)) as u32;
                b.add_edge(NodeId(anchor), NodeId(v)).unwrap();
                for p in prev.clone() {
                    if p != anchor && rng.gen_bool(p_edge) {
                        b.add_edge(NodeId(p), NodeId(v)).unwrap();
                    }
                }
            }
        }
        prev = layer;
    }
    b.build().expect("layered DAG is acyclic by construction")
}

/// A random series-parallel DAG with roughly `target_nodes` nodes: recursive
/// series/parallel composition bottoming out at single nodes with work
/// uniform in `work_lo..=work_hi`. Models Cilk-style structured parallelism.
pub fn series_parallel(
    rng: &mut Rng64,
    target_nodes: u32,
    (work_lo, work_hi): (u64, u64),
) -> DagJobSpec {
    assert!(target_nodes >= 1 && work_lo >= 1 && work_lo <= work_hi);
    // `target_nodes` leaves and at most `target_nodes − 1` compositions,
    // each adding at most two nodes and four edges.
    let t = target_nodes as usize;
    let mut b = DagBuilder::with_capacity(3 * t - 2, 4 * (t - 1));
    // Returns (source, sink) terminals of the generated component.
    fn go(b: &mut DagBuilder, rng: &mut Rng64, budget: u32, works: (u64, u64)) -> (NodeId, NodeId) {
        if budget <= 1 {
            let v = b.add_node(Work(rng.gen_range_inclusive(works.0, works.1)));
            return (v, v);
        }
        let left = 1 + rng.gen_range(budget as u64 - 1) as u32;
        let right = budget - left;
        let (s1, t1) = go(b, rng, left, works);
        let (s2, t2) = go(b, rng, right, works);
        if rng.gen_bool(0.5) {
            // Series composition.
            b.add_edge(t1, s2).expect("series edge");
            (s1, t2)
        } else {
            // Parallel composition between fresh terminals.
            let s = b.add_node(Work(rng.gen_range_inclusive(works.0, works.1)));
            let t = b.add_node(Work(rng.gen_range_inclusive(works.0, works.1)));
            b.add_edge(s, s1).unwrap();
            b.add_edge(s, s2).unwrap();
            b.add_edge(t1, t).unwrap();
            b.add_edge(t2, t).unwrap();
            (s, t)
        }
    }
    go(&mut b, rng, target_nodes, (work_lo, work_hi));
    b.build()
        .expect("series-parallel DAG is acyclic by construction")
}

/// Erdős–Rényi DAG: `n` nodes in a fixed topological order, each forward pair
/// `(i, j)` with `i < j` becoming an edge with probability `p`.
pub fn random_dag(rng: &mut Rng64, n: u32, p: f64, (work_lo, work_hi): (u64, u64)) -> DagJobSpec {
    assert!(n >= 1 && work_lo >= 1 && work_lo <= work_hi);
    // Edges sized for the expected count `p·n(n−1)/2`.
    let pairs = n as f64 * (n as f64 - 1.0) / 2.0;
    let mut b = DagBuilder::with_capacity(n as usize, (p.clamp(0.0, 1.0) * pairs).ceil() as usize);
    for _ in 0..n {
        b.add_node(Work(rng.gen_range_inclusive(work_lo, work_hi)));
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(NodeId(i), NodeId(j)).unwrap();
            }
        }
    }
    b.build().expect("forward edges cannot create a cycle")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_have_expected_w_and_l() {
        let d = single(7);
        assert_eq!((d.total_work(), d.span()), (Work(7), Work(7)));

        let d = chain(5, 3);
        assert_eq!((d.total_work(), d.span()), (Work(15), Work(15)));

        let d = block(6, 4);
        assert_eq!((d.total_work(), d.span()), (Work(24), Work(4)));
        assert_eq!(d.sources().len(), 6);

        let d = diamond(8, 10);
        assert_eq!(d.total_work(), Work(82));
        assert_eq!(d.span(), Work(12));
    }

    #[test]
    fn fig1_matches_paper_parameters() {
        // m = 4, chain_len = 10, unit grain: L = 10, W = 40, W/m = 10 = L.
        let m = 4;
        let d = fig1(m, 10, 1);
        let w = d.total_work().units();
        let l = d.span().units();
        assert_eq!(w, 40);
        assert_eq!(l, 10);
        assert_eq!(l, w / m as u64, "the construction forces L = W/m");
        // Only the chain head is a source together with all 30 block nodes.
        assert_eq!(d.sources().len(), 1 + 30);
        // Semi-non-clairvoyant worst case (W-L)/m + L vs clairvoyant W/m:
        let worst = (w - l) / m as u64 + l;
        assert_eq!(worst, 17); // (30/4 = 7.5 -> fractional; integral check below)
                               // ratio -> 2 - 1/m as chain_len grows.
        let d = fig1(8, 1000, 1);
        let (w, l) = (d.total_work().as_f64(), d.span().as_f64());
        let ratio = ((w - l) / 8.0 + l) / (w / 8.0);
        assert!((ratio - (2.0 - 1.0 / 8.0)).abs() < 1e-9);
    }

    #[test]
    fn fig2_is_chain_then_block() {
        let d = fig2(5, 12, 2);
        assert_eq!(d.total_work(), Work(34));
        assert_eq!(d.span(), Work(12)); // 5 chain nodes + one block node
        assert_eq!(d.sources().len(), 1, "only the chain head starts ready");
        // The block nodes all depend on the last chain node.
        assert_eq!(d.successors(dagsched_core::NodeId(4)).len(), 12);
    }

    #[test]
    fn fork_join_structure() {
        let d = fork_join(3, 4, 2);
        // Each segment: 1 fork + 4 kids + 1 join = 6 nodes.
        assert_eq!(d.num_nodes(), 18);
        assert_eq!(d.total_work(), Work(36));
        // Span: per segment fork + one kid + join = 3 nodes of work 2.
        assert_eq!(d.span(), Work(18));
        assert_eq!(d.sources().len(), 1);
    }

    #[test]
    fn layered_random_is_connected_and_deterministic() {
        let mut rng = Rng64::seed_from(11);
        let d1 = layered_random(&mut rng, 6, (2, 5), (1, 9), 0.3);
        let mut rng = Rng64::seed_from(11);
        let d2 = layered_random(&mut rng, 6, (2, 5), (1, 9), 0.3);
        assert_eq!(d1, d2, "same seed, same DAG");
        // Non-source nodes all have at least one predecessor by construction;
        // sources are exactly layer 0.
        assert!(d1.span() <= d1.total_work());
        assert!(d1.span().units() >= 6, "span crosses all 6 layers");
    }

    #[test]
    fn series_parallel_is_valid_and_single_terminal() {
        let mut rng = Rng64::seed_from(12);
        for n in [1u32, 2, 7, 40] {
            let d = series_parallel(&mut rng, n, (1, 5));
            assert!(d.num_nodes() >= n as usize);
            assert!(d.span() <= d.total_work());
        }
    }

    #[test]
    fn random_dag_density_extremes() {
        let mut rng = Rng64::seed_from(13);
        let sparse = random_dag(&mut rng, 30, 0.0, (2, 2));
        assert_eq!(sparse.num_edges(), 0);
        assert_eq!(sparse.span(), Work(2), "independent nodes");
        let dense = random_dag(&mut rng, 30, 1.0, (2, 2));
        assert_eq!(dense.num_edges(), 30 * 29 / 2);
        assert_eq!(dense.span(), Work(60), "a tournament DAG is a chain");
    }

    #[test]
    #[should_panic]
    fn fig1_requires_m_at_least_two() {
        let _ = fig1(1, 10, 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// For every generated family: span ≤ work, and span ≥ max node
            /// work; parallelism ≥ 1.
            #[test]
            fn span_bounds(seed in 0u64..500, n in 1u32..40, p in 0.0f64..1.0) {
                let mut rng = Rng64::seed_from(seed);
                let d = random_dag(&mut rng, n, p, (1, 20));
                prop_assert!(d.span() <= d.total_work());
                let max_node = d.node_works().iter().map(|w| w.units()).max().unwrap();
                prop_assert!(d.span().units() >= max_node);
                prop_assert!(d.parallelism() >= 1.0 - 1e-12);
            }

            /// Unfolding any random DAG to completion touches every node
            /// exactly once and conserves work.
            #[test]
            fn unfold_executes_every_node(seed in 0u64..200, n in 1u32..30, p in 0.0f64..0.5) {
                let mut rng = Rng64::seed_from(seed);
                let d = random_dag(&mut rng, n, p, (1, 10)).into_shared();
                let total = d.total_work().units();
                let mut st = crate::unfold::UnfoldState::new(d.clone(), 1);
                let mut consumed = 0u64;
                let mut completions = 0usize;
                let mut guard = 0;
                while !st.is_complete() {
                    guard += 1;
                    prop_assert!(guard < 100_000, "unfolding must terminate");
                    let v = st.ready_prefix(1)[0];
                    let (c, done) = st.advance(v, 3);
                    consumed += c;
                    if done { completions += 1; }
                }
                prop_assert_eq!(consumed, total);
                prop_assert_eq!(completions, d.num_nodes());
            }

            /// The ready set never contains a node with unfinished
            /// predecessors (checked against the spec directly).
            #[test]
            fn ready_respects_precedence(seed in 0u64..200) {
                let mut rng = Rng64::seed_from(seed);
                let d = layered_random(&mut rng, 4, (1, 4), (1, 5), 0.4).into_shared();
                let mut st = crate::unfold::UnfoldState::new(d.clone(), 1);
                let mut done = vec![false; d.num_nodes()];
                while !st.is_complete() {
                    for v in st.ready_iter() {
                        // every predecessor of v must be done
                        for u in 0..d.num_nodes() as u32 {
                            let u = dagsched_core::NodeId(u);
                            if d.successors(u).contains(&v) {
                                prop_assert!(done[u.index()],
                                    "{v} ready but pred {u} unfinished");
                            }
                        }
                    }
                    let v = st.ready_prefix(1)[0];
                    let (_, fin) = st.advance(v, u64::MAX);
                    prop_assert!(fin);
                    done[v.index()] = true;
                }
            }
        }
    }
}
