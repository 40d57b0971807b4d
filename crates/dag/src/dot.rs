//! Graphviz DOT export for DAG jobs.
//!
//! `dot -Tsvg job.dot > job.svg` renders the structure, with the critical
//! path drawn double-bordered.

use crate::spec::DagJobSpec;
use dagsched_core::NodeId;
use std::fmt::Write as _;

/// Render a spec to DOT. Node labels show `id (work)`; critical-path nodes
/// (those whose depth + height equals the span) are drawn with a double
/// border so the span is visible at a glance.
pub fn to_dot(spec: &DagJobSpec, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {} {{", sanitize(name));
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=ellipse, fontsize=10];");
    // depth[v]: longest path ending at v (inclusive); on a critical path iff
    // depth + height − work == span.
    let mut depth = vec![0u64; spec.num_nodes()];
    for &v in spec.topo_order() {
        let w = spec.node_work(v).units();
        let base = depth[v.index()].max(w);
        depth[v.index()] = base;
        for &s in spec.successors(v) {
            let cand = base + spec.node_work(s).units();
            if cand > depth[s.index()] {
                depth[s.index()] = cand;
            }
        }
    }
    let span = spec.span().units();
    for i in 0..spec.num_nodes() as u32 {
        let v = NodeId(i);
        let critical =
            depth[v.index()] + spec.height(v).units() - spec.node_work(v).units() == span;
        let _ = writeln!(
            out,
            "  n{i} [label=\"n{i} ({})\"{}];",
            spec.node_work(v),
            if critical { ", peripheries=2" } else { "" }
        );
    }
    for u in 0..spec.num_nodes() as u32 {
        for v in spec.successors(NodeId(u)) {
            let _ = writeln!(out, "  n{u} -> n{};", v.0);
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// DOT identifiers allow `[A-Za-z0-9_]`; everything else becomes `_`.
fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, 'g');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::spec::DagBuilder;
    use dagsched_core::Work;

    #[test]
    fn dot_contains_every_node_and_edge() {
        let d = gen::diamond(3, 5);
        let dot = to_dot(&d, "diamond");
        assert!(dot.starts_with("digraph diamond {"));
        for i in 0..d.num_nodes() {
            assert!(dot.contains(&format!("n{i} [label=")), "missing node {i}");
        }
        assert_eq!(dot.matches(" -> ").count(), d.num_edges());
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn critical_path_nodes_get_double_border() {
        // Chain of 2 after a parallel branch: s -> a(4), b(1); a -> t.
        let mut bld = DagBuilder::new();
        let s = bld.add_node(Work(1));
        let a = bld.add_node(Work(4));
        let b2 = bld.add_node(Work(1));
        let t = bld.add_node(Work(1));
        bld.add_edge(s, a).unwrap();
        bld.add_edge(s, b2).unwrap();
        bld.add_edge(a, t).unwrap();
        let d = bld.build().unwrap();
        let dot = to_dot(&d, "x");
        // s, a, t are critical (span 6); b is not.
        assert!(dot.contains("n0 [label=\"n0 (1)\", peripheries=2]"));
        assert!(dot.contains("n1 [label=\"n1 (4)\", peripheries=2]"));
        assert!(dot.contains("n2 [label=\"n2 (1)\"]"), "{dot}");
        assert!(dot.contains("n3 [label=\"n3 (1)\", peripheries=2]"));
    }

    #[test]
    fn sanitize_names() {
        assert_eq!(sanitize("ok_name1"), "ok_name1");
        assert_eq!(sanitize("has space-and.dots"), "has_space_and_dots");
        assert_eq!(sanitize("1starts_with_digit"), "g1starts_with_digit");
        assert_eq!(sanitize(""), "g");
    }
}
