//! Graphviz DOT export, used by the figure binaries to emit the
//! torus-construction illustrations (Figures 1–2) and for debugging.

use std::fmt::Write as _;

use crate::bfs::Adjacency;
use crate::NodeId;

/// Options controlling DOT output.
#[derive(Debug, Clone, Default)]
pub struct DotOptions {
    /// Graph name in the `graph <name> { … }` header.
    pub name: String,
    /// Optional per-node labels (global id → label); nodes missing
    /// from the map use their numeric id.
    pub labels: Vec<(NodeId, String)>,
    /// Node ids to highlight (rendered filled); used to mark views.
    pub highlight: Vec<NodeId>,
}

/// Renders `g` in Graphviz DOT syntax: every node, then every edge
/// `u -- v` with `u < v` in ascending order.
pub fn to_dot<A: Adjacency + ?Sized>(g: &A, opts: &DotOptions) -> String {
    let name = if opts.name.is_empty() { "g" } else { &opts.name };
    let n = g.node_count() as NodeId;
    let mut out = String::with_capacity(32 + 16 * n as usize);
    let _ = writeln!(out, "graph {name} {{");
    let _ = writeln!(out, "  node [shape=circle];");
    let mut sorted_labels = opts.labels.clone();
    sorted_labels.sort_unstable_by_key(|&(id, _)| id);
    let mut highlight = opts.highlight.clone();
    highlight.sort_unstable();
    for u in 0..n {
        let mut attrs: Vec<String> = Vec::new();
        if let Ok(i) = sorted_labels.binary_search_by_key(&u, |&(id, _)| id) {
            attrs.push(format!("label=\"{}\"", sorted_labels[i].1));
        }
        if highlight.binary_search(&u).is_ok() {
            attrs.push("style=filled, fillcolor=lightgray".to_string());
        }
        if attrs.is_empty() {
            let _ = writeln!(out, "  {u};");
        } else {
            let _ = writeln!(out, "  {u} [{}];", attrs.join(", "));
        }
    }
    for u in 0..n {
        for &v in g.adjacent(u).iter().filter(|&&v| u < v) {
            let _ = writeln!(out, "  {u} -- {v};");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Graph};

    #[test]
    fn dot_contains_all_edges() {
        let g = generators::cycle(4);
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.starts_with("graph g {"));
        for line in ["0 -- 1;", "1 -- 2;", "2 -- 3;", "0 -- 3;"] {
            assert!(dot.contains(line), "missing {line} in:\n{dot}");
        }
    }

    #[test]
    fn dot_renders_labels_and_highlights() {
        let g = generators::path(3);
        let opts =
            DotOptions { name: "p3".into(), labels: vec![(1, "(0,0)".into())], highlight: vec![2] };
        let dot = to_dot(&g, &opts);
        assert!(dot.contains("graph p3 {"));
        assert!(dot.contains("1 [label=\"(0,0)\"];"));
        assert!(dot.contains("2 [style=filled"));
    }

    #[test]
    fn empty_graph_renders() {
        let dot = to_dot(&Graph::new(0), &DotOptions::default());
        assert!(dot.contains("graph g {"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
