//! Radius-`k` balls, induced subgraphs and graph powers.
//!
//! The *view* of a player in the locality-based game is the subgraph
//! induced by her radius-`k` ball. This module provides the graph-level
//! machinery; the game layer (`ncg-core`) adds ownership on top.

use crate::bfs::{bfs_bounded, Adjacency, DistanceBuffer};
use crate::{Graph, NodeId, INFINITY};

/// The radius-`k` ball around `center`: all nodes at distance `≤ k`,
/// sorted by node id.
pub fn ball<A: Adjacency + ?Sized>(g: &A, center: NodeId, k: u32) -> Vec<NodeId> {
    let mut out = Vec::new();
    ball_into(g, center, k, &mut DistanceBuffer::with_capacity(g.node_count()), &mut out);
    out
}

/// [`ball`] writing into caller-provided scratch: `out` receives the
/// sorted ball, `buf` is the BFS workspace. Nothing allocates after
/// warm-up.
pub fn ball_into<A: Adjacency + ?Sized>(
    g: &A,
    center: NodeId,
    k: u32,
    buf: &mut DistanceBuffer,
    out: &mut Vec<NodeId>,
) {
    bfs_bounded(g, center, k, buf);
    out.clear();
    out.extend_from_slice(buf.visited());
    out.sort_unstable();
}

/// An induced subgraph together with the mapping between local and
/// global node identifiers.
///
/// Local ids are dense `0..nodes.len()`, assigned in ascending global
/// order, so `local_to_global` is sorted and `global_to_local` can use
/// binary search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subgraph {
    /// The induced graph over local identifiers.
    pub graph: Graph,
    /// `local_to_global[l]` = global id of local node `l` (sorted).
    pub local_to_global: Vec<NodeId>,
}

impl Subgraph {
    /// Translates a global id to the local id, if present.
    #[inline]
    pub fn to_local(&self, global: NodeId) -> Option<NodeId> {
        self.local_to_global.binary_search(&global).ok().map(|i| i as NodeId)
    }

    /// Translates a local id back to the global id.
    ///
    /// # Panics
    /// Panics if `local` is out of range.
    #[inline]
    pub fn to_global(&self, local: NodeId) -> NodeId {
        self.local_to_global[local as usize]
    }

    /// Number of nodes in the subgraph.
    #[inline]
    pub fn len(&self) -> usize {
        self.local_to_global.len()
    }

    /// Whether the subgraph is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.local_to_global.is_empty()
    }
}

/// The subgraph of `g` induced by `nodes` (global ids, any order,
/// duplicates ignored).
pub fn induced_subgraph(g: &Graph, nodes: &[NodeId]) -> Subgraph {
    let mut out = Subgraph { graph: Graph::new(0), local_to_global: Vec::new() };
    induced_subgraph_into(g, nodes, &mut out);
    out
}

/// [`induced_subgraph`] overwriting an existing [`Subgraph`], reusing
/// its node-map and adjacency allocations (see [`Graph::reset`]).
pub fn induced_subgraph_into<A: Adjacency + ?Sized>(g: &A, nodes: &[NodeId], out: &mut Subgraph) {
    out.local_to_global.clear();
    out.local_to_global.extend_from_slice(nodes);
    out.local_to_global.sort_unstable();
    out.local_to_global.dedup();
    out.graph.reset(out.local_to_global.len());
    for (lu, &gu) in out.local_to_global.iter().enumerate() {
        for &gv in g.adjacent(gu) {
            if gv > gu {
                if let Ok(lv) = out.local_to_global.binary_search(&gv) {
                    out.graph.add_edge(lu as NodeId, lv as NodeId);
                }
            }
        }
    }
}

/// The view of `center` at radius `k`: induced subgraph of the ball.
pub fn view_subgraph(g: &Graph, center: NodeId, k: u32) -> Subgraph {
    induced_subgraph(g, &ball(g, center, k))
}

/// [`view_subgraph`] writing into caller scratch: `ball_buf` holds the
/// sorted ball on return, `buf` is the BFS workspace, `out` the
/// overwritten subgraph. The allocation-free path of the incremental
/// view rebuild.
pub fn view_subgraph_into<A: Adjacency + ?Sized>(
    g: &A,
    center: NodeId,
    k: u32,
    buf: &mut DistanceBuffer,
    ball_buf: &mut Vec<NodeId>,
    out: &mut Subgraph,
) {
    ball_into(g, center, k, buf, ball_buf);
    induced_subgraph_into(g, ball_buf, out);
}

/// The `h`-th power of `g`: same nodes, an edge wherever the distance
/// in `g` is between 1 and `h`.
///
/// `power(g, 1)` is `g` itself (a copy). `power(g, 0)` is edgeless.
/// Used by the Section 5.3 best-response reduction, where domination
/// in the `(h−1)`-th power encodes "eccentricity ≤ h after buying".
pub fn power(g: &Graph, h: u32) -> Graph {
    let n = g.node_count();
    let mut p = Graph::new(n);
    if h == 0 {
        return p;
    }
    let mut buf = DistanceBuffer::with_capacity(n);
    for u in 0..n as NodeId {
        bfs_bounded(g, u, h, &mut buf);
        for &v in buf.visited() {
            if v > u {
                p.add_edge(u, v);
            }
        }
    }
    p
}

/// Distances from `center` restricted to its radius-`k` ball, as a map
/// from the ball (sorted) to distances.
///
/// Convenience used by the game layer to reason about frontier nodes
/// (`d = k` exactly) without retaining the whole buffer.
pub fn ball_distances(g: &Graph, center: NodeId, k: u32) -> Vec<(NodeId, u32)> {
    let mut buf = DistanceBuffer::with_capacity(g.node_count());
    bfs_bounded(g, center, k, &mut buf);
    let mut out: Vec<(NodeId, u32)> = buf.visited().iter().map(|&v| (v, buf.dist(v))).collect();
    out.sort_unstable_by_key(|&(v, _)| v);
    debug_assert!(out.iter().all(|&(_, d)| d != INFINITY));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::metrics;

    #[test]
    fn ball_on_path_is_an_interval() {
        let g = generators::path(10);
        assert_eq!(ball(&g, 5, 2), vec![3, 4, 5, 6, 7]);
        assert_eq!(ball(&g, 0, 3), vec![0, 1, 2, 3]);
        assert_eq!(ball(&g, 9, 0), vec![9]);
    }

    #[test]
    fn ball_radius_larger_than_diameter_is_everything() {
        let g = generators::cycle(6);
        assert_eq!(ball(&g, 2, 100).len(), 6);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = generators::cycle(6);
        let sub = induced_subgraph(&g, &[0, 1, 2, 4]);
        assert_eq!(sub.len(), 4);
        // Edges 0-1 and 1-2 survive; 4 is isolated inside the subgraph.
        assert_eq!(sub.graph.edge_count(), 2);
        let l4 = sub.to_local(4).unwrap();
        assert_eq!(sub.graph.degree(l4), 0);
        assert!(sub.graph.validate().is_ok());
    }

    #[test]
    fn induced_subgraph_dedups_and_sorts() {
        let g = generators::path(5);
        let sub = induced_subgraph(&g, &[3, 1, 3, 1, 2]);
        assert_eq!(sub.local_to_global, vec![1, 2, 3]);
        assert_eq!(sub.graph.edge_count(), 2);
    }

    #[test]
    fn local_global_round_trip() {
        let g = generators::grid(3, 3);
        let sub = view_subgraph(&g, 4, 1);
        for l in 0..sub.len() as NodeId {
            let gid = sub.to_global(l);
            assert_eq!(sub.to_local(gid), Some(l));
        }
        assert_eq!(sub.to_local(999), None);
    }

    #[test]
    fn view_subgraph_of_center_of_path() {
        let g = generators::path(9);
        let sub = view_subgraph(&g, 4, 2);
        assert_eq!(sub.local_to_global, vec![2, 3, 4, 5, 6]);
        assert_eq!(metrics::diameter(&sub.graph), Some(4));
    }

    #[test]
    fn power_zero_and_one() {
        let g = generators::cycle(5);
        assert_eq!(power(&g, 0).edge_count(), 0);
        assert_eq!(power(&g, 1), g);
    }

    #[test]
    fn power_two_of_cycle_six() {
        let g = generators::cycle(6);
        let p2 = power(&g, 2);
        // Each node gains its two distance-2 neighbours: degree 4.
        assert!(p2.nodes().all(|u| p2.degree(u) == 4));
        assert_eq!(p2.edge_count(), 12);
    }

    #[test]
    fn power_saturates_to_complete_graph() {
        let g = generators::path(5);
        let p = power(&g, 4);
        assert_eq!(p.edge_count(), 5 * 4 / 2);
    }

    #[test]
    fn power_of_disconnected_graph_stays_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let p = power(&g, 10);
        assert!(p.has_edge(0, 1));
        assert!(p.has_edge(2, 3));
        assert!(!p.has_edge(1, 2));
        assert_eq!(p.edge_count(), 2);
    }

    #[test]
    fn into_variants_match_fresh_builds() {
        let g = generators::grid(4, 4);
        let mut buf = DistanceBuffer::new();
        let mut ball_buf = Vec::new();
        let mut sub = Subgraph { graph: crate::Graph::new(0), local_to_global: Vec::new() };
        for center in 0..g.node_count() as NodeId {
            for k in 0..=4 {
                ball_into(&g, center, k, &mut buf, &mut ball_buf);
                assert_eq!(ball_buf, ball(&g, center, k), "ball center={center} k={k}");
                view_subgraph_into(&g, center, k, &mut buf, &mut ball_buf, &mut sub);
                assert_eq!(sub, view_subgraph(&g, center, k), "view center={center} k={k}");
                assert!(sub.graph.validate().is_ok());
            }
        }
    }

    #[test]
    fn induced_subgraph_into_reuses_allocation_across_shrink() {
        let g = generators::cycle(8);
        let mut sub = induced_subgraph(&g, &[0, 1, 2, 3, 4, 5]);
        induced_subgraph_into(&g, &[6, 7, 0], &mut sub);
        assert_eq!(sub, induced_subgraph(&g, &[6, 7, 0]));
    }

    #[test]
    fn ball_distances_reports_frontier() {
        let g = generators::path(10);
        let bd = ball_distances(&g, 5, 2);
        assert_eq!(bd, vec![(3, 2), (4, 1), (5, 0), (6, 1), (7, 2)]);
    }
}
