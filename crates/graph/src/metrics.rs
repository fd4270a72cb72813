//! Graph metrics: eccentricity, diameter, radius, girth, connectivity.
//!
//! All-pairs variants are rayon-parallel over BFS sources with
//! per-thread [`DistanceBuffer`]s; the result order is deterministic
//! (indexed collect), independent of scheduling.
//!
//! Every metric is generic over [`Adjacency`], so it runs unchanged on
//! the mutable [`crate::Graph`] and on the frozen [`crate::CsrGraph`]
//! a game state keeps.

use rayon::prelude::*;

use crate::bfs::{bfs, Adjacency, DistanceBuffer};
use crate::{NodeId, INFINITY};

/// Eccentricity of `u`: the largest distance from `u` to any node.
///
/// Returns `None` if `u` does not reach every node (disconnected
/// graph), mirroring the game semantics where a disconnected player
/// has unbounded usage cost.
pub fn eccentricity<A: Adjacency + ?Sized>(g: &A, u: NodeId) -> Option<u32> {
    let mut buf = DistanceBuffer::with_capacity(g.node_count());
    let ecc = bfs(g, u, &mut buf);
    if buf.visited().len() == g.node_count() {
        Some(ecc)
    } else {
        None
    }
}

/// All eccentricities, computed in parallel. `INFINITY` marks nodes
/// that do not reach the whole graph.
pub fn eccentricities<A: Adjacency + Sync + ?Sized>(g: &A) -> Vec<u32> {
    if g.node_count() == 0 {
        return Vec::new();
    }
    (0..g.node_count() as NodeId)
        .into_par_iter()
        .map_init(
            || DistanceBuffer::with_capacity(g.node_count()),
            |buf, u| {
                let ecc = bfs(g, u, buf);
                if buf.visited().len() == g.node_count() {
                    ecc
                } else {
                    INFINITY
                }
            },
        )
        .collect()
}

/// Diameter (largest eccentricity); `None` if disconnected or empty.
pub fn diameter<A: Adjacency + Sync + ?Sized>(g: &A) -> Option<u32> {
    let eccs = eccentricities(g);
    let max = eccs.iter().copied().max()?;
    if max == INFINITY {
        None
    } else {
        Some(max)
    }
}

/// Radius (smallest eccentricity); `None` if disconnected or empty.
pub fn radius<A: Adjacency + Sync + ?Sized>(g: &A) -> Option<u32> {
    let eccs = eccentricities(g);
    let min = eccs.iter().copied().min()?;
    if min == INFINITY {
        None
    } else {
        Some(min)
    }
}

/// Whether the graph is connected. The empty graph counts as
/// connected; a single node does too.
pub fn is_connected<A: Adjacency + ?Sized>(g: &A) -> bool {
    if g.node_count() <= 1 {
        return true;
    }
    let mut buf = DistanceBuffer::with_capacity(g.node_count());
    bfs(g, 0, &mut buf);
    buf.visited().len() == g.node_count()
}

/// Sum of distances from `u` to all nodes (the *status* of `u`, the
/// SumNCG usage cost). `None` if `u` does not reach every node.
pub fn status<A: Adjacency + ?Sized>(g: &A, u: NodeId) -> Option<u64> {
    let mut buf = DistanceBuffer::with_capacity(g.node_count());
    bfs(g, u, &mut buf);
    if buf.visited().len() != g.node_count() {
        return None;
    }
    Some(buf.distances().iter().map(|&d| d as u64).sum())
}

/// All statuses at once, rayon-parallel over sources (the SumNCG
/// social-cost kernel). `None` entries mark nodes that do not reach
/// the whole graph.
pub fn statuses<A: Adjacency + Sync + ?Sized>(g: &A) -> Vec<Option<u64>> {
    (0..g.node_count() as NodeId)
        .into_par_iter()
        .map_init(
            || DistanceBuffer::with_capacity(g.node_count()),
            |buf, u| {
                bfs(g, u, buf);
                if buf.visited().len() != g.node_count() {
                    None
                } else {
                    Some(buf.distances().iter().map(|&d| d as u64).sum())
                }
            },
        )
        .collect()
}

/// All-pairs shortest-path distance matrix, row `u` = distances from
/// `u`. Parallel over sources; `INFINITY` marks unreachable pairs.
///
/// Memory is `n²·4` bytes — fine for the paper's `n ≤ a few thousand`.
pub fn distance_matrix<A: Adjacency + Sync + ?Sized>(g: &A) -> Vec<Vec<u32>> {
    (0..g.node_count() as NodeId)
        .into_par_iter()
        .map_init(
            || DistanceBuffer::with_capacity(g.node_count()),
            |buf, u| {
                bfs(g, u, buf);
                buf.distances().to_vec()
            },
        )
        .collect()
}

/// Girth: length of the shortest cycle, `None` if the graph is acyclic
/// (a forest).
///
/// Standard BFS-per-vertex algorithm, `O(n·m)`: for each source run a
/// BFS that records parents; a non-tree edge `(u, v)` discovered with
/// `dist(u) + dist(v) + 1` closes a cycle through the source of that
/// length or shorter. The minimum over all sources is exact.
pub fn girth<A: Adjacency + ?Sized>(g: &A) -> Option<u32> {
    let n = g.node_count();
    let mut best: u32 = INFINITY;
    let mut dist = vec![INFINITY; n];
    let mut parent = vec![INFINITY; n];
    let mut queue: Vec<NodeId> = Vec::with_capacity(n);
    for s in 0..n as NodeId {
        dist.iter_mut().for_each(|d| *d = INFINITY);
        parent.iter_mut().for_each(|p| *p = INFINITY);
        queue.clear();
        dist[s as usize] = 0;
        queue.push(s);
        let mut head = 0;
        'bfs: while head < queue.len() {
            let u = queue[head];
            head += 1;
            let du = dist[u as usize];
            // Any cycle through s discovered at depth du has length
            // ≥ 2·du; prune once it cannot beat the best.
            if 2 * du >= best {
                break 'bfs;
            }
            for &v in g.adjacent(u) {
                if dist[v as usize] == INFINITY {
                    dist[v as usize] = du + 1;
                    parent[v as usize] = u;
                    queue.push(v);
                } else if parent[u as usize] != v {
                    // Non-tree edge: cycle of length dist(u)+dist(v)+1.
                    let len = du + dist[v as usize] + 1;
                    if len < best {
                        best = len;
                    }
                }
            }
        }
    }
    if best == INFINITY {
        None
    } else {
        Some(best)
    }
}

/// Number of connected components.
pub fn component_count<A: Adjacency + ?Sized>(g: &A) -> usize {
    let n = g.node_count();
    let mut seen = vec![false; n];
    let mut buf = DistanceBuffer::with_capacity(n);
    let mut count = 0;
    for s in 0..n as NodeId {
        if !seen[s as usize] {
            count += 1;
            bfs(g, s, &mut buf);
            for &v in buf.visited() {
                seen[v as usize] = true;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Graph};

    #[test]
    fn path_metrics() {
        let g = generators::path(7);
        assert_eq!(diameter(&g), Some(6));
        assert_eq!(radius(&g), Some(3));
        assert_eq!(eccentricity(&g, 0), Some(6));
        assert_eq!(eccentricity(&g, 3), Some(3));
        assert_eq!(girth(&g), None);
        assert!(is_connected(&g));
    }

    #[test]
    fn cycle_metrics() {
        let g = generators::cycle(10);
        assert_eq!(diameter(&g), Some(5));
        assert_eq!(radius(&g), Some(5));
        assert_eq!(girth(&g), Some(10));
    }

    #[test]
    fn odd_cycle_girth() {
        let g = generators::cycle(7);
        assert_eq!(girth(&g), Some(7));
        assert_eq!(diameter(&g), Some(3));
    }

    #[test]
    fn star_metrics() {
        let g = generators::star(6);
        assert_eq!(diameter(&g), Some(2));
        assert_eq!(radius(&g), Some(1));
        assert_eq!(girth(&g), None);
        assert_eq!(status(&g, 0), Some(5));
        assert_eq!(status(&g, 1), Some(1 + 2 * 4));
    }

    #[test]
    fn clique_metrics() {
        let g = generators::complete(5);
        assert_eq!(diameter(&g), Some(1));
        assert_eq!(girth(&g), Some(3));
    }

    #[test]
    fn disconnected_graph_has_no_diameter() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&g), None);
        assert_eq!(radius(&g), None);
        assert_eq!(eccentricity(&g, 0), None);
        assert_eq!(status(&g, 0), None);
        assert!(!is_connected(&g));
        assert_eq!(component_count(&g), 2);
    }

    #[test]
    fn girth_finds_triangle_in_larger_graph() {
        // A 6-cycle with one chord creating a triangle 0-1-5? No:
        // chord (0,2) creates triangle 0-1-2.
        let mut g = generators::cycle(6);
        g.add_edge(0, 2);
        assert_eq!(girth(&g), Some(3));
    }

    #[test]
    fn girth_even_cycle_via_two_squares_sharing_edge() {
        // Two 4-cycles sharing an edge: girth 4.
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2)]).unwrap();
        assert_eq!(girth(&g), Some(4));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (u, v) indices express the symmetry check
    fn distance_matrix_is_symmetric_and_matches_bfs() {
        let g = generators::grid(3, 4);
        let m = distance_matrix(&g);
        let n = g.node_count();
        for u in 0..n {
            assert_eq!(m[u][u], 0);
            for v in 0..n {
                assert_eq!(m[u][v], m[v][u]);
            }
        }
        assert_eq!(m[0][n - 1], 2 + 3); // manhattan corner-to-corner
    }

    #[test]
    fn statuses_agree_with_pointwise() {
        let g = generators::grid(3, 4);
        let all = statuses(&g);
        for u in 0..g.node_count() as NodeId {
            assert_eq!(all[u as usize], status(&g, u));
        }
        let disc = Graph::from_edges(3, [(0, 1)]).unwrap();
        assert_eq!(statuses(&disc), vec![None, None, None]);
    }

    #[test]
    fn eccentricities_agree_with_pointwise() {
        let g = generators::grid(3, 3);
        let eccs = eccentricities(&g);
        for u in 0..g.node_count() as NodeId {
            assert_eq!(Some(eccs[u as usize]), eccentricity(&g, u));
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let e = Graph::new(0);
        assert_eq!(diameter(&e), None);
        assert!(is_connected(&e));
        let s = Graph::new(1);
        assert_eq!(diameter(&s), Some(0));
        assert_eq!(radius(&s), Some(0));
        assert!(is_connected(&s));
        assert_eq!(component_count(&s), 1);
    }
}
