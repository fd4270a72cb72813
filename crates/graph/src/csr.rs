//! Frozen CSR (compressed sparse row) graph representation.
//!
//! [`Graph`]'s `Vec<Vec<NodeId>>` adjacency is ideal for edge-by-edge
//! construction, but its per-node heap allocations scatter the
//! neighbour lists across the heap. The all-pairs BFS sweeps of the
//! metrics layer and the best-response reduction read the whole
//! adjacency once per source — a contiguous offsets/targets layout
//! ([`CsrGraph`]) keeps those sweeps inside a single prefetch-friendly
//! allocation. It is the graph a game state holds (rebuilt from the
//! strategy rows by [`CsrGraph::rebuild_from_edges`]); freezing a
//! [`Graph`] is `O(n + m)`. The benches in
//! `ncg-bench/benches/substrates.rs` quantify the BFS win.

use crate::bfs::{Adjacency, DistanceBuffer};
#[cfg(test)]
use crate::INFINITY;
use crate::{Graph, NodeId};

/// An immutable graph in CSR layout: neighbours of `u` are
/// `targets[offsets[u] .. offsets[u+1]]`, sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl CsrGraph {
    /// Freezes a [`Graph`] into CSR form.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for u in 0..n as NodeId {
            targets.extend_from_slice(g.neighbors(u));
            offsets.push(targets.len() as u32);
        }
        CsrGraph { offsets, targets }
    }

    /// Builds a CSR directly from an undirected edge list, never
    /// materialising a [`Graph`]. See [`CsrGraph::rebuild_from_edges`].
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut csr = CsrGraph::default();
        csr.rebuild_from_edges(n, edges);
        csr
    }

    /// Re-builds this CSR from an undirected edge list via a two-pass
    /// counting sort, reusing the offsets/targets allocations.
    ///
    /// This is the game state's constructor: the state stores
    /// strategies as a flat CSR and derives the adjacency by streaming
    /// `(owner, target)` pairs through here after every move or round
    /// — `O(n + m)` with two contiguous passes, no per-node `Vec` in
    /// sight.
    /// Duplicate pairs (a double-bought edge — both endpoints purchase
    /// it) and either orientation are tolerated: rows come out sorted
    /// ascending and deduplicated, identical to freezing the
    /// equivalent [`Graph`].
    ///
    /// # Panics
    /// Panics (debug assertion) on self-loops or endpoints `≥ n`.
    pub fn rebuild_from_edges(&mut self, n: usize, edges: &[(NodeId, NodeId)]) {
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &(u, v) in edges {
            debug_assert!(u != v, "self-loop {u}");
            debug_assert!((u as usize) < n && (v as usize) < n, "endpoint out of range");
            self.offsets[u as usize + 1] += 1;
            self.offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.targets.clear();
        self.targets.resize(2 * edges.len(), 0);
        // Fill using offsets[u] as the row cursor; afterwards each
        // offsets[u] has advanced to the start of row u+1, so one
        // backward shift restores the offset array without a separate
        // cursor allocation.
        for &(u, v) in edges {
            self.targets[self.offsets[u as usize] as usize] = v;
            self.offsets[u as usize] += 1;
            self.targets[self.offsets[v as usize] as usize] = u;
            self.offsets[v as usize] += 1;
        }
        for u in (1..=n).rev() {
            self.offsets[u] = self.offsets[u - 1];
        }
        self.offsets[0] = 0;
        // Sort rows, then compact out duplicate targets in place
        // (write cursor never passes the read cursor).
        let mut write = 0usize;
        let mut row_start = 0usize;
        for u in 0..n {
            let row_end = self.offsets[u + 1] as usize;
            self.targets[row_start..row_end].sort_unstable();
            let new_start = write;
            let mut last: Option<NodeId> = None;
            for i in row_start..row_end {
                let t = self.targets[i];
                if last != Some(t) {
                    self.targets[write] = t;
                    write += 1;
                    last = Some(t);
                }
            }
            row_start = row_end;
            self.offsets[u] = new_start as u32;
            self.offsets[u + 1] = write as u32;
        }
        self.targets.truncate(write);
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Sorted neighbour slice of `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }

    /// Average degree, `2m / n` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
    }

    /// Full BFS from `source` on the CSR layout; same contract as
    /// [`crate::bfs::bfs`]. Returns the largest finite distance.
    pub fn bfs(&self, source: NodeId, buf: &mut DistanceBuffer) -> u32 {
        crate::bfs::bfs(self, source, buf)
    }

    /// Bounded BFS (distance `≤ limit`) on the CSR layout; same
    /// contract as [`crate::bfs::bfs_bounded`].
    pub fn bfs_bounded(&self, source: NodeId, limit: u32, buf: &mut DistanceBuffer) -> u32 {
        crate::bfs::bfs_bounded(self, source, limit, buf)
    }

    /// Bounded **multi-source** BFS on the CSR layout; same contract
    /// as [`crate::bfs::bfs_multi_bounded`] — these methods are pure
    /// conveniences over the one generic kernel in `crate::bfs`, not
    /// separate drivers.
    pub fn bfs_multi_bounded(
        &self,
        sources: &[NodeId],
        limit: u32,
        buf: &mut DistanceBuffer,
    ) -> u32 {
        crate::bfs::bfs_multi_bounded(self, sources, limit, buf)
    }
}

impl Adjacency for CsrGraph {
    #[inline]
    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    #[inline]
    fn adjacent(&self, u: NodeId) -> &[NodeId] {
        self.neighbors(u)
    }
}

impl Default for CsrGraph {
    /// The CSR of the empty graph, so states and scratch bundles can
    /// derive `Default`.
    fn default() -> Self {
        CsrGraph { offsets: vec![0], targets: Vec::new() }
    }
}

impl From<&Graph> for CsrGraph {
    fn from(g: &Graph) -> Self {
        CsrGraph::from_graph(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::{generators, metrics};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn csr_preserves_structure() {
        let g = generators::grid(4, 5);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        for u in 0..g.node_count() as NodeId {
            assert_eq!(csr.neighbors(u), g.neighbors(u));
            assert_eq!(csr.degree(u), g.degree(u));
        }
    }

    #[test]
    fn csr_bfs_matches_graph_bfs() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::gnp(60, 0.08, &mut rng).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let mut a = DistanceBuffer::new();
        let mut b = DistanceBuffer::new();
        for u in 0..g.node_count() as NodeId {
            let ea = bfs(&g, u, &mut a);
            let eb = csr.bfs(u, &mut b);
            assert_eq!(ea, eb);
            assert_eq!(a.distances(), b.distances());
        }
    }

    #[test]
    fn csr_bounded_bfs_truncates() {
        let g = generators::path(12);
        let csr = CsrGraph::from_graph(&g);
        let mut buf = DistanceBuffer::new();
        let reached = csr.bfs_bounded(0, 4, &mut buf);
        assert_eq!(reached, 4);
        assert_eq!(buf.dist(4), 4);
        assert_eq!(buf.dist(5), INFINITY);
    }

    #[test]
    fn csr_distance_matrix_matches_metrics() {
        let g = generators::cycle(11);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(metrics::distance_matrix(&csr), metrics::distance_matrix(&g));
    }

    #[test]
    fn csr_eccentricity_and_disconnection() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2)]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(metrics::eccentricity(&csr, 0), None);
        let c = CsrGraph::from_graph(&generators::cycle(8));
        assert_eq!(metrics::eccentricity(&c, 0), Some(4));
    }

    #[test]
    fn csr_multi_bounded_matches_graph_kernel() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = generators::gnp(50, 0.07, &mut rng).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let mut a = DistanceBuffer::new();
        let mut b = DistanceBuffer::new();
        for (sources, limit) in
            [(vec![0u32, 7, 7, 23], 2u32), (vec![3], 0), (vec![], 5), (vec![11, 40], u32::MAX)]
        {
            let da = crate::bfs::bfs_multi_bounded(&g, &sources, limit, &mut a);
            let db = csr.bfs_multi_bounded(&sources, limit, &mut b);
            assert_eq!(da, db);
            assert_eq!(a.distances(), b.distances());
            assert_eq!(a.visited(), b.visited());
        }
    }

    #[test]
    fn from_edges_matches_graph_freeze() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for p in [0.0, 0.05, 0.15] {
            let mut edges = Vec::new();
            let mut check = ChaCha8Rng::seed_from_u64(rng.random());
            let mut gen = check.clone();
            generators::gnp_edges(70, p, &mut gen, &mut edges).unwrap();
            let g = generators::gnp(70, p, &mut check).unwrap();
            assert_eq!(CsrGraph::from_edges(70, &edges), CsrGraph::from_graph(&g));
        }
    }

    #[test]
    fn from_edges_dedups_and_sorts() {
        // Duplicates (double-bought edges) and mixed orientation: the
        // CSR must come out identical to the clean graph's freeze.
        let edges = [(3u32, 1u32), (1, 3), (0, 2), (2, 1), (4, 0), (0, 4), (0, 4)];
        let csr = CsrGraph::from_edges(5, &edges);
        let g = Graph::from_edges(5, [(1, 3), (0, 2), (1, 2), (0, 4)]).unwrap();
        assert_eq!(csr, CsrGraph::from_graph(&g));
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.neighbors(0), &[2, 4]);
    }

    #[test]
    fn rebuild_from_edges_reuses_allocations() {
        let mut csr = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        csr.rebuild_from_edges(3, &[(0, 2)]);
        assert_eq!(csr, CsrGraph::from_edges(3, &[(0, 2)]));
        csr.rebuild_from_edges(0, &[]);
        assert_eq!(csr.node_count(), 0);
    }

    #[test]
    fn empty_graph() {
        let csr = CsrGraph::from_graph(&Graph::new(0));
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
    }
}
