use ncg_graph::{CsrGraph, Graph, NodeId};
use rand::Rng;

/// What one [`GameState::set_strategy`] call actually changed, in
/// terms the incremental machinery downstream cares about: which graph
/// edges appeared or disappeared, and which targets kept their edge
/// but saw its *ownership* flip (double-bought transitions, which
/// change `incoming(target)` without touching the graph).
///
/// The dynamics view cache seeds its dirty-ball BFS from
/// [`EdgeDiff::touched`] — the mover plus every endpoint listed here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeDiff {
    /// The player whose strategy changed.
    pub player: NodeId,
    /// Targets `w` for which the graph edge `(player, w)` was created.
    pub added: Vec<NodeId>,
    /// Targets `w` for which the graph edge `(player, w)` was deleted.
    pub removed: Vec<NodeId>,
    /// Targets whose edge survived but whose incoming-ownership set
    /// changed (the other endpoint also owns the edge).
    pub ownership: Vec<NodeId>,
    /// Whether the purchase list itself changed at all (`false` means
    /// the new strategy normalised to the old one — a no-op move).
    pub changed: bool,
}

impl EdgeDiff {
    /// Every endpoint whose local picture may have changed: the mover
    /// and all targets in the strategy's symmetric difference.
    pub fn touched(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(self.player)
            .chain(self.added.iter().copied())
            .chain(self.removed.iter().copied())
            .chain(self.ownership.iter().copied())
    }

    /// Whether the move was a strategic no-op.
    pub fn is_noop(&self) -> bool {
        !self.changed
    }
}

/// Reusable buffers for [`GameState::apply_moves`]: the next strategy
/// CSR is written into these and swapped in, so repeated rounds
/// ping-pong between two allocations instead of growing fresh ones.
#[derive(Debug, Clone, Default)]
pub struct ApplyScratch {
    new_offsets: Vec<u32>,
    new_targets: Vec<NodeId>,
    edges: Vec<(NodeId, NodeId)>,
}

/// A strategy profile together with the graph it induces, in four flat
/// arrays.
///
/// The strategies form a CSR (`strat_offsets`/`strat_targets`): row `u`
/// is `σ_u`, the nodes player `u` buys edges to, sorted ascending. The
/// induced graph `G(σ)` is a frozen [`CsrGraph`] containing the edge
/// `(u, v)` iff `v ∈ σ_u` **or** `u ∈ σ_v`; both players buying the
/// same edge is legal (each pays `α`) but yields a single graph edge.
/// Every mutation goes through [`GameState::apply_moves`], which
/// rebuilds the graph from the strategy rows with the counting-sort
/// builder ([`CsrGraph::rebuild_from_edges`]) in `O(n + m)`. Both
/// dynamics tiers — one move at a time or thousands per round — share
/// this one layout.
///
/// Invariants (checked by [`GameState::validate`], maintained by every
/// constructor and mutator):
/// * strategy row `u` is sorted ascending, duplicate-free, in range,
///   and never contains `u` itself;
/// * `graph` is exactly the network induced by the strategy rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GameState {
    n: usize,
    /// `strat_offsets[u]..strat_offsets[u + 1]` indexes `σ_u` in
    /// `strat_targets`; length `n + 1`.
    strat_offsets: Vec<u32>,
    strat_targets: Vec<NodeId>,
    graph: CsrGraph,
}

impl GameState {
    /// The edgeless profile on `n` players.
    pub fn new(n: usize) -> Self {
        Self::from_owned_edges(n, &[])
    }

    /// Builds a state from `(owner, target)` pairs: player `owner`
    /// buys the edge towards `target`. Pairs may arrive in any order;
    /// duplicates collapse. Panics on self-loops or out-of-range ids.
    pub fn from_owned_edges(n: usize, owned: &[(NodeId, NodeId)]) -> Self {
        let mut strat_offsets = vec![0u32; n + 1];
        for &(u, v) in owned {
            assert!(u != v, "self-loop purchase {u} -> {v}");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "purchase {u} -> {v} out of range for n = {n}"
            );
            strat_offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            strat_offsets[i + 1] += strat_offsets[i];
        }
        // Offsets-as-cursors fill, then shift back (same discipline as
        // the CSR builder).
        let mut strat_targets = vec![0 as NodeId; owned.len()];
        for &(u, v) in owned {
            strat_targets[strat_offsets[u as usize] as usize] = v;
            strat_offsets[u as usize] += 1;
        }
        for u in (1..=n).rev() {
            strat_offsets[u] = strat_offsets[u - 1];
        }
        strat_offsets[0] = 0;
        // Sort + dedup each row in place, compacting leftwards.
        let mut write = 0usize;
        let mut row_start = 0usize;
        for u in 0..n {
            let row_end = strat_offsets[u + 1] as usize;
            strat_targets[row_start..row_end].sort_unstable();
            let new_start = write;
            let mut last: Option<NodeId> = None;
            for i in row_start..row_end {
                let t = strat_targets[i];
                if last != Some(t) {
                    strat_targets[write] = t;
                    write += 1;
                    last = Some(t);
                }
            }
            row_start = row_end;
            strat_offsets[u] = new_start as u32;
            strat_offsets[u + 1] = write as u32;
        }
        strat_targets.truncate(write);
        let mut state = GameState { n, strat_offsets, strat_targets, graph: CsrGraph::default() };
        state.rebuild_adjacency(&mut Vec::new());
        state
    }

    /// Builds a state from explicit strategies.
    ///
    /// Strategy lists are sorted and deduplicated; self-purchases
    /// (`u ∈ σ_u`) are rejected.
    ///
    /// # Panics
    /// Panics if any strategy mentions an out-of-range node or the
    /// player herself.
    pub fn from_strategies(n: usize, strategies: Vec<Vec<NodeId>>) -> Self {
        assert_eq!(strategies.len(), n, "one strategy per player required");
        let mut owned = Vec::new();
        for (u, sigma) in strategies.iter().enumerate() {
            for &v in sigma {
                assert!((v as usize) < n, "strategy of {u} mentions out-of-range node {v}");
                assert_ne!(v as usize, u, "player {u} cannot buy an edge to herself");
                owned.push((u as NodeId, v));
            }
        }
        Self::from_owned_edges(n, &owned)
    }

    /// Builds a state from a plain graph by assigning each edge to one
    /// of its endpoints with a fair coin toss — exactly how the paper
    /// seeds its experiments ("the owner of each edge was chosen
    /// uniformly at random between its endpoints").
    pub fn from_graph_random_ownership<R: Rng + ?Sized>(graph: &Graph, rng: &mut R) -> Self {
        let owned: Vec<(NodeId, NodeId)> = graph
            .edges()
            .map(|(u, v)| if rng.random::<bool>() { (u, v) } else { (v, u) })
            .collect();
        Self::from_owned_edges(graph.node_count(), &owned)
    }

    /// Builds a state from a graph and an explicit owner for each
    /// edge: `owner(u, v)` must return the endpoint (`u` or `v`) that
    /// buys the edge. Used by the lower-bound constructions, which
    /// prescribe exact ownership.
    ///
    /// # Panics
    /// Panics if `owner` returns a node that is not an endpoint.
    pub fn from_graph_with_owners(
        graph: &Graph,
        mut owner: impl FnMut(NodeId, NodeId) -> NodeId,
    ) -> Self {
        let owned: Vec<(NodeId, NodeId)> = graph
            .edges()
            .map(|(u, v)| {
                let w = owner(u, v);
                assert!(w == u || w == v, "owner({u},{v}) = {w} is not an endpoint");
                if w == u {
                    (u, v)
                } else {
                    (v, u)
                }
            })
            .collect();
        Self::from_owned_edges(graph.node_count(), &owned)
    }

    /// The cycle profile of Lemma 3.1: players `0..n` on a cycle, each
    /// buying the edge to her successor `(u+1) mod n`.
    pub fn cycle_successor(n: usize) -> Self {
        let mut strategies: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        if n >= 3 {
            for (u, sigma) in strategies.iter_mut().enumerate() {
                sigma.push(((u + 1) % n) as NodeId);
            }
        } else if n == 2 {
            strategies[0].push(1);
        }
        Self::from_strategies(n, strategies)
    }

    /// The star profile: the center `0` buys all edges (a social
    /// optimum for `α > 1`).
    pub fn star_center_owned(n: usize) -> Self {
        let mut strategies: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        if n > 0 {
            strategies[0] = (1..n as NodeId).collect();
        }
        Self::from_strategies(n, strategies)
    }

    /// Number of players.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The induced graph `G(σ)`.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Player `u`'s purchase list `σ_u` (sorted).
    #[inline]
    pub fn strategy(&self, u: NodeId) -> &[NodeId] {
        let lo = self.strat_offsets[u as usize] as usize;
        let hi = self.strat_offsets[u as usize + 1] as usize;
        &self.strat_targets[lo..hi]
    }

    /// Number of edges `u` buys, `|σ_u|`.
    #[inline]
    pub fn bought(&self, u: NodeId) -> usize {
        self.strategy(u).len()
    }

    /// Whether `u` owns (bought) the edge towards `v`.
    #[inline]
    pub fn owns(&self, u: NodeId, v: NodeId) -> bool {
        self.strategy(u).binary_search(&v).is_ok()
    }

    /// The players that bought an edge *towards* `u` (her in-neighbours
    /// in the ownership digraph). These edges survive any move by `u`.
    pub fn incoming(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.incoming_into(u, &mut out);
        out
    }

    /// [`GameState::incoming`] written into caller scratch (sorted,
    /// cleared first) — the allocation-free flavour the view rebuild
    /// path uses.
    pub fn incoming_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.graph.neighbors(u).iter().copied().filter(|&v| self.owns(v, u)));
    }

    /// Maximum `|σ_u|` over all players (the paper's "max bought
    /// edges" statistic).
    pub fn max_bought(&self) -> usize {
        self.strat_offsets.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }

    /// Total number of purchases `Σ_u |σ_u|`. At least `edge_count`
    /// (strictly more if any edge is double-bought).
    pub fn total_bought(&self) -> usize {
        self.strat_targets.len()
    }

    /// Replaces `σ_u` with `new_strategy` through
    /// [`GameState::apply_moves`] and returns an [`EdgeDiff`]
    /// describing exactly which endpoints were touched (consumed by
    /// the dynamics view cache to bound its invalidation BFS).
    ///
    /// A dropped purchase only deletes a graph edge if the other
    /// endpoint does not also own it; a new purchase only creates an
    /// edge if the other endpoint does not already own it. Either
    /// graph no-op is an *ownership* change in the diff.
    ///
    /// # Panics
    /// Panics if the strategy mentions out-of-range nodes or `u`
    /// herself.
    pub fn set_strategy(&mut self, u: NodeId, mut new_strategy: Vec<NodeId>) -> EdgeDiff {
        new_strategy.sort_unstable();
        new_strategy.dedup();
        for &v in &new_strategy {
            assert!((v as usize) < self.n(), "strategy of {u} mentions out-of-range node {v}");
            assert_ne!(v, u, "player {u} cannot buy an edge to herself");
        }
        let old = self.strategy(u);
        let mut diff = EdgeDiff { player: u, ..EdgeDiff::default() };
        for &v in old {
            if new_strategy.binary_search(&v).is_err() {
                if self.owns(v, u) {
                    diff.ownership.push(v);
                } else {
                    diff.removed.push(v);
                }
            }
        }
        for &v in &new_strategy {
            if old.binary_search(&v).is_err() {
                if self.owns(v, u) {
                    diff.ownership.push(v);
                } else {
                    diff.added.push(v);
                }
            }
        }
        diff.changed = old != new_strategy.as_slice();
        self.apply_moves(&[(u, new_strategy)], &mut ApplyScratch::default());
        debug_assert!(self.validate().is_ok());
        diff
    }

    /// Applies a batch of strategy rewrites and rebuilds the induced
    /// network. `moves` must be sorted by player ascending with no
    /// player repeated; each new strategy must be sorted ascending,
    /// duplicate-free, in range, and self-loop-free (the scale
    /// responder returns exactly this shape). `O(n + m)`,
    /// allocation-free at steady state via `scratch`.
    pub fn apply_moves(&mut self, moves: &[(NodeId, Vec<NodeId>)], scratch: &mut ApplyScratch) {
        debug_assert!(moves.windows(2).all(|w| w[0].0 < w[1].0), "moves not ascending by player");
        scratch.new_offsets.clear();
        scratch.new_offsets.reserve(self.n + 1);
        scratch.new_offsets.push(0);
        scratch.new_targets.clear();
        let mut mi = 0usize;
        for u in 0..self.n as NodeId {
            let row: &[NodeId] = if mi < moves.len() && moves[mi].0 == u {
                let row = moves[mi].1.as_slice();
                debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "new strategy not canonical");
                debug_assert!(
                    row.iter().all(|&v| v != u && (v as usize) < self.n),
                    "new strategy target out of range or self-loop"
                );
                mi += 1;
                row
            } else {
                self.strategy(u)
            };
            scratch.new_targets.extend_from_slice(row);
            scratch.new_offsets.push(scratch.new_targets.len() as u32);
        }
        debug_assert_eq!(mi, moves.len(), "move for out-of-range player");
        std::mem::swap(&mut self.strat_offsets, &mut scratch.new_offsets);
        std::mem::swap(&mut self.strat_targets, &mut scratch.new_targets);
        self.rebuild_adjacency(&mut scratch.edges);
    }

    /// Re-derives `graph` from the strategy rows via the counting-sort
    /// CSR builder; `edges` is a reused staging buffer.
    fn rebuild_adjacency(&mut self, edges: &mut Vec<(NodeId, NodeId)>) {
        edges.clear();
        edges.reserve(self.strat_targets.len());
        for u in 0..self.n as NodeId {
            for &v in self.strategy(u) {
                edges.push((u, v));
            }
        }
        self.graph.rebuild_from_edges(self.n, edges);
    }

    /// Checks every representation invariant; returns the first
    /// violation found. Meant for tests and debug assertions, not hot
    /// paths (`O(n + m log m)`).
    pub fn validate(&self) -> Result<(), String> {
        if self.strat_offsets.len() != self.n + 1 {
            return Err(format!(
                "offsets length {} != n + 1 = {}",
                self.strat_offsets.len(),
                self.n + 1
            ));
        }
        for u in 0..self.n as NodeId {
            let row = self.strategy(u);
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("strategy row {u} not sorted/deduplicated"));
            }
            if row.contains(&u) {
                return Err(format!("player {u} buys a self-loop"));
            }
            if row.iter().any(|&v| v as usize >= self.n) {
                return Err(format!("player {u} buys out of range"));
            }
        }
        let rebuilt = CsrGraph::from_edges(
            self.n,
            &(0..self.n as NodeId)
                .flat_map(|u| self.strategy(u).iter().map(move |&v| (u, v)))
                .collect::<Vec<_>>(),
        );
        if rebuilt != self.graph {
            return Err("adjacency out of sync with strategy rows".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn from_strategies_builds_union_graph() {
        let s = GameState::from_strategies(4, vec![vec![1], vec![0, 2], vec![], vec![2]]);
        // (0,1) double-bought → one edge; (1,2); (3,2).
        assert_eq!(s.graph().edge_count(), 3);
        assert_eq!(s.total_bought(), 4);
        assert!(s.owns(0, 1) && s.owns(1, 0));
        assert!(s.validate().is_ok());
    }

    #[test]
    fn incoming_lists_other_players_purchases() {
        let s = GameState::from_strategies(4, vec![vec![1], vec![0, 2], vec![], vec![2]]);
        assert_eq!(s.incoming(2), vec![1, 3]);
        assert_eq!(s.incoming(0), vec![1]);
        assert_eq!(s.incoming(3), Vec::<NodeId>::new());
    }

    #[test]
    fn set_strategy_keeps_double_bought_edges() {
        let mut s = GameState::from_strategies(3, vec![vec![1], vec![0], vec![]]);
        // 0 drops her purchase of (0,1); 1 still owns it → edge stays.
        s.set_strategy(0, vec![]);
        assert!(s.graph().neighbors(0).contains(&1));
        assert_eq!(s.bought(0), 0);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn set_strategy_removes_solely_owned_edges() {
        let mut s = GameState::from_strategies(3, vec![vec![1, 2], vec![], vec![]]);
        s.set_strategy(0, vec![2]);
        assert_eq!(s.graph().neighbors(0), &[2]);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn set_strategy_adds_new_edges() {
        let mut s = GameState::new(4);
        s.set_strategy(0, vec![3, 1]);
        assert_eq!(s.strategy(0), &[1, 3]);
        assert_eq!(s.graph().edge_count(), 2);
    }

    #[test]
    fn edge_diff_reports_added_removed_and_ownership() {
        // 0 and 1 both own (0,1); 0 also owns (0,2).
        let mut s = GameState::from_strategies(4, vec![vec![1, 2], vec![0], vec![], vec![]]);
        // 0 drops both purchases and buys 3: (0,2) is a real removal,
        // (0,1) survives via 1's ownership (ownership change), (0,3)
        // is a real addition.
        let diff = s.set_strategy(0, vec![3]);
        assert_eq!(diff.player, 0);
        assert_eq!(diff.added, vec![3]);
        assert_eq!(diff.removed, vec![2]);
        assert_eq!(diff.ownership, vec![1]);
        assert!(diff.changed);
        let touched: Vec<NodeId> = diff.touched().collect();
        assert_eq!(touched, vec![0, 3, 2, 1]);
        // Re-buying an edge the other endpoint owns is ownership-only.
        let diff = s.set_strategy(0, vec![1, 3]);
        assert!(diff.added.is_empty() && diff.removed.is_empty());
        assert_eq!(diff.ownership, vec![1]);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn edge_diff_noop_move_is_flagged() {
        let mut s = GameState::from_strategies(3, vec![vec![1], vec![2], vec![]]);
        let diff = s.set_strategy(0, vec![1, 1]); // normalises to current
        assert!(diff.is_noop());
        assert!(diff.added.is_empty() && diff.removed.is_empty() && diff.ownership.is_empty());
        let diff = s.set_strategy(0, vec![2]);
        assert!(!diff.is_noop());
        assert_eq!(diff.added, vec![2]);
        assert_eq!(diff.removed, vec![1]);
    }

    #[test]
    fn incoming_into_matches_incoming() {
        let s = GameState::from_strategies(4, vec![vec![1], vec![0, 2], vec![], vec![2]]);
        let mut buf = vec![99];
        for u in 0..4 {
            s.incoming_into(u, &mut buf);
            assert_eq!(buf, s.incoming(u));
        }
    }

    #[test]
    fn set_strategy_dedups() {
        let mut s = GameState::new(3);
        s.set_strategy(0, vec![1, 1, 2, 1]);
        assert_eq!(s.strategy(0), &[1, 2]);
        assert_eq!(s.graph().edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot buy an edge to herself")]
    fn self_purchase_panics() {
        GameState::from_strategies(2, vec![vec![0], vec![]]);
    }

    #[test]
    fn cycle_successor_profile() {
        let s = GameState::cycle_successor(5);
        assert_eq!(s.graph().edge_count(), 5);
        for u in 0..5u32 {
            assert_eq!(s.bought(u), 1);
            assert!(s.owns(u, (u + 1) % 5));
        }
        assert!(s.validate().is_ok());
    }

    #[test]
    fn cycle_successor_tiny() {
        assert_eq!(GameState::cycle_successor(2).graph().edge_count(), 1);
        assert_eq!(GameState::cycle_successor(1).graph().edge_count(), 0);
    }

    #[test]
    fn star_profile() {
        let s = GameState::star_center_owned(6);
        assert_eq!(s.bought(0), 5);
        assert_eq!(s.max_bought(), 5);
        assert_eq!(s.graph().max_degree(), 5);
    }

    #[test]
    fn random_ownership_covers_every_edge_once() {
        let g = ncg_graph::generators::gnp(40, 0.2, &mut ChaCha8Rng::seed_from_u64(3)).unwrap();
        let s = GameState::from_graph_random_ownership(&g, &mut ChaCha8Rng::seed_from_u64(4));
        assert_eq!(s.total_bought(), g.edge_count());
        assert_eq!(s.graph(), &CsrGraph::from_graph(&g));
        assert!(s.validate().is_ok());
    }

    #[test]
    fn explicit_ownership() {
        let g = ncg_graph::generators::path(4);
        // Always the larger endpoint buys.
        let s = GameState::from_graph_with_owners(&g, |u, v| u.max(v));
        assert_eq!(s.strategy(1), &[0]);
        assert_eq!(s.strategy(2), &[1]);
        assert_eq!(s.strategy(3), &[2]);
        assert_eq!(s.bought(0), 0);
    }

    #[test]
    fn validate_rejects_tampered_state() {
        let mut bad = GameState::cycle_successor(4);
        // Corrupt: player 0 claims to buy an edge the graph lacks.
        bad.strat_targets[0] = 2;
        assert!(bad.validate().is_err());
        // And a strategy row that is not strictly sorted.
        let mut bad = GameState::from_strategies(3, vec![vec![1, 2], vec![], vec![]]);
        bad.strat_targets.swap(0, 1);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn round_trips_through_game_state() {
        let gs = GameState::from_strategies(4, vec![vec![1, 2], vec![2], vec![], vec![0]]);
        let ss = GameState::from_owned_edges(4, &[(3, 0), (0, 2), (1, 2), (0, 1)]);
        assert!(ss.validate().is_ok());
        assert_eq!(ss, gs);
        assert_eq!(ss.bought(0), 2);
        assert!(ss.owns(0, 2));
        assert!(!ss.owns(2, 0));
        let mut inc = Vec::new();
        ss.incoming_into(2, &mut inc);
        assert_eq!(inc, vec![0, 1]);
    }

    #[test]
    fn from_owned_edges_collapses_duplicates() {
        let ss = GameState::from_owned_edges(3, &[(0, 2), (0, 1), (0, 2), (1, 2)]);
        assert_eq!(ss.strategy(0), &[1, 2]);
        assert_eq!(ss.strategy(1), &[2]);
        assert_eq!(ss.total_bought(), 3);
        // Double-buy 0->2 and 1->2: the induced network still has one
        // edge per pair.
        assert_eq!(ss.graph().edge_count(), 3);
        assert!(ss.validate().is_ok());
    }

    #[test]
    fn apply_moves_matches_set_strategy() {
        let gs = GameState::from_strategies(4, vec![vec![1], vec![2], vec![3], vec![0]]);
        let mut ss = gs.clone();
        let mut scratch = ApplyScratch::default();
        ss.apply_moves(&[(1, vec![0, 3]), (2, vec![])], &mut scratch);
        assert!(ss.validate().is_ok());

        let mut expected = gs;
        expected.set_strategy(1, vec![0, 3]);
        expected.set_strategy(2, vec![]);
        assert_eq!(ss, expected);

        // A second batch reuses the swapped-out buffers.
        ss.apply_moves(&[(0, vec![2])], &mut scratch);
        assert!(ss.validate().is_ok());
        assert_eq!(ss.strategy(0), &[2]);
    }

    /// The adjacency-list state the flat layout replaced: strategies as
    /// `Vec<Vec>` and a mutable [`Graph`] patched edge by edge. Kept
    /// here as the oracle for [`GameState::set_strategy`].
    struct ListState {
        strategies: Vec<Vec<NodeId>>,
        graph: Graph,
    }

    impl ListState {
        fn owns(&self, u: NodeId, v: NodeId) -> bool {
            self.strategies[u as usize].binary_search(&v).is_ok()
        }

        fn set_strategy(&mut self, u: NodeId, mut new_strategy: Vec<NodeId>) -> EdgeDiff {
            new_strategy.sort_unstable();
            new_strategy.dedup();
            let old = std::mem::take(&mut self.strategies[u as usize]);
            let mut diff = EdgeDiff { player: u, ..EdgeDiff::default() };
            for &v in &old {
                if new_strategy.binary_search(&v).is_err() {
                    if self.owns(v, u) {
                        diff.ownership.push(v);
                    } else {
                        self.graph.remove_edge(u, v);
                        diff.removed.push(v);
                    }
                }
            }
            for &v in &new_strategy {
                if old.binary_search(&v).is_err() {
                    if self.graph.add_edge(u, v) {
                        diff.added.push(v);
                    } else {
                        diff.ownership.push(v);
                    }
                }
            }
            diff.changed = old != new_strategy;
            self.strategies[u as usize] = new_strategy;
            diff
        }
    }

    #[test]
    fn flat_mutation_matches_adjacency_list_oracle() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        for trial in 0..40 {
            let n = rng.random_range(2..24usize);
            let g = ncg_graph::generators::gnp(n, 0.2, &mut rng).unwrap();
            let mut state = GameState::from_graph_random_ownership(&g, &mut rng);
            let mut oracle = ListState {
                strategies: (0..n as NodeId).map(|u| state.strategy(u).to_vec()).collect(),
                graph: g,
            };
            let random_strategy = |rng: &mut ChaCha8Rng, u: NodeId| -> Vec<NodeId> {
                let len = rng.random_range(0..4usize);
                (0..len).map(|_| rng.random_range(0..n as NodeId)).filter(|&v| v != u).collect()
            };
            let start = state.clone();
            let mut batch: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
            for step in 0..30 {
                let u = rng.random_range(0..n as NodeId);
                let sigma = match rng.random_range(0..4u32) {
                    // No-op: the current strategy, possibly shuffled
                    // with a duplicate.
                    0 => {
                        let mut s = state.strategy(u).to_vec();
                        s.extend(s.first().copied());
                        s.reverse();
                        s
                    }
                    // Double-buy: purchase edges whose other endpoint
                    // already owns them.
                    1 => state.incoming(u),
                    _ => random_strategy(&mut rng, u),
                };
                let diff = state.set_strategy(u, sigma.clone());
                let expected = oracle.set_strategy(u, sigma);
                let at = format!("trial {trial}, step {step}, player {u}");
                assert_eq!(diff, expected, "{at}: EdgeDiff");
                for v in 0..n as NodeId {
                    assert_eq!(state.strategy(v), &oracle.strategies[v as usize][..], "{at}");
                }
                assert_eq!(state.graph(), &CsrGraph::from_graph(&oracle.graph), "{at}: graph");
                assert!(state.validate().is_ok(), "{at}");
                // One move per player in the batch: the last wins.
                batch.retain(|(w, _)| *w != u);
                batch.push((u, state.strategy(u).to_vec()));
            }
            batch.sort_unstable_by_key(|(w, _)| *w);
            let mut batched = start;
            batched.apply_moves(&batch, &mut ApplyScratch::default());
            assert_eq!(batched, state, "trial {trial}: batch vs one at a time");
        }
    }
}
