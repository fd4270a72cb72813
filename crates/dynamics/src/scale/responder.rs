//! CSR-native greedy best-response for the million-node tier.
//!
//! The exact tier answers "what should player `u` do?" by building a
//! [`PlayerView`](ncg_core::PlayerView) — a materialised `Graph` of
//! the radius-`k` ball — and running an exact engine over it. At
//! `n = 10^6` that allocates a graph per player per round. This
//! responder never builds a `Graph`: it works on flat distance arrays
//! produced by local BFS over an induced-ball CSR assembled in
//! epoch-stamped scratch, and climbs the same
//! add/drop/swap neighbourhood as [`ncg_solver::front::hill_climb`]
//! with the identical cost → fewer-edges → lexicographic tie-break.
//!
//! **Approximation contract.** On balls with at most
//! [`ScaleResponderConfig::exhaustive_ball`] candidates the
//! neighbourhood is the full hill-climb neighbourhood, so a returned
//! move matches `hill_climb` exactly (and the exact engines whenever
//! the optimum is one move away). On larger balls only the
//! [`ScaleResponderConfig::max_add_candidates`] farthest ball nodes
//! (ties towards smaller id) are considered as new endpoints — the
//! nodes a shortcut helps most. Every *returned* move is still scored
//! exactly: costs come from the same worst-case deviation semantics
//! as [`ncg_core::deviation`] (Propositions 2.1/2.2 of the paper),
//! so a move is only proposed when it is **provably** strictly
//! improving; approximation can only cause a missed improvement,
//! never a false one.

use ncg_core::{EdgeCostModel, GameSpec, GameState, MoveRulePolicy, Objective};
use ncg_graph::bfs::DistanceBuffer;
use ncg_graph::{CsrGraph, NodeId, INFINITY};
use ncg_solver::bound::purchase_cutoff;

/// Sentinel "no node skipped" for the local BFS kernel.
const NO_SKIP: u32 = u32::MAX;

/// Knobs bounding the responder's work per player.
#[derive(Debug, Clone, Copy)]
pub struct ScaleResponderConfig {
    /// On balls with more candidates than [`Self::exhaustive_ball`],
    /// only this many add-endpoints are considered (the farthest ball
    /// nodes, ties towards smaller id).
    pub max_add_candidates: usize,
    /// Candidate-count threshold up to which the full hill-climb
    /// neighbourhood is used and the responder matches
    /// [`ncg_solver::front::hill_climb`] move for move.
    pub exhaustive_ball: usize,
    /// Cap on steepest-descent steps per response (each step strictly
    /// decreases the cost, so this bounds work, not correctness).
    pub max_steps: usize,
}

impl Default for ScaleResponderConfig {
    fn default() -> Self {
        ScaleResponderConfig { max_add_candidates: 4, exhaustive_ball: 64, max_steps: 8 }
    }
}

/// A strictly improving strategy rewrite found by [`respond`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleMove {
    /// The moving player.
    pub player: NodeId,
    /// Replacement strategy in global ids, sorted ascending.
    pub strategy: Vec<NodeId>,
    /// Exact total cost of the player's current strategy.
    pub old_cost: f64,
    /// Exact total cost of [`Self::strategy`] (strictly lower).
    pub new_cost: f64,
}

/// Reusable buffers for [`respond`]: an epoch-stamped global→local
/// map sized to the full graph plus ball-sized work arrays. One
/// instance per worker thread; `O(n)` once, then allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ScaleScratch {
    epoch: u32,
    stamp: Vec<u32>,
    local_of: Vec<u32>,
    loc_offsets: Vec<u32>,
    loc_targets: Vec<u32>,
    dist0: Vec<u32>,
    base: Vec<u32>,
    row_tmp: Vec<u32>,
    fields: Vec<u32>,
    src_ids: Vec<u32>,
    queue: Vec<u32>,
    purchases: Vec<u32>,
    incoming_globals: Vec<NodeId>,
    incoming: Vec<u32>,
    cand: Vec<u32>,
    sel: Vec<(u32, u32)>,
    current: Vec<u32>,
    trial: Vec<u32>,
    best: Vec<u32>,
    rows: Vec<usize>,
}

impl ScaleScratch {
    /// Fresh scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new epoch of the global→local stamp map, growing it
    /// to `n` slots if needed.
    fn begin_epoch(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.local_of.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Radius-`k` ball of `u` in `g`, sorted ascending into `out`.
    ///
    /// Unlike [`collect_ball`] this costs `O(|ball| + ball edges)` —
    /// visited bookkeeping is epoch-stamped, so there is no `O(n)`
    /// buffer reset per call. That is the difference between a
    /// million-player round taking seconds and taking hours: the
    /// whole-graph kernels ([`ncg_graph::bfs`], [`ncg_graph::batch`])
    /// pay a full-array clear per (batch of) source(s), which
    /// amortises for global metrics but not for a million tiny balls.
    pub fn discover_ball(&mut self, g: &CsrGraph, u: NodeId, k: u32, out: &mut Vec<NodeId>) {
        self.begin_epoch(g.node_count());
        let epoch = self.epoch;
        out.clear();
        // `local_of` doubles as the distance store during discovery;
        // `respond` re-stamps it with its own epoch afterwards.
        self.queue.clear();
        self.stamp[u as usize] = epoch;
        self.local_of[u as usize] = 0;
        self.queue.push(u);
        out.push(u);
        let mut head = 0usize;
        while head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            let d = self.local_of[v as usize];
            if d == k {
                continue;
            }
            for &w in g.neighbors(v) {
                if self.stamp[w as usize] != epoch {
                    self.stamp[w as usize] = epoch;
                    self.local_of[w as usize] = d + 1;
                    self.queue.push(w);
                    out.push(w);
                }
            }
        }
        out.sort_unstable();
    }
}

/// Collects the radius-`k` ball of `u` in `g` into `out`, sorted
/// ascending — the scalar-path equivalent of
/// [`BatchDistances::lane_ball_into`](ncg_graph::batch::BatchDistances::lane_ball_into).
pub fn collect_ball(
    g: &CsrGraph,
    u: NodeId,
    k: u32,
    buf: &mut DistanceBuffer,
    out: &mut Vec<NodeId>,
) {
    g.bfs_bounded(u, k, buf);
    out.clear();
    out.extend_from_slice(buf.visited());
    out.sort_unstable();
}

/// Unbounded BFS over the local induced-ball CSR from a set of
/// sources, optionally deleting one node (`skip`); distances land in
/// `dist` (resized to the ball, `INFINITY` where unreached).
fn local_bfs(
    offsets: &[u32],
    targets: &[u32],
    skip: u32,
    sources: &[u32],
    dist: &mut Vec<u32>,
    queue: &mut Vec<u32>,
) {
    let b = offsets.len() - 1;
    dist.clear();
    dist.resize(b, INFINITY);
    queue.clear();
    for &s in sources {
        if s != skip && dist[s as usize] == INFINITY {
            dist[s as usize] = 0;
            queue.push(s);
        }
    }
    let mut head = 0usize;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        let d = dist[v as usize] + 1;
        for &w in &targets[offsets[v as usize] as usize..offsets[v as usize + 1] as usize] {
            if w != skip && dist[w as usize] == INFINITY {
                dist[w as usize] = d;
                queue.push(w);
            }
        }
    }
}

/// Worst-case usage cost of a trial strategy, evaluated over the
/// precomputed distance fields: for every non-center ball node `v`,
/// `d(u, v) = 1 + min` over the trial's purchases (their field rows)
/// and the incoming sources (folded into `base`) of the source's
/// distance to `v` in the ball minus the center — exactly
/// Propositions 2.1/2.2. Returns `None` when the deviation
/// disconnects the ball or, under Sum, violates the frontier rule
/// (a vertex at distance exactly `k` whose nearest source sits at
/// distance `> k − 1`).
#[allow(clippy::too_many_arguments)]
fn usage_of(
    objective: Objective,
    k: u32,
    center: u32,
    dist0: &[u32],
    base: &[u32],
    fields: &[u32],
    row_offs: &[usize],
) -> Option<u64> {
    let b = dist0.len();
    if b == 1 {
        return Some(0);
    }
    let mut acc = 0u64;
    for v in 0..b {
        if v == center as usize {
            continue;
        }
        let mut d = base[v];
        for &ro in row_offs {
            d = d.min(fields[ro + v]);
        }
        if objective == Objective::Sum && dist0[v] == k && d > k - 1 {
            return None; // forbidden frontier
        }
        if d == INFINITY {
            return None; // disconnecting
        }
        match objective {
            Objective::Max => acc = acc.max(d as u64 + 1),
            Objective::Sum => acc += d as u64 + 1,
        }
    }
    Some(acc)
}

/// Scores `trial` and replaces the incumbent neighbour when it wins
/// under hill-climb's ordering: strictly better than the step's start
/// first, then cost → fewer edges → lexicographically smaller among
/// accepted neighbours.
#[allow(clippy::too_many_arguments)]
fn consider(
    spec: &GameSpec,
    center: u32,
    dist0: &[u32],
    base: &[u32],
    fields: &[u32],
    src_ids: &[u32],
    trial: &[u32],
    current_cost: f64,
    rows: &mut Vec<usize>,
    best: &mut Vec<u32>,
    best_cost: &mut f64,
    found: &mut bool,
) {
    let b = dist0.len();
    rows.clear();
    for &s in trial {
        let idx = src_ids.binary_search(&s).expect("trial member must be a field source");
        rows.push(idx * b);
    }
    let usage = usage_of(spec.objective, spec.k, center, dist0, base, fields, rows);
    let cost = spec.total_cost(trial.len(), usage);
    if !GameSpec::strictly_better(cost, current_cost) {
        return;
    }
    let wins = !*found
        || GameSpec::strictly_better(cost, *best_cost)
        || ((cost - *best_cost).abs() <= ncg_core::EPS
            && (trial.len() < best.len() || (trial.len() == best.len() && trial < &best[..])));
    if wins {
        best.clear();
        best.extend_from_slice(trial);
        *best_cost = cost;
        *found = true;
    }
}

/// Greedy best response for `u` over its radius-`k` ball (`ball` must
/// be the sorted ascending ball of `u` in `state.graph()`, center
/// included — [`collect_ball`] or a batched-BFS lane). Returns a
/// strictly improving move with exact old/new costs, or `None` when
/// the climb finds nothing better than the current strategy.
///
/// Only the paper's base scenario is supported (uniform edge cost,
/// any-subset moves) — asserted, because the count-based pruning via
/// [`purchase_cutoff`] is unsound otherwise.
pub fn respond(
    state: &GameState,
    spec: &GameSpec,
    cfg: &ScaleResponderConfig,
    u: NodeId,
    ball: &[NodeId],
    scratch: &mut ScaleScratch,
) -> Option<ScaleMove> {
    assert!(
        spec.edge_cost == EdgeCostModel::Uniform && spec.move_rule == MoveRulePolicy::AnySubset,
        "scale responder supports the uniform any-subset scenario only"
    );
    let b = ball.len();
    if b <= 1 {
        // An isolated player has no purchases and no candidates.
        return None;
    }
    scratch.begin_epoch(state.n());
    let ScaleScratch {
        epoch,
        stamp,
        local_of,
        loc_offsets,
        loc_targets,
        dist0,
        base,
        row_tmp,
        fields,
        src_ids,
        queue,
        purchases,
        incoming_globals,
        incoming,
        cand,
        sel,
        current,
        trial,
        best,
        rows,
    } = scratch;
    let epoch = *epoch;
    for (i, &g) in ball.iter().enumerate() {
        local_of[g as usize] = i as u32;
        stamp[g as usize] = epoch;
    }
    let center = ball.binary_search(&u).expect("ball must contain the center") as u32;

    // Induced-ball CSR in local ids. Rows stay sorted because global
    // adjacency rows are sorted and local ids are order-isomorphic.
    loc_offsets.clear();
    loc_offsets.push(0);
    loc_targets.clear();
    let graph = state.graph();
    for &g in ball {
        for &w in graph.neighbors(g) {
            if stamp[w as usize] == epoch {
                loc_targets.push(local_of[w as usize]);
            }
        }
        loc_offsets.push(loc_targets.len() as u32);
    }

    // Center's distances inside the ball (= the exact tier's
    // `view.dist`: radius-k shortest paths never leave the ball).
    local_bfs(loc_offsets, loc_targets, NO_SKIP, &[center], dist0, queue);

    purchases.clear();
    purchases.extend(state.strategy(u).iter().map(|&v| local_of[v as usize]));
    state.incoming_into(u, incoming_globals);
    incoming.clear();
    incoming.extend(incoming_globals.iter().map(|&v| local_of[v as usize]));

    // Distance fields on the ball minus the center: one shared
    // multi-source row for the incoming sources, one row per possible
    // purchase endpoint (current purchases ∪ add candidates).
    local_bfs(loc_offsets, loc_targets, center, incoming, base, queue);

    cand.clear();
    if b - 1 <= cfg.exhaustive_ball {
        cand.extend((0..b as u32).filter(|&v| v != center));
    } else {
        sel.clear();
        for v in 0..b as u32 {
            if v == center {
                continue;
            }
            let d = dist0[v as usize];
            let pos = sel.partition_point(|&(pd, pv)| pd > d || (pd == d && pv < v));
            if pos < cfg.max_add_candidates.max(1) {
                sel.insert(pos, (d, v));
                sel.truncate(cfg.max_add_candidates.max(1));
            }
        }
        cand.extend(sel.iter().map(|&(_, v)| v));
        cand.sort_unstable();
    }

    src_ids.clear();
    src_ids.extend_from_slice(purchases);
    src_ids.extend_from_slice(cand);
    src_ids.sort_unstable();
    src_ids.dedup();
    fields.clear();
    for &s in src_ids.iter() {
        local_bfs(loc_offsets, loc_targets, center, &[s], row_tmp, queue);
        fields.extend_from_slice(row_tmp);
    }

    // Baseline: the current strategy scored through the same fields.
    // By the worst-case deviation identity this equals the view-based
    // current cost bit for bit (every shortest path from the center
    // starts at a purchase or an incoming neighbour).
    current.clear();
    current.extend_from_slice(purchases);
    rows.clear();
    for &s in current.iter() {
        rows.push(src_ids.binary_search(&s).expect("purchase is a field source") * b);
    }
    let start_cost = spec.total_cost(
        current.len(),
        usage_of(spec.objective, spec.k, center, dist0, base, fields, rows),
    );
    let mut current_cost = start_cost;

    // Empty-strategy second seed, as in `hill_climb`: incoming edges
    // alone may keep the ball connected.
    let empty_usage = usage_of(spec.objective, spec.k, center, dist0, base, fields, &[]);
    let empty_cost = spec.total_cost(0, empty_usage);
    if GameSpec::strictly_better(empty_cost, current_cost) {
        current.clear();
        current_cost = empty_cost;
    }

    let usage_floor = match spec.objective {
        Objective::Max => 1.0,
        Objective::Sum => (b - 1) as f64,
    };
    for _step in 0..cfg.max_steps {
        let mut found = false;
        let mut best_cost = f64::INFINITY;
        best.clear();
        let cutoff = purchase_cutoff(current_cost, usage_floor, spec.alpha);
        // Additions.
        if current.len() + 1 < cutoff {
            for &c in cand.iter() {
                if current.binary_search(&c).is_err() {
                    trial.clear();
                    trial.extend_from_slice(current);
                    let pos = trial.binary_search(&c).unwrap_err();
                    trial.insert(pos, c);
                    consider(
                        spec,
                        center,
                        dist0,
                        base,
                        fields,
                        src_ids,
                        trial,
                        current_cost,
                        rows,
                        best,
                        &mut best_cost,
                        &mut found,
                    );
                }
            }
        }
        // Removals (never prunable: they can only lower the purchase
        // bill).
        for i in 0..current.len() {
            trial.clear();
            trial.extend_from_slice(current);
            trial.remove(i);
            consider(
                spec,
                center,
                dist0,
                base,
                fields,
                src_ids,
                trial,
                current_cost,
                rows,
                best,
                &mut best_cost,
                &mut found,
            );
        }
        // Swaps: drop one purchase, add one candidate.
        if current.len() < cutoff {
            for i in 0..current.len() {
                for &c in cand.iter() {
                    if current.binary_search(&c).is_err() {
                        trial.clear();
                        trial.extend_from_slice(current);
                        trial.remove(i);
                        let pos = trial.binary_search(&c).unwrap_err();
                        trial.insert(pos, c);
                        consider(
                            spec,
                            center,
                            dist0,
                            base,
                            fields,
                            src_ids,
                            trial,
                            current_cost,
                            rows,
                            best,
                            &mut best_cost,
                            &mut found,
                        );
                    }
                }
            }
        }
        if !found {
            break;
        }
        std::mem::swap(current, best);
        current_cost = best_cost;
    }

    if current.as_slice() == purchases.as_slice() {
        return None;
    }
    debug_assert!(GameSpec::strictly_better(current_cost, start_cost));
    Some(ScaleMove {
        player: u,
        strategy: current.iter().map(|&l| ball[l as usize]).collect(),
        old_cost: start_cost,
        new_cost: current_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_core::deviation::evaluate_total;
    use ncg_core::{PlayerView, ViewScratch};

    fn exhaustive_cfg() -> ScaleResponderConfig {
        ScaleResponderConfig { exhaustive_ball: 1024, max_steps: 64, ..Default::default() }
    }

    /// Runs the responder for `u` and cross-checks every claimed cost
    /// against the exact tier's evaluator on a freshly built view.
    fn respond_checked(
        gs: &GameState,
        spec: &GameSpec,
        u: NodeId,
        cfg: &ScaleResponderConfig,
    ) -> Option<ScaleMove> {
        let mut scratch = ScaleScratch::new();
        let mut buf = DistanceBuffer::new();
        let mut ball = Vec::new();
        collect_ball(gs.graph(), u, spec.k, &mut buf, &mut ball);
        let mv = respond(gs, spec, cfg, u, &ball, &mut scratch);
        let view = PlayerView::build_with(gs, u, spec.k, &mut ViewScratch::new());
        let current = ncg_core::deviation::current_total(spec, &view);
        if let Some(mv) = &mv {
            assert_eq!(mv.old_cost.to_bits(), current.to_bits(), "old cost disagrees with view");
            let local: Vec<NodeId> = mv
                .strategy
                .iter()
                .map(|&g| view.sub.to_local(g).expect("move target must be in the ball"))
                .collect();
            let exact =
                evaluate_total(spec, &view, &local, &mut ncg_core::deviation::EvalScratch::new());
            assert_eq!(mv.new_cost.to_bits(), exact.to_bits(), "new cost disagrees with view");
            assert!(GameSpec::strictly_better(mv.new_cost, mv.old_cost));
        }
        mv
    }

    #[test]
    fn path_endpoint_shortcuts_like_the_exact_tier() {
        // Successor-buying path: the tail player can cut its
        // eccentricity by rewiring when edges are cheap.
        let n = 8;
        let strategies: Vec<Vec<NodeId>> =
            (0..n).map(|u| if u + 1 < n { vec![u as NodeId + 1] } else { vec![] }).collect();
        let gs = GameState::from_strategies(n, strategies);
        let spec = GameSpec::max(0.5, 3);
        let mv = respond_checked(&gs, &spec, 0, &exhaustive_cfg());
        assert!(mv.is_some(), "cheap edges must tempt the path head");
    }

    #[test]
    fn equilibrium_player_stands_pat() {
        // On a complete-ish clique with expensive edges, dropping all
        // purchases disconnects and single moves don't pay.
        let gs = GameState::from_strategies(3, vec![vec![1], vec![2], vec![0]]);
        let spec = GameSpec::max(0.9, 2);
        // Triangle, α < 1: every player already has eccentricity 1.
        assert!(respond_checked(&gs, &spec, 0, &exhaustive_cfg()).is_none());
    }

    #[test]
    fn truncated_candidates_still_score_exactly() {
        let n = 12;
        let strategies: Vec<Vec<NodeId>> =
            (0..n).map(|u| if u + 1 < n { vec![u as NodeId + 1] } else { vec![] }).collect();
        let gs = GameState::from_strategies(n, strategies);
        let spec = GameSpec::sum(1.0, 2);
        let cfg = ScaleResponderConfig {
            exhaustive_ball: 2,
            max_add_candidates: 2,
            ..Default::default()
        };
        for u in 0..n as NodeId {
            respond_checked(&gs, &spec, u, &cfg);
        }
    }
}
