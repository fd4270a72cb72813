//! Exact MaxNCG best response via the Section 5.3 reduction.
//!
//! To find player `u`'s best response inside her view `H`:
//!
//! 1. remove `u`; let `forced` be the players owning an edge to `u`
//!    (those edges survive any move and cost her nothing);
//! 2. guess her post-move eccentricity `h`; her strategy `σ'` achieves
//!    eccentricity `≤ h` iff `σ' ∪ forced` dominates the
//!    `(h−1)`-th power of `H ∖ {u}` — equivalently, every other vertex
//!    is within distance `h−1` of `σ' ∪ forced` in `H ∖ {u}`;
//! 3. solve the constrained minimum dominating set for each `h` and
//!    take the best `α·|σ'| + h`.
//!
//! The paper solved step 3 with Gurobi; we use the exact
//! branch-and-bound of [`crate::engine`] (see DESIGN.md §4). A greedy
//! variant backs the ablation study.
//!
//! Because the coverage sets of consecutive guesses are nested
//! (`covers[s]` is the radius-`(h−1)` ball around `s`), the whole
//! per-`h` loop drives one persistent
//! [`DominationEngine`](crate::engine::DominationEngine): the
//! distance-bounded per-source BFS orders are computed once, and each
//! guess merely advances a cursor per source, feeding the new
//! distance-`(h−1)` pairs into the engine (`DESIGN.md` §4.3). The seed
//! implementation cloned every coverage set and rebuilt the dominator
//! transpose at every `h`.

use ncg_core::deviation::{current_total, evaluate_max};
use ncg_core::equilibrium::Deviation;
use ncg_core::{GameSpec, MoveRulePolicy, PlayerView};
use ncg_graph::{CsrGraph, NodeId};

use crate::bitset::BitSet;
use crate::bound::purchase_cutoff;
use crate::{Mode, SolverScratch};

/// Computes the MaxNCG best response for `view` under `spec`.
///
/// With [`Mode::Exact`] the result is an optimal strategy (ties broken
/// toward fewer edges, then lexicographically); with [`Mode::Greedy`]
/// the dominating sets are greedy approximations, so the result is a
/// valid but possibly suboptimal improving move — never worse than the
/// current strategy.
///
/// Creates a throwaway [`SolverScratch`] per call; hot loops should
/// hold one and call [`max_best_response_with`] instead.
pub fn max_best_response(spec: &GameSpec, view: &PlayerView, mode: Mode) -> Deviation {
    max_best_response_with(spec, view, mode, &mut SolverScratch::new())
}

/// [`max_best_response`] with caller-provided scratch: after warm-up,
/// repeated calls (per-round dynamics, LKE sweeps) reuse the BFS
/// buffers, the flattened APSP orders, and the incremental domination
/// engine across views.
pub fn max_best_response_with(
    spec: &GameSpec,
    view: &PlayerView,
    mode: Mode,
    scratch: &mut SolverScratch,
) -> Deviation {
    debug_assert!(
        spec.edge_cost.is_uniform() && spec.move_rule == MoveRulePolicy::AnySubset,
        "the max engine's ⌈slack/α⌉ cutoff is only sound for uniform \
         edge costs and subset moves; other scenarios must go through \
         front::best_response_with"
    );
    let n_local = view.len();
    let mut best =
        Deviation { strategy_local: view.purchases.clone(), total_cost: current_total(spec, view) };
    if n_local <= 1 {
        return Deviation { strategy_local: Vec::new(), total_cost: spec.total_cost(0, Some(0)) };
    }
    // Eccentricity guesses at or above the current best total cost can
    // never win (any strategy with eccentricity h costs at least h),
    // and eccentricities in H' never exceed |H| — so both the guess
    // loop and the BFS sweep below are bounded by `h_cap`.
    let h_cap = largest_useful_h(best.total_cost, n_local);
    if h_cap == 0 {
        return best;
    }
    // Distance-bounded per-source sweep of H ∖ {center}, recording the
    // BFS visit orders: coverage growth below is pure cursor
    // advancement over these.
    sweep_minus_center(scratch, view, h_cap - 1);
    // Universe: every vertex except the center.
    let mut universe = BitSet::full(n_local);
    universe.remove(view.center);
    scratch.engine.reset(universe, &view.incoming);
    // One fan-out decision per view (not per guess).
    let workers = scratch.parallel.workers(n_local);
    for h in 1..=h_cap {
        if h as f64 >= best.total_cost - ncg_core::EPS {
            break;
        }
        // Grow coverage to radius h−1: feed pairs at distance exactly
        // h−1 to the engine (each source's cursor has already consumed
        // everything closer).
        grow_covers_to(scratch, h - 1);
        // Only solutions with α·extra + h < best are interesting
        // (shared cutoff arithmetic: crate::bound).
        let cutoff = purchase_cutoff(best.total_cost, h as f64, spec.alpha);
        if cutoff == 0 {
            continue;
        }
        let solution = match mode {
            // Large views fan the branch-and-bound out over the
            // work-stealing pool per the scratch's policy; the
            // two-pass canonical rule keeps the result bit-identical
            // to the sequential solve (DESIGN.md §8).
            Mode::Exact if workers > 1 => {
                scratch.engine.solve_exact_parallel(cutoff, workers, scratch.parallel.per_worker)
            }
            Mode::Exact => scratch.engine.solve_exact(cutoff),
            Mode::Greedy => scratch.engine.solve_greedy().filter(|s| s.len() < cutoff),
        };
        let Some(strategy) = solution else { continue };
        // `strategy` is already sorted with forced elements excluded.
        debug_assert!(strategy.iter().all(|s| !view.incoming.contains(s)));
        // Re-evaluate exactly (the true eccentricity may be < h).
        let eval = evaluate_max(view, &strategy, &mut scratch.eval);
        let cost = spec.total_cost(strategy.len(), eval.usage());
        if is_better(spec, &strategy, cost, &best) {
            best = Deviation { strategy_local: strategy, total_cost: cost };
        }
    }
    best
}

/// The *seed* best-response loop, kept verbatim as the reference
/// baseline: all-pairs BFS rows, then one freshly cloned
/// [`DominationInstance`](crate::dominating::DominationInstance) per
/// eccentricity guess. Returns the optimal total cost only.
///
/// [`max_best_response`] must be cost-identical to this — the parity
/// proptest asserts it, and the `er100_full_view_rebuild` bench
/// measures the gap the incremental engine closes. Not for production
/// use.
pub fn max_best_response_cost_rebuild(spec: &GameSpec, view: &PlayerView) -> f64 {
    use crate::dominating::DominationInstance;
    use ncg_core::deviation::EvalScratch;
    use ncg_graph::bfs::DistanceBuffer;

    let n_local = view.len();
    let mut best_cost = current_total(spec, view);
    if n_local <= 1 {
        return spec.total_cost(0, Some(0));
    }
    let csr = CsrGraph::from_graph(&view.graph_minus_center);
    let mut buf = DistanceBuffer::with_capacity(n_local);
    let dist: Vec<Vec<u32>> = (0..n_local as NodeId)
        .map(|s| {
            if s == view.center {
                vec![ncg_graph::INFINITY; n_local]
            } else {
                csr.bfs(s, &mut buf);
                buf.distances().to_vec()
            }
        })
        .collect();
    let mut universe = BitSet::full(n_local);
    universe.remove(view.center);
    let mut covers: Vec<BitSet> = vec![BitSet::new(n_local); n_local];
    let mut scratch = EvalScratch::new();
    for h in 1..=n_local as u32 {
        if h as f64 >= best_cost - ncg_core::EPS {
            break;
        }
        let r = h - 1;
        for s in 0..n_local {
            if s == view.center as usize {
                continue;
            }
            for v in 0..n_local as u32 {
                if v != view.center && dist[s][v as usize] == r {
                    covers[s].insert(v);
                }
            }
        }
        let inst = DominationInstance {
            covers: covers.clone(),
            universe: universe.clone(),
            forced: view.incoming.clone(),
        };
        let cutoff = purchase_cutoff(best_cost, h as f64, spec.alpha);
        if cutoff == 0 {
            continue;
        }
        let Some(extra) = inst.solve_exact(cutoff) else { continue };
        let eval = evaluate_max(view, &extra, &mut scratch);
        let cost = spec.total_cost(extra.len(), eval.usage());
        if GameSpec::strictly_better(cost, best_cost) {
            best_cost = cost;
        }
    }
    best_cost
}

/// Largest `h` the guess loop can enter: `h < total_cost − ε`, capped
/// by the view size.
fn largest_useful_h(total_cost: f64, n_local: usize) -> u32 {
    let m = (total_cost - ncg_core::EPS).ceil() - 1.0;
    if m <= 0.0 {
        0
    } else if m >= n_local as f64 {
        n_local as u32
    } else {
        m as u32
    }
}

fn is_better(_spec: &GameSpec, strategy: &[NodeId], cost: f64, best: &Deviation) -> bool {
    GameSpec::strictly_better(cost, best.total_cost)
        || ((cost - best.total_cost).abs() <= ncg_core::EPS
            && (strategy.len() < best.strategy_local.len()
                || (strategy.len() == best.strategy_local.len()
                    && *strategy < best.strategy_local[..])))
}

/// Bounded per-source BFS on `view.graph_minus_center`, recording each
/// source's visit order (non-decreasing distance) into the scratch's
/// flat arrays. The center is skipped as a source (it cannot be
/// bought) and never appears as a target (it is detached in
/// `H ∖ {center}`).
///
/// Runs on a frozen [`CsrGraph`] through the same batched frontier
/// kernel as view extraction (`ncg_graph::bfs`): the reduction sweeps
/// the whole adjacency once per source, which is exactly the access
/// pattern the contiguous layout is for.
fn sweep_minus_center(scratch: &mut SolverScratch, view: &PlayerView, limit: u32) {
    let n = view.len();
    let csr = CsrGraph::from_graph(&view.graph_minus_center);
    scratch.ord_node.clear();
    scratch.ord_dist.clear();
    scratch.offsets.clear();
    scratch.offsets.push(0);
    for s in 0..n as NodeId {
        if s != view.center {
            csr.bfs_bounded(s, limit, &mut scratch.buf);
            for &v in scratch.buf.visited() {
                scratch.ord_node.push(v);
                scratch.ord_dist.push(scratch.buf.dist(v));
            }
        }
        scratch.offsets.push(scratch.ord_node.len());
    }
    scratch.cursors.clear();
    scratch.cursors.extend_from_slice(&scratch.offsets[..n]);
}

/// Advances every source cursor through pairs at distance `≤ r`,
/// feeding them to the engine. Monotone: call with increasing `r`.
fn grow_covers_to(scratch: &mut SolverScratch, r: u32) {
    let n = scratch.offsets.len() - 1;
    for s in 0..n {
        let end = scratch.offsets[s + 1];
        let mut c = scratch.cursors[s];
        while c < end && scratch.ord_dist[c] <= r {
            scratch.engine.add_pair(s as u32, scratch.ord_node[c]);
            c += 1;
        }
        scratch.cursors[s] = c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_core::equilibrium::best_response_exhaustive;
    use ncg_core::GameState;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn assert_matches_exhaustive(state: &GameState, spec: &GameSpec) {
        for u in 0..state.n() as NodeId {
            let view = PlayerView::build(state, u, spec.k);
            let exhaustive = best_response_exhaustive(spec, &view).unwrap();
            let solver = max_best_response(spec, &view, Mode::Exact);
            assert!(
                (solver.total_cost - exhaustive.total_cost).abs() < 1e-9,
                "u={u}, α={}, k={}: solver {} vs exhaustive {} (solver strat {:?}, exh {:?})",
                spec.alpha,
                spec.k,
                solver.total_cost,
                exhaustive.total_cost,
                solver.strategy_local,
                exhaustive.strategy_local,
            );
        }
    }

    #[test]
    fn matches_exhaustive_on_cycles() {
        for n in [6usize, 9, 12] {
            let state = GameState::cycle_successor(n);
            for k in [1u32, 2, 3] {
                for alpha in [0.025, 0.3, 1.0, 2.5, 8.0] {
                    assert_matches_exhaustive(&state, &GameSpec::max(alpha, k));
                }
            }
        }
    }

    #[test]
    fn matches_exhaustive_on_random_trees() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for _ in 0..6 {
            let tree = ncg_graph::generators::random_tree(14, &mut rng);
            let state = GameState::from_graph_random_ownership(&tree, &mut rng);
            for k in [2u32, 3] {
                for alpha in [0.1, 1.0, 5.0] {
                    assert_matches_exhaustive(&state, &GameSpec::max(alpha, k));
                }
            }
        }
    }

    #[test]
    fn matches_exhaustive_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        for _ in 0..6 {
            let g = ncg_graph::generators::gnp_connected(13, 0.25, 100, &mut rng).unwrap();
            let state = GameState::from_graph_random_ownership(&g, &mut rng);
            for k in [2u32, 4] {
                for alpha in [0.05, 0.7, 2.0] {
                    assert_matches_exhaustive(&state, &GameSpec::max(alpha, k));
                }
            }
        }
    }

    #[test]
    fn isolated_player_returns_empty_strategy() {
        let state = GameState::new(3);
        let view = PlayerView::build(&state, 0, 5);
        let d = max_best_response(&GameSpec::max(1.0, 5), &view, Mode::Exact);
        assert!(d.strategy_local.is_empty());
        assert_eq!(d.total_cost, 0.0);
    }

    #[test]
    fn star_leaf_keeps_quiet_for_expensive_edges() {
        let state = GameState::star_center_owned(10);
        let spec = GameSpec::max(3.0, 3);
        let view = PlayerView::build(&state, 4, spec.k);
        let d = max_best_response(&spec, &view, Mode::Exact);
        // Leaf cost: 0 edges + ecc 2 = 2; nothing beats it at α=3.
        assert!(d.strategy_local.is_empty());
        assert!((d.total_cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn star_center_cannot_improve() {
        let state = GameState::star_center_owned(10);
        let spec = GameSpec::max(2.0, 3);
        let view = PlayerView::build(&state, 0, spec.k);
        let d = max_best_response(&spec, &view, Mode::Exact);
        assert!((d.total_cost - (9.0 * 2.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn path_end_buys_shortcut_when_cheap() {
        // Path 0-..-8; player 0 owns (0,1), k big. With α tiny she
        // should buy shortcuts and drop her eccentricity.
        let mut strategies: Vec<Vec<NodeId>> = vec![Vec::new(); 9];
        for (i, sigma) in strategies.iter_mut().enumerate().take(8) {
            sigma.push((i + 1) as NodeId);
        }
        let state = GameState::from_strategies(9, strategies);
        let spec = GameSpec::max(0.1, 100);
        let view = PlayerView::build(&state, 0, spec.k);
        let d = max_best_response(&spec, &view, Mode::Exact);
        let current = current_total(&spec, &view);
        assert!(d.total_cost < current - 1.0, "expected a big improvement");
        assert!(d.strategy_local.len() >= 2);
    }

    #[test]
    fn greedy_never_beats_exact_and_never_worse_than_current() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        for _ in 0..5 {
            let g = ncg_graph::generators::gnp_connected(20, 0.15, 100, &mut rng).unwrap();
            let state = GameState::from_graph_random_ownership(&g, &mut rng);
            for alpha in [0.2, 1.0, 4.0] {
                let spec = GameSpec::max(alpha, 3);
                for u in 0..state.n() as NodeId {
                    let view = PlayerView::build(&state, u, spec.k);
                    let exact = max_best_response(&spec, &view, Mode::Exact);
                    let greedy = max_best_response(&spec, &view, Mode::Greedy);
                    let current = current_total(&spec, &view);
                    assert!(exact.total_cost <= greedy.total_cost + 1e-9);
                    assert!(greedy.total_cost <= current + 1e-9);
                }
            }
        }
    }

    #[test]
    fn full_knowledge_best_response_solves_larger_views() {
        // A 40-node connected G(n,p): the exact solver must handle the
        // full-view best response quickly (this is the paper's n=100+
        // regime scaled down for unit-test time).
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let g = ncg_graph::generators::gnp_connected(40, 0.1, 100, &mut rng).unwrap();
        let state = GameState::from_graph_random_ownership(&g, &mut rng);
        let spec = GameSpec::max(1.0, 1000);
        for u in 0..5 {
            let view = PlayerView::build(&state, u, spec.k);
            let d = max_best_response(&spec, &view, Mode::Exact);
            assert!(d.total_cost <= current_total(&spec, &view) + 1e-9);
        }
    }
}
