//! The model-zoo scenario layer: pluggable usage costs, edge-cost
//! models, and move rules.
//!
//! The paper's two games differ in exactly one place — the usage cost
//! (eccentricity vs. status) — and the related work varies two more
//! axes the original `Objective` match sites could not express:
//!
//! * **Edge cost** ([`EdgeCost`] / [`EdgeCostModel`]): uniform `α` per
//!   edge (the paper) vs. non-uniform per-target pricing (Chauhan et
//!   al., PAPERS.md), where buying an edge towards `v` costs
//!   `α·w(v)` for a deterministic per-node multiplier `w(v)`.
//! * **Move rule** ([`MoveRule`] / [`MoveRulePolicy`]): buy any subset
//!   of the view (the paper) vs. *edge swaps* (Yamauchi & Yoshimura,
//!   PAPERS.md), where one move removes exactly one owned edge and
//!   adds one new one, keeping the purchase count invariant.
//!
//! A [`Scenario`] bundles one choice per axis;
//! [`Objective::usage_cost`] exposes the paper's two objectives as
//! canonical [`UsageCost`] instances ([`Eccentricity`], [`Status`]).
//! The default scenario (`Uniform` + `AnySubset`) reproduces the
//! paper's games bit for bit — every dispatch below keeps the exact
//! floating-point expressions of the pre-trait code (property-tested
//! across crates), and serialized [`GameSpec`]s only
//! mention the new axes when they are non-default, so old journals
//! keep round-tripping.

use ncg_graph::{metrics, CsrGraph, NodeId};
use serde::{Deserialize, Serialize};

use crate::deviation::{evaluate_max, evaluate_sum, DeviationEval, EvalScratch};
use crate::{GameSpec, Objective, PlayerView};

/// SplitMix64 finalizer: the deterministic hash behind per-target
/// price multipliers (same mixer as the sweep fingerprints).
#[inline]
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The usage-cost side of an objective: how a player's distances are
/// aggregated into the non-edge part of her cost.
///
/// [`Eccentricity`] (MaxNCG) and [`Status`] (SumNCG) are the canonical
/// instances, reachable from [`Objective::usage_cost`]. Every method
/// that replaces a pre-trait `match spec.objective` site keeps that
/// site's expression verbatim, so Max/Sum behavior is bit-identical
/// through the dispatch.
pub trait UsageCost: std::fmt::Debug + Sync {
    /// Worst-case usage of playing `strategy_local` from this view
    /// (Propositions 2.1/2.2 — the per-objective deviation semantics,
    /// including SumNCG's frontier rule).
    fn evaluate(
        &self,
        view: &PlayerView,
        strategy_local: &[NodeId],
        scratch: &mut EvalScratch,
    ) -> DeviationEval;

    /// The player's current usage as she perceives it inside her view.
    fn current_usage(&self, view: &PlayerView) -> u64;

    /// Usage from the batched BFS kernel's per-lane aggregates
    /// (`ncg_graph::batch`, the metrics path): `ecc` is the largest
    /// finite distance and `status` the sum of finite distances of the
    /// lane; `None` when the player does not reach everyone.
    fn aggregate_usage(&self, reaches_all: bool, ecc: u32, status: u64) -> Option<u64>;

    /// Per-vertex usages on the true (full-knowledge) graph.
    fn graph_usages(&self, g: &CsrGraph) -> Vec<Option<u64>>;

    /// One vertex's usage on the true graph.
    fn vertex_usage(&self, g: &CsrGraph, u: NodeId) -> Option<u64>;

    /// Closed-form social cost of the uniform-α spanning star on
    /// `n ≥ 3` nodes (the `n ≤ 2` degenerate cases are shared).
    fn star_cost_uniform(&self, n: f64, alpha: f64) -> f64;

    /// Closed-form social cost of the uniform-α clique on `n ≥ 2`.
    fn clique_cost_uniform(&self, n: f64, alpha: f64) -> f64;

    /// The usage part of the spanning-star social cost (`n ≥ 3`), for
    /// edge-cost models whose edge part must be computed per edge.
    fn star_usage(&self, n: f64) -> f64;

    /// The usage part of the clique social cost (`n ≥ 2`).
    fn clique_usage(&self, n: f64) -> f64;
}

/// MaxNCG's usage cost: the player's eccentricity (Eq. (2)).
#[derive(Debug, Clone, Copy, Default)]
pub struct Eccentricity;

impl UsageCost for Eccentricity {
    fn evaluate(
        &self,
        view: &PlayerView,
        strategy_local: &[NodeId],
        scratch: &mut EvalScratch,
    ) -> DeviationEval {
        evaluate_max(view, strategy_local, scratch)
    }

    fn current_usage(&self, view: &PlayerView) -> u64 {
        view.ecc_in_view() as u64
    }

    fn aggregate_usage(&self, reaches_all: bool, ecc: u32, _status: u64) -> Option<u64> {
        reaches_all.then_some(ecc as u64)
    }

    fn graph_usages(&self, g: &CsrGraph) -> Vec<Option<u64>> {
        metrics::eccentricities(g)
            .into_iter()
            .map(|e| if e == ncg_graph::INFINITY { None } else { Some(e as u64) })
            .collect()
    }

    fn vertex_usage(&self, g: &CsrGraph, u: NodeId) -> Option<u64> {
        metrics::eccentricity(g, u).map(|e| e as u64)
    }

    fn star_cost_uniform(&self, n: f64, alpha: f64) -> f64 {
        alpha * (n - 1.0) + 1.0 + 2.0 * (n - 1.0)
    }

    fn clique_cost_uniform(&self, n: f64, alpha: f64) -> f64 {
        alpha * n * (n - 1.0) / 2.0 + n
    }

    fn star_usage(&self, n: f64) -> f64 {
        1.0 + 2.0 * (n - 1.0)
    }

    fn clique_usage(&self, n: f64) -> f64 {
        n
    }
}

/// SumNCG's usage cost: the player's status, `Σ_v d(u, v)` (Eq. (1)).
#[derive(Debug, Clone, Copy, Default)]
pub struct Status;

impl UsageCost for Status {
    fn evaluate(
        &self,
        view: &PlayerView,
        strategy_local: &[NodeId],
        scratch: &mut EvalScratch,
    ) -> DeviationEval {
        evaluate_sum(view, strategy_local, scratch)
    }

    fn current_usage(&self, view: &PlayerView) -> u64 {
        view.status_in_view()
    }

    fn aggregate_usage(&self, reaches_all: bool, _ecc: u32, status: u64) -> Option<u64> {
        reaches_all.then_some(status)
    }

    fn graph_usages(&self, g: &CsrGraph) -> Vec<Option<u64>> {
        metrics::statuses(g)
    }

    fn vertex_usage(&self, g: &CsrGraph, u: NodeId) -> Option<u64> {
        metrics::status(g, u)
    }

    fn star_cost_uniform(&self, n: f64, alpha: f64) -> f64 {
        alpha * (n - 1.0) + 2.0 * (n - 1.0) * (n - 1.0)
    }

    fn clique_cost_uniform(&self, n: f64, alpha: f64) -> f64 {
        alpha * n * (n - 1.0) / 2.0 + n * (n - 1.0)
    }

    fn star_usage(&self, n: f64) -> f64 {
        2.0 * (n - 1.0) * (n - 1.0)
    }

    fn clique_usage(&self, n: f64) -> f64 {
        n * (n - 1.0)
    }
}

impl Objective {
    /// The canonical [`UsageCost`] instance of this objective.
    pub fn usage_cost(self) -> &'static dyn UsageCost {
        match self {
            Objective::Max => &Eccentricity,
            Objective::Sum => &Status,
        }
    }
}

/// The edge-pricing side of the cost function: what buying one edge
/// costs, as a function of the target node.
pub trait EdgeCost: std::fmt::Debug {
    /// Price of buying an edge towards global node `target`.
    fn edge_price(&self, alpha: f64, target_global: NodeId) -> f64;

    /// Total price of a strategy in `view`-local coordinates.
    fn strategy_price(&self, alpha: f64, view: &PlayerView, strategy_local: &[NodeId]) -> f64;

    /// Total price of a set of global purchase targets.
    fn bought_price(&self, alpha: f64, targets_global: &[NodeId]) -> f64;

    /// Whether every edge costs exactly `α`. Only uniform pricing
    /// admits the count-based pruning of the exact engines
    /// (`max_br`'s `⌈slack/α⌉` cutoff, the sum engine's `α·t` bounds);
    /// non-uniform specs must route through enumeration or local
    /// search instead.
    fn is_uniform(&self) -> bool;
}

/// The concrete edge-cost models a [`GameSpec`] can carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeCostModel {
    /// Every edge costs `α` (the paper's model).
    #[default]
    Uniform,
    /// Non-uniform, per-target pricing (Chauhan et al.): an edge
    /// towards `v` costs `α·w(v)` where `w(v)` is a deterministic
    /// quarter-step multiplier in `{1, 1.25, 1.5, 1.75}` derived by
    /// hashing `(seed, v)`. Quarter steps are exactly representable
    /// in an `f64` and keep the smallest nonzero cost difference on
    /// the paper's α grid at `α/4 ≥ 0.00625` — far above
    /// [`EPS`](crate::EPS), preserving the comparison contract
    /// documented in `spec.rs`.
    PerTarget {
        /// Seed of the multiplier hash: one seed = one pricing map.
        seed: u64,
    },
}

impl EdgeCostModel {
    /// The price multiplier of an edge towards global node `target`:
    /// `1` under uniform pricing, a quarter step in
    /// `{1, 1.25, 1.5, 1.75}` under per-target pricing.
    #[inline]
    pub fn multiplier(&self, target_global: NodeId) -> f64 {
        match self {
            EdgeCostModel::Uniform => 1.0,
            EdgeCostModel::PerTarget { seed } => {
                let h = splitmix64(seed ^ splitmix64(target_global as u64));
                let m = 1.0 + 0.25 * (h % 4) as f64;
                debug_assert!(
                    [1.0, 1.25, 1.5, 1.75].contains(&m),
                    "multipliers must stay exact quarter steps (EPS contract)"
                );
                m
            }
        }
    }

    /// Whether every edge costs exactly `α` (inherent mirror of
    /// [`EdgeCost::is_uniform`], so callers need no trait import).
    #[inline]
    pub fn is_uniform(&self) -> bool {
        matches!(self, EdgeCostModel::Uniform)
    }
}

impl EdgeCost for EdgeCostModel {
    #[inline]
    fn edge_price(&self, alpha: f64, target_global: NodeId) -> f64 {
        alpha * self.multiplier(target_global)
    }

    fn strategy_price(&self, alpha: f64, view: &PlayerView, strategy_local: &[NodeId]) -> f64 {
        match self {
            // Verbatim the pre-trait expression `α · |σ'|` — the
            // uniform path must stay bit-identical.
            EdgeCostModel::Uniform => alpha * strategy_local.len() as f64,
            EdgeCostModel::PerTarget { .. } => {
                strategy_local.iter().map(|&l| self.edge_price(alpha, view.sub.to_global(l))).sum()
            }
        }
    }

    fn bought_price(&self, alpha: f64, targets_global: &[NodeId]) -> f64 {
        match self {
            EdgeCostModel::Uniform => alpha * targets_global.len() as f64,
            EdgeCostModel::PerTarget { .. } => {
                targets_global.iter().map(|&g| self.edge_price(alpha, g)).sum()
            }
        }
    }

    #[inline]
    fn is_uniform(&self) -> bool {
        matches!(self, EdgeCostModel::Uniform)
    }
}

/// The move rule: which strategies a player may switch to in one move.
pub trait MoveRule: std::fmt::Debug {
    /// Whether `strategy_local` (sorted local ids) is reachable from
    /// the view's current strategy in a single move.
    fn is_legal(&self, view: &PlayerView, strategy_local: &[NodeId]) -> bool;

    /// Number of legal one-move strategies (staying put included), or
    /// `None` when the move set is too large to count in a `usize`
    /// (subset moves on wide views).
    fn move_count(&self, view: &PlayerView) -> Option<usize>;

    /// Visits every legal one-move strategy exactly once, as sorted
    /// local ids, staying put included. Deterministic order; for
    /// subset moves the order is the mask order of the pre-trait
    /// exhaustive search.
    fn for_each_move(&self, view: &PlayerView, f: &mut dyn FnMut(&[NodeId]));
}

/// The concrete move rules a [`GameSpec`] can carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MoveRulePolicy {
    /// A move may rewrite the whole strategy: any subset of the view's
    /// candidates (the paper's model).
    #[default]
    AnySubset,
    /// Swap moves (Yamauchi & Yoshimura): remove exactly one owned
    /// edge and add exactly one new one, so `|σ_u|` is invariant.
    /// Staying put is always allowed; players without purchases have
    /// nothing to swap.
    Swap,
}

impl MoveRule for MoveRulePolicy {
    fn is_legal(&self, view: &PlayerView, strategy_local: &[NodeId]) -> bool {
        let in_view = strategy_local.iter().all(|&v| v != view.center && (v as usize) < view.len());
        match self {
            MoveRulePolicy::AnySubset => in_view,
            MoveRulePolicy::Swap => {
                if !in_view || strategy_local.len() != view.purchases.len() {
                    return false;
                }
                // Both sorted: count elements unique to each side.
                let removed = view
                    .purchases
                    .iter()
                    .filter(|p| strategy_local.binary_search(p).is_err())
                    .count();
                removed <= 1
            }
        }
    }

    fn move_count(&self, view: &PlayerView) -> Option<usize> {
        let candidates = view.candidate_count();
        match self {
            MoveRulePolicy::AnySubset => 1usize.checked_shl(candidates.try_into().ok()?),
            MoveRulePolicy::Swap => {
                let owned = view.purchases.len();
                Some(1 + owned * (candidates - owned))
            }
        }
    }

    fn for_each_move(&self, view: &PlayerView, f: &mut dyn FnMut(&[NodeId])) {
        let candidates = view.candidate_count();
        match self {
            MoveRulePolicy::AnySubset => {
                assert!(
                    candidates < usize::BITS as usize,
                    "subset enumeration over {candidates} candidates; gate on move_count()"
                );
                let mut strat: Vec<NodeId> = Vec::with_capacity(candidates);
                for mask in 0usize..(1usize << candidates) {
                    strat.clear();
                    for (i, c) in view.candidates_iter().enumerate() {
                        if mask & (1 << i) != 0 {
                            strat.push(c);
                        }
                    }
                    f(&strat);
                }
            }
            MoveRulePolicy::Swap => {
                f(&view.purchases);
                let mut strat = view.purchases.clone();
                for i in 0..view.purchases.len() {
                    for add in view.candidates_iter() {
                        if view.purchases.binary_search(&add).is_ok() {
                            continue;
                        }
                        strat.clear();
                        strat.extend_from_slice(&view.purchases);
                        strat.remove(i);
                        let pos = strat.binary_search(&add).unwrap_err();
                        strat.insert(pos, add);
                        f(&strat);
                    }
                }
            }
        }
    }
}

/// One cell of the model zoo: an objective, an edge-cost model, and a
/// move rule. `From<Objective>` yields the paper's default cell
/// (uniform pricing, subset moves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// Usage-cost objective.
    pub objective: Objective,
    /// Edge pricing model.
    pub edge_cost: EdgeCostModel,
    /// Move rule.
    pub move_rule: MoveRulePolicy,
}

impl From<Objective> for Scenario {
    fn from(objective: Objective) -> Self {
        Scenario {
            objective,
            edge_cost: EdgeCostModel::Uniform,
            move_rule: MoveRulePolicy::AnySubset,
        }
    }
}

impl Scenario {
    /// The swap-NCG scenario: uniform pricing, swap moves.
    pub fn swap(objective: Objective) -> Self {
        Scenario { move_rule: MoveRulePolicy::Swap, ..Scenario::from(objective) }
    }

    /// The non-uniform-α scenario: per-target pricing, subset moves.
    pub fn non_uniform(objective: Objective, seed: u64) -> Self {
        Scenario { edge_cost: EdgeCostModel::PerTarget { seed }, ..Scenario::from(objective) }
    }

    /// A [`GameSpec`] of this scenario with the given `α` and `k`.
    pub fn spec(self, alpha: f64, k: u32) -> GameSpec {
        GameSpec {
            alpha,
            k,
            objective: self.objective,
            edge_cost: self.edge_cost,
            move_rule: self.move_rule,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GameState;

    #[test]
    fn objective_dispatches_to_canonical_instances() {
        let state = GameState::cycle_successor(6);
        let view = PlayerView::build(&state, 0, 3);
        assert_eq!(Objective::Max.usage_cost().current_usage(&view), view.ecc_in_view() as u64);
        assert_eq!(Objective::Sum.usage_cost().current_usage(&view), view.status_in_view());
        let mut scratch = EvalScratch::new();
        assert_eq!(
            Objective::Max.usage_cost().evaluate(&view, &view.purchases.clone(), &mut scratch),
            evaluate_max(&view, &view.purchases, &mut scratch.clone()),
        );
    }

    #[test]
    fn per_target_multipliers_are_quarter_steps_and_deterministic() {
        let m = EdgeCostModel::PerTarget { seed: 0xfeed };
        let mut seen = std::collections::HashSet::new();
        for v in 0..256u32 {
            let w = m.multiplier(v);
            assert!([1.0, 1.25, 1.5, 1.75].contains(&w), "w({v}) = {w}");
            assert_eq!(w.to_bits(), m.multiplier(v).to_bits());
            seen.insert(w.to_bits());
        }
        // The hash must actually spread over all four steps.
        assert_eq!(seen.len(), 4);
        // Different seeds give different maps.
        let other = EdgeCostModel::PerTarget { seed: 0xbeef };
        assert!((0..256u32).any(|v| other.multiplier(v) != m.multiplier(v)));
    }

    #[test]
    fn uniform_pricing_is_exactly_alpha_times_count() {
        let state = GameState::cycle_successor(8);
        let view = PlayerView::build(&state, 0, 3);
        let m = EdgeCostModel::Uniform;
        let strat = view.candidates();
        let alpha = 0.3;
        assert_eq!(
            m.strategy_price(alpha, &view, &strat).to_bits(),
            (alpha * strat.len() as f64).to_bits()
        );
        assert!(m.is_uniform());
        assert!(!EdgeCostModel::PerTarget { seed: 1 }.is_uniform());
    }

    #[test]
    fn per_target_strategy_price_sums_global_prices() {
        let state = GameState::cycle_successor(8);
        let view = PlayerView::build(&state, 2, 2);
        let m = EdgeCostModel::PerTarget { seed: 7 };
        let strat = view.candidates();
        let by_hand: f64 = strat.iter().map(|&l| 2.0 * m.multiplier(view.sub.to_global(l))).sum();
        assert_eq!(m.strategy_price(2.0, &view, &strat).to_bits(), by_hand.to_bits());
        // Pricing keys on *global* ids: two views of different players
        // agree on the price of the same global target.
        let other = PlayerView::build(&state, 5, 2);
        for g in 0..8u32 {
            assert_eq!(m.edge_price(1.0, g), 1.0 * m.multiplier(g));
            let _ = other; // both views price via the same global map
        }
    }

    #[test]
    fn swap_moves_on_a_star_center() {
        // Star center owns all leaves: the only swap-legal strategies
        // are staying put (no unowned candidate exists to add).
        let state = GameState::star_center_owned(6);
        let view = PlayerView::build(&state, 0, 2);
        let rule = MoveRulePolicy::Swap;
        assert_eq!(rule.move_count(&view), Some(1));
        let mut seen = Vec::new();
        rule.for_each_move(&view, &mut |s| seen.push(s.to_vec()));
        assert_eq!(seen, vec![view.purchases.clone()]);
        assert!(rule.is_legal(&view, &view.purchases));
    }

    #[test]
    fn swap_moves_on_a_star_leaf_and_cycle() {
        // A leaf owning nothing cannot move at all (beyond staying).
        let state = GameState::star_center_owned(6);
        let leaf = PlayerView::build(&state, 3, 2);
        assert!(leaf.purchases.is_empty());
        assert_eq!(MoveRulePolicy::Swap.move_count(&leaf), Some(1));

        // A cycle player owns one edge and sees 2k other nodes: she can
        // re-point her single purchase at any of the 2k − 1 others.
        let cyc = GameState::cycle_successor(8);
        let view = PlayerView::build(&cyc, 0, 2);
        let candidates = view.candidate_count();
        assert_eq!(MoveRulePolicy::Swap.move_count(&view), Some(1 + (candidates - 1)));
        let mut count = 0usize;
        MoveRulePolicy::Swap.for_each_move(&view, &mut |s| {
            assert_eq!(s.len(), 1, "swaps preserve the purchase count");
            assert!(MoveRulePolicy::Swap.is_legal(&view, s));
            count += 1;
        });
        assert_eq!(Some(count), MoveRulePolicy::Swap.move_count(&view));
    }

    #[test]
    fn swap_legality_rejects_resizes_and_double_swaps() {
        let cyc = GameState::cycle_successor(10);
        let view = PlayerView::build(&cyc, 0, 3);
        let rule = MoveRulePolicy::Swap;
        // Dropping the only edge changes the count: illegal.
        assert!(!rule.is_legal(&view, &[]));
        // Two purchases where there was one: illegal.
        let two: Vec<NodeId> = view.candidates_iter().take(2).collect();
        assert!(!rule.is_legal(&view, &two));
        // AnySubset accepts both.
        assert!(MoveRulePolicy::AnySubset.is_legal(&view, &[]));
        assert!(MoveRulePolicy::AnySubset.is_legal(&view, &two));
    }

    #[test]
    fn any_subset_enumeration_matches_mask_order() {
        let state = GameState::cycle_successor(5);
        let view = PlayerView::build(&state, 0, 1);
        let mut seen = Vec::new();
        MoveRulePolicy::AnySubset.for_each_move(&view, &mut |s| seen.push(s.to_vec()));
        assert_eq!(seen.len(), 1 << view.candidate_count());
        assert_eq!(seen[0], Vec::<NodeId>::new());
        // Every enumerated strategy is sorted and legal.
        for s in &seen {
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(MoveRulePolicy::AnySubset.is_legal(&view, s));
        }
    }

    #[test]
    fn scenario_defaults_reproduce_the_paper() {
        let s = Scenario::from(Objective::Max);
        assert_eq!(s.edge_cost, EdgeCostModel::Uniform);
        assert_eq!(s.move_rule, MoveRulePolicy::AnySubset);
        let spec = s.spec(1.5, 3);
        assert_eq!(spec, GameSpec::max(1.5, 3));
        let swap = Scenario::swap(Objective::Max).spec(1.5, 3);
        assert_eq!(swap.move_rule, MoveRulePolicy::Swap);
        let nu = Scenario::non_uniform(Objective::Sum, 9).spec(0.5, 2);
        assert_eq!(nu.edge_cost, EdgeCostModel::PerTarget { seed: 9 });
    }
}
