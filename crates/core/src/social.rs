//! Social cost, social optimum, and equilibrium quality.
//!
//! The social cost of a profile is the sum of all player costs:
//! `SC(σ) = α·Σ_u|σ_u| + Σ_u usage_u`. The paper compares equilibria
//! against the optimum; for `α > 1` (resp. `α ≥ 2`) the spanning star
//! is optimal for MaxNCG (resp. SumNCG), and for small `α` the clique
//! takes over. We evaluate both closed forms and take the minimum,
//! which matches the benchmarks the paper plots ("quality of
//! equilibrium", Figures 6–7).

use crate::scenario::EdgeCost as _;
use crate::{GameSpec, GameState};

/// Per-player cost vector `C_u(σ)` under the *true* (full-knowledge)
/// graph — the costs that social welfare is measured on, regardless of
/// what players can see. `None` entries mean the graph is disconnected
/// (infinite cost).
pub fn player_costs(state: &GameState, spec: &GameSpec) -> Vec<Option<f64>> {
    let usages = spec.objective.usage_cost().graph_usages(state.graph());
    player_costs_with_usages(state, spec, &usages)
}

/// [`player_costs`] from *precomputed* per-player usages (eccentricity
/// for Max, status for Sum; `None` = does not reach everyone):
/// `C_u = α·|σ_u| + usage_u`, with no BFS of its own.
///
/// This is the no-traversal core the BFS entry points above feed.
/// Callers that already hold per-vertex distance arrays —
/// `ncg_dynamics::StateMetrics::measure` takes one full BFS per vertex
/// anyway for the diameter and view statistics — pass their usages
/// here instead of paying a second per-vertex sweep over the graph
/// (parity-tested against the BFS path).
pub fn player_costs_with_usages(
    state: &GameState,
    spec: &GameSpec,
    usages: &[Option<u64>],
) -> Vec<Option<f64>> {
    debug_assert_eq!(usages.len(), state.n());
    usages
        .iter()
        .enumerate()
        .map(|(u, usage)| {
            // `bought_price` prices the player's global purchase
            // targets; its uniform arm is `α · |σ_u|`, bit-identical
            // to the pre-scenario expression.
            usage.map(|us| {
                spec.edge_cost.bought_price(spec.alpha, state.strategy(u as u32)) + us as f64
            })
        })
        .collect()
}

/// Social cost `Σ_u C_u(σ)`; `None` if the graph is disconnected.
pub fn social_cost(state: &GameState, spec: &GameSpec) -> Option<f64> {
    player_costs(state, spec).into_iter().try_fold(0.0, |acc, c| c.map(|c| acc + c))
}

/// [`social_cost`] from precomputed usages (see
/// [`player_costs_with_usages`]).
pub fn social_cost_with_usages(
    state: &GameState,
    spec: &GameSpec,
    usages: &[Option<u64>],
) -> Option<f64> {
    player_costs_with_usages(state, spec, usages)
        .into_iter()
        .try_fold(0.0, |acc, c| c.map(|c| acc + c))
}

/// One player's true (full-knowledge) cost `α·|σ_u| + usage_u`;
/// `None` when she does not reach the whole graph.
pub fn player_cost(state: &GameState, spec: &GameSpec, u: ncg_graph::NodeId) -> Option<f64> {
    let usage = spec.objective.usage_cost().vertex_usage(state.graph(), u)?;
    Some(spec.edge_cost.bought_price(spec.alpha, state.strategy(u)) + usage as f64)
}

/// Closed-form social cost of the spanning star on `n` nodes
/// (`n−1` edges bought once each).
///
/// * MaxNCG: `α(n−1) + 1 + 2(n−1)` (center ecc 1, each leaf ecc 2).
/// * SumNCG: `α(n−1) + 2(n−1)²` (center status `n−1`, leaf status `2n−3`).
///
/// Under per-target pricing the edge part is no longer `α(n−1)`: each
/// star edge `(c, v)` is bought by whichever endpoint gets it cheaper
/// (`α·min(w(c), w(v))`), minimized over the choice of center `c` on
/// the nodes `0..n` — the usage part is the objective's closed form
/// unchanged.
pub fn star_cost(n: usize, spec: &GameSpec) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let uc = spec.objective.usage_cost();
    if spec.edge_cost.is_uniform() {
        if n == 2 {
            // Single edge: both endpoints have usage 1 under either objective.
            return spec.alpha + 2.0;
        }
        return uc.star_cost_uniform(n as f64, spec.alpha);
    }
    let edge_part = (0..n as ncg_graph::NodeId)
        .map(|c| {
            let wc = spec.edge_cost.multiplier(c);
            (0..n as ncg_graph::NodeId)
                .filter(|&v| v != c)
                .map(|v| spec.alpha * spec.edge_cost.multiplier(v).min(wc))
                .sum::<f64>()
        })
        .fold(f64::INFINITY, f64::min);
    if n == 2 {
        return edge_part + 2.0;
    }
    edge_part + uc.star_usage(n as f64)
}

/// Closed-form social cost of the clique on `n` nodes.
///
/// * MaxNCG: `α·n(n−1)/2 + n` (every eccentricity 1).
/// * SumNCG: `α·n(n−1)/2 + n(n−1)`.
///
/// Under per-target pricing each clique edge is bought by its cheaper
/// endpoint: `Σ_{u<v} α·min(w(u), w(v))` plus the objective's usage
/// part.
pub fn clique_cost(n: usize, spec: &GameSpec) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let uc = spec.objective.usage_cost();
    if spec.edge_cost.is_uniform() {
        return uc.clique_cost_uniform(n as f64, spec.alpha);
    }
    let mut edge_part = 0.0;
    for u in 0..n as ncg_graph::NodeId {
        let wu = spec.edge_cost.multiplier(u);
        for v in (u + 1)..n as ncg_graph::NodeId {
            edge_part += spec.alpha * spec.edge_cost.multiplier(v).min(wu);
        }
    }
    edge_part + uc.clique_usage(n as f64)
}

/// The social optimum benchmark: `min(star, clique)`.
///
/// For MaxNCG and `α > 1` the star is optimal (paper, Section 3); for
/// SumNCG the optimum is the star for `α ≥ 2` and the clique for
/// `α ≤ 2` (Fabrikant et al.). The min of the two closed forms covers
/// the whole `α` range exactly on those regimes.
pub fn optimum_cost(n: usize, spec: &GameSpec) -> f64 {
    star_cost(n, spec).min(clique_cost(n, spec))
}

/// Quality of the profile: `SC(σ) / OPT` — the empirical counterpart
/// of the price of anarchy plotted in Figures 6–7. `None` if the
/// profile's graph is disconnected or the optimum is zero.
pub fn quality(state: &GameState, spec: &GameSpec) -> Option<f64> {
    quality_of(state.n(), spec, social_cost(state, spec))
}

/// [`quality`] from precomputed usages (see
/// [`player_costs_with_usages`]).
pub fn quality_with_usages(
    state: &GameState,
    spec: &GameSpec,
    usages: &[Option<u64>],
) -> Option<f64> {
    quality_of(state.n(), spec, social_cost_with_usages(state, spec, usages))
}

fn quality_of(n: usize, spec: &GameSpec, sc: Option<f64>) -> Option<f64> {
    let sc = sc?;
    let opt = optimum_cost(n, spec);
    if opt <= 0.0 {
        None
    } else {
        Some(sc / opt)
    }
}

/// Unfairness ratio: costliest player / cheapest player (Figure 9).
/// `None` on disconnected graphs or when the cheapest cost is 0.
pub fn unfairness(state: &GameState, spec: &GameSpec) -> Option<f64> {
    unfairness_of(player_costs(state, spec))
}

/// [`unfairness`] from precomputed usages (see
/// [`player_costs_with_usages`]).
pub fn unfairness_with_usages(
    state: &GameState,
    spec: &GameSpec,
    usages: &[Option<u64>],
) -> Option<f64> {
    unfairness_of(player_costs_with_usages(state, spec, usages))
}

fn unfairness_of(costs: Vec<Option<f64>>) -> Option<f64> {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for c in costs {
        let c = c?;
        min = min.min(c);
        max = max.max(c);
    }
    if !min.is_finite() || min <= 0.0 {
        None
    } else {
        Some(max / min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GameState;

    #[test]
    fn star_cost_matches_direct_computation() {
        for n in [2usize, 3, 5, 9] {
            for alpha in [0.5, 1.0, 3.0] {
                let state = GameState::star_center_owned(n);
                for spec in [GameSpec::max(alpha, 3), GameSpec::sum(alpha, 3)] {
                    let direct = social_cost(&state, &spec).unwrap();
                    let formula = star_cost(n, &spec);
                    assert!(
                        (direct - formula).abs() < 1e-9,
                        "n={n} α={alpha} {:?}: {direct} vs {formula}",
                        spec.objective
                    );
                }
            }
        }
    }

    #[test]
    fn clique_cost_matches_direct_computation() {
        for n in [2usize, 4, 6] {
            let g = ncg_graph::generators::complete(n);
            let state = GameState::from_graph_with_owners(&g, |u, _| u);
            for spec in [GameSpec::max(0.7, 2), GameSpec::sum(0.7, 2)] {
                let direct = social_cost(&state, &spec).unwrap();
                let formula = clique_cost(n, &spec);
                assert!((direct - formula).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn optimum_switches_from_clique_to_star() {
        // SumNCG: clique optimal below α = 2, star above.
        let n = 10;
        assert_eq!(optimum_cost(n, &GameSpec::sum(1.0, 2)), clique_cost(n, &GameSpec::sum(1.0, 2)));
        assert_eq!(optimum_cost(n, &GameSpec::sum(5.0, 2)), star_cost(n, &GameSpec::sum(5.0, 2)));
        // MaxNCG with α > 2/(n−2)-ish: star wins.
        assert_eq!(optimum_cost(n, &GameSpec::max(1.0, 2)), star_cost(n, &GameSpec::max(1.0, 2)));
    }

    #[test]
    fn disconnected_profiles_have_no_social_cost() {
        let state = GameState::from_strategies(4, vec![vec![1], vec![], vec![3], vec![]]);
        let spec = GameSpec::max(1.0, 2);
        assert_eq!(social_cost(&state, &spec), None);
        assert_eq!(quality(&state, &spec), None);
        assert_eq!(unfairness(&state, &spec), None);
    }

    #[test]
    fn quality_of_the_optimum_is_one() {
        let state = GameState::star_center_owned(12);
        let spec = GameSpec::max(3.0, 5);
        let q = quality(&state, &spec).unwrap();
        assert!((q - 1.0).abs() < 1e-9, "star should be optimal at α=3, got q={q}");
    }

    #[test]
    fn cycle_quality_grows_with_alpha_and_n() {
        // The stable cycle has SC = αn + n·(n/2); the star ≈ αn + 2n.
        let spec = GameSpec::max(2.0, 2);
        let q10 = quality(&GameState::cycle_successor(10), &spec).unwrap();
        let q30 = quality(&GameState::cycle_successor(30), &spec).unwrap();
        assert!(q30 > q10, "bigger cycles are relatively worse: {q30} vs {q10}");
        assert!(q10 > 1.0);
    }

    #[test]
    fn unfairness_of_star_matches_hand_computation() {
        let n = 6;
        let state = GameState::star_center_owned(n);
        let spec = GameSpec::max(1.0, 3);
        // Center: 5α + 1 = 6; leaf: 2. Max/min = 3.
        assert!((unfairness(&state, &spec).unwrap() - 3.0).abs() < 1e-9);
        // Symmetric cycle: unfairness exactly 1.
        let cyc = GameState::cycle_successor(8);
        assert!((unfairness(&cyc, &spec).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn player_costs_align_with_bought_and_usage() {
        let state = GameState::cycle_successor(6);
        let spec = GameSpec::sum(2.0, 3);
        let costs = player_costs(&state, &spec);
        // Every cycle player: 1 bought edge, status 1+2+3+2+1 = 9.
        for c in costs {
            assert!((c.unwrap() - (2.0 + 9.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn player_cost_matches_player_costs_vector() {
        let state = GameState::star_center_owned(7);
        for spec in [GameSpec::max(1.5, 3), GameSpec::sum(1.5, 3)] {
            let vector = player_costs(&state, &spec);
            for u in 0..7u32 {
                assert_eq!(player_cost(&state, &spec, u), vector[u as usize]);
            }
        }
        let disc = GameState::from_strategies(3, vec![vec![1], vec![], vec![]]);
        assert_eq!(player_cost(&disc, &GameSpec::max(1.0, 2), 0), None);
    }

    #[test]
    fn with_usages_matches_bfs_path() {
        // The precomputed-usage entry points must agree with the
        // BFS-driven ones on connected and disconnected profiles.
        let usages_of = |state: &GameState, spec: &GameSpec| -> Vec<Option<u64>> {
            match spec.objective {
                crate::Objective::Max => ncg_graph::metrics::eccentricities(state.graph())
                    .into_iter()
                    .map(|e| (e != ncg_graph::INFINITY).then_some(e as u64))
                    .collect(),
                crate::Objective::Sum => ncg_graph::metrics::statuses(state.graph()),
            }
        };
        let connected = GameState::cycle_successor(9);
        let disconnected = GameState::from_strategies(4, vec![vec![1], vec![], vec![3], vec![]]);
        for state in [&connected, &disconnected] {
            for spec in [GameSpec::max(1.7, 3), GameSpec::sum(0.4, 2)] {
                let usages = usages_of(state, &spec);
                assert_eq!(
                    player_costs_with_usages(state, &spec, &usages),
                    player_costs(state, &spec)
                );
                assert_eq!(
                    social_cost_with_usages(state, &spec, &usages),
                    social_cost(state, &spec)
                );
                assert_eq!(quality_with_usages(state, &spec, &usages), quality(state, &spec));
                assert_eq!(unfairness_with_usages(state, &spec, &usages), unfairness(state, &spec));
            }
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(star_cost(0, &GameSpec::max(1.0, 1)), 0.0);
        assert_eq!(star_cost(1, &GameSpec::max(1.0, 1)), 0.0);
        assert_eq!(clique_cost(1, &GameSpec::sum(1.0, 1)), 0.0);
        assert_eq!(optimum_cost(1, &GameSpec::sum(1.0, 1)), 0.0);
    }
}
