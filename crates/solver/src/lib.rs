//! # ncg-solver — best-response engines
//!
//! The computational heart of the reproduction: exact and greedy best
//! responses for both game variants, built on a constrained minimum
//! dominating set branch-and-bound (our replacement for the paper's
//! Gurobi ILP, Section 5.3 — see the workspace DESIGN.md §4 for the
//! substitution argument).
//!
//! * [`dominating`] — the one-shot instance type + greedy set-cover
//!   baseline.
//! * [`engine`] — the persistent, incremental
//!   [`DominationEngine`](engine::DominationEngine): grows coverage
//!   across eccentricity guesses instead of rebuilding, and owns every
//!   scratch buffer of the branch-and-bound.
//! * [`max_br`] — MaxNCG best response via eccentricity guessing +
//!   domination of powers of `H ∖ {u}`, driving one engine per view.
//! * [`sum_br`] / [`sum_engine`] — SumNCG best response: an exact
//!   include/exclude branch-and-bound over candidate purchases
//!   (admissible residual-improvement bounds, DESIGN.md §9) with hill
//!   climbing as the greedy ablation arm. The paper's experiments
//!   avoid SumNCG for its hardness; our exact path handles the
//!   ~100-node full-knowledge views of the dynamics.
//! * [`front`] — the generic best-response front: one entry point
//!   dispatching every model-zoo cell (objective × edge cost × move
//!   rule × mode) to the right engine — the exact Max/Sum engines on
//!   their uniform subset-move home turf, exact swap-neighbourhood
//!   enumeration for swap games, enumeration-or-hill-climb for
//!   non-uniform pricing.
//! * [`SolverScratch`] — the reusable allocation bundle (BFS buffers,
//!   APSP orders, the engine) threaded through the `*_with` entry
//!   points; hold one per thread or long-lived computation.
//! * [`Responder`] — a [`ncg_core::equilibrium::BestResponder`]
//!   dispatching through [`front`], in [`Mode::Exact`] or
//!   [`Mode::Greedy`] (the ablation axis). Owns a [`SolverScratch`],
//!   so a responder held across a dynamics run reuses all solver
//!   state from round to round.
//!
//! ## Example
//!
//! ```
//! use ncg_core::{GameSpec, GameState};
//! use ncg_solver::{is_lke, Responder};
//!
//! // Lemma 3.1: the n-cycle is an LKE for MaxNCG whenever α ≥ k − 1.
//! let state = GameState::cycle_successor(16);
//! assert!(is_lke(&state, &GameSpec::max(3.0, 2)));
//! // …and with cheap edges + a wide view it no longer is.
//! assert!(!is_lke(&state, &GameSpec::max(0.1, 8)));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitset;
pub mod bound;
pub mod dominating;
pub mod engine;
pub mod front;
pub mod max_br;
pub mod sum_br;
pub mod sum_engine;

use ncg_core::deviation::EvalScratch;
use ncg_core::equilibrium::{BestResponder, Deviation};
use ncg_core::{GameSpec, GameState, PlayerView, ViewScratch};
use ncg_graph::batch::{batch_bfs, BatchDistances, BatchScratch, WORD_LANES};
use ncg_graph::bfs::DistanceBuffer;
use ncg_graph::NodeId;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Search effort: exact optimisation or the greedy/heuristic variant
/// (the ablation axis of the benchmark suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Exact best responses (B&B dominating sets / exhaustive search).
    #[default]
    Exact,
    /// Greedy dominating sets / hill climbing.
    Greedy,
}

/// When (and how wide) the exact branch-and-bound fans out over the
/// work-stealing pool (DESIGN.md §8).
///
/// Output is bit-identical either way
/// ([`DominationEngine::solve_exact_parallel`](engine::DominationEngine::solve_exact_parallel)'s
/// two-pass canonical rule), so the policy is purely a performance
/// trade: frontier expansion plus one engine snapshot per worker only
/// pay off once a single solve is expensive. The dynamics hot path —
/// thousands of sub-millisecond solves on tiny views per round — must
/// stay sequential, hence the ground-set threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelPolicy {
    /// Ground sets (view sizes) strictly smaller than this always
    /// solve sequentially. The default keeps the ≈100-node
    /// full-knowledge views of the paper's dynamics — ~0.7 ms solves —
    /// on the sequential fast path while the certification-scale
    /// instances beyond it fan out.
    pub min_ground: usize,
    /// Root-frontier subproblems per worker (the `C` in the `W·C`
    /// frontier target): enough slack for the steal-half scheduler to
    /// rebalance uneven subtrees.
    pub per_worker: usize,
}

impl Default for ParallelPolicy {
    fn default() -> Self {
        ParallelPolicy { min_ground: 112, per_worker: 8 }
    }
}

impl ParallelPolicy {
    /// A policy that never parallelises (single-core ablations, bench
    /// baselines).
    pub fn sequential() -> Self {
        ParallelPolicy { min_ground: usize::MAX, ..Self::default() }
    }

    /// Worker count for a solve over `ground` elements: 1 below the
    /// threshold, otherwise the pool's current thread count. Inside a
    /// pool worker (a sweep repetition, an LKE lane group) this is 1
    /// by construction, so nested solves never over-subscribe.
    pub fn workers(&self, ground: usize) -> usize {
        if ground < self.min_ground {
            1
        } else {
            rayon::current_num_threads()
        }
    }
}

/// Reusable allocation bundle for the best-response engines: the
/// deviation-evaluation scratch, the BFS buffer and flattened APSP
/// orders of the reduction, and the incremental
/// [`DominationEngine`](engine::DominationEngine) itself.
///
/// One scratch per thread (or per long-lived computation); thread it
/// through [`max_br::max_best_response_with`] /
/// [`sum_br::sum_best_response_with`] and nothing in the per-view hot
/// path allocates after warm-up. The plain `max_best_response` /
/// `sum_best_response` entry points create a throwaway scratch per
/// call.
#[derive(Debug, Clone, Default)]
pub struct SolverScratch {
    pub(crate) eval: EvalScratch,
    pub(crate) buf: DistanceBuffer,
    /// Per-source BFS visit orders on `H ∖ {center}`, flattened; node
    /// ids and distances in non-decreasing distance order per source.
    pub(crate) ord_node: Vec<NodeId>,
    pub(crate) ord_dist: Vec<u32>,
    /// `offsets[s]..offsets[s+1]` delimits source `s` in the flat
    /// order arrays.
    pub(crate) offsets: Vec<usize>,
    /// Per-source consumption cursor of the incremental coverage
    /// growth (advances monotonically with the eccentricity guess).
    pub(crate) cursors: Vec<usize>,
    pub(crate) engine: engine::DominationEngine,
    pub(crate) sum: sum_engine::SumEngine,
    /// When the exact solves behind this scratch fan out over the
    /// work-stealing pool. Defaults keep small views sequential;
    /// results are bit-identical under any policy.
    pub parallel: ParallelPolicy,
}

impl SolverScratch {
    /// Fresh scratch; it sizes itself on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The workspace's standard [`BestResponder`]: dispatches on the
/// spec's objective and the configured [`Mode`].
///
/// Owns a [`SolverScratch`], so holding one responder across many
/// best-response calls (a dynamics run, an LKE certification sweep)
/// reuses every solver allocation between calls.
#[derive(Debug, Clone, Default)]
pub struct Responder {
    /// Search effort.
    pub mode: Mode,
    scratch: SolverScratch,
}

impl Responder {
    /// A responder with the given search effort.
    pub fn new(mode: Mode) -> Self {
        Responder { mode, scratch: SolverScratch::new() }
    }

    /// An exact responder.
    pub fn exact() -> Self {
        Self::new(Mode::Exact)
    }

    /// A greedy responder.
    pub fn greedy() -> Self {
        Self::new(Mode::Greedy)
    }

    /// Sets the owned scratch's [`ParallelPolicy`] (builder style).
    pub fn with_parallel(mut self, policy: ParallelPolicy) -> Self {
        self.scratch.parallel = policy;
        self
    }
}

impl BestResponder for Responder {
    fn best_response(&mut self, spec: &GameSpec, view: &PlayerView) -> Deviation {
        front::best_response_with(spec, view, self.mode, &mut self.scratch)
    }
}

/// Exact LKE check: `n` exact best responses.
///
/// Exact in both directions for both objectives: MaxNCG solves run
/// the domination branch-and-bound, SumNCG solves the include/exclude
/// branch-and-bound of [`sum_engine::SumEngine`], so a `true` here is
/// a genuine equilibrium certificate for any view size.
///
/// The players are fanned out in 64-lane groups over the current
/// work-stealing pool: each task runs one bit-parallel
/// ball sweep for its group and solves the group's players on a
/// per-worker view slot rebuilt in place, with a per-worker
/// [`Responder`] (hence one warm [`SolverScratch`]) reused across
/// every group the worker steals. A found violation sets a shared
/// flag that makes the remaining players skip their solves. Inside a
/// pool worker — a sweep repetition, a `par_iter` body — the fan-out
/// runs inline, and so do the per-player solves, so the machine is
/// never over-subscribed. The verdict is the scalar
/// [`ncg_core::equilibrium::is_lke_with`] oracle's at every pool
/// size.
pub fn is_lke(state: &GameState, spec: &GameSpec) -> bool {
    let violated = AtomicBool::new(false);
    let n = state.n() as NodeId;
    let graph = state.graph();
    let starts: Vec<NodeId> = (0..n).step_by(WORD_LANES).collect();
    let _: Vec<()> = starts
        .into_par_iter()
        .map_init(
            || {
                (
                    Responder::exact(),
                    BatchScratch::new(),
                    BatchDistances::default(),
                    ViewScratch::new(),
                    Vec::<NodeId>::new(),
                    Vec::<NodeId>::new(),
                    None::<PlayerView>,
                )
            },
            |(responder, scratch, dists, vscratch, ball, sources, view), lo| {
                if violated.load(Ordering::Relaxed) {
                    return;
                }
                let hi = (lo + WORD_LANES as NodeId).min(n);
                sources.clear();
                sources.extend(lo..hi);
                batch_bfs(graph, sources, spec.k, scratch, dists);
                for lane in 0..(hi - lo) as usize {
                    if violated.load(Ordering::Relaxed) {
                        return;
                    }
                    let u = lo + lane as NodeId;
                    dists.lane_ball_into(lane, ball);
                    match view.as_mut() {
                        Some(v) => v.rebuild_from_ball(state, u, spec.k, ball, vscratch),
                        None => {
                            *view =
                                Some(PlayerView::build_from_ball(state, u, spec.k, ball, vscratch));
                        }
                    }
                    let v = view.as_ref().expect("slot filled above");
                    let current = ncg_core::deviation::current_total(spec, v);
                    let best = responder.best_response(spec, v);
                    if GameSpec::strictly_better(best.total_cost, current) {
                        violated.store(true, Ordering::Relaxed);
                    }
                }
            },
        )
        .collect();
    !violated.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_core::equilibrium::is_lke_with;

    #[test]
    fn responder_dispatches_both_objectives() {
        let state = GameState::cycle_successor(8);
        let mut r = Responder::exact();
        for spec in [GameSpec::max(1.0, 2), GameSpec::sum(1.0, 2)] {
            let view = PlayerView::build(&state, 0, spec.k);
            let d = r.best_response(&spec, &view);
            assert!(d.total_cost.is_finite());
        }
    }

    #[test]
    fn lemma_31_cycle_certification() {
        // α ≥ k − 1 ⇒ LKE; generous margins on both sides.
        assert!(is_lke(&GameState::cycle_successor(20), &GameSpec::max(2.0, 3)));
        assert!(is_lke(&GameState::cycle_successor(30), &GameSpec::max(9.0, 8)));
        assert!(!is_lke(&GameState::cycle_successor(20), &GameSpec::max(0.05, 9)));
    }

    #[test]
    fn star_is_stable_for_both_objectives() {
        let state = GameState::star_center_owned(12);
        assert!(is_lke(&state, &GameSpec::max(2.0, 4)));
        assert!(is_lke(&state, &GameSpec::sum(2.0, 4)));
    }

    #[test]
    fn batched_certification_matches_the_scalar_path() {
        // The one certifier must agree with the scalar
        // `equilibrium::is_lke_with` oracle on positive and negative
        // instances, both objectives, including >64-player states
        // (multiple lane groups, one partial) — at every pool size and
        // when called from inside a pool worker, where its fan-out runs
        // inline.
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(52);
        let mut states = vec![
            GameState::cycle_successor(70),
            GameState::star_center_owned(66),
            GameState::cycle_successor(12),
        ];
        let tree = ncg_graph::generators::random_tree(30, &mut rng);
        states.push(GameState::from_graph_random_ownership(&tree, &mut rng));
        let specs = [
            GameSpec::max(2.0, 2),
            GameSpec::max(0.1, 4),
            GameSpec::sum(2.0, 3),
            GameSpec::sum(0.4, 3),
        ];
        let mut cases = Vec::new();
        for (i, state) in states.iter().enumerate() {
            for spec in specs {
                let oracle = is_lke_with(state, &spec, &mut Responder::exact());
                cases.push((i, state, spec, oracle));
            }
        }
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            for &(i, state, spec, oracle) in &cases {
                assert_eq!(
                    pool.install(|| is_lke(state, &spec)),
                    oracle,
                    "verdict on {threads} threads (state {i}, α={}, k={})",
                    spec.alpha,
                    spec.k
                );
            }
        }
        let nested: Vec<bool> =
            cases.clone().into_par_iter().map(|(_, state, spec, _)| is_lke(state, &spec)).collect();
        let oracles: Vec<bool> = cases.iter().map(|case| case.3).collect();
        assert_eq!(nested, oracles, "verdicts from inside pool workers");
    }

    #[test]
    fn sum_lke_certifies_positively_beyond_the_enumeration_cap() {
        // 29 candidates per full view — past both the old 14-candidate
        // sum cap and core's EXHAUSTIVE_CAP, so this `true` is the
        // branch-and-bound's positive certificate, not enumeration's.
        // With cheap edges the center finds real improvements and the
        // certificate flips.
        let state = GameState::star_center_owned(30);
        assert!(is_lke(&state, &GameSpec::sum(2.0, 4)));
        assert!(!is_lke(&state, &GameSpec::sum(0.5, 4)));
    }
}
