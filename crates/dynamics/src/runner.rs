//! The round-robin best-response loop with cycle detection.
//!
//! The loop is *incremental* by default: a [`ViewCache`] keeps all `n`
//! player views alive across rounds and invalidates only the players
//! whose radius-`k` ball can have changed after a move, so clean
//! players skip view construction **and** the solver call entirely —
//! their best response is unchanged by determinism. Late rounds (and
//! the final quiet round that certifies the equilibrium) then cost
//! `O(moved players' balls)` instead of `O(n·m)`. Outcomes are
//! bit-identical with the cache on and off (property-tested); the
//! cache can be disabled per run with
//! [`DynamicsConfig::without_view_cache`] for A/B benchmarking.

use ncg_core::deviation::current_total;
use ncg_core::equilibrium::BestResponder;
use ncg_core::{GameSpec, GameState, PlayerView};
use ncg_solver::{Mode, Responder};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::fingerprint::CycleDetector;
use crate::metrics::MeasureScratch;
use crate::view_cache::{CacheStats, ViewCache};
use crate::StateMetrics;

/// Configuration of one dynamics run.
#[derive(Debug, Clone, Copy)]
pub struct DynamicsConfig {
    /// Game parameters (`α`, `k`, objective).
    pub spec: GameSpec,
    /// Best-response effort (exact reproduces the paper; greedy is the
    /// ablation).
    pub mode: Mode,
    /// Safety cap on rounds; the paper's runs converge in ≤ 7 rounds
    /// almost always, so the default of 200 is generous.
    pub max_rounds: usize,
    /// Record a [`StateMetrics`] snapshot after every round (the
    /// paper does; off by default to keep sweeps lean).
    pub per_round_metrics: bool,
    /// Record a move-level [`Trace`](crate::Trace) (off by default).
    pub record_trace: bool,
    /// Reuse player views across rounds and skip provably-unchanged
    /// players (on by default; results are identical either way, the
    /// flag exists for A/B benchmarks and belt-and-braces parity
    /// tests).
    pub use_view_cache: bool,
}

impl DynamicsConfig {
    /// Defaults: exact responses, 200-round cap, no per-round metrics,
    /// no trace, incremental view cache on.
    pub fn new(spec: GameSpec) -> Self {
        DynamicsConfig {
            spec,
            mode: Mode::Exact,
            max_rounds: 200,
            per_round_metrics: false,
            record_trace: false,
            use_view_cache: true,
        }
    }

    /// Switches to greedy best responses.
    pub fn greedy(mut self) -> Self {
        self.mode = Mode::Greedy;
        self
    }

    /// Enables per-round metric snapshots.
    pub fn with_per_round_metrics(mut self) -> Self {
        self.per_round_metrics = true;
        self
    }

    /// Enables the move-level event log.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Disables the incremental view cache: every round rebuilds every
    /// view and re-solves every player, as the seed implementation
    /// did. Outcomes are identical; only the work differs.
    pub fn without_view_cache(mut self) -> Self {
        self.use_view_cache = false;
        self
    }
}

/// How a dynamics run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// A full round passed with no strategy change: equilibrium.
    Converged {
        /// Rounds executed, *including* the final quiet round.
        rounds: usize,
    },
    /// The end-of-round profile repeated an earlier one: with
    /// round-robin order the dynamics is periodic and will never
    /// reach an equilibrium (the paper observed 5 cycles in ≈36 000
    /// runs).
    Cycled {
        /// Round at which the repeated profile first appeared.
        first_seen: usize,
        /// Round at which the repetition was detected.
        repeated_at: usize,
    },
    /// The safety cap was hit without convergence or a detected cycle.
    MaxRoundsExceeded {
        /// Rounds actually executed (the configured cap).
        rounds: usize,
    },
}

impl Outcome {
    /// Whether the run reached an equilibrium.
    pub fn converged(&self) -> bool {
        matches!(self, Outcome::Converged { .. })
    }

    /// Rounds executed, whatever the terminal condition: the quiet
    /// round for convergence, the detection round for cycles, the cap
    /// for capped runs.
    pub fn rounds(&self) -> usize {
        match *self {
            Outcome::Converged { rounds } => rounds,
            Outcome::Cycled { repeated_at, .. } => repeated_at,
            Outcome::MaxRoundsExceeded { rounds } => rounds,
        }
    }
}

/// The result of one dynamics run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Terminal condition.
    pub outcome: Outcome,
    /// The final state (the equilibrium when `outcome.converged()`).
    pub state: GameState,
    /// Total accepted strategy changes across all rounds.
    pub total_moves: usize,
    /// Best-response solver invocations across the run — with the view
    /// cache this is how skipping is measured (`≤ n · rounds`, with
    /// equality exactly when nothing was skippable).
    pub solver_calls: usize,
    /// View-cache rebuild/skip counters (`None` when the cache was
    /// disabled).
    pub cache_stats: Option<CacheStats>,
    /// Metrics of the final state.
    pub final_metrics: StateMetrics,
    /// Per-round snapshots if requested in the config.
    pub round_metrics: Vec<StateMetrics>,
    /// Move-level event log if requested in the config.
    pub trace: Option<crate::Trace>,
}

/// Runs round-robin best-response dynamics from `initial` until
/// equilibrium, cycle, or the round cap. Deterministic.
pub fn run(initial: GameState, config: &DynamicsConfig) -> RunResult {
    let mut responder = Responder::new(config.mode);
    run_with(initial, config, &mut responder)
}

/// Reusable warm-start bundle for back-to-back dynamics runs: one
/// [`ViewCache`] plus one [`Responder`] (which owns its
/// `SolverScratch`), handed to [`run_with_cache`] so consecutive runs
/// sharing an initial-state family reuse every view, BFS buffer, and
/// solver allocation instead of re-growing them from cold. The sweep
/// engine keeps one arena per repetition across all `(α, k)` cells.
///
/// Warm starts are *allocation* reuse only: the cache is
/// [`ViewCache::reset`] before every run and the responder's
/// determinism contract makes its scratch contents unobservable, so
/// outcomes are bit-identical to cold [`run`] calls (property-tested
/// in the experiments crate).
#[derive(Debug, Clone, Default)]
pub struct CacheArena {
    cache: Option<ViewCache>,
    responder: Responder,
    measure: MeasureScratch,
}

impl CacheArena {
    /// An empty arena; it sizes itself on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards the arena's view cache and responder and replaces them
    /// with fresh ones.
    ///
    /// This is the *poison-recovery* path: if a run borrowing this
    /// arena panicked (and the panic was caught with `catch_unwind`),
    /// the cache's dirty-tracking and the responder's scratch may have
    /// been left mid-update, and the warm-start soundness argument no
    /// longer applies to them. Rebuilding restores the "fresh arena"
    /// state, so the next [`run_with_cache`] call is observationally a
    /// cold run — at the cost of re-growing the allocations once.
    pub fn rebuild(&mut self) {
        *self = CacheArena::new();
    }
}

/// Like [`run`], but warm-started from `arena`: the arena's view
/// cache is re-armed (same observable behaviour as a fresh cache)
/// and its responder reused, so nothing is re-allocated between
/// consecutive runs. Honours `config.use_view_cache` — when the cache
/// is disabled only the responder's solver scratch is reused.
pub fn run_with_cache(
    initial: GameState,
    config: &DynamicsConfig,
    arena: &mut CacheArena,
) -> RunResult {
    arena.responder.mode = config.mode;
    if config.use_view_cache {
        let n = initial.n();
        let cache = arena.cache.get_or_insert_with(|| ViewCache::new(n, config.spec.k));
        cache.reset(n, config.spec.k);
        run_core(initial, config, &mut arena.responder, Some(cache), &mut arena.measure)
    } else {
        run_core(initial, config, &mut arena.responder, None, &mut arena.measure)
    }
}

/// Like [`run`], but with a caller-provided best-response engine —
/// any [`BestResponder`], including closures. The engine must be
/// deterministic for the cycle detection to be sound (a repeated
/// end-of-round profile then proves periodicity) **and** for the view
/// cache's clean-player skip to be sound (an unchanged view must
/// yield an unchanged response); internal scratch reuse is fine, a
/// response depending on anything but `(spec, view)` is not.
pub fn run_with<B: BestResponder>(
    initial: GameState,
    config: &DynamicsConfig,
    responder: &mut B,
) -> RunResult {
    let mut cache = config.use_view_cache.then(|| ViewCache::new(initial.n(), config.spec.k));
    run_core(initial, config, responder, cache.as_mut(), &mut MeasureScratch::new())
}

/// The round loop shared by every entry point; `cache` is either
/// owned by the caller for this one run ([`run_with`]) or borrowed
/// from a long-lived [`CacheArena`] ([`run_with_cache`]).
fn run_core<B: BestResponder>(
    initial: GameState,
    config: &DynamicsConfig,
    responder: &mut B,
    mut cache: Option<&mut ViewCache>,
    measure: &mut MeasureScratch,
) -> RunResult {
    let mut state = initial;
    let spec = config.spec;
    let n = state.n();
    let mut detector = CycleDetector::new(&state);
    let mut total_moves = 0usize;
    let mut solver_calls = 0usize;
    let mut round_metrics = Vec::new();
    let mut trace = if config.record_trace { Some(crate::Trace::new()) } else { None };
    let mut outcome = Outcome::MaxRoundsExceeded { rounds: config.max_rounds };
    for round in 1..=config.max_rounds {
        let mut moves_this_round = 0usize;
        // Round-start batched prefetch: rebuild every dirty player's
        // view in 64-lane ball sweeps before the state can change this
        // round (mid-round invalidation clears the fresh bits it sets).
        if let Some(cache) = cache.as_mut() {
            cache.prefetch(&state);
        }
        for u in 0..n as u32 {
            if let Some(cache) = cache.as_mut() {
                if cache.is_clean(u) {
                    // Nothing in u's ball changed since she was last
                    // solved without finding an improvement; by
                    // determinism she would stand pat again.
                    cache.note_skip();
                    continue;
                }
            }
            let fresh;
            let view: &PlayerView = match cache.as_mut() {
                Some(cache) => cache.refresh(&state, u),
                None => {
                    fresh = PlayerView::build(&state, u, spec.k);
                    &fresh
                }
            };
            let current = current_total(&spec, view);
            solver_calls += 1;
            let best = responder.best_response(&spec, view);
            if GameSpec::strictly_better(best.total_cost, current) {
                let global = view.strategy_to_global(&best.strategy_local);
                if let Some(trace) = trace.as_mut() {
                    trace.events.push(crate::MoveEvent {
                        round,
                        player: u,
                        old_strategy: state.strategy(u).to_vec(),
                        new_strategy: global.clone(),
                        old_cost: current,
                        new_cost: best.total_cost,
                        view_size: view.len(),
                    });
                }
                let old = state.strategy(u).to_vec();
                match cache.as_mut() {
                    Some(cache) => {
                        cache.apply_move(&mut state, u, global);
                    }
                    None => {
                        state.set_strategy(u, global);
                    }
                }
                detector.record_move(round, u, &old, state.strategy(u));
                moves_this_round += 1;
            }
        }
        total_moves += moves_this_round;
        if config.per_round_metrics {
            round_metrics.push(StateMetrics::measure_with(&state, &spec, measure));
        }
        if moves_this_round == 0 {
            outcome = Outcome::Converged { rounds: round };
            break;
        }
        // Round-robin + deterministic responses ⇒ a repeated
        // end-of-round profile proves a best-response cycle.
        if let Some(first_seen) = detector.check_round(round, &state) {
            outcome = Outcome::Cycled { first_seen, repeated_at: round };
            break;
        }
    }
    let final_metrics = StateMetrics::measure_with(&state, &spec, measure);
    RunResult {
        outcome,
        state,
        total_moves,
        solver_calls,
        cache_stats: cache.map(|c| c.stats()),
        final_metrics,
        round_metrics,
        trace,
    }
}

/// Runs many independent dynamics in parallel (rayon); results are in
/// input order regardless of scheduling.
pub fn run_many(initials: Vec<GameState>, config: &DynamicsConfig) -> Vec<RunResult> {
    initials.into_par_iter().map(|initial| run(initial, config)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn stable_cycle_converges_immediately() {
        // Lemma 3.1 equilibrium: one quiet round, zero moves.
        let result =
            run(GameState::cycle_successor(12), &DynamicsConfig::new(GameSpec::max(3.0, 2)));
        assert_eq!(result.outcome, Outcome::Converged { rounds: 1 });
        assert_eq!(result.total_moves, 0);
        assert_eq!(result.solver_calls, 12, "round 1 must solve everyone");
    }

    #[test]
    fn unstable_cycle_converges_to_low_diameter() {
        let config = DynamicsConfig::new(GameSpec::max(0.5, 6));
        let result = run(GameState::cycle_successor(12), &config);
        assert!(result.outcome.converged());
        assert!(result.total_moves > 0);
        let d = result.final_metrics.diameter.unwrap();
        assert!(d <= 4, "cheap edges should collapse the cycle, diameter {d}");
        // The reached profile must be an LKE (exact responder).
        assert!(ncg_solver::is_lke(&result.state, &config.spec));
    }

    #[test]
    fn dynamics_is_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let tree = ncg_graph::generators::random_tree(30, &mut rng);
        let initial = GameState::from_graph_random_ownership(&tree, &mut rng);
        let config = DynamicsConfig::new(GameSpec::max(1.0, 3));
        let a = run(initial.clone(), &config);
        let b = run(initial, &config);
        assert_eq!(a.state, b.state);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.total_moves, b.total_moves);
    }

    #[test]
    fn cache_and_rebuild_paths_agree() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..3 {
            let tree = ncg_graph::generators::random_tree(24, &mut rng);
            let initial = GameState::from_graph_random_ownership(&tree, &mut rng);
            for (alpha, k) in [(0.4, 2u32), (1.0, 3), (4.0, 2)] {
                let cached = DynamicsConfig::new(GameSpec::max(alpha, k));
                let rebuilt = cached.without_view_cache();
                let a = run(initial.clone(), &cached);
                let b = run(initial.clone(), &rebuilt);
                assert_eq!(a.outcome, b.outcome, "α={alpha} k={k}");
                assert_eq!(a.state, b.state, "α={alpha} k={k}");
                assert_eq!(a.total_moves, b.total_moves, "α={alpha} k={k}");
                assert!(
                    a.solver_calls <= b.solver_calls,
                    "the cache may only ever skip work (α={alpha} k={k})"
                );
                assert!(a.cache_stats.is_some() && b.cache_stats.is_none());
            }
        }
    }

    #[test]
    fn clean_players_are_skipped_not_resolved() {
        // Converging run of ≥ 2 rounds: the final quiet round must not
        // call the solver for players untouched since their last solve.
        let config = DynamicsConfig::new(GameSpec::max(0.5, 6));
        let result = run(GameState::cycle_successor(12), &config);
        assert!(result.outcome.converged());
        let rounds = result.outcome.rounds();
        assert!(rounds >= 2, "need a multi-round run to observe skipping");
        let baseline = 12 * rounds;
        assert!(
            result.solver_calls < baseline,
            "cache must skip some of the {baseline} baseline solves, \
             made {}",
            result.solver_calls
        );
        let stats = result.cache_stats.unwrap();
        assert_eq!(stats.rebuilds as usize, result.solver_calls);
        assert_eq!(stats.skips as usize, baseline - result.solver_calls);
    }

    #[test]
    fn converged_states_are_lke_on_random_trees() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..3 {
            let tree = ncg_graph::generators::random_tree(20, &mut rng);
            let initial = GameState::from_graph_random_ownership(&tree, &mut rng);
            for (alpha, k) in [(0.5, 2u32), (2.0, 3), (5.0, 2)] {
                let config = DynamicsConfig::new(GameSpec::max(alpha, k));
                let result = run(initial.clone(), &config);
                if result.outcome.converged() {
                    assert!(
                        ncg_solver::is_lke(&result.state, &config.spec),
                        "converged state must be an LKE (α={alpha}, k={k})"
                    );
                }
            }
        }
    }

    #[test]
    fn per_round_metrics_are_recorded() {
        let config = DynamicsConfig::new(GameSpec::max(0.5, 6)).with_per_round_metrics();
        let result = run(GameState::cycle_successor(12), &config);
        if let Outcome::Converged { rounds } = result.outcome {
            assert_eq!(result.round_metrics.len(), rounds);
            // Last snapshot equals the final metrics.
            assert_eq!(result.round_metrics.last().unwrap(), &result.final_metrics);
        } else {
            panic!("expected convergence");
        }
    }

    #[test]
    fn greedy_mode_still_converges_on_trees() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let tree = ncg_graph::generators::random_tree(25, &mut rng);
        let initial = GameState::from_graph_random_ownership(&tree, &mut rng);
        let config = DynamicsConfig::new(GameSpec::max(1.0, 3)).greedy();
        let result = run(initial, &config);
        assert!(result.outcome.converged() || matches!(result.outcome, Outcome::Cycled { .. }));
    }

    #[test]
    fn sum_dynamics_run_end_to_end() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let tree = ncg_graph::generators::random_tree(12, &mut rng);
        let initial = GameState::from_graph_random_ownership(&tree, &mut rng);
        let config = DynamicsConfig::new(GameSpec::sum(1.5, 2));
        let result = run(initial, &config);
        assert!(result.outcome.converged(), "SumNCG dynamics should settle on a small tree");
    }

    #[test]
    fn sum_warm_started_runs_match_cold_runs_bitwise() {
        // The exact SumNCG branch-and-bound warm-restarts through the
        // arena's responder (distance rows, per-depth pools, node
        // scratch); reusing one arena across (state, α, k) combinations
        // must reproduce every cold run exactly — including
        // full-knowledge views well past the old enumeration cap.
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut arena = CacheArena::new();
        for n in [12usize, 20] {
            let tree = ncg_graph::generators::random_tree(n, &mut rng);
            let initial = GameState::from_graph_random_ownership(&tree, &mut rng);
            for (alpha, k) in [(0.5, 2u32), (1.5, 3), (0.8, 1000)] {
                let config = DynamicsConfig::new(GameSpec::sum(alpha, k));
                let warm = run_with_cache(initial.clone(), &config, &mut arena);
                let cold = run(initial.clone(), &config);
                assert_eq!(warm.outcome, cold.outcome, "n={n} α={alpha} k={k}");
                assert_eq!(warm.state, cold.state, "n={n} α={alpha} k={k}");
                assert_eq!(warm.total_moves, cold.total_moves, "n={n} α={alpha} k={k}");
                assert_eq!(warm.solver_calls, cold.solver_calls, "n={n} α={alpha} k={k}");
            }
        }
    }

    #[test]
    fn run_many_matches_sequential_runs() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let initials: Vec<GameState> = (0..6)
            .map(|_| {
                let t = ncg_graph::generators::random_tree(15, &mut rng);
                GameState::from_graph_random_ownership(&t, &mut rng)
            })
            .collect();
        let config = DynamicsConfig::new(GameSpec::max(1.0, 3));
        let parallel = run_many(initials.clone(), &config);
        for (initial, par) in initials.into_iter().zip(&parallel) {
            let seq = run(initial, &config);
            assert_eq!(seq.state, par.state);
            assert_eq!(seq.outcome, par.outcome);
        }
    }

    #[test]
    fn trace_records_every_accepted_move() {
        let config = DynamicsConfig::new(GameSpec::max(0.5, 6)).with_trace();
        let result = run(GameState::cycle_successor(12), &config);
        let trace = result.trace.expect("trace requested");
        assert_eq!(trace.len(), result.total_moves);
        for e in &trace.events {
            assert!(e.new_cost < e.old_cost, "every move strictly improves");
            assert!(e.view_size >= 2);
            assert_ne!(e.old_strategy, e.new_strategy);
        }
        // Replaying the trace from the initial state reproduces the
        // final profile.
        let mut replay = GameState::cycle_successor(12);
        for e in &trace.events {
            replay.set_strategy(e.player, e.new_strategy.clone());
        }
        assert_eq!(replay, result.state);
        // Traces are off by default.
        let untraced =
            run(GameState::cycle_successor(12), &DynamicsConfig::new(GameSpec::max(0.5, 6)));
        assert!(untraced.trace.is_none());
    }

    #[test]
    fn warm_started_runs_match_cold_runs_bitwise() {
        // One arena reused across many (state, α, k, objective)
        // combinations — the sweep engine's per-rep usage pattern —
        // must reproduce every cold run exactly, including solver-call
        // counts and cache statistics.
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut arena = CacheArena::new();
        for n in [14usize, 22, 18] {
            let tree = ncg_graph::generators::random_tree(n, &mut rng);
            let initial = GameState::from_graph_random_ownership(&tree, &mut rng);
            for (alpha, k) in [(0.3, 2u32), (1.0, 3), (5.0, 2), (0.5, 1000)] {
                let config = DynamicsConfig::new(GameSpec::max(alpha, k));
                let warm = run_with_cache(initial.clone(), &config, &mut arena);
                let cold = run(initial.clone(), &config);
                assert_eq!(warm.outcome, cold.outcome, "n={n} α={alpha} k={k}");
                assert_eq!(warm.state, cold.state, "n={n} α={alpha} k={k}");
                assert_eq!(warm.total_moves, cold.total_moves, "n={n} α={alpha} k={k}");
                assert_eq!(warm.solver_calls, cold.solver_calls, "n={n} α={alpha} k={k}");
                assert_eq!(warm.cache_stats, cold.cache_stats, "n={n} α={alpha} k={k}");
                assert_eq!(warm.final_metrics, cold.final_metrics, "n={n} α={alpha} k={k}");
            }
        }
    }

    #[test]
    fn warm_start_honours_disabled_cache_and_mode() {
        let mut arena = CacheArena::new();
        let initial = GameState::cycle_successor(12);
        let config = DynamicsConfig::new(GameSpec::max(0.5, 6)).without_view_cache();
        let warm = run_with_cache(initial.clone(), &config, &mut arena);
        assert!(warm.cache_stats.is_none());
        assert_eq!(warm.state, run(initial.clone(), &config).state);
        // Same arena, now greedy mode with the cache on.
        let greedy = DynamicsConfig::new(GameSpec::max(1.0, 3)).greedy();
        let warm = run_with_cache(initial.clone(), &greedy, &mut arena);
        let cold = run(initial, &greedy);
        assert_eq!(warm.outcome, cold.outcome);
        assert_eq!(warm.state, cold.state);
    }

    #[test]
    fn rebuilt_arena_matches_cold_runs_after_a_caught_panic() {
        // A panic mid-run (here: a responder that blows up after a few
        // calls) may leave the arena's cache and responder scratch in
        // an inconsistent state. After `rebuild`, warm runs through the
        // same arena must again match cold runs bit for bit.
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let tree = ncg_graph::generators::random_tree(18, &mut rng);
        let initial = GameState::from_graph_random_ownership(&tree, &mut rng);
        let config = DynamicsConfig::new(GameSpec::max(0.5, 3));
        let mut arena = CacheArena::new();
        // Prime the arena, then poison it with a panicking run.
        let _ = run_with_cache(initial.clone(), &config, &mut arena);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut calls = 0usize;
            let mut inner = Responder::new(config.mode);
            let mut bomb = |spec: &GameSpec, view: &PlayerView| {
                calls += 1;
                if calls > 3 {
                    panic!("injected responder fault");
                }
                ncg_core::equilibrium::BestResponder::best_response(&mut inner, spec, view)
            };
            run_with(initial.clone(), &config, &mut bomb)
        }));
        assert!(panicked.is_err(), "the bomb responder must panic");
        arena.rebuild();
        let warm = run_with_cache(initial.clone(), &config, &mut arena);
        let cold = run(initial, &config);
        assert_eq!(warm.outcome, cold.outcome);
        assert_eq!(warm.state, cold.state);
        assert_eq!(warm.solver_calls, cold.solver_calls);
        assert_eq!(warm.cache_stats, cold.cache_stats);
    }

    #[test]
    fn max_rounds_cap_is_respected() {
        // A cap of 0 rounds leaves the state untouched.
        let config = DynamicsConfig { max_rounds: 0, ..DynamicsConfig::new(GameSpec::max(0.1, 5)) };
        let initial = GameState::cycle_successor(10);
        let result = run(initial.clone(), &config);
        assert_eq!(result.outcome, Outcome::MaxRoundsExceeded { rounds: 0 });
        assert_eq!(result.outcome.rounds(), 0);
        assert_eq!(result.state, initial);
    }
}
