//! Property tests for the scale tier: the CSR-native greedy responder
//! prices exactly (bit-for-bit against the exact tier's view
//! evaluator), never worsens a player, never beats the exact best
//! response, and the simultaneous round loop agrees with the
//! sequential reference whenever rounds are conflict-free, every
//! simultaneous round matches a brute-force reference round in which
//! all `n` players respond — plus bit-identical artifacts across
//! worker-pool sizes.

use ncg_core::deviation::{current_total, evaluate_total, EvalScratch};
use ncg_core::{GameSpec, GameState, PlayerView, ViewScratch};
use ncg_dynamics::scale::{
    collect_ball, respond, run_scale, RoundMode, ScaleArena, ScaleConfig, ScaleResponderConfig,
    ScaleRunResult, ScaleScratch,
};
use ncg_graph::bfs::DistanceBuffer;
use ncg_graph::{generators, CsrGraph, NodeId, INFINITY};
use ncg_solver::front::best_response_with;
use ncg_solver::{Mode, SolverScratch};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A small random connected-ish instance: a random tree (seeded) with
/// coin-toss ownership — the same family the paper sweeps.
fn tree_state(n: usize, seed: u64) -> GameState {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let tree = generators::random_tree(n, &mut rng);
    GameState::from_graph_random_ownership(&tree, &mut rng)
}

/// A responder configuration wide enough that truncation never hides
/// candidates on these test sizes.
fn exhaustive_cfg() -> ScaleResponderConfig {
    ScaleResponderConfig { max_add_candidates: 64, exhaustive_ball: 1024, max_steps: 64 }
}

/// Runs the scale responder for every player of `gs` and cross-checks
/// each claimed cost bit-for-bit against the exact tier's view
/// evaluator; returns `(player, achieved cost, exact best cost)` per
/// player.
fn check_all_players(gs: &GameState, spec: &GameSpec) -> Vec<(NodeId, f64, f64)> {
    let mut scratch = ScaleScratch::new();
    let mut buf = DistanceBuffer::new();
    let mut ball = Vec::new();
    let mut solver = SolverScratch::new();
    let mut out = Vec::new();
    for u in 0..gs.n() as NodeId {
        collect_ball(gs.graph(), u, spec.k, &mut buf, &mut ball);
        let mv = respond(gs, spec, &exhaustive_cfg(), u, &ball, &mut scratch);
        let view = PlayerView::build_with(gs, u, spec.k, &mut ViewScratch::new());
        let current = current_total(spec, &view);
        let achieved = match &mv {
            Some(mv) => {
                assert_eq!(
                    mv.old_cost.to_bits(),
                    current.to_bits(),
                    "player {u}: responder's baseline disagrees with the view evaluator"
                );
                let local: Vec<NodeId> = mv
                    .strategy
                    .iter()
                    .map(|&g| view.sub.to_local(g).expect("move target must lie in the ball"))
                    .collect();
                let exact_price = evaluate_total(spec, &view, &local, &mut EvalScratch::new());
                assert_eq!(
                    mv.new_cost.to_bits(),
                    exact_price.to_bits(),
                    "player {u}: claimed cost disagrees with the view evaluator"
                );
                assert!(
                    GameSpec::strictly_better(mv.new_cost, mv.old_cost),
                    "player {u}: returned move must be strictly improving"
                );
                mv.new_cost
            }
            None => current,
        };
        let exact = best_response_with(spec, &view, Mode::Exact, &mut solver);
        assert!(
            !GameSpec::strictly_better(achieved, exact.total_cost),
            "player {u}: greedy ({achieved}) cannot beat the exact optimum ({})",
            exact.total_cost
        );
        // When nothing improves on the current strategy, the greedy
        // responder must stand pat — it only ever returns exactly
        // priced strictly improving moves.
        if !GameSpec::strictly_better(exact.total_cost, current) {
            assert!(mv.is_none(), "player {u}: no improvement exists, yet the responder moved");
        }
        out.push((u, achieved, exact.total_cost));
    }
    out
}

/// A random `G(n, p)` state with expected degree `avg_deg`; each edge
/// is bought by one endpoint, by the other, or by both, uniformly.
fn gnp_state(n: usize, avg_deg: f64, seed: u64) -> GameState {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::new();
    generators::gnp_edges(n, avg_deg / (n - 1) as f64, &mut rng, &mut edges).unwrap();
    let mut owned = Vec::new();
    for (u, v) in edges {
        match rng.random_range(0u32..3) {
            0 => owned.push((u, v)),
            1 => owned.push((v, u)),
            _ => owned.extend([(u, v), (v, u)]),
        }
    }
    GameState::from_owned_edges(n, &owned)
}

/// All-pairs hop distances (`INFINITY` when unreachable).
fn all_pairs(g: &CsrGraph) -> Vec<Vec<u32>> {
    let n = g.node_count();
    (0..n as NodeId)
        .map(|s| {
            let mut dist = vec![INFINITY; n];
            dist[s as usize] = 0;
            let mut queue = vec![s];
            let mut head = 0;
            while head < queue.len() {
                let v = queue[head];
                head += 1;
                for &w in g.neighbors(v) {
                    if dist[w as usize] == INFINITY {
                        dist[w as usize] = dist[v as usize] + 1;
                        queue.push(w);
                    }
                }
            }
            dist
        })
        .collect()
}

/// Everything [`respond`] reads about a player: her radius-`k` ball,
/// the edges it induces, her strategy and her incoming set.
type RespondInput = (Vec<NodeId>, Vec<(NodeId, NodeId)>, Vec<NodeId>, Vec<NodeId>);

/// Player `w`'s [`RespondInput`] in `gs` (`dist`: its all-pairs table).
fn respond_input(gs: &GameState, dist: &[Vec<u32>], w: NodeId, k: u32) -> RespondInput {
    let ball: Vec<NodeId> =
        (0..gs.n() as NodeId).filter(|&v| dist[w as usize][v as usize] <= k).collect();
    let induced = ball
        .iter()
        .flat_map(|&a| gs.graph().neighbors(a).iter().map(move |&b| (a, b)))
        .filter(|&(a, b)| a < b && dist[w as usize][b as usize] <= k)
        .collect();
    (ball, induced, gs.strategy(w).to_vec(), gs.incoming(w))
}

/// What one brute-force reference round saw.
#[derive(Debug)]
struct ReferenceRound {
    proposals: usize,
    applied: usize,
    conflicts: usize,
    /// Players within distance `k` of both ends of a dropped purchase
    /// (frozen network) or an added one (updated network): the runner's
    /// next dirty set.
    view_rule: Vec<NodeId>,
    /// The former rule: radius-`k` balls of every touched node in the
    /// frozen and the updated network, plus every conflicted player.
    ball_rule: Vec<NodeId>,
    /// Conflicted players outside `view_rule`, whose proposals the
    /// runner carries instead of re-responding.
    carried: usize,
}

/// One simultaneous round the slow way: every player responds on the
/// frozen network, proposals resolve by the canonical rule (a
/// proposal conflicts when its player lies within distance `k` of the
/// touched set of an earlier accepted one), and the accepted moves
/// land through `apply_moves`. Also checks that no player outside the
/// view-change rule saw her `respond` input change.
fn reference_round(state: &mut GameState, config: &ScaleConfig) -> ReferenceRound {
    let n = state.n();
    let k = config.spec.k;
    let before = all_pairs(state.graph());
    let mut scratch = ScaleScratch::new();
    let mut buf = DistanceBuffer::new();
    let mut ball = Vec::new();
    let proposals: Vec<_> = (0..n as NodeId)
        .filter_map(|u| {
            collect_ball(state.graph(), u, k, &mut buf, &mut ball);
            respond(state, &config.spec, &config.responder, u, &ball, &mut scratch)
        })
        .collect();
    let near = |dist: &[Vec<u32>], w: usize, v: NodeId| dist[w][v as usize] <= k;
    let mut blocked = vec![false; n];
    let mut accepted = Vec::new();
    let mut conflicted = Vec::new();
    let mut touched_all = Vec::new();
    let mut edits = Vec::new();
    for mv in &proposals {
        let u = mv.player;
        if blocked[u as usize] {
            conflicted.push(u);
            continue;
        }
        let old = state.strategy(u);
        let mut touched = vec![u];
        for &x in old.iter().filter(|x| !mv.strategy.contains(x)) {
            touched.push(x);
            edits.push((u, x, false));
        }
        for &x in mv.strategy.iter().filter(|x| !old.contains(x)) {
            touched.push(x);
            edits.push((u, x, true));
        }
        for (w, b) in blocked.iter_mut().enumerate() {
            *b |= touched.iter().any(|&t| near(&before, w, t));
        }
        touched_all.extend(touched);
        accepted.push((u, mv.strategy.clone()));
    }
    let frozen = state.clone();
    state.apply_moves(&accepted, &mut Default::default());
    let after = all_pairs(state.graph());
    let view_rule: Vec<NodeId> = (0..n as NodeId)
        .filter(|&w| {
            edits.iter().any(|&(u, x, added)| {
                let dist = if added { &after } else { &before };
                near(dist, w as usize, u) && near(dist, w as usize, x)
            })
        })
        .collect();
    let ball_rule: Vec<NodeId> = (0..n as NodeId)
        .filter(|&w| {
            conflicted.contains(&w)
                || touched_all
                    .iter()
                    .any(|&t| near(&before, w as usize, t) || near(&after, w as usize, t))
        })
        .collect();
    for w in 0..n as NodeId {
        if view_rule.binary_search(&w).is_err() {
            assert_eq!(
                respond_input(&frozen, &before, w, k),
                respond_input(state, &after, w, k),
                "player {w} is outside the view-change rule, yet her respond input changed"
            );
        }
    }
    assert!(view_rule.iter().all(|w| ball_rule.contains(w)), "view rule exceeds the ball rule");
    let carried = conflicted.iter().filter(|w| view_rule.binary_search(w).is_err()).count();
    ReferenceRound {
        proposals: proposals.len(),
        applied: accepted.len(),
        conflicts: conflicted.len(),
        view_rule,
        ball_rule,
        carried,
    }
}

/// Runs `run_scale` and, from the same start, as many reference
/// rounds; asserts they agree round by round and in the final state.
fn check_against_reference(
    initial: &GameState,
    config: &ScaleConfig,
) -> (ScaleRunResult, Vec<ReferenceRound>) {
    let mut state = initial.clone();
    let run = run_scale(&mut state, config, &mut ScaleArena::new());
    let mut reference = initial.clone();
    let mut rounds = Vec::new();
    for (r, stats) in run.rounds.iter().enumerate() {
        let round = reference_round(&mut reference, config);
        assert_eq!(stats.proposals, round.proposals, "round {}: proposals", r + 1);
        assert_eq!(stats.applied, round.applied, "round {}: applied", r + 1);
        assert_eq!(stats.conflicts, round.conflicts, "round {}: conflicts", r + 1);
        if let Some(next) = run.rounds.get(r + 1) {
            assert_eq!(next.dirty, round.view_rule.len(), "round {}: dirty players", r + 2);
        }
        rounds.push(round);
    }
    assert_eq!(state, reference, "final states diverge from the reference rounds");
    (run, rounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) + (b) + (c): exact pricing, no worsening, agreement with
    /// `best_response_with` whenever the greedy move is exact-optimal
    /// (and mandatory stand-pat when no improvement exists).
    #[test]
    fn responder_is_exactly_priced_and_bounded_by_the_exact_solver(
        seed in 0u64..1_000_000,
        n in 4usize..18,
        ai in 0usize..4,
        k in 2u32..4,
        sum in any::<bool>(),
    ) {
        let alpha = [0.3, 0.8, 1.5, 5.0][ai];
        let gs = tree_state(n, seed);
        let spec = if sum { GameSpec::sum(alpha, k) } else { GameSpec::max(alpha, k) };
        check_all_players(&gs, &spec);
    }

    /// (d) Sequential-vs-simultaneous parity on conflict-free rounds:
    /// when every simultaneous round carries at most one proposal,
    /// the two disciplines provably apply the same move sequence, so
    /// outcome, move count, and final state must be bit-identical.
    #[test]
    fn single_proposal_rounds_make_the_modes_agree(
        seed in 0u64..1_000_000,
        n in 4usize..16,
        ai in 0usize..3,
        k in 2u32..4,
    ) {
        let alpha = [0.4, 1.2, 4.0][ai];
        let initial = tree_state(n, seed);
        let spec = GameSpec::max(alpha, k);
        let mut config = ScaleConfig::new(spec);
        config.max_rounds = 64;
        let mut sim_state = initial.clone();
        let sim = run_scale(&mut sim_state, &config, &mut ScaleArena::new());
        if sim.rounds.iter().all(|r| r.proposals <= 1) {
            config.mode = RoundMode::Sequential;
            let mut seq_state = initial;
            let seq = run_scale(&mut seq_state, &config, &mut ScaleArena::new());
            prop_assert_eq!(sim_state, seq_state, "final states diverge");
            prop_assert_eq!(sim.total_moves, seq.total_moves);
            // Round partitions legitimately differ (a sequential round
            // applies every improving move in one pass), so only the
            // convergence verdict must agree, not the round count.
            prop_assert_eq!(
                std::mem::discriminant(&sim.outcome),
                std::mem::discriminant(&seq.outcome)
            );
        }
    }

    /// Simultaneous rounds equal the brute-force reference round by
    /// round: re-running only the view-change dirty set plus carried
    /// proposals loses no proposal a full re-response would make.
    #[test]
    fn rounds_match_a_full_re_response(
        seed in 0u64..1_000_000,
        n in 20usize..61,
        di in 0usize..3,
        ai in 0usize..4,
        k in 1u32..4,
        sum in any::<bool>(),
    ) {
        let alpha = [0.5, 1.5, 3.0, 5.0][ai];
        let initial = gnp_state(n, [2.5, 4.0, 6.0][di], seed);
        let spec = if sum { GameSpec::sum(alpha, k) } else { GameSpec::max(alpha, k) };
        let mut config = ScaleConfig::new(spec);
        config.max_rounds = 12;
        // Past 8 candidates only the 4 farthest add-endpoints are
        // tried, as on the large balls of a 10^5-player run; this also
        // keeps SumNCG's small-α climbs cheap.
        config.responder.exhaustive_ball = 8;
        check_against_reference(&initial, &config);
    }
}

/// A fixed instance on which the view-change rule dirties strictly
/// fewer players than the ball rule and carries conflicted proposals,
/// so the saving path is checked against the reference on every
/// `cargo test`, whatever the fuzzer draws.
#[test]
fn view_rule_saves_work_on_a_known_instance() {
    let initial = gnp_state(60, 4.0, 11);
    let mut config = ScaleConfig::new(GameSpec::max(5.0, 2));
    config.max_rounds = 12;
    let (run, rounds) = check_against_reference(&initial, &config);
    assert!(run.total_conflicts > 0, "no conflicts: the carry path is dead");
    assert!(
        rounds.iter().any(|r| r.view_rule.len() < r.ball_rule.len()),
        "the view rule never beat the ball rule"
    );
    assert!(rounds.iter().any(|r| r.carried > 0), "no conflicted proposal was carried");
}

/// The parity property above is conditional; this fixed seed scan
/// keeps it honest: at `n = 9, α = 2.5, k = 3` roughly a third of
/// random trees produce a run with at least one move and never more
/// than one proposal per round, so the conflict-free branch is
/// exercised on every `cargo test`, not just when the fuzzer gets
/// lucky.
#[test]
fn parity_condition_is_reachable_on_a_known_instance() {
    let mut hit = false;
    for seed in 0..64u64 {
        let initial = tree_state(9, seed);
        let spec = GameSpec::max(2.5, 3);
        let mut config = ScaleConfig::new(spec);
        config.max_rounds = 64;
        let mut sim_state = initial.clone();
        let sim = run_scale(&mut sim_state, &config, &mut ScaleArena::new());
        if sim.rounds.iter().all(|r| r.proposals <= 1) && sim.total_moves > 0 {
            hit = true;
            config.mode = RoundMode::Sequential;
            let mut seq_state = initial;
            let seq = run_scale(&mut seq_state, &config, &mut ScaleArena::new());
            assert_eq!(sim_state, seq_state, "seed {seed}: final states diverge");
            assert_eq!(sim.total_moves, seq.total_moves, "seed {seed}");
            assert_eq!(
                std::mem::discriminant(&sim.outcome),
                std::mem::discriminant(&seq.outcome),
                "seed {seed}: convergence verdicts diverge"
            );
        }
    }
    assert!(hit, "no seed produced a non-trivial conflict-free run; the parity property is dead");
}

/// Artifacts must be byte-identical for any worker-pool size — the
/// in-process version of the CI scale lane's `NCG_THREADS=1` vs `4`
/// diff. Fixed proposal chunks plus the order-preserving vendored map
/// make this exact, not approximate.
#[test]
fn runs_are_bit_identical_across_thread_counts() {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let mut edges = Vec::new();
    generators::gnp_edges(3_000, 8.0 / 2_999.0, &mut rng, &mut edges).unwrap();
    let owned: Vec<(NodeId, NodeId)> = edges
        .into_iter()
        .enumerate()
        .map(|(i, (u, v))| if i % 2 == 0 { (u, v) } else { (v, u) })
        .collect();
    let initial = GameState::from_owned_edges(3_000, &owned);
    let mut config = ScaleConfig::new(GameSpec::max(1.0, 2));
    config.max_rounds = 4;
    let run_with_threads = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            let mut state = initial.clone();
            let result = run_scale(&mut state, &config, &mut ScaleArena::new());
            (state, result.outcome, result.total_moves, result.rounds, result.view_sample)
        })
    };
    let single = run_with_threads(1);
    let four = run_with_threads(4);
    assert_eq!(single.0, four.0, "final states must be bit-identical across thread counts");
    assert_eq!(single.1, four.1);
    assert_eq!(single.2, four.2);
    assert_eq!(single.3, four.3);
    assert_eq!(single.4, four.4);
}
