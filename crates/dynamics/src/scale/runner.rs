//! Simultaneous-move dynamics over [`GameState`] — the scale tier's
//! round loop.
//!
//! ## Round structure (`RoundMode::Simultaneous`)
//!
//! 1. **Propose** — every dirty player computes a greedy best
//!    response against the *frozen* start-of-round network, in
//!    parallel over fixed-size chunks. Chunk boundaries depend only on
//!    the dirty list, never on the worker count, and the vendored
//!    rayon map preserves input order, so the proposal list is
//!    byte-identical for any `NCG_THREADS`.
//! 2. **Resolve** — proposals are scanned once in canonical player
//!    order. A proposal is *accepted* unless its player lies within
//!    distance `k` of the touched set (mover + strategy symmetric
//!    difference) of an earlier accepted move — in which case the
//!    proposal was computed on stale information and is *conflicted*
//!    (held back, never applied this round). Acceptance is safe: a
//!    changed edge is incident to a touched node, so any path from an
//!    unconflicted player through a changed edge is longer than `k`,
//!    her radius-`k` ball is bit-identical in the frozen and updated
//!    networks, and her proposal's exact cost delta still holds.
//! 3. **Apply** — accepted moves land in one `O(n + m)` SoA rebuild.
//! 4. **Dirty** — [`respond`] reads only a player's radius-`k` ball,
//!    the edges it induces, her own strategy and her incoming set. A
//!    round changes those for player `w` only if `w` is touched, or
//!    some changed edge `(u, x)` has both ends within distance `k` of
//!    `w` (in the frozen network for a dropped purchase, in the
//!    updated one for an added purchase): a path of length `≤ k` from
//!    `w` only visits nodes within distance `k` of her, so an edge
//!    with an end farther away is on no such path and outside her
//!    induced ball. The next round's dirty set is therefore the union,
//!    over accepted moves, of `B_k(u) ∩ B_k(x)` for every changed
//!    purchase `u → x` on the side where the edge exists — which
//!    contains the touched nodes themselves. Everyone else faces a
//!    bit-identical `respond` input: clean players stand pat, and a
//!    conflicted player outside the set carries her proposal into the
//!    next round unchanged instead of re-responding. So every round's
//!    proposal list equals a full re-response of all `n` players.
//!
//! `RoundMode::Sequential` is the small-`n` reference mode: players
//! move one at a time in ascending order within a round (each seeing
//! all earlier moves), which matches the exact tier's round-robin
//! discipline and anchors the sequential-vs-simultaneous parity
//! tests. It rebuilds the SoA per move, so it is not meant for
//! million-node inputs.
//!
//! Convergence and cycling reuse the exact tier's [`Outcome`]
//! vocabulary. Cycle detection is a 128-bit incremental profile
//! fingerprint (two independently seeded XOR'd per-player terms) —
//! unlike [`CycleDetector`](crate::CycleDetector) hits are *not*
//! re-verified against a journal, which is the documented
//! approximation of this tier (a false cycle needs a 2⁻¹²⁸ collision).

use std::collections::HashMap;
use std::sync::Mutex;

use ncg_core::{ApplyScratch, GameSpec, GameState};
use ncg_graph::batch::{batch_bfs, BatchDistances, BatchScratch, WORD_LANES};
use ncg_graph::{CsrGraph, NodeId};
use rayon::prelude::*;

use super::responder::{respond, ScaleMove, ScaleResponderConfig, ScaleScratch};
use crate::fingerprint::player_term;
use crate::Outcome;

/// Players whose proposals one parallel task computes. Fixed — chunk
/// boundaries must not depend on the worker count, or artifacts would
/// differ across `NCG_THREADS`.
const PROPOSAL_CHUNK: usize = 4096;

/// How players take turns within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundMode {
    /// All dirty players propose against the frozen round-start
    /// network; colliding proposals are held back deterministically
    /// (canonical player order wins) and, when their player's view
    /// stays unchanged, carried into the next round. The scale mode.
    Simultaneous,
    /// Players move one at a time in ascending order, each seeing all
    /// earlier moves — the exact tier's discipline, kept as the
    /// small-`n` parity reference.
    Sequential,
}

/// Configuration of a scale-tier dynamics run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Game parameters (uniform any-subset scenarios only).
    pub spec: GameSpec,
    /// Responder approximation knobs.
    pub responder: ScaleResponderConfig,
    /// Safety cap on rounds.
    pub max_rounds: usize,
    /// Turn-taking discipline.
    pub mode: RoundMode,
}

impl ScaleConfig {
    /// Defaults: simultaneous rounds, default responder, 64-round cap.
    pub fn new(spec: GameSpec) -> Self {
        ScaleConfig {
            spec,
            responder: ScaleResponderConfig::default(),
            max_rounds: 64,
            mode: RoundMode::Simultaneous,
        }
    }
}

/// Per-round accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleRoundStats {
    /// Players that called [`respond`] this round (carried proposals
    /// are not counted).
    pub dirty: usize,
    /// Strictly improving proposals collected, fresh and carried.
    pub proposals: usize,
    /// Proposals applied after conflict resolution.
    pub applied: usize,
    /// Proposals held back as conflicted (simultaneous mode only).
    pub conflicts: usize,
}

/// Ball sizes of a deterministic 64-player sample (the batched-BFS
/// stand-in for the exact tier's exhaustive min/avg view statistics,
/// which are `O(n·m)` and unaffordable at this tier).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewSample {
    /// Number of sampled players (`min(64, n)`).
    pub lanes: usize,
    /// Smallest sampled radius-`k` ball.
    pub min: usize,
    /// Largest sampled radius-`k` ball.
    pub max: usize,
    /// Mean sampled ball size.
    pub avg: f64,
}

/// Result of [`run_scale`].
#[derive(Debug, Clone)]
pub struct ScaleRunResult {
    /// How the run ended (same vocabulary as the exact tier).
    pub outcome: Outcome,
    /// Per-round accounting, in order.
    pub rounds: Vec<ScaleRoundStats>,
    /// Total moves applied.
    pub total_moves: usize,
    /// Total strictly improving proposals (applied + conflicted).
    pub total_proposals: usize,
    /// Total conflicted proposals.
    pub total_conflicts: usize,
    /// Sampled ball statistics of the final network.
    pub view_sample: ViewSample,
}

/// Per-worker scratch: responder buffers plus the ball staging vector.
#[derive(Debug, Default)]
struct WorkerScratch {
    responder: ScaleScratch,
    ball: Vec<NodeId>,
}

/// Checks a worker scratch out of the shared pool and returns it on
/// drop, so buffers persist across rounds instead of being
/// reallocated per parallel task.
struct PoolGuard<'a> {
    pool: &'a Mutex<Vec<WorkerScratch>>,
    ws: Option<WorkerScratch>,
}

impl<'a> PoolGuard<'a> {
    fn take(pool: &'a Mutex<Vec<WorkerScratch>>) -> Self {
        let ws = pool.lock().expect("scratch pool poisoned").pop().unwrap_or_default();
        PoolGuard { pool, ws: Some(ws) }
    }

    fn get(&mut self) -> &mut WorkerScratch {
        self.ws.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PoolGuard<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool.lock().expect("scratch pool poisoned").push(ws);
        }
    }
}

/// Epoch-stamped bounded multi-source BFS used for interference and
/// dirty marking: `O(marked)` per call, no per-call `O(n)` reset, and
/// repeated calls within one epoch accumulate the *union* of balls
/// (distances only ever shrink, with re-enqueueing on improvement so
/// later, closer sources extend the marked region correctly).
#[derive(Debug, Clone, Default)]
struct MarkScratch {
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<NodeId>,
}

impl MarkScratch {
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    fn is_marked(&self, v: NodeId) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    /// Marks every node within distance `k` of `sources` in `g`.
    fn mark_ball(&mut self, g: &CsrGraph, sources: impl IntoIterator<Item = NodeId>, k: u32) {
        self.queue.clear();
        for s in sources {
            if self.stamp[s as usize] != self.epoch {
                self.stamp[s as usize] = self.epoch;
                self.dist[s as usize] = 0;
                self.queue.push(s);
            } else if self.dist[s as usize] > 0 {
                self.dist[s as usize] = 0;
                self.queue.push(s);
            }
        }
        let mut head = 0usize;
        while head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            let d = self.dist[v as usize];
            if d == k {
                continue;
            }
            let nd = d + 1;
            for &w in g.neighbors(v) {
                if self.stamp[w as usize] != self.epoch {
                    self.stamp[w as usize] = self.epoch;
                    self.dist[w as usize] = nd;
                    self.queue.push(w);
                } else if self.dist[w as usize] > nd {
                    self.dist[w as usize] = nd;
                    self.queue.push(w);
                }
            }
        }
    }
}

/// 128-bit incremental strategy-profile fingerprint: XOR over players
/// of two independently seeded well-mixed terms (the exact tier's
/// [`player_term`] at seeds `FP_SEED_A` and `FP_SEED_B`), updated in
/// `O(|σ_old| + |σ_new|)` per accepted move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ProfileFp(u64, u64);

const FP_SEED_A: u64 = 0;
const FP_SEED_B: u64 = 0x9e37_79b9_7f4a_7c15;

impl ProfileFp {
    fn of_state(state: &GameState) -> Self {
        let mut a = 0u64;
        let mut b = 0u64;
        for u in 0..state.n() as NodeId {
            let sigma = state.strategy(u);
            a ^= player_term(FP_SEED_A, u, sigma);
            b ^= player_term(FP_SEED_B, u, sigma);
        }
        ProfileFp(a, b)
    }

    fn apply(&mut self, u: NodeId, old: &[NodeId], new: &[NodeId]) {
        self.0 ^= player_term(FP_SEED_A, u, old) ^ player_term(FP_SEED_A, u, new);
        self.1 ^= player_term(FP_SEED_B, u, old) ^ player_term(FP_SEED_B, u, new);
    }
}

/// All allocations [`run_scale`] needs, reusable across runs (the
/// sweep engine keeps one per repetition slot, like the exact tier's
/// [`CacheArena`](crate::CacheArena)).
#[derive(Debug, Default)]
pub struct ScaleArena {
    pool: Mutex<Vec<WorkerScratch>>,
    seq: WorkerScratch,
    apply: ApplyScratch,
    mark: MarkScratch,
    dirty: Vec<NodeId>,
    next_dirty: Vec<NodeId>,
    /// `(mover, target)` purchases the round's accepted moves drop.
    dropped: Vec<(NodeId, NodeId)>,
    /// `(mover, target)` purchases the round's accepted moves add.
    added: Vec<(NodeId, NodeId)>,
    accepted: Vec<(NodeId, Vec<NodeId>)>,
    /// Conflicted proposals whose player's view the round left
    /// unchanged, ascending by player: next round's proposals for
    /// those players, without calling [`respond`] again.
    carried: Vec<ScaleMove>,
    seen: HashMap<ProfileFp, usize>,
    batch: BatchScratch,
    dists: BatchDistances,
}

impl ScaleArena {
    /// Fresh arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Ball sizes of `min(64, n)` evenly spaced players via one batched
/// BFS call — the only place the whole-graph kernel's `O(n)` setup is
/// paid, once per run.
fn sample_views(state: &GameState, k: u32, arena: &mut ScaleArena) -> ViewSample {
    let n = state.n();
    if n == 0 {
        return ViewSample { lanes: 0, min: 0, max: 0, avg: 0.0 };
    }
    let lanes = n.min(WORD_LANES);
    let sources: Vec<NodeId> = (0..lanes).map(|i| (i * n / lanes) as NodeId).collect();
    batch_bfs(state.graph(), &sources, k, &mut arena.batch, &mut arena.dists);
    let sizes: Vec<usize> = (0..lanes).map(|l| arena.dists.ball_size(l, k)).collect();
    ViewSample {
        lanes,
        min: sizes.iter().copied().min().unwrap_or(0),
        max: sizes.iter().copied().max().unwrap_or(0),
        avg: sizes.iter().sum::<usize>() as f64 / lanes as f64,
    }
}

/// Appends `u`'s purchase edits, `old → new` (both sorted ascending),
/// to `dropped` and `added` as `(u, target)` pairs.
fn push_purchase_edits(
    u: NodeId,
    old: &[NodeId],
    new: &[NodeId],
    dropped: &mut Vec<(NodeId, NodeId)>,
    added: &mut Vec<(NodeId, NodeId)>,
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() || j < new.len() {
        if j == new.len() || (i < old.len() && old[i] < new[j]) {
            dropped.push((u, old[i]));
            i += 1;
        } else if i == old.len() || new[j] < old[i] {
            added.push((u, new[j]));
            j += 1;
        } else {
            i += 1;
            j += 1;
        }
    }
}

/// Appends to `out` every player whose radius-`k` view contains one of
/// the edges `purchases` (`(mover, target)` pairs grouped by mover) in
/// `g`: the players within distance `k` of both ends, `B_k(u) ∩
/// B_k(x)`. Called on the frozen network with the dropped purchases
/// and on the updated one with the added purchases, this is the exact
/// view-change rule of step 4 (module doc). The mover and each target
/// are adjacent on that side, so they land in their own intersection.
fn push_view_changes(
    g: &CsrGraph,
    purchases: &[(NodeId, NodeId)],
    k: u32,
    mark: &mut MarkScratch,
    ws: &mut WorkerScratch,
    out: &mut Vec<NodeId>,
) {
    for edits in purchases.chunk_by(|a, b| a.0 == b.0) {
        mark.begin(g.node_count());
        mark.mark_ball(g, edits.iter().map(|&(_, x)| x), k);
        ws.responder.discover_ball(g, edits[0].0, k, &mut ws.ball);
        out.extend(ws.ball.iter().copied().filter(|&w| mark.is_marked(w)));
    }
}

/// One simultaneous round. Returns the stats; mutates `state`, the
/// arena's dirty bookkeeping, and the profile fingerprint.
fn simultaneous_round(
    state: &mut GameState,
    config: &ScaleConfig,
    arena: &mut ScaleArena,
    fp: &mut ProfileFp,
) -> ScaleRoundStats {
    let k = config.spec.k;
    let n = state.n();
    let dirty_count = arena.dirty.len();

    // Phase 1: proposals against the frozen network, in parallel over
    // fixed-size chunks (order-preserving map ⇒ canonical order).
    let chunks: Vec<Vec<NodeId>> = arena.dirty.chunks(PROPOSAL_CHUNK).map(|c| c.to_vec()).collect();
    let spec = &config.spec;
    let rcfg = &config.responder;
    let pool = &arena.pool;
    let frozen: &GameState = state;
    let mut proposals: Vec<ScaleMove> = chunks
        .into_par_iter()
        .map_init(
            || PoolGuard::take(pool),
            |guard, chunk| {
                let ws = guard.get();
                let mut out = Vec::new();
                for &u in &chunk {
                    ws.responder.discover_ball(frozen.graph(), u, k, &mut ws.ball);
                    if let Some(mv) = respond(frozen, spec, rcfg, u, &ws.ball, &mut ws.responder) {
                        out.push(mv);
                    }
                }
                out
            },
        )
        .collect::<Vec<Vec<ScaleMove>>>()
        .into_iter()
        .flatten()
        .collect();
    // Carried proposals belong to players outside the dirty list, so
    // the merge by player id has no duplicates.
    proposals.append(&mut arena.carried);
    proposals.sort_unstable_by_key(|mv| mv.player);

    let proposal_count = proposals.len();
    if proposal_count == 0 {
        return ScaleRoundStats { dirty: dirty_count, proposals: 0, applied: 0, conflicts: 0 };
    }

    // Phase 2: canonical-order conflict resolution on the frozen
    // network (proposals arrive ascending by player). Conflicted
    // proposals wait in `carried` until phase 4 decides their fate.
    arena.mark.begin(n);
    arena.accepted.clear();
    arena.dropped.clear();
    arena.added.clear();
    for mv in proposals {
        if arena.mark.is_marked(mv.player) {
            arena.carried.push(mv);
            continue;
        }
        let old = state.strategy(mv.player);
        let (d0, a0) = (arena.dropped.len(), arena.added.len());
        push_purchase_edits(mv.player, old, &mv.strategy, &mut arena.dropped, &mut arena.added);
        fp.apply(mv.player, old, &mv.strategy);
        // Touched set: the mover and every target she gains or loses.
        let targets = arena.dropped[d0..].iter().chain(&arena.added[a0..]).map(|&(_, x)| x);
        arena.mark.mark_ball(state.graph(), std::iter::once(mv.player).chain(targets), k);
        arena.accepted.push((mv.player, mv.strategy));
    }
    let applied = arena.accepted.len();
    let conflicts = arena.carried.len();

    // Phases 3 and 4: the dropped purchases' view changes on the
    // frozen network, one batched SoA rebuild, then the added
    // purchases' view changes on the updated network. The conflict
    // marks are spent, so `mark` and a worker scratch are free.
    let mut guard = PoolGuard::take(&arena.pool);
    let ws = guard.get();
    arena.next_dirty.clear();
    push_view_changes(state.graph(), &arena.dropped, k, &mut arena.mark, ws, &mut arena.next_dirty);
    state.apply_moves(&arena.accepted, &mut arena.apply);
    push_view_changes(state.graph(), &arena.added, k, &mut arena.mark, ws, &mut arena.next_dirty);
    arena.next_dirty.sort_unstable();
    arena.next_dirty.dedup();
    std::mem::swap(&mut arena.dirty, &mut arena.next_dirty);
    arena.carried.retain(|mv| arena.dirty.binary_search(&mv.player).is_err());
    if cfg!(debug_assertions) {
        for mv in &arena.carried {
            ws.responder.discover_ball(state.graph(), mv.player, k, &mut ws.ball);
            let fresh = respond(state, spec, rcfg, mv.player, &ws.ball, &mut ws.responder);
            debug_assert_eq!(
                fresh.as_ref(),
                Some(mv),
                "carried proposal of player {} is stale",
                mv.player
            );
        }
    }

    ScaleRoundStats { dirty: dirty_count, proposals: proposal_count, applied, conflicts }
}

/// One sequential round: ascending order, each mover immediately
/// applied (full SoA rebuild per move — reference mode, small `n`).
fn sequential_round(
    state: &mut GameState,
    config: &ScaleConfig,
    arena: &mut ScaleArena,
    fp: &mut ProfileFp,
) -> ScaleRoundStats {
    let k = config.spec.k;
    let dirty_count = arena.dirty.len();
    let mut applied = 0usize;
    arena.next_dirty.clear();
    for i in 0..arena.dirty.len() {
        let u = arena.dirty[i];
        let ws = &mut arena.seq;
        ws.responder.discover_ball(state.graph(), u, k, &mut ws.ball);
        let Some(mv) =
            respond(state, &config.spec, &config.responder, u, &ws.ball, &mut ws.responder)
        else {
            continue;
        };
        let old = state.strategy(u);
        arena.dropped.clear();
        arena.added.clear();
        push_purchase_edits(u, old, &mv.strategy, &mut arena.dropped, &mut arena.added);
        fp.apply(u, old, &mv.strategy);
        // The same view-change rule as a simultaneous round, one move
        // at a time; players earlier in this round are included too,
        // which only over-approximates.
        push_view_changes(
            state.graph(),
            &arena.dropped,
            k,
            &mut arena.mark,
            ws,
            &mut arena.next_dirty,
        );
        state.apply_moves(&[(u, mv.strategy)], &mut arena.apply);
        push_view_changes(
            state.graph(),
            &arena.added,
            k,
            &mut arena.mark,
            ws,
            &mut arena.next_dirty,
        );
        applied += 1;
    }
    arena.next_dirty.sort_unstable();
    arena.next_dirty.dedup();
    std::mem::swap(&mut arena.dirty, &mut arena.next_dirty);
    ScaleRoundStats { dirty: dirty_count, proposals: applied, applied, conflicts: 0 }
}

/// Runs the scale-tier dynamics to convergence, a detected cycle, or
/// the round cap. Deterministic for a given `(state, config)` —
/// independent of `NCG_THREADS` and of whether a previous run shared
/// the arena.
pub fn run_scale(
    state: &mut GameState,
    config: &ScaleConfig,
    arena: &mut ScaleArena,
) -> ScaleRunResult {
    let n = state.n();
    arena.seen.clear();
    let mut fp = ProfileFp::of_state(state);
    arena.seen.insert(fp, 0);
    arena.dirty.clear();
    arena.dirty.extend(0..n as NodeId);
    arena.carried.clear();

    let mut rounds = Vec::new();
    let mut total_moves = 0usize;
    let mut total_proposals = 0usize;
    let mut total_conflicts = 0usize;
    let mut outcome = Outcome::MaxRoundsExceeded { rounds: config.max_rounds };
    for round in 1..=config.max_rounds {
        let stats = match config.mode {
            RoundMode::Simultaneous => simultaneous_round(state, config, arena, &mut fp),
            RoundMode::Sequential => sequential_round(state, config, arena, &mut fp),
        };
        rounds.push(stats);
        total_moves += stats.applied;
        total_proposals += stats.proposals;
        total_conflicts += stats.conflicts;
        if stats.proposals == 0 {
            outcome = Outcome::Converged { rounds: round };
            break;
        }
        if let Some(&first_seen) = arena.seen.get(&fp) {
            outcome = Outcome::Cycled { first_seen, repeated_at: round };
            break;
        }
        arena.seen.insert(fp, round);
    }
    let view_sample = sample_views(state, config.spec.k, arena);
    ScaleRunResult { outcome, rounds, total_moves, total_proposals, total_conflicts, view_sample }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view_cache::touched_of;

    fn successor_path(n: usize) -> GameState {
        let strategies: Vec<Vec<NodeId>> =
            (0..n).map(|u| if u + 1 < n { vec![u as NodeId + 1] } else { vec![] }).collect();
        GameState::from_strategies(n, strategies)
    }

    #[test]
    fn converges_and_validates_on_a_path() {
        for mode in [RoundMode::Simultaneous, RoundMode::Sequential] {
            let mut state = successor_path(16);
            let mut config = ScaleConfig::new(GameSpec::max(0.5, 3));
            config.mode = mode;
            let mut arena = ScaleArena::new();
            let result = run_scale(&mut state, &config, &mut arena);
            assert!(
                matches!(result.outcome, Outcome::Converged { .. }),
                "{mode:?} did not converge: {:?}",
                result.outcome
            );
            assert!(state.validate().is_ok());
            // Re-running from the converged profile is a one-round no-op.
            let again = run_scale(&mut state, &config, &mut arena);
            assert!(matches!(again.outcome, Outcome::Converged { rounds: 1 }));
            assert_eq!(again.total_moves, 0);
        }
    }

    #[test]
    fn arena_reuse_is_bit_identical() {
        let config = ScaleConfig::new(GameSpec::sum(1.0, 2));
        let mut arena = ScaleArena::new();
        let mut first = successor_path(12);
        let r1 = run_scale(&mut first, &config, &mut arena);
        let mut second = successor_path(12);
        let r2 = run_scale(&mut second, &config, &mut arena);
        assert_eq!(first, second);
        assert_eq!(r1.outcome, r2.outcome);
        assert_eq!(r1.rounds, r2.rounds);
    }

    #[test]
    fn dirty_set_is_exactly_the_changed_views() {
        // Path 0-1-2-3-4-5 (each player buys her successor) with a
        // triangle 5-6-7 hung off its end: 5 buys 6 and 7, 6 buys 7.
        // At α = 2, k = 2 (Max) player 5 drops her redundant purchase
        // of 7; only her dirty bit is set, so she is the only mover.
        let owned = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)];
        let mut state = GameState::from_owned_edges(8, &owned);
        let config = ScaleConfig::new(GameSpec::max(2.0, 2));
        let mut arena = ScaleArena::new();
        arena.dirty = vec![5];
        let mut fp = ProfileFp::of_state(&state);
        let stats = simultaneous_round(&mut state, &config, &mut arena, &mut fp);
        assert_eq!(stats, ScaleRoundStats { dirty: 1, proposals: 1, applied: 1, conflicts: 0 });
        assert_eq!(state.strategy(5), &[6]);
        // The dropped edge 5-7 lies in the radius-2 views of exactly
        // B_2(5) ∩ B_2(7) = {4, 5, 6, 7} of the frozen network.
        assert_eq!(arena.dirty, vec![4, 5, 6, 7]);
        // Player 3 sits at distance k = 2 from the mover, so the
        // ball-of-touched rule dirtied her, but 7 is at distance 3
        // from her: the dropped edge 5-7 was never in her view.
        let frozen = GameState::from_owned_edges(8, &owned);
        let mut scratch = ScaleScratch::new();
        let (mut before, mut after) = (Vec::new(), Vec::new());
        scratch.discover_ball(frozen.graph(), 5, 2, &mut before);
        assert!(before.contains(&3));
        scratch.discover_ball(frozen.graph(), 3, 2, &mut before);
        scratch.discover_ball(state.graph(), 3, 2, &mut after);
        assert_eq!(before, [1, 2, 3, 4, 5]);
        assert_eq!(after, before);
    }

    #[test]
    fn touched_of_is_center_plus_symdiff() {
        let mut out = Vec::new();
        touched_of(5, &[1, 3, 7], &[3, 4], &mut out);
        assert_eq!(out, vec![1, 4, 5, 7]);
        touched_of(0, &[], &[], &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn view_sample_covers_small_graphs() {
        let state = successor_path(5);
        let mut arena = ScaleArena::new();
        let sample = sample_views(&state, 2, &mut arena);
        assert_eq!(sample.lanes, 5);
        assert!(sample.min >= 1 && sample.avg > 0.0);
    }
}
