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
//!    (dropped, player retried next round). Acceptance is safe: a
//!    changed edge is incident to a touched node, so any path from an
//!    unconflicted player through a changed edge is longer than `k`,
//!    her radius-`k` ball is bit-identical in the frozen and updated
//!    networks, and her proposal's exact cost delta still holds.
//! 3. **Apply** — accepted moves land in one `O(n + m)` SoA rebuild.
//! 4. **Dirty** — the next round's dirty set is the union of the
//!    radius-`k` balls of all touched nodes in the frozen *and* the
//!    updated network, plus the conflicted players. Everyone else
//!    kept their ball bit-identical and provably stands pat.
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
use crate::view_cache::touched_of;
use crate::Outcome;

/// Players whose proposals one parallel task computes. Fixed — chunk
/// boundaries must not depend on the worker count, or artifacts would
/// differ across `NCG_THREADS`.
const PROPOSAL_CHUNK: usize = 4096;

/// How players take turns within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundMode {
    /// All dirty players propose against the frozen round-start
    /// network; colliding proposals are dropped deterministically
    /// (canonical player order wins). The scale mode.
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
    /// Players that responded this round.
    pub dirty: usize,
    /// Strictly improving proposals collected.
    pub proposals: usize,
    /// Proposals applied after conflict resolution.
    pub applied: usize,
    /// Proposals dropped as conflicted (simultaneous mode only).
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
    /// Log of nodes stamped in the current epoch.
    marked: Vec<NodeId>,
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
        self.marked.clear();
    }

    fn is_marked(&self, v: NodeId) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    /// Marks every node within distance `k` of `sources` in `g`.
    fn mark_ball(&mut self, g: &CsrGraph, sources: &[NodeId], k: u32) {
        self.queue.clear();
        for &s in sources {
            if self.stamp[s as usize] != self.epoch {
                self.stamp[s as usize] = self.epoch;
                self.marked.push(s);
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
                    self.marked.push(w);
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
    touched: Vec<NodeId>,
    touched_all: Vec<NodeId>,
    accepted: Vec<(NodeId, Vec<NodeId>)>,
    conflicted: Vec<NodeId>,
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
    let proposals: Vec<ScaleMove> = chunks
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

    let proposal_count = proposals.len();
    if proposal_count == 0 {
        return ScaleRoundStats { dirty: dirty_count, proposals: 0, applied: 0, conflicts: 0 };
    }

    // Phase 2: canonical-order conflict resolution on the frozen
    // network (proposals arrive ascending by player).
    arena.mark.begin(n);
    arena.accepted.clear();
    arena.conflicted.clear();
    arena.touched_all.clear();
    for mv in proposals {
        if arena.mark.is_marked(mv.player) {
            arena.conflicted.push(mv.player);
            continue;
        }
        let old = state.strategy(mv.player);
        touched_of(mv.player, old, &mv.strategy, &mut arena.touched);
        fp.apply(mv.player, old, &mv.strategy);
        arena.mark.mark_ball(state.graph(), &arena.touched, k);
        arena.touched_all.extend_from_slice(&arena.touched);
        arena.accepted.push((mv.player, mv.strategy));
    }
    let applied = arena.accepted.len();
    let conflicts = arena.conflicted.len();

    // Phase 3: one batched SoA rebuild.
    arena.next_dirty.clear();
    arena.next_dirty.extend_from_slice(&arena.mark.marked);
    state.apply_moves(&arena.accepted, &mut arena.apply);

    // Phase 4: dirty set for the next round = frozen-ball ∪ new-ball
    // of everything touched, plus the conflicted players.
    arena.mark.begin(n);
    arena.mark.mark_ball(state.graph(), &arena.touched_all, k);
    arena.next_dirty.extend_from_slice(&arena.mark.marked);
    arena.next_dirty.extend_from_slice(&arena.conflicted);
    arena.next_dirty.sort_unstable();
    arena.next_dirty.dedup();
    std::mem::swap(&mut arena.dirty, &mut arena.next_dirty);

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
    let n = state.n();
    let dirty_count = arena.dirty.len();
    arena.mark.begin(n);
    let mut applied = 0usize;
    arena.next_dirty.clear();
    std::mem::swap(&mut arena.dirty, &mut arena.next_dirty);
    for i in 0..arena.next_dirty.len() {
        let u = arena.next_dirty[i];
        let ws = &mut arena.seq;
        ws.responder.discover_ball(state.graph(), u, k, &mut ws.ball);
        let Some(mv) =
            respond(state, &config.spec, &config.responder, u, &ws.ball, &mut ws.responder)
        else {
            continue;
        };
        let old = state.strategy(u);
        touched_of(u, old, &mv.strategy, &mut arena.touched);
        fp.apply(u, old, &mv.strategy);
        // Union of pre- and post-move balls of the touched set, all
        // accumulated in one mark epoch.
        arena.mark.mark_ball(state.graph(), &arena.touched, k);
        state.apply_moves(&[(u, mv.strategy)], &mut arena.apply);
        arena.mark.mark_ball(state.graph(), &arena.touched, k);
        applied += 1;
    }
    arena.dirty.clear();
    arena.dirty.extend_from_slice(&arena.mark.marked);
    arena.dirty.sort_unstable();
    arena.dirty.dedup();
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
