//! The incremental view cache: round-over-round reuse of player views
//! with dirty-ball invalidation.
//!
//! `PlayerView::build` is `O(ball)` per player, so rebuilding all `n`
//! views every round makes a dynamics round `O(n·m)` even when almost
//! nobody moves — and the paper's experiments (Figures 5–10) converge
//! in ≤ 7 rounds with sharply decaying per-round move counts, so most
//! of that work re-derives views that cannot have changed. The cache
//! keeps all `n` views alive across rounds and, after a move, marks
//! dirty exactly the players whose view *can* have changed.
//!
//! **Invalidation radius argument** (DESIGN.md §6): the view of `u` is
//! a function of (a) the subgraph induced by her radius-`k` ball, (b)
//! her own purchase list, and (c) her incoming-ownership set. When
//! player `v` moves, every changed quantity is anchored at a *touched
//! endpoint* — `v` herself plus the targets in the symmetric
//! difference of her old and new strategies ([`ncg_core::EdgeDiff`]).
//! A ball `B(u, k)` can only gain, lose, or re-wire vertices if some
//! touched endpoint lies within distance `k` of `u` in the old graph
//! (removals shrink the ball) or the new one (additions grow it);
//! `incoming(u)` changes only if `u` is adjacent to `v` (distance 1)
//! or is herself a touched target. Two bounded multi-source BFS sweeps
//! from the touched set — one before the mutation, one after — over
//! the shared [`ncg_graph::bfs`] kernel therefore cover every player
//! whose view could differ, in `O(ball(touched, k))` instead of
//! `O(n·m)`.
//!
//! A *clean* player's cached view is bit-identical to a fresh build
//! (property-tested in `tests/view_cache_props.rs`), so with a
//! deterministic responder her best response — and hence her decision
//! not to move — is unchanged: the runner skips view construction
//! *and* the solver call for her entirely.

use ncg_core::{EdgeDiff, GameState, PlayerView, ViewScratch};
use ncg_graph::batch::{batch_bfs, BatchDistances, BatchScratch, WORD_LANES};
use ncg_graph::bfs::{bfs_multi_bounded, DistanceBuffer};
use ncg_graph::NodeId;

/// Cache statistics, exposed for benchmarks and the skip-proof tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Views (re)built — fresh constructions plus in-place refreshes.
    pub rebuilds: u64,
    /// Player turns skipped because the player was provably clean.
    pub skips: u64,
}

/// Per-player cached views with dirty-ball tracking.
///
/// Protocol (what [`crate::run_with`] does each turn of player `u`):
///
/// 1. [`ViewCache::is_clean`]`(u)` — if `true`, skip the turn (call
///    [`ViewCache::note_skip`] for the statistics); the player had no
///    improving move when last solved and nothing in her ball changed.
/// 2. Otherwise [`ViewCache::refresh`]`(state, u)` to get the current
///    view (rebuilt in place, reusing allocations) and solve on it.
///    The refresh clears the dirty bit, so a player left unmoved
///    stays clean until a later move dirties her ball.
/// 3. On an accepted move, route the mutation through
///    [`ViewCache::apply_move`] instead of calling
///    [`GameState::set_strategy`] directly, so the cache can run its
///    two invalidation sweeps around the mutation.
#[derive(Debug, Clone)]
pub struct ViewCache {
    k: u32,
    views: Vec<Option<PlayerView>>,
    dirty: Vec<bool>,
    /// Players whose cached view was rebuilt by the round-start
    /// [`ViewCache::prefetch`] and not invalidated since: their next
    /// [`ViewCache::refresh`] consumes the slot as-is.
    fresh: Vec<bool>,
    scratch: ViewScratch,
    bfs: DistanceBuffer,
    touched: Vec<NodeId>,
    batch_scratch: BatchScratch,
    batch_dists: BatchDistances,
    prefetch_sources: Vec<NodeId>,
    ball: Vec<NodeId>,
    stats: CacheStats,
}

impl ViewCache {
    /// A cache for `n` players at knowledge radius `k`; every player
    /// starts dirty (nothing has been solved yet).
    pub fn new(n: usize, k: u32) -> Self {
        ViewCache {
            k,
            views: vec![None; n],
            dirty: vec![true; n],
            fresh: vec![false; n],
            scratch: ViewScratch::new(),
            bfs: DistanceBuffer::new(),
            touched: Vec::new(),
            batch_scratch: BatchScratch::new(),
            batch_dists: BatchDistances::default(),
            prefetch_sources: Vec::new(),
            ball: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// The knowledge radius the cache was built for.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Re-arms the cache for a fresh run of `n` players at radius `k`,
    /// keeping every allocation the previous run grew: cached
    /// [`PlayerView`]s (their next [`ViewCache::refresh`] rebuilds in
    /// place instead of building from scratch), the BFS buffer, and
    /// the view scratch. Every player starts dirty and the statistics
    /// restart at zero, so a reset cache is observationally identical
    /// to [`ViewCache::new`] — the warm-start soundness argument of
    /// DESIGN.md §7 rests on exactly this equivalence.
    pub fn reset(&mut self, n: usize, k: u32) {
        self.k = k;
        if self.views.len() != n {
            self.views.resize_with(n, || None);
        }
        self.dirty.clear();
        self.dirty.resize(n, true);
        self.fresh.clear();
        self.fresh.resize(n, false);
        self.touched.clear();
        self.stats = CacheStats::default();
    }

    /// Whether player `u`'s cached view is current *and* she had no
    /// improving move when last solved on it.
    #[inline]
    pub fn is_clean(&self, u: NodeId) -> bool {
        !self.dirty[u as usize]
    }

    /// Records a skipped turn (statistics only).
    #[inline]
    pub fn note_skip(&mut self) {
        self.stats.skips += 1;
    }

    /// Returns player `u`'s up-to-date view, rebuilding it in place
    /// (reusing the slot's allocations) and clearing her dirty bit.
    /// The caller is expected to solve on the returned view; the
    /// clean-skip invariant relies on it.
    pub fn refresh(&mut self, state: &GameState, u: NodeId) -> &PlayerView {
        // Rebuild accounting happens at *consume* time whether the
        // view was prefetched or is rebuilt here — `rebuilds` counts
        // views the solver actually ran on, which is what the
        // skip-proof tests pin against solver calls.
        self.stats.rebuilds += 1;
        self.dirty[u as usize] = false;
        if self.fresh[u as usize] {
            self.fresh[u as usize] = false;
            debug_assert_eq!(
                self.views[u as usize].as_ref(),
                Some(&PlayerView::build(state, u, self.k)),
                "prefetched view of player {u} is stale"
            );
            return self.views[u as usize].as_ref().expect("fresh implies built");
        }
        let slot = &mut self.views[u as usize];
        match slot {
            Some(view) => view.rebuild(state, u, self.k, &mut self.scratch),
            None => *slot = Some(PlayerView::build_with(state, u, self.k, &mut self.scratch)),
        }
        slot.as_ref().expect("slot filled above")
    }

    /// Rebuilds the views of every currently-dirty player in 64-lane
    /// batched ball sweeps over the *current* graph, marking them
    /// fresh so their next [`ViewCache::refresh`] is a pointer return.
    /// Sound only at a point where the state will not change before
    /// those refreshes consume the views — the runner calls it at the
    /// top of each round, and any mid-round move's invalidation sweep
    /// clears the fresh bit of every player it reaches, so a view is
    /// consumed fresh only if nothing in her ball moved since the
    /// prefetch. Touches neither the dirty bits nor the statistics.
    pub fn prefetch(&mut self, state: &GameState) {
        self.prefetch_sources.clear();
        self.prefetch_sources.extend(
            (0..state.n() as NodeId).filter(|&u| self.dirty[u as usize] && !self.fresh[u as usize]),
        );
        let mut lo = 0usize;
        while lo < self.prefetch_sources.len() {
            let hi = (lo + WORD_LANES).min(self.prefetch_sources.len());
            batch_bfs(
                state.graph(),
                &self.prefetch_sources[lo..hi],
                self.k,
                &mut self.batch_scratch,
                &mut self.batch_dists,
            );
            for (lane, &u) in self.prefetch_sources[lo..hi].iter().enumerate() {
                self.batch_dists.lane_ball_into(lane, &mut self.ball);
                let slot = &mut self.views[u as usize];
                match slot {
                    Some(view) => {
                        view.rebuild_from_ball(state, u, self.k, &self.ball, &mut self.scratch);
                    }
                    None => {
                        *slot = Some(PlayerView::build_from_ball(
                            state,
                            u,
                            self.k,
                            &self.ball,
                            &mut self.scratch,
                        ));
                    }
                }
                self.fresh[u as usize] = true;
            }
            lo = hi;
        }
    }

    /// Applies player `u`'s accepted move through the cache: computes
    /// the touched-endpoint set, sweeps the old graph, mutates the
    /// state, sweeps the new graph (seeded from the returned
    /// [`EdgeDiff::touched`]), and marks every reached player dirty.
    /// Returns the [`EdgeDiff`] from the underlying
    /// [`GameState::set_strategy`].
    pub fn apply_move(
        &mut self,
        state: &mut GameState,
        u: NodeId,
        new_strategy: Vec<NodeId>,
    ) -> EdgeDiff {
        // Touched endpoints: the mover plus the symmetric difference
        // of old and new purchases. The pre-move set must be computed
        // *before* the mutation so the old-graph sweep can run first
        // (edge removals can move a player out of every touched ball
        // in the new graph while her own ball still shrank); the
        // post-move sweep reuses the mutation's own endpoint report,
        // and the debug assertion below pins the two computations to
        // each other.
        let mut normalized = new_strategy;
        normalized.sort_unstable();
        normalized.dedup();
        touched_of(u, state.strategy(u), &normalized, &mut self.touched);
        self.sweep_and_mark(state);
        let diff = state.set_strategy(u, normalized);
        debug_assert_eq!(
            self.touched,
            {
                let mut post: Vec<NodeId> = diff.touched().collect();
                post.sort_unstable();
                post.dedup();
                post
            },
            "pre-move symmetric difference disagrees with the EdgeDiff endpoints"
        );
        self.touched.clear();
        self.touched.extend(diff.touched());
        self.sweep_and_mark(state);
        diff
    }

    /// One bounded multi-source BFS from the touched set, marking
    /// every player within distance `k` dirty.
    fn sweep_and_mark(&mut self, state: &GameState) {
        bfs_multi_bounded(state.graph(), &self.touched, self.k, &mut self.bfs);
        for &v in self.bfs.visited() {
            self.dirty[v as usize] = true;
            // A prefetched view inside the invalidation radius is no
            // longer trustworthy; force an in-place rebuild at refresh.
            self.fresh[v as usize] = false;
        }
    }

    /// The cached view of `u`, if one was ever built (current only if
    /// [`ViewCache::is_clean`]; test/diagnostic accessor).
    pub fn view(&self, u: NodeId) -> Option<&PlayerView> {
        self.views[u as usize].as_ref()
    }

    /// Rebuild/skip counters accumulated so far.
    #[inline]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// `{u} ∪ (old Δ new)` of a move from sorted purchase lists `old` to
/// `new`, ascending — the nodes whose incident edges or ownership can
/// change, i.e. the set [`EdgeDiff::touched`] reports. Both tiers seed
/// their dirty-ball sweeps from it.
pub(crate) fn touched_of(u: NodeId, old: &[NodeId], new: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(&a), Some(&b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(&a), b) if b.is_none() || a < *b.unwrap() => {
                out.push(a);
                i += 1;
            }
            (_, Some(&b)) => {
                out.push(b);
                j += 1;
            }
            _ => unreachable!(),
        }
    }
    let pos = out.binary_search(&u).unwrap_err();
    out.insert(pos, u);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_core::GameState;

    #[test]
    fn all_players_start_dirty_and_refresh_cleans() {
        let state = GameState::cycle_successor(6);
        let mut cache = ViewCache::new(6, 2);
        assert!((0..6).all(|u| !cache.is_clean(u)));
        let view = cache.refresh(&state, 3);
        assert_eq!(view, &PlayerView::build(&state, 3, 2));
        assert!(cache.is_clean(3));
        assert_eq!(cache.stats().rebuilds, 1);
    }

    #[test]
    fn apply_move_dirties_exactly_the_touched_balls() {
        // Long path, k = 1: a move at one end must not dirty the far end.
        let n = 12;
        let mut strategies: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, sigma) in strategies.iter_mut().enumerate().take(n - 1) {
            sigma.push((i + 1) as NodeId);
        }
        let mut state = GameState::from_strategies(n, strategies);
        let mut cache = ViewCache::new(n, 1);
        for u in 0..n as NodeId {
            cache.refresh(&state, u);
        }
        assert!((0..n as NodeId).all(|u| cache.is_clean(u)));
        // Player 0 swaps her edge from 1 to 2: touched = {0, 1, 2}.
        let diff = cache.apply_move(&mut state, 0, vec![2]);
        assert_eq!(diff.added, vec![2]);
        assert_eq!(diff.removed, vec![1]);
        // Within distance 1 of {0,1,2} in old or new graph: 0,1,2,3.
        for u in 0..=3 {
            assert!(!cache.is_clean(u), "player {u} must be dirty");
        }
        for u in 4..n as NodeId {
            assert!(cache.is_clean(u), "player {u} must stay clean");
        }
        // Refreshed dirty views match fresh builds.
        for u in 0..n as NodeId {
            assert_eq!(cache.refresh(&state, u), &PlayerView::build(&state, u, 1));
        }
    }

    #[test]
    fn clean_views_stay_identical_to_fresh_builds_after_moves() {
        let mut state = GameState::cycle_successor(10);
        let k = 2;
        let mut cache = ViewCache::new(10, k);
        for u in 0..10 {
            cache.refresh(&state, u);
        }
        cache.apply_move(&mut state, 4, vec![0, 5]);
        for u in 0..10u32 {
            if cache.is_clean(u) {
                assert_eq!(
                    cache.view(u).unwrap(),
                    &PlayerView::build(&state, u, k),
                    "clean player {u} holds a stale view"
                );
            }
        }
    }

    #[test]
    fn reset_rearms_like_a_fresh_cache() {
        let state_a = GameState::cycle_successor(8);
        let mut cache = ViewCache::new(8, 2);
        for u in 0..8 {
            cache.refresh(&state_a, u);
        }
        assert!(cache.stats().rebuilds > 0);
        // Re-arm for a different state, size, and radius.
        let state_b = GameState::star_center_owned(6);
        cache.reset(6, 3);
        assert_eq!(cache.k(), 3);
        assert_eq!(cache.stats(), CacheStats::default());
        assert!((0..6).all(|u| !cache.is_clean(u)));
        for u in 0..6 {
            assert_eq!(
                cache.refresh(&state_b, u),
                &PlayerView::build(&state_b, u, 3),
                "warm refresh of player {u} must equal a fresh build"
            );
        }
        // Growing again is also fine.
        cache.reset(8, 2);
        for u in 0..8 {
            assert_eq!(cache.refresh(&state_a, u), &PlayerView::build(&state_a, u, 2));
        }
    }

    #[test]
    fn prefetched_views_match_fresh_builds_and_are_invalidated_by_moves() {
        let mut state = GameState::cycle_successor(70);
        let k = 2;
        let mut cache = ViewCache::new(70, k);
        // Round-start prefetch over >64 dirty players (two lane
        // groups, one partial): every refresh must consume the
        // prefetched slot and still equal a plain build.
        cache.prefetch(&state);
        for u in 0..70u32 {
            assert_eq!(
                cache.refresh(&state, u),
                &PlayerView::build(&state, u, k),
                "prefetched view of player {u} diverges"
            );
        }
        assert_eq!(cache.stats().rebuilds, 70, "rebuilds counted at consume time");
        // A move invalidates prefetched views inside the sweep radius;
        // the follow-up prefetch + refresh still match plain builds.
        cache.apply_move(&mut state, 10, vec![40]);
        cache.prefetch(&state);
        for u in 0..70u32 {
            if !cache.is_clean(u) {
                assert_eq!(cache.refresh(&state, u), &PlayerView::build(&state, u, k));
            }
        }
        // Without a prefetch, refresh builds each view in place —
        // same views either way.
        let mut plain = ViewCache::new(70, k);
        for u in 0..70u32 {
            assert_eq!(plain.refresh(&state, u), cache.view(u).unwrap());
        }
    }

    #[test]
    fn ownership_only_move_dirties_the_target() {
        // 0 and 1 both own (0,1); when 1 drops her copy the graph is
        // unchanged but incoming(0) loses 1, so 0 must be re-solved.
        let mut state = GameState::from_strategies(3, vec![vec![1], vec![0, 2], vec![]]);
        let mut cache = ViewCache::new(3, 1);
        for u in 0..3 {
            cache.refresh(&state, u);
        }
        let before = state.graph().clone();
        let diff = cache.apply_move(&mut state, 1, vec![2]);
        assert_eq!(state.graph(), &before, "graph must be unchanged");
        assert_eq!(diff.ownership, vec![0]);
        assert!(!cache.is_clean(0));
        assert_eq!(cache.refresh(&state, 0), &PlayerView::build(&state, 0, 1));
    }
}
