//! Constant-time-per-round cycle detection via strategy-profile
//! fingerprints.
//!
//! The seed detector cloned and hashed the *entire* strategy profile
//! (`Vec<Vec<u32>>`, `O(n·m)`) at the end of every round. This module
//! maintains a 64-bit profile fingerprint incrementally instead: each
//! player contributes one well-mixed term `h(u, σ_u)` and the profile
//! fingerprint is the XOR of all terms, so an accepted move updates it
//! in `O(|σ_old| + |σ_new|)` by XOR-ing the player's old term out and
//! her new term in. End-of-round bookkeeping is then an `O(1)` map
//! probe.
//!
//! Fingerprint hits are confirmed *exactly* (no reliance on hash
//! quality) against a journal of accepted moves: the profile at the
//! end of round `r₁` equals the current one iff every player that
//! moved after `r₁` has her pre-first-move strategy equal to her
//! current one — checked in `O(moves since r₁)` without materialising
//! either profile.

use std::collections::HashMap;

use ncg_core::GameState;
use ncg_graph::NodeId;

/// One accepted move, as the detector needs it: when, who, and what
/// the player's strategy was *before* the move.
#[derive(Debug, Clone)]
struct JournalEntry {
    round: usize,
    player: NodeId,
    old_strategy: Vec<NodeId>,
}

/// Incremental strategy-profile cycle detector. Construct with
/// [`CycleDetector::new`] — the detector must be primed with the
/// initial profile for round-0 repetitions to be caught (hence no
/// `Default`).
#[derive(Debug, Clone)]
pub struct CycleDetector {
    /// Current profile fingerprint: XOR over players of
    /// [`player_term`].
    fp: u64,
    /// Fingerprint → end-of-round indices observed with it (almost
    /// always a single round; collisions keep the short list honest).
    seen: HashMap<u64, Vec<usize>>,
    /// Accepted moves in order; `round` values are non-decreasing.
    journal: Vec<JournalEntry>,
}

/// The well-mixed fingerprint term of `(player, strategy)`: FNV-1a
/// over `seed`, the id and the sorted purchase list, finalised with
/// the splitmix64 mixer so that XOR-combining terms across players
/// keeps high entropy. Deterministic across runs and platforms. The
/// exact tier's detector uses seed 0; the scale tier's 128-bit
/// fingerprint XORs two independently seeded lanes.
pub(crate) fn player_term(seed: u64, u: NodeId, sigma: &[NodeId]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET ^ seed;
    h = (h ^ u as u64).wrapping_mul(FNV_PRIME);
    for &v in sigma {
        h = (h ^ (v as u64 + 1)).wrapping_mul(FNV_PRIME);
    }
    // splitmix64 finalizer.
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl CycleDetector {
    /// A detector primed with the initial profile (recorded as the
    /// end-of-round-0 profile, matching the seed semantics).
    pub fn new(state: &GameState) -> Self {
        let mut fp = 0u64;
        for u in 0..state.n() as NodeId {
            fp ^= player_term(0, u, state.strategy(u));
        }
        let mut seen = HashMap::new();
        seen.insert(fp, vec![0]);
        CycleDetector { fp, seen, journal: Vec::new() }
    }

    /// Records an accepted move: updates the fingerprint and appends
    /// to the journal. `old` and `new` must be the *normalised*
    /// (sorted, deduplicated) purchase lists before and after the
    /// move, i.e. exactly what [`GameState::strategy`] stores.
    pub fn record_move(&mut self, round: usize, u: NodeId, old: &[NodeId], new: &[NodeId]) {
        debug_assert!(
            self.journal.last().is_none_or(|e| e.round <= round),
            "journal rounds must be non-decreasing"
        );
        self.fp ^= player_term(0, u, old) ^ player_term(0, u, new);
        self.journal.push(JournalEntry { round, player: u, old_strategy: old.to_vec() });
    }

    /// End-of-round check: if the current profile matches the
    /// end-of-round profile of an earlier round, returns that round;
    /// otherwise records the current profile. `state` must be the
    /// end-of-round state (used only on fingerprint hits, for exact
    /// confirmation).
    pub fn check_round(&mut self, round: usize, state: &GameState) -> Option<usize> {
        if let Some(rounds) = self.seen.get(&self.fp) {
            for &first_seen in rounds {
                if self.profile_equals_round(first_seen, state) {
                    return Some(first_seen);
                }
            }
        }
        self.seen.entry(self.fp).or_default().push(round);
        None
    }

    /// Exact check that the end-of-round-`r` profile equals the
    /// current one, replay-free: a player's strategy at the end of
    /// round `r` is her `old_strategy` in her first journal entry
    /// after round `r` (or her current strategy if she never moved
    /// again). Profiles agree iff every such first entry matches the
    /// player's current strategy.
    fn profile_equals_round(&self, r: usize, state: &GameState) -> bool {
        let start = self.journal.partition_point(|e| e.round <= r);
        // First subsequent move per player decides; later ones are
        // overwritten history.
        let mut decided: Vec<NodeId> = Vec::new();
        for e in &self.journal[start..] {
            if decided.contains(&e.player) {
                continue;
            }
            decided.push(e.player);
            if e.old_strategy != state.strategy(e.player) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_profile_is_round_zero() {
        let state = GameState::cycle_successor(5);
        let mut det = CycleDetector::new(&state);
        // Unchanged profile at end of round 1 → matches round 0.
        assert_eq!(det.check_round(1, &state), Some(0));
    }

    #[test]
    fn toggle_cycle_is_detected_with_correct_first_seen() {
        let mut state = GameState::from_strategies(3, vec![vec![1], vec![2], vec![0]]);
        let mut det = CycleDetector::new(&state);
        // Round 1: player 0 switches 1 → 2.
        det.record_move(1, 0, &[1], &[2]);
        state.set_strategy(0, vec![2]);
        assert_eq!(det.check_round(1, &state), None);
        // Round 2: back to 1 — the end-of-round profile equals round 0's.
        det.record_move(2, 0, &[2], &[1]);
        state.set_strategy(0, vec![1]);
        assert_eq!(det.check_round(2, &state), Some(0));
    }

    #[test]
    fn distinct_profiles_do_not_collide_in_practice() {
        let mut state = GameState::cycle_successor(6);
        let mut det = CycleDetector::new(&state);
        // A run of distinct profiles: grow player 0's strategy.
        for (round, t) in [(1usize, 2u32), (2, 3), (3, 4)] {
            let old = state.strategy(0).to_vec();
            let mut new = old.clone();
            new.push(t);
            det.record_move(round, 0, &old, &new);
            state.set_strategy(0, new);
            assert_eq!(det.check_round(round, &state), None, "round {round}");
        }
    }

    #[test]
    fn fingerprint_is_order_insensitive_across_players_but_not_targets() {
        // Same multiset of (player, strategy) pairs → same fingerprint;
        // swapping which player owns which strategy must change it.
        let a = player_term(0, 0, &[1]) ^ player_term(0, 1, &[2]);
        let b = player_term(0, 1, &[2]) ^ player_term(0, 0, &[1]);
        assert_eq!(a, b);
        let c = player_term(0, 0, &[2]) ^ player_term(0, 1, &[1]);
        assert_ne!(a, c);
    }

    #[test]
    fn confirmation_rejects_same_fingerprint_different_profile() {
        // Force the rare path: identical fingerprints cannot be
        // synthesised easily, so instead check profile_equals_round
        // directly distinguishes a changed profile.
        let mut state = GameState::from_strategies(3, vec![vec![1], vec![2], vec![0]]);
        let mut det = CycleDetector::new(&state);
        det.record_move(1, 0, &[1], &[2]);
        state.set_strategy(0, vec![2]);
        assert!(!det.profile_equals_round(0, &state));
        det.record_move(2, 1, &[2], &[0]);
        state.set_strategy(1, vec![0]);
        assert!(!det.profile_equals_round(0, &state));
        assert!(!det.profile_equals_round(1, &state));
    }
}
