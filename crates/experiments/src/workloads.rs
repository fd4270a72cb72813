//! Workload generation: seeded initial states for the two input
//! classes of Section 5.2.
//!
//! Each repetition gets its own deterministic seed derived from the
//! profile's base seed via SplitMix64, so any single run can be
//! reproduced in isolation (no dependence on the sweep order). The
//! same `reps` starting networks are reused across every `(α, k)`
//! cell, exactly as the paper does.

use ncg_core::GameState;
use ncg_graph::generators;
use ncg_graph::NodeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// SplitMix64 — tiny, well-mixed seed derivation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Derives the seed for one workload instance.
pub fn instance_seed(base: u64, class_tag: u64, n: usize, rep: usize) -> u64 {
    splitmix64(
        base ^ splitmix64(class_tag) ^ splitmix64(n as u64) ^ splitmix64(rep as u64 | 1 << 32),
    )
}

/// `reps` uniform random trees on `n` nodes with coin-toss edge
/// ownership (Table I inputs).
pub fn tree_states(n: usize, reps: usize, base_seed: u64) -> Vec<GameState> {
    (0..reps)
        .map(|rep| {
            let mut rng = ChaCha8Rng::seed_from_u64(instance_seed(base_seed, 0x0072_6565, n, rep));
            let tree = generators::random_tree(n, &mut rng);
            GameState::from_graph_random_ownership(&tree, &mut rng)
        })
        .collect()
}

/// `reps` connected `G(n, p)` samples with coin-toss ownership
/// (Table II inputs). Unconnected samples are discarded and
/// regenerated, as in the paper.
pub fn er_states(n: usize, p: f64, reps: usize, base_seed: u64) -> Vec<GameState> {
    (0..reps)
        .map(|rep| {
            let mut rng =
                ChaCha8Rng::seed_from_u64(instance_seed(base_seed, 0x6572 ^ p.to_bits(), n, rep));
            let g = generators::gnp_connected(n, p, 10_000, &mut rng)
                .expect("G(n,p) parameters must be above the connectivity threshold");
            GameState::from_graph_random_ownership(&g, &mut rng)
        })
        .collect()
}

/// `reps` `G(n, p)` samples with coin-toss ownership for the
/// million-node scale tier, built straight from the edge stream
/// ([`generators::gnp_edges`] → [`GameState::from_owned_edges`])
/// without ever materialising a per-node `Vec` `Graph`. `p` is chosen
/// as `avg_deg / (n - 1)` so the expected degree is `avg_deg`.
///
/// Unlike [`er_states`] there is no connectivity conditioning: at
/// average degree 10 a million-node sample sits *below* the
/// `ln n ≈ 13.8` connectivity threshold, and the locality-based game
/// is well-defined on disconnected inputs anyway (usage is computed on
/// the radius-`k` view, and an isolated player simply stands pat).
pub fn scale_er_states(n: usize, avg_deg: f64, reps: usize, base_seed: u64) -> Vec<GameState> {
    let p = if n > 1 { (avg_deg / (n - 1) as f64).min(1.0) } else { 0.0 };
    (0..reps)
        .map(|rep| {
            let mut rng = ChaCha8Rng::seed_from_u64(instance_seed(
                base_seed,
                0x7363_616c ^ avg_deg.to_bits(),
                n,
                rep,
            ));
            let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
            generators::gnp_edges(n, p, &mut rng, &mut edges)
                .expect("p derived from avg_deg is always in [0, 1]");
            // Coin-toss ownership in generation order — the same
            // discipline as `GameState::from_graph_random_ownership`.
            let owned: Vec<(NodeId, NodeId)> = edges
                .into_iter()
                .map(|(u, v)| if rng.random::<bool>() { (u, v) } else { (v, u) })
                .collect();
            GameState::from_owned_edges(n, &owned)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_graph::metrics;

    #[test]
    fn tree_states_are_valid_trees() {
        let states = tree_states(30, 4, 42);
        assert_eq!(states.len(), 4);
        for s in &states {
            assert_eq!(s.n(), 30);
            assert_eq!(s.graph().edge_count(), 29);
            assert!(metrics::is_connected(s.graph()));
            assert!(s.validate().is_ok());
            assert_eq!(s.total_bought(), 29, "every edge owned exactly once");
        }
    }

    #[test]
    fn er_states_are_connected() {
        let states = er_states(40, 0.15, 3, 42);
        for s in &states {
            assert!(metrics::is_connected(s.graph()));
            assert!(s.validate().is_ok());
        }
    }

    #[test]
    fn workloads_are_reproducible_and_distinct() {
        let a = tree_states(25, 3, 7);
        let b = tree_states(25, 3, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
        assert_ne!(a[0], a[1], "different reps must differ");
        let c = tree_states(25, 3, 8);
        assert_ne!(a[0], c[0], "different base seeds must differ");
    }

    #[test]
    fn scale_er_states_are_valid_and_reproducible() {
        let a = scale_er_states(60, 6.0, 2, 42);
        let b = scale_er_states(60, 6.0, 2, 42);
        assert_eq!(a, b, "same seed must reproduce the same states");
        assert_ne!(a[0], a[1], "different reps must differ");
        for s in &a {
            assert_eq!(s.n(), 60);
            assert!(s.validate().is_ok());
            assert!(s.total_bought() > 0, "G(60, 6/(n-1)) is essentially never edgeless");
        }
        let other_deg = scale_er_states(60, 3.0, 1, 42);
        assert_ne!(a[0], other_deg[0], "avg_deg is part of the instance seed");
    }

    #[test]
    fn seed_derivation_separates_classes_and_sizes() {
        let s1 = instance_seed(1, 2, 10, 0);
        assert_ne!(s1, instance_seed(1, 3, 10, 0));
        assert_ne!(s1, instance_seed(1, 2, 11, 0));
        assert_ne!(s1, instance_seed(1, 2, 10, 1));
        assert_ne!(s1, instance_seed(2, 2, 10, 0));
    }
}
