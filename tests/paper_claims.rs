//! The paper's qualitative claims, verified at laptop scale.
//!
//! These tests pin the *shape* of the results — who wins, what grows,
//! where behaviour flips — rather than absolute numbers, which depend
//! on the authors' testbed.

use ncg::constructions::{cycle, TorusGrid};
use ncg::core::{GameSpec, GameState, Objective};
use ncg::experiments::engine::{self, SweepContext};
use ncg::experiments::sweep::{RunRecord, SweepSpec};

/// Every record of a local run of `spec`, in canonical order
/// (`α`-major, then `k`, then rep).
fn records(spec: SweepSpec) -> Vec<RunRecord> {
    let mut out = Vec::new();
    engine::execute(&SweepContext::local(), "claims", &[spec], &mut |_, _, record| {
        out.push(record.clone())
    });
    out
}

/// Section 3.1 / Lemma 3.1: stable cycles make the PoA grow linearly
/// in `n` for fixed `α ≥ k − 1`.
#[test]
fn claim_cycle_poa_linear_in_n() {
    let spec = GameSpec::max(2.0, 2);
    let p1 = cycle::witnessed_poa(24, &spec);
    let p2 = cycle::witnessed_poa(48, &spec);
    let p4 = cycle::witnessed_poa(96, &spec);
    assert!(cycle::certify(24, &spec) && cycle::certify(48, &spec));
    let r21 = p2 / p1;
    let r42 = p4 / p2;
    assert!(
        (1.5..=2.5).contains(&r21) && (1.5..=2.5).contains(&r42),
        "doubling n should roughly double the PoA: ratios {r21:.2}, {r42:.2}"
    );
}

/// Introduction: "for constant values of k (regardless of α) … stable
/// graphs having diameter Ω(n)" — the torus diameter witness.
#[test]
fn claim_torus_diameter_linear_in_n() {
    let a = TorusGrid::for_theorem_312(2.0, 2, 4).unwrap();
    let b = TorusGrid::for_theorem_312(2.0, 2, 8).unwrap();
    let da = ncg::graph::metrics::diameter(a.state().graph()).unwrap() as f64;
    let db = ncg::graph::metrics::diameter(b.state().graph()).unwrap() as f64;
    let na = a.n() as f64;
    let nb = b.n() as f64;
    assert!(
        (db / da) / (nb / na) > 0.8,
        "diameter must scale ~linearly with n: d {da}→{db}, n {na}→{nb}"
    );
}

/// Section 5.4, "Knowledge of the network": view sizes decrease with
/// `α` and grow rapidly with `k`.
#[test]
fn claim_view_size_trends() {
    let n = 36;
    let reps = 4;
    let ks = [2u32, 4];
    let results = records(SweepSpec::tree(
        "views",
        n,
        reps,
        0xBEEF,
        vec![0.1, 5.0],
        ks.to_vec(),
        Objective::Max,
    ));
    let grouped: Vec<_> = results.chunks(reps).collect();
    let avg_view = |ai: usize, ki: usize| {
        let cells = grouped[ai * ks.len() + ki];
        cells.iter().map(|c| c.avg_view).sum::<f64>() / cells.len() as f64
    };
    // Growing k widens views dramatically.
    assert!(avg_view(0, 1) > avg_view(0, 0));
    assert!(avg_view(1, 1) > avg_view(1, 0));
    // Growing α shrinks them (weakly, at small scale).
    assert!(avg_view(1, 0) <= avg_view(0, 0) + 1.0);
}

/// Section 5.4, "Convergence time": dynamics converge fast, and cycles
/// are rare.
#[test]
fn claim_fast_convergence_and_rare_cycles() {
    let reps = 6;
    let results = records(SweepSpec::tree(
        "convergence",
        30,
        reps,
        0xCAFE,
        vec![0.5, 2.0],
        vec![2, 5, 1000],
        Objective::Max,
    ));
    let total = results.len();
    let mut converged = 0;
    let mut cycled = 0;
    let mut fast = 0;
    for c in &results {
        if c.converged {
            converged += 1;
            if c.rounds <= 7 {
                fast += 1;
            }
        } else if c.cycled() {
            cycled += 1;
        }
    }
    assert!(converged + cycled == total, "no run may hit the round cap");
    assert!(cycled * 20 <= total, "cycles must be rare: {cycled}/{total}");
    assert!(
        fast * 100 >= converged * 95,
        "≥95% of converged runs should need ≤7 rounds ({fast}/{converged})"
    );
}

/// Section 5.4, "Quality of equilibria": at α = 10 the quality
/// degrades with n for small k but not at full knowledge (Figure 6
/// right panel's two extremes).
#[test]
fn claim_quality_gap_small_k_vs_full_knowledge() {
    let reps = 4;
    let alpha = 10.0;
    let quality = |n: usize, k: u32| {
        let spec =
            SweepSpec::tree("quality", n, reps, 0xD00D, vec![alpha], vec![k], Objective::Max);
        let v: Vec<f64> = records(spec).iter().filter_map(|c| c.quality).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let q_local = quality(48, 2);
    let q_full = quality(48, 1000);
    assert!(
        q_local > q_full,
        "myopic equilibria must be worse at α = 10: local {q_local:.2} vs full {q_full:.2}"
    );
}

/// Section 2: NP-hardness forces exact best responses through the
/// dominating-set reduction — sanity-check that the solver agrees with
/// brute force on a batch of random views (the Gurobi-replacement
/// claim of DESIGN.md §4).
#[test]
fn claim_solver_matches_bruteforce_on_random_views() {
    use ncg::core::equilibrium::best_response_exhaustive;
    use ncg::core::PlayerView;
    use ncg::solver::{max_br, Mode};
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xACE);
    for trial in 0..8 {
        let g = ncg::graph::generators::gnp_connected(14, 0.22, 300, &mut rng).unwrap();
        let state = GameState::from_graph_random_ownership(&g, &mut rng);
        let spec = GameSpec::max(0.7, 2 + (trial % 3) as u32);
        for u in 0..state.n() as u32 {
            let view = PlayerView::build(&state, u, spec.k);
            let exact = max_br::max_best_response(&spec, &view, Mode::Exact);
            let brute = best_response_exhaustive(&spec, &view).unwrap();
            assert!(
                (exact.total_cost - brute.total_cost).abs() < 1e-9,
                "trial {trial}, player {u}"
            );
        }
    }
}

/// Figure 9's punchline: restricting views does not *hurt* fairness;
/// the most lopsided equilibria appear under full knowledge with
/// cheap edges (hub formation).
#[test]
fn claim_full_knowledge_hubs_are_less_fair() {
    let reps = 4;
    let results = records(SweepSpec::er(
        "fairness",
        26,
        0.18,
        reps,
        0xFA1,
        vec![0.2],
        vec![2, 1000],
        Objective::Max,
    ));
    let grouped: Vec<_> = results.chunks(reps).collect();
    let unfair = |i: usize| {
        let v: Vec<f64> = grouped[i].iter().filter_map(|c| c.unfairness).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let local = unfair(0);
    let full = unfair(1);
    assert!(
        local <= full + 0.5,
        "restricted views should be at least comparably fair: k=2 {local:.2} vs full {full:.2}"
    );
}
