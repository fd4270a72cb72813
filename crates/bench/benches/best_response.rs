//! Best-response engine benchmarks: the Section 5.3 reduction (our
//! Gurobi replacement) across view sizes, exact vs greedy, and Max vs
//! Sum.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncg_core::{GameSpec, GameState, PlayerView};
use ncg_solver::{max_br, sum_br, Mode, SolverScratch};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn tree_state(n: usize, seed: u64) -> GameState {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let tree = ncg_graph::generators::random_tree(n, &mut rng);
    GameState::from_graph_random_ownership(&tree, &mut rng)
}

fn er_state(n: usize, p: f64, seed: u64) -> GameState {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = ncg_graph::generators::gnp_connected(n, p, 1000, &mut rng).unwrap();
    GameState::from_graph_random_ownership(&g, &mut rng)
}

fn bench_max_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_best_response_exact");
    group.sample_size(15);
    // Local views on a big tree.
    let tree = tree_state(200, 1);
    for k in [2u32, 5, 10] {
        let spec = GameSpec::max(1.0, k);
        let view = PlayerView::build(&tree, 0, k);
        group.bench_with_input(BenchmarkId::new("tree200_k", k), &view, |b, view| {
            b.iter(|| max_br::max_best_response(&spec, view, Mode::Exact))
        });
    }
    // Full-knowledge views on the paper's n = 100 ER row: the
    // incremental engine with reused scratch (the dynamics hot path)
    // and the per-call-scratch variant.
    let er = er_state(100, 0.1, 2);
    let spec = GameSpec::max(1.0, 1000);
    let view = PlayerView::build(&er, 0, 1000);
    group.bench_function("er100_full_view", |b| {
        let mut scratch = SolverScratch::new();
        b.iter(|| max_br::max_best_response_with(&spec, &view, Mode::Exact, &mut scratch))
    });
    group.bench_function("er100_full_view_cold_scratch", |b| {
        b.iter(|| max_br::max_best_response(&spec, &view, Mode::Exact))
    });
    group.finish();
}

fn bench_max_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_best_response_greedy");
    group.sample_size(15);
    let er = er_state(100, 0.1, 2);
    let spec = GameSpec::max(1.0, 1000);
    let view = PlayerView::build(&er, 0, 1000);
    group.bench_function("er100_full_view", |b| {
        b.iter(|| max_br::max_best_response(&spec, &view, Mode::Greedy))
    });
    group.finish();
}

fn bench_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("sum_best_response");
    group.sample_size(15);
    let tree = tree_state(80, 3);
    // Small view (k = 2, well under 20 candidates): subset enumeration
    // and the branch-and-bound on the same instance, with the results
    // pinned equal so the bench doubles as a parity check — a bound
    // bug here would fail loudly rather than quietly reporting a
    // faster-but-wrong engine.
    let spec2 = GameSpec::sum(1.0, 2);
    let view2 = PlayerView::build(&tree, 0, 2);
    let reference = ncg_core::equilibrium::best_response_exhaustive(&spec2, &view2).unwrap();
    group.bench_function("enumerate", |b| {
        b.iter(|| ncg_core::equilibrium::best_response_exhaustive(&spec2, &view2).unwrap())
    });
    group.bench_function("bnb", |b| {
        let mut scratch = SolverScratch::new();
        b.iter(|| {
            let d = sum_br::sum_best_response_with(&spec2, &view2, Mode::Exact, &mut scratch);
            assert_eq!(d.strategy_local, reference.strategy_local, "bnb diverged from enumeration");
            d
        })
    });
    // Full-knowledge view (63 candidates, far beyond any enumeration
    // cap): the exact branch-and-bound on the dynamics hot path with
    // warm scratch, against the hill-climb heuristic it replaced as
    // the `Mode::Exact` fallback. Same instance class as the
    // `perf_smoke.rs` pin (tree 64, seed 11, α = 2.0) — the α ≈ 1 tie
    // plateau is deliberately avoided here; DESIGN.md §9 explains why
    // no admissible bound can prune it.
    let tree_full = tree_state(64, 11);
    let spec_full = GameSpec::sum(2.0, 1000);
    let view_full = PlayerView::build(&tree_full, 0, 1000);
    group.bench_function("bnb_full_view", |b| {
        let mut scratch = SolverScratch::new();
        b.iter(|| sum_br::sum_best_response_with(&spec_full, &view_full, Mode::Exact, &mut scratch))
    });
    group.bench_function("hillclimb", |b| {
        b.iter(|| sum_br::sum_best_response(&spec_full, &view_full, Mode::Greedy))
    });
    group.finish();
}

fn bench_view_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_build");
    group.sample_size(20);
    let er = er_state(200, 0.05, 4);
    for k in [2u32, 4, 1000] {
        group.bench_with_input(BenchmarkId::new("er200_k", k), &k, |b, &k| {
            b.iter(|| PlayerView::build(&er, 17, k))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_max_exact, bench_max_greedy, bench_sum, bench_view_build);
criterion_main!(benches);
