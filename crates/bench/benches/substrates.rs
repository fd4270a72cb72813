//! Substrate micro-benchmarks: the BFS kernels, graph metrics,
//! generators and the dominating-set core that every experiment
//! bottoms out in.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncg_graph::bfs::{bfs, DistanceBuffer};
use ncg_graph::{generators, metrics, view};
use ncg_solver::bitset::BitSet;
use ncg_solver::dominating::DominationInstance;
use ncg_solver::engine::DominationEngine;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfs");
    group.sample_size(20);
    for n in [100usize, 400] {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::gnp_connected(n, 8.0 / n as f64, 1000, &mut rng).unwrap();
        let mut buf = DistanceBuffer::with_capacity(n);
        group.bench_with_input(BenchmarkId::new("single_source", n), &g, |b, g| {
            b.iter(|| bfs(g, 0, &mut buf))
        });
        // Ablation: the frozen CSR layout vs the mutable Vec<Vec<_>>.
        let csr = ncg_graph::CsrGraph::from_graph(&g);
        let mut csr_buf = DistanceBuffer::with_capacity(n);
        group.bench_with_input(BenchmarkId::new("single_source_csr", n), &csr, |b, csr| {
            b.iter(|| csr.bfs(0, &mut csr_buf))
        });
        group.bench_with_input(BenchmarkId::new("all_pairs_parallel", n), &g, |b, g| {
            b.iter(|| black_box(metrics::distance_matrix(g)))
        });
        group.bench_with_input(BenchmarkId::new("all_pairs_parallel_csr", n), &csr, |b, csr| {
            b.iter(|| black_box(metrics::distance_matrix(csr)))
        });
    }
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");
    group.sample_size(20);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let g = generators::gnp_connected(200, 0.05, 1000, &mut rng).unwrap();
    group.bench_function("diameter_n200", |b| b.iter(|| metrics::diameter(black_box(&g))));
    group.bench_function("girth_n200", |b| b.iter(|| metrics::girth(black_box(&g))));
    group.bench_function("power2_n200", |b| b.iter(|| view::power(black_box(&g), 2)));
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(20);
    group.bench_function("random_tree_n200", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        b.iter(|| generators::random_tree(200, &mut rng))
    });
    group.bench_function("gnp_n200_p0.1", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        b.iter(|| generators::gnp(200, 0.1, &mut rng).unwrap())
    });
    group.bench_function("high_girth_n120_q3_g6", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        b.iter(|| {
            generators::high_girth(generators::HighGirthParams::new(120, 3, 6), &mut rng).unwrap()
        })
    });
    group.finish();
}

fn graph_domination_instance(n: usize, p: f64, rng: &mut ChaCha8Rng) -> DominationInstance {
    let g = generators::gnp_connected(n, p, 1000, rng).unwrap();
    DominationInstance::closed_neighborhoods(&g, vec![])
}

fn bench_dominating(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominating_set");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    // Default instances sized so a local `cargo bench` terminates in
    // seconds (the ROADMAP's `exact_bnb/120` on G(120, 0.06) ran for
    // minutes per solve under the seed solver and still takes minutes
    // of total bench time after the engine speed-up; set
    // NCG_BENCH_HARD=1 to include it for before/after measurements).
    let mut sizes = vec![(60usize, 0.1), (100, 0.08)];
    if std::env::var_os("NCG_BENCH_HARD").is_some_and(|v| v != "0") {
        sizes.push((120, 0.06));
    }
    for (n, p) in sizes {
        let inst = graph_domination_instance(n, p, &mut rng);
        group.bench_with_input(BenchmarkId::new("exact_bnb", n), &inst, |b, inst| {
            b.iter(|| inst.solve_exact(usize::MAX))
        });
        group.bench_with_input(BenchmarkId::new("greedy", n), &inst, |b, inst| {
            b.iter(|| inst.solve_greedy())
        });
    }
    group.finish();
}

/// The best-response access pattern: one domination solve per
/// eccentricity guess over *nested* coverage (radius-`r` balls,
/// `r = 0..R`). `exact_bnb_incremental` drives one persistent
/// [`DominationEngine`] across the guesses — BFS-order cursor growth,
/// allocations recycled via `reset` — while `exact_bnb_rebuild`
/// re-scans the distance matrix and reconstructs a fresh
/// [`DominationInstance`] (coverage clones and all) per guess, exactly
/// as the seed `max_br.rs` loop did. Identical solves, different
/// setup — the gap is the engine rearchitecture's win (the
/// whole-path version is `max_best_response/er100_full_view` vs
/// `…_rebuild` in `best_response.rs`).
fn bench_dominating_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominating_set");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let n = 80usize;
    let g = generators::gnp_connected(n, 0.05, 1000, &mut rng).unwrap();
    let csr = ncg_graph::CsrGraph::from_graph(&g);
    let mut buf = ncg_graph::bfs::DistanceBuffer::with_capacity(n);
    let dist: Vec<Vec<u32>> = (0..n as u32)
        .map(|s| {
            csr.bfs(s, &mut buf);
            buf.distances().to_vec()
        })
        .collect();
    // Per-source visit orders (non-decreasing distance) for the cursor
    // growth, as `sweep_minus_center` records them in the solver.
    let orders: Vec<Vec<(u32, u32)>> = (0..n)
        .map(|s| {
            let mut o: Vec<(u32, u32)> = (0..n as u32).map(|v| (dist[s][v as usize], v)).collect();
            o.sort_unstable();
            o
        })
        .collect();
    let radii = 0..6u32;
    group.bench_function("exact_bnb_incremental", |b| {
        let mut engine = DominationEngine::new(BitSet::full(n), &[]);
        let mut cursors = vec![0usize; n];
        b.iter(|| {
            engine.reset(BitSet::full(n), &[]);
            cursors.iter_mut().for_each(|c| *c = 0);
            let mut total = 0usize;
            for r in radii.clone() {
                for (s, cursor) in cursors.iter_mut().enumerate() {
                    while *cursor < n && orders[s][*cursor].0 <= r {
                        engine.add_pair(s as u32, orders[s][*cursor].1);
                        *cursor += 1;
                    }
                }
                if let Some(sol) = engine.solve_exact(usize::MAX) {
                    total += sol.len();
                }
            }
            total
        })
    });
    group.bench_function("exact_bnb_rebuild", |b| {
        b.iter(|| {
            let mut covers: Vec<BitSet> = vec![BitSet::new(n); n];
            let mut total = 0usize;
            for r in radii.clone() {
                for s in 0..n {
                    for v in 0..n as u32 {
                        if dist[s][v as usize] == r {
                            covers[s].insert(v);
                        }
                    }
                }
                let inst = DominationInstance {
                    covers: covers.clone(),
                    universe: BitSet::full(n),
                    forced: vec![],
                };
                if let Some(sol) = inst.solve_exact(usize::MAX) {
                    total += sol.len();
                }
            }
            total
        })
    });
    group.finish();
}

/// The parallel-vs-sequential pair of the deterministic parallel
/// branch-and-bound (DESIGN.md §8) on the default multi-worker
/// instance: one `G(110, 0.07)` domination solve in the hundreds of
/// milliseconds — big enough that the root-frontier split and the
/// per-worker engine snapshots amortise, small enough for a default
/// `cargo bench` run. `exact_bnb_parallel` fans out over
/// `rayon::current_num_threads()` workers (pin it with an installed
/// pool or `NCG_THREADS` through the experiments binary); on a
/// multi-core machine the pair shows the §8 speed-up, and the results
/// are asserted bit-identical in-bench before timing starts — the
/// same invariance the CI `determinism` job gates end-to-end.
fn bench_dominating_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominating_set");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let inst = graph_domination_instance(110, 0.07, &mut rng);
    let workers = rayon::current_num_threads().max(2);
    let mut seq_engine = DominationEngine::from_instance(&inst);
    let mut par_engine = DominationEngine::from_instance(&inst);
    assert_eq!(
        seq_engine.solve_exact(usize::MAX),
        par_engine.solve_exact_parallel(usize::MAX, workers, 8),
        "parallel solver must be bit-identical to sequential"
    );
    group.bench_with_input(BenchmarkId::new("exact_bnb_sequential", 110), &(), |b, ()| {
        b.iter(|| black_box(seq_engine.solve_exact(usize::MAX)))
    });
    group.bench_with_input(BenchmarkId::new("exact_bnb_parallel", 110), &(), |b, ()| {
        b.iter(|| black_box(par_engine.solve_exact_parallel(usize::MAX, workers, 8)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bfs,
    bench_metrics,
    bench_generators,
    bench_dominating,
    bench_dominating_incremental,
    bench_dominating_parallel
);
criterion_main!(benches);
