//! Scalar vs bit-parallel batched BFS kernels on the
//! `StateMetrics`-shaped workload: an all-sources sweep accumulating
//! per-source eccentricity, reach count, and status sum — exactly the
//! per-player quantities the metrics epilogue, the Figure 5 view-size
//! statistics, and the LKE certification sweep derive.
//!
//! Three arms per substrate: the scalar CSR per-source kernel (one
//! frontier per source), the 64-lane batched kernel pinned top-down,
//! and the batched kernel with the Beamer-style direction heuristic
//! (`Direction::Auto`). The aggregates of all three arms are asserted
//! equal *before* timing starts — the same bit-identicality the parity
//! proptests (`ncg-graph/tests/proptest_batch.rs`) gate. The scalar arm
//! is the baseline only: every production adopter runs the batched
//! kernel.
//!
//! Substrates: sparse connected `G(n, 8/n)` at n ∈ {256, 1024, 4096}
//! and the Section 3.1 torus gadgets (the certification sweep's
//! instance family), labelled by their actual vertex counts. The
//! largest torus arm is far past any torus a CLI run certifies (at
//! most 160 nodes under `lower-bounds --paper`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncg_constructions::TorusGrid;
use ncg_graph::batch::{
    batch_bfs_opts, BatchDistances, BatchOptions, BatchScratch, Direction, WORD_LANES,
};
use ncg_graph::bfs::DistanceBuffer;
use ncg_graph::{generators, CsrGraph, NodeId, INFINITY};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// The scalar arm: one full BFS per source on the CSR layout, folding
/// the per-source aggregates exactly as `StateMetrics::measure`'s
/// scalar path does.
fn scalar_sweep(csr: &CsrGraph, buf: &mut DistanceBuffer) -> (u64, u64, u64) {
    let n = csr.node_count();
    let (mut ecc, mut reached, mut status) = (0u64, 0u64, 0u64);
    for u in 0..n as NodeId {
        ecc += csr.bfs(u, buf) as u64;
        reached += buf.visited().len() as u64;
        status +=
            buf.distances().iter().filter(|&&d| d != INFINITY).map(|&d| d as u64).sum::<u64>();
    }
    (ecc, reached, status)
}

/// The batched arms: ⌈n/64⌉ lane-group passes, aggregates read off the
/// level histograms (no distance materialisation).
fn batched_sweep(
    csr: &CsrGraph,
    direction: Direction,
    scratch: &mut BatchScratch,
    out: &mut BatchDistances,
    sources: &mut Vec<NodeId>,
) -> (u64, u64, u64) {
    let n = csr.node_count();
    let opts = BatchOptions { direction, ..BatchOptions::default() };
    let (mut ecc, mut reached, mut status) = (0u64, 0u64, 0u64);
    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + WORD_LANES).min(n);
        sources.clear();
        sources.extend(lo as NodeId..hi as NodeId);
        batch_bfs_opts(csr, sources, &opts, scratch, out);
        for lane in 0..hi - lo {
            ecc += out.ecc(lane) as u64;
            reached += out.reached(lane) as u64;
            status += out.status_sum(lane);
        }
        lo = hi;
    }
    (ecc, reached, status)
}

fn bench_substrate(c: &mut Criterion, label: &str, csr: &CsrGraph) {
    let n = csr.node_count();
    let mut buf = DistanceBuffer::with_capacity(n);
    let mut scratch = BatchScratch::new();
    let mut out = BatchDistances::new();
    let mut sources = Vec::with_capacity(WORD_LANES);
    // Bit-identicality gate before any timing: all three arms must
    // produce the same aggregate triple.
    let reference = scalar_sweep(csr, &mut buf);
    for direction in [Direction::TopDown, Direction::Auto] {
        assert_eq!(
            batched_sweep(csr, direction, &mut scratch, &mut out, &mut sources),
            reference,
            "batched {direction:?} sweep diverges from the scalar kernel on {label}/{n}"
        );
    }
    let mut group = c.benchmark_group("bfs_kernels");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new(format!("{label}_scalar"), n), csr, |b, csr| {
        b.iter(|| black_box(scalar_sweep(csr, &mut buf)))
    });
    group.bench_with_input(BenchmarkId::new(format!("{label}_batched"), n), csr, |b, csr| {
        b.iter(|| {
            black_box(batched_sweep(csr, Direction::TopDown, &mut scratch, &mut out, &mut sources))
        })
    });
    group.bench_with_input(BenchmarkId::new(format!("{label}_batched_auto"), n), csr, |b, csr| {
        b.iter(|| {
            black_box(batched_sweep(csr, Direction::Auto, &mut scratch, &mut out, &mut sources))
        })
    });
    group.finish();
}

fn bench_gnp(c: &mut Criterion) {
    for n in [256usize, 1024, 4096] {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generators::gnp_connected(n, 8.0 / n as f64, 1000, &mut rng).unwrap();
        bench_substrate(c, "gnp", &CsrGraph::from_graph(&g));
    }
}

fn bench_torus(c: &mut Criterion) {
    // Closed tori near the gnp sizes (`n = 6δ²` at ℓ = 2):
    // δ = 6 → 216 vertices, δ = 13 → 1014, δ = 26 → 4056.
    for (deltas, ell) in [([6u32, 6], 2u32), ([13, 13], 2), ([26, 26], 2)] {
        let torus = TorusGrid::closed(&deltas, ell).unwrap();
        bench_substrate(c, "torus", torus.state().graph());
    }
}

criterion_group!(benches, bench_gnp, bench_torus);
criterion_main!(benches);
