//! Scale-tier benchmarks: simultaneous rounds on flat `G(n, p)`
//! states through the CSR-native responder path.
//!
//! * `scale_rounds/round_50k` — one simultaneous round on
//!   `G(5·10^4, avg deg 10)`: every player proposes against the
//!   frozen round-start network, conflicts resolve in canonical
//!   order, and the CSR rebuilds wholesale. This is the unit of work
//!   the `--smoke` CI lane times at `n = 10^5` and the `--full` tier
//!   scales to `10^6`.
//! * `scale_rounds/run_20k` — a short capped run (4 rounds) at
//!   `n = 2·10^4`, the shape of one `scale-dynamics --quick` cell:
//!   round one is dense (everyone is dirty); later rounds re-run only
//!   players whose radius-`k` view the previous round changed, and
//!   carry the other conflicted proposals (DESIGN.md §13).

use criterion::{criterion_group, criterion_main, Criterion};
use ncg_core::GameSpec;
use ncg_dynamics::scale::{run_scale, ScaleArena, ScaleConfig};
use ncg_experiments::workloads;

fn bench_scale_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_rounds");
    group.sample_size(10);

    let big = workloads::scale_er_states(50_000, 10.0, 1, 7).remove(0);
    let mut one_round = ScaleConfig::new(GameSpec::max(1.0, 2));
    one_round.max_rounds = 1;
    let mut arena = ScaleArena::new();
    group.bench_function("round_50k", |b| {
        b.iter(|| {
            let mut state = big.clone();
            run_scale(&mut state, &one_round, &mut arena)
        })
    });

    let small = workloads::scale_er_states(20_000, 10.0, 1, 7).remove(0);
    let mut capped = ScaleConfig::new(GameSpec::max(1.0, 2));
    capped.max_rounds = 4;
    group.bench_function("run_20k", |b| {
        b.iter(|| {
            let mut state = small.clone();
            run_scale(&mut state, &capped, &mut arena)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scale_rounds);
criterion_main!(benches);
