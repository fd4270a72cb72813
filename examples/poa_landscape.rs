//! The PoA landscape: for a grid of `(α, k)` pairs, print the
//! region of Figure 3, the theoretical bounds, and a measured
//! equilibrium quality from small-scale dynamics — theory and
//! experiment side by side.
//!
//! ```sh
//! cargo run --release --example poa_landscape
//! ```

use ncg::bounds::maxncg;
use ncg::core::Objective;
use ncg::experiments::engine::{self, SweepContext};
use ncg::experiments::sweep::SweepSpec;
use ncg::experiments::MetricGrid;

fn main() {
    let n = 40;
    let reps = 4;
    let alphas = [0.5, 2.0, 10.0];
    let ks = [2u32, 4, 1000];
    println!(
        "MaxNCG PoA landscape on random trees (n = {n}, {reps} seeds per cell).\n\
         Theory columns use the asymptotic formulas at the same n with unit constants.\n"
    );
    println!(
        "{:>7} {:>6} {:>14} {:>12} {:>12} {:>12}",
        "α", "k", "region", "theory LB", "theory UB", "measured"
    );
    let spec =
        SweepSpec::tree("landscape", n, reps, 0x9a9a, alphas.to_vec(), ks.to_vec(), Objective::Max);
    let mut quality = MetricGrid::new(alphas.len(), ks.len());
    engine::execute(&SweepContext::local(), "poa_landscape", &[spec], &mut |_, cell, rec| {
        quality.push(cell.ai, cell.ki, rec.quality)
    });
    for (ai, &alpha) in alphas.iter().enumerate() {
        for (ki, &k) in ks.iter().enumerate() {
            let b = maxncg::bounds(n, alpha, k);
            println!(
                "{:>7} {:>6} {:>14} {:>12.2} {:>12.2} {:>12.2}",
                alpha,
                k,
                format!("{:?}", maxncg::region(n, alpha, k)),
                b.lower,
                b.upper,
                quality.summary(ai, ki).mean
            );
        }
    }
    println!(
        "\nReading guide: measured quality must sit between the asymptotic bounds \
         up to their hidden constants; the FullKnowledge rows collapse to the \
         (mostly constant) full-knowledge PoA, while small-k rows inflate with n."
    );
}
