//! Figure 9: the unfairness ratio (costliest player / cheapest
//! player) of the stable networks as a function of `α`, one series
//! per `k` — Erdős–Rényi workloads (paper: `n = 100, p = 0.1`).
//!
//! Paper observation: *small* values of `k` yield more fair equilibria
//! — restricting the players' views flattens the cost distribution.

use ncg_core::Objective;

use crate::engine::{self, MetricGrid, SweepContext};
use crate::output::grid_table;
use crate::sweep::SweepSpec;
use crate::{ExperimentOutput, Profile};

/// Runs the Figure 9 sweep under the given profile (local mode).
pub fn run(profile: &Profile) -> ExperimentOutput {
    run_ctx(profile, &SweepContext::local())
}

/// Runs the Figure 9 sweep under the given execution context.
pub fn run_ctx(profile: &Profile, ctx: &SweepContext) -> ExperimentOutput {
    let (n, p) = profile.headline_er();
    let mut out = ExperimentOutput::new("figure9");
    let specs = vec![SweepSpec::er(
        "main",
        n,
        p,
        profile.reps,
        profile.base_seed,
        profile.alphas.clone(),
        profile.ks.clone(),
        Objective::Max,
    )];
    let mut unfair = MetricGrid::new(profile.alphas.len(), profile.ks.len());
    let report = engine::execute(ctx, "figure9", &specs, &mut |_, cell, rec| {
        unfair.push(cell.ai, cell.ki, rec.unfairness);
    });
    if let Some(note) = report.shard_note("figure9") {
        out.notes = note;
        return out;
    }
    out.notes = format!(
        "Figure 9 — unfairness (max/min player cost) vs α on G({n}, {p}); profile: {} ({} reps)",
        profile.name, profile.reps
    );
    let row_labels: Vec<String> = profile.alphas.iter().map(|a| format!("{a}")).collect();
    let col_labels: Vec<String> = profile.ks.iter().map(|k| format!("k={k}")).collect();
    out.push_table(
        "unfairness",
        grid_table("alpha", &row_labels, &col_labels, |ri, ci| unfair.display(ri, ci, 2)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_views_are_more_fair_than_full_knowledge() {
        // The paper's qualitative claim, scaled down: compare the mean
        // unfairness at k = 2 against k = 1000 for a cheap α where
        // full knowledge builds hub-dominated (unfair) networks.
        let reps = 3;
        let spec = SweepSpec::er("t", 28, 0.15, reps, 13, vec![0.3], vec![2, 1000], Objective::Max);
        let results = engine::records(&spec);
        let grouped: Vec<_> = results.chunks(reps).collect();
        let mean_unfair = |i: usize| {
            let v: Vec<f64> = grouped[i].iter().filter_map(|c| c.unfairness).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let local = mean_unfair(0);
        let full = mean_unfair(1);
        assert!(
            local <= full + 0.75,
            "local views should be at least comparably fair: k=2 → {local}, k=1000 → {full}"
        );
    }

    #[test]
    fn unfairness_at_least_one() {
        let spec = SweepSpec::er("t", 20, 0.2, 2, 5, vec![1.0], vec![3], Objective::Max);
        let results = engine::records(&spec);
        for c in &results {
            if let Some(u) = c.unfairness {
                assert!(u >= 1.0 - 1e-9);
            }
        }
    }

    #[test]
    fn output_shape() {
        let out = run(&Profile::smoke());
        assert_eq!(out.tables.len(), 1);
        assert_eq!(out.tables[0].1.len(), Profile::smoke().alphas.len());
    }
}
