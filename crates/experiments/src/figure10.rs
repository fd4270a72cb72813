//! Figure 10: convergence time of the best-response dynamics —
//! rounds needed to reach a stable network, (left) as a function of
//! `α` at the headline tree size, and (right) as a function of `n` at
//! `α = 2`; one series per `k`. Random-tree workloads.
//!
//! Paper observations: convergence is fast (≤ 7 rounds in > 95% of
//! runs), best-response cycles are vanishingly rare (5 in ≈36 000
//! dynamics), and the round count grows slowly with `n`.

use ncg_core::Objective;

use crate::engine::{self, MetricGrid, SweepContext};
use crate::output::grid_table;
use crate::sweep::{RunRecord, SweepSpec};
use crate::{ExperimentOutput, Profile};

fn rounds_of(rec: &RunRecord) -> Option<f64> {
    rec.converged.then_some(rec.rounds as f64)
}

/// Runs the Figure 10 sweeps under the given profile (local mode).
pub fn run(profile: &Profile) -> ExperimentOutput {
    run_ctx(profile, &SweepContext::local())
}

/// Runs the Figure 10 sweeps under the given execution context.
pub fn run_ctx(profile: &Profile, ctx: &SweepContext) -> ExperimentOutput {
    let n_head = profile.headline_tree_n();
    let mut out = ExperimentOutput::new("figure10");
    // Left panel: rounds vs α at the headline n; right panel: rounds
    // vs n at α = 2, one sweep per tree size.
    let mut specs = vec![SweepSpec::tree(
        "vs_alpha",
        n_head,
        profile.reps,
        profile.base_seed,
        profile.alphas.clone(),
        profile.ks.clone(),
        Objective::Max,
    )];
    for &n in &profile.tree_ns {
        specs.push(SweepSpec::tree(
            format!("vs_n{n}"),
            n,
            profile.reps,
            profile.base_seed,
            vec![2.0],
            profile.ks.clone(),
            Objective::Max,
        ));
    }
    let mut left = MetricGrid::new(profile.alphas.len(), profile.ks.len());
    let mut by_n: Vec<MetricGrid> =
        profile.tree_ns.iter().map(|_| MetricGrid::new(1, profile.ks.len())).collect();
    let mut cycles = 0usize;
    let mut total = 0usize;
    let report = engine::execute(ctx, "figure10", &specs, &mut |si, cell, rec| {
        total += 1;
        cycles += rec.cycled() as usize;
        if si == 0 {
            left.push(cell.ai, cell.ki, rounds_of(rec));
        } else {
            by_n[si - 1].push(0, cell.ki, rounds_of(rec));
        }
    });
    if let Some(note) = report.shard_note("figure10") {
        out.notes = note;
        return out;
    }
    let row_labels: Vec<String> = profile.alphas.iter().map(|a| format!("{a}")).collect();
    let col_labels: Vec<String> = profile.ks.iter().map(|k| format!("k={k}")).collect();
    out.push_table(
        format!("rounds_vs_alpha_n{n_head}"),
        grid_table("alpha", &row_labels, &col_labels, |ri, ci| left.display(ri, ci, 1)),
    );
    let n_labels: Vec<String> = profile.tree_ns.iter().map(|n| n.to_string()).collect();
    out.push_table(
        "rounds_vs_n_alpha2",
        grid_table("n", &n_labels, &col_labels, |ri, ci| by_n[ri].display(0, ci, 1)),
    );
    out.notes = format!(
        "Figure 10 — convergence rounds on random trees; profile: {} ({} reps). \
         Best-response cycles observed: {cycles} / {total} dynamics \
         (paper: 5 / ≈36 000).",
        profile.name, profile.reps
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergence_is_fast_on_trees() {
        // The paper's ≤7-rounds claim, scaled down.
        let reps = 4;
        let spec =
            SweepSpec::tree("t", 30, reps, 17, vec![0.5, 2.0, 10.0], vec![2, 1000], Objective::Max);
        let results = engine::records(&spec);
        let mut converged = 0;
        for c in results.iter().filter(|c| c.converged) {
            converged += 1;
            assert!(c.rounds <= 12, "slow convergence: {} rounds", c.rounds);
        }
        assert!(
            converged * 10 >= results.len() * 9,
            "≥90% of runs should converge: {converged}/{}",
            results.len()
        );
    }

    #[test]
    fn output_has_two_panels_and_cycle_note() {
        let out = run(&Profile::smoke());
        assert_eq!(out.tables.len(), 2);
        assert!(out.notes.contains("cycles observed"));
    }
}
