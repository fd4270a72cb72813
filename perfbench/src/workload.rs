//! The benchmark's workloads: which experiment each runs, under which
//! profile. Why each was chosen is recorded in `perfbench/README.md`.

use ncg_experiments::sweep::SweepSpec;
use ncg_experiments::{sweep_plan, Profile};

/// One benchmark workload: a single sweep of one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The quick Figure 5 grid: MaxNCG on random trees, n = 70.
    Figure5,
    /// The quick SumNCG extension grid: random trees, n = 30.
    SumExtension,
    /// The α = 5 cells of the smoke scale grid: G(10^5, avg deg 10).
    ScaleChurn,
}

impl Workload {
    /// Parses a workload name as `run.py` passes it.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "figure5" => Some(Workload::Figure5),
            "sum_extension" => Some(Workload::SumExtension),
            "scale_churn" => Some(Workload::ScaleChurn),
            _ => None,
        }
    }

    /// The experiment's name as the CLI and `run_experiment` spell it.
    pub fn experiment(self) -> &'static str {
        match self {
            Workload::Figure5 => "figure5",
            Workload::SumExtension => "sum-extension",
            Workload::ScaleChurn => "scale-dynamics",
        }
    }

    /// The experiment's journal key (`<key>_runs.jsonl`).
    pub fn journal_name(self) -> String {
        self.experiment().replace('-', "_")
    }

    /// The profile the sweep runs under, with `seed` as its base seed.
    pub fn profile(self, seed: u64) -> Profile {
        match self {
            Workload::Figure5 | Workload::SumExtension => {
                Profile { base_seed: seed, ..Profile::quick() }
            }
            // α = 1 converges in its first round; the α = 5 cells are
            // the ones that churn against the round cap.
            Workload::ScaleChurn => {
                Profile { scale_alphas: vec![5.0], base_seed: seed, ..Profile::smoke() }
            }
        }
    }

    /// The sweep specs `run_experiment` executes for this workload.
    pub fn specs(self, seed: u64) -> Vec<SweepSpec> {
        sweep_plan(self.experiment(), &self.profile(seed)).expect("workload experiments are known")
    }
}
