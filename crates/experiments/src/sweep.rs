//! The `(α, k, rep)` sweep engine: a deterministic cell work-list
//! with warm-started dynamics, process-level sharding, and streaming
//! per-cell results.
//!
//! The seed implementation materialised every [`RunResult`] of a grid
//! in memory and re-solved every cell from a cold cache. The engine
//! now walks a [`SweepSpec`]'s cells as a work-list:
//!
//! * cells are identified by a [`CellId`] with a canonical linear
//!   index (`α`-major, then `k`, then `rep`) — the order every
//!   journal, fold, and table is defined over;
//! * workers parallelise over *repetitions* so that one warm-start
//!   [`Arena`] per rep is reused across all `(α, k)` cells sharing
//!   that initial state — the warm-start path of DESIGN.md §7;
//!   outcomes are bit-identical to cold runs;
//! * `--shards M --shard i` process-level sharding partitions cells
//!   by `rep % M` (see [`Shard`]), keeping warm-start groups intact
//!   and the partition deterministic;
//! * finished cells are *streamed* to a sink (the higher-level
//!   [`crate::engine`] journals them as JSONL and folds `O(grid)`
//!   aggregates) instead of being collected, and the progress counter
//!   is a lock-free `AtomicUsize`.
//!
//! One cell solver, [`solve_cell`], serves both tiers (exact
//! `GameState` dynamics and the approximate scale tier, picked by the
//! spec's [`Workload`]) and both drivers: [`run_spec_cells`] here and
//! the lease-queue worker in [`crate::queue`]. Callers that want every
//! record of a grid fold them through [`crate::engine::execute`].

use std::sync::atomic::{AtomicUsize, Ordering};

use ncg_core::{EdgeCostModel, GameState, MoveRulePolicy, Objective, Scenario};
use ncg_dynamics::scale::{run_scale, ScaleArena, ScaleConfig, ScaleRunResult, ScaleState};
use ncg_dynamics::{run, run_with_cache, CacheArena, DynamicsConfig, RunResult};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::workloads;

/// One cell of a sweep grid, with its canonical linear index.
///
/// The canonical order is `α`-major, then `k`, then `rep`:
/// `index = (ai · |ks| + ki) · reps + rep`. Every journal line,
/// fold call, and merged artifact is defined over this order, which
/// is what makes sharded + merged output byte-identical to a
/// single-process run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellId {
    /// Canonical linear index within the sweep.
    pub index: usize,
    /// Index into the `α` grid.
    pub ai: usize,
    /// Index into the `k` grid.
    pub ki: usize,
    /// Repetition (initial-state) index.
    pub rep: usize,
}

/// How a sweep's initial states are generated (lazily — merge-mode
/// folds never sample workloads at all).
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Uniform random trees with coin-toss ownership (Table I).
    Tree,
    /// Connected `G(n, p)` samples with coin-toss ownership (Table II).
    Er(f64),
    /// Flat `G(n, avg_deg/(n-1))` samples for the million-node scale
    /// tier, solved with the approximate simultaneous-move dynamics
    /// ([`ncg_dynamics::scale`]) instead of the exact responder.
    ScaleEr {
        /// Expected degree (`p = avg_deg / (n - 1)`).
        avg_deg: f64,
        /// Round cap of the scale dynamics (part of the cell contents,
        /// unlike the exact tier's effectively-never-hit default cap).
        max_rounds: usize,
    },
}

/// A declarative description of one sweep: the workload family, the
/// parameter grid, and the scenario (objective plus edge-cost and
/// move-rule axes of the model zoo). Everything the engine, the
/// journal, and the merge fold need — states are only sampled when
/// cells actually run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Stable label of this sweep within its experiment (journal key).
    pub label: String,
    /// Workload family.
    pub workload: Workload,
    /// Player count.
    pub n: usize,
    /// Repetitions (initial states).
    pub reps: usize,
    /// Base seed the per-rep instance seeds derive from.
    pub seed: u64,
    /// Edge-price grid.
    pub alphas: Vec<f64>,
    /// Knowledge-radius grid.
    pub ks: Vec<u32>,
    /// Game objective.
    pub objective: Objective,
    /// Edge-cost model (`Uniform` for every paper sweep).
    pub edge_cost: EdgeCostModel,
    /// Move rule (`AnySubset` for every paper sweep).
    pub move_rule: MoveRulePolicy,
}

impl SweepSpec {
    /// A random-tree sweep. The last argument is any scenario handle:
    /// a bare [`Objective`] selects the canonical (uniform, subset)
    /// game, a full [`Scenario`] selects a model-zoo variant.
    pub fn tree(
        label: impl Into<String>,
        n: usize,
        reps: usize,
        seed: u64,
        alphas: Vec<f64>,
        ks: Vec<u32>,
        scenario: impl Into<Scenario>,
    ) -> Self {
        let scenario = scenario.into();
        SweepSpec {
            label: label.into(),
            workload: Workload::Tree,
            n,
            reps,
            seed,
            alphas,
            ks,
            objective: scenario.objective,
            edge_cost: scenario.edge_cost,
            move_rule: scenario.move_rule,
        }
    }

    /// An Erdős–Rényi sweep; scenario handle as in [`SweepSpec::tree`].
    #[allow(clippy::too_many_arguments)] // mirrors `tree` plus the edge probability
    pub fn er(
        label: impl Into<String>,
        n: usize,
        p: f64,
        reps: usize,
        seed: u64,
        alphas: Vec<f64>,
        ks: Vec<u32>,
        scenario: impl Into<Scenario>,
    ) -> Self {
        let scenario = scenario.into();
        SweepSpec {
            label: label.into(),
            workload: Workload::Er(p),
            n,
            reps,
            seed,
            alphas,
            ks,
            objective: scenario.objective,
            edge_cost: scenario.edge_cost,
            move_rule: scenario.move_rule,
        }
    }

    /// A scale-tier Erdős–Rényi sweep: `G(n, avg_deg/(n-1))` inputs in
    /// flat [`ScaleState`] layout, solved with the approximate
    /// simultaneous-move dynamics under a `max_rounds` cap. Only the
    /// canonical (uniform-price, any-subset) games are supported at
    /// this tier, so the scenario handle is a bare [`Objective`].
    #[allow(clippy::too_many_arguments)] // mirrors `er` plus the round cap
    pub fn scale_er(
        label: impl Into<String>,
        n: usize,
        avg_deg: f64,
        max_rounds: usize,
        reps: usize,
        seed: u64,
        alphas: Vec<f64>,
        ks: Vec<u32>,
        objective: Objective,
    ) -> Self {
        SweepSpec {
            label: label.into(),
            workload: Workload::ScaleEr { avg_deg, max_rounds },
            n,
            reps,
            seed,
            alphas,
            ks,
            objective,
            edge_cost: EdgeCostModel::Uniform,
            move_rule: MoveRulePolicy::AnySubset,
        }
    }

    /// Whether this sweep runs on the scale tier (flat states, the
    /// approximate simultaneous dynamics, [`ScaleArena`] warm starts)
    /// instead of the exact `GameState` path.
    pub fn is_scale(&self) -> bool {
        matches!(self.workload, Workload::ScaleEr { .. })
    }

    /// The sweep's scenario (objective × edge cost × move rule).
    pub fn scenario(&self) -> Scenario {
        Scenario { objective: self.objective, edge_cost: self.edge_cost, move_rule: self.move_rule }
    }

    /// The workload class tag recorded in run records
    /// (`"tree"` / `"er"` / `"scale_er"`).
    pub fn class(&self) -> &'static str {
        match self.workload {
            Workload::Tree => "tree",
            Workload::Er(_) => "er",
            Workload::ScaleEr { .. } => "scale_er",
        }
    }

    /// Total number of cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.alphas.len() * self.ks.len() * self.reps
    }

    /// Decomposes a canonical linear index into a [`CellId`].
    ///
    /// # Panics
    /// Panics if `index ≥ cell_count()`.
    pub fn cell(&self, index: usize) -> CellId {
        assert!(index < self.cell_count(), "cell index {index} out of range");
        let rep = index % self.reps;
        let rest = index / self.reps;
        CellId { index, ai: rest / self.ks.len(), ki: rest % self.ks.len(), rep }
    }

    /// The canonical linear index of `(ai, ki, rep)`.
    pub fn index_of(&self, ai: usize, ki: usize, rep: usize) -> usize {
        cell_index(ai, ki, rep, self.ks.len(), self.reps)
    }

    /// Recomputes the canonical index of a journaled record under
    /// *this* spec's grid from the record's own coordinates.
    ///
    /// This is what lets journals written under a different `--reps`
    /// of the same grid be resumed and merged: a stored `cell` index
    /// encodes the writer's rep count, but `(α, k, rep)` plus this
    /// spec pins the cell down unambiguously. Returns `None` when the
    /// record doesn't belong to this grid at all — wrong class or
    /// `n`, an `α`/`k` not on the grid, or a rep at or beyond this
    /// spec's `reps` (a valid cell of a *larger* split, dropped here).
    pub fn index_of_record(&self, record: &RunRecord) -> Option<usize> {
        if record.class != self.class() || record.n != self.n || record.rep >= self.reps {
            return None;
        }
        let ai = self.alphas.iter().position(|&a| a == record.alpha)?;
        let ki = self.ks.iter().position(|&k| k == record.k)?;
        Some(self.index_of(ai, ki, record.rep))
    }

    /// Samples the sweep's initial states (one per rep, seeded
    /// per-instance — reproducible in isolation).
    ///
    /// # Panics
    /// Panics for scale sweeps, whose inputs must never round-trip
    /// through a `GameState` (`O(n)` allocations); use
    /// [`SweepSpec::scale_states`] there — or [`SweepSpec::inputs`],
    /// which dispatches for you.
    pub fn states(&self) -> Vec<GameState> {
        match self.workload {
            Workload::Tree => workloads::tree_states(self.n, self.reps, self.seed),
            Workload::Er(p) => workloads::er_states(self.n, p, self.reps, self.seed),
            Workload::ScaleEr { .. } => {
                panic!("scale sweeps sample flat ScaleStates; call scale_states() instead")
            }
        }
    }

    /// Samples a scale sweep's initial states in flat layout.
    ///
    /// # Panics
    /// Panics for exact-tier workloads; use [`SweepSpec::states`].
    pub fn scale_states(&self) -> Vec<ScaleState> {
        match self.workload {
            Workload::ScaleEr { avg_deg, .. } => {
                workloads::scale_er_states(self.n, avg_deg, self.reps, self.seed)
            }
            _ => panic!("exact-tier sweeps sample GameStates; call states() instead"),
        }
    }

    /// Samples the sweep's initial states in its tier's representation
    /// — the one place besides [`SweepSpec::arena`] and [`solve_cell`]
    /// where the tier is chosen.
    pub fn inputs(&self) -> Inputs {
        if self.is_scale() {
            Inputs::Scale(self.scale_states())
        } else {
            Inputs::Exact(self.states())
        }
    }

    /// A fresh warm-start arena of the sweep's tier.
    pub fn arena(&self) -> Arena {
        if self.is_scale() {
            Arena::Scale(Box::default())
        } else {
            Arena::Exact(Box::default())
        }
    }

    /// A fingerprint of everything that determines this sweep's cell
    /// contents — workload family (and `p`), `n`, seed, and the
    /// `α`/`k` grids. Stamped on every journal line and checked on
    /// resume and merge, so a journal written under a different
    /// `--seed` or grid can never be silently reused (the record's own
    /// `(α, k, rep, n, class)` cannot carry the seed).
    ///
    /// `reps` is deliberately *not* mixed in: per-rep instance seeds
    /// derive from `(seed, class, n, rep)` alone, so a cell's contents
    /// don't depend on how many reps the run around it asked for.
    /// Journals written under different `--reps` of the same grid are
    /// therefore mergeable — the union's completeness is checked
    /// against the merge target's rep count instead.
    pub fn fingerprint(&self) -> u64 {
        fn mix(h: u64, x: u64) -> u64 {
            // SplitMix64 over a running state: order-sensitive, cheap.
            let mut z = h ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let mut h = match self.workload {
            Workload::Tree => mix(1, 0),
            Workload::Er(p) => mix(2, p.to_bits()),
            // The round cap is mixed in because capped scale cells
            // genuinely depend on it, unlike the exact tier's
            // effectively-unreachable default cap.
            Workload::ScaleEr { avg_deg, max_rounds } => {
                mix(mix(3, avg_deg.to_bits()), max_rounds as u64)
            }
        };
        h = mix(h, self.n as u64);
        h = mix(h, self.seed);
        h = mix(h, self.objective as u64);
        for &alpha in &self.alphas {
            h = mix(h, alpha.to_bits());
        }
        for &k in &self.ks {
            h = mix(h, u64::from(k) | 1 << 40);
        }
        // Model-zoo axes are mixed only when non-default, so every
        // journal written before the scenario layer existed (canonical
        // uniform/subset games) keeps its fingerprint and stays
        // resumable.
        if let EdgeCostModel::PerTarget { seed } = self.edge_cost {
            h = mix(h, 0xEDC0);
            h = mix(h, seed);
        }
        if self.move_rule == MoveRulePolicy::Swap {
            h = mix(h, 0x54A9);
        }
        h
    }
}

/// The canonical linear cell index — `α`-major, then `k`, then `rep`.
/// The single definition every journal, fold, resume-skip, and merge
/// shares (via [`SweepSpec::index_of`]).
#[inline]
pub fn cell_index(ai: usize, ki: usize, rep: usize, ks_len: usize, reps: usize) -> usize {
    (ai * ks_len + ki) * reps + rep
}

/// A process-level shard selection: this process owns the cells whose
/// repetition satisfies `rep % count == index`. Partitioning by rep
/// (rather than raw cell index) keeps every warm-start group — all
/// `(α, k)` cells of one initial state — inside a single shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Total number of shards (`≥ 1`).
    pub count: usize,
    /// This process's shard index (`< count`).
    pub index: usize,
}

impl Shard {
    /// The trivial partition: one shard owning everything.
    pub fn all() -> Self {
        Shard { count: 1, index: 0 }
    }

    /// Whether this shard owns repetition `rep`.
    #[inline]
    pub fn owns_rep(&self, rep: usize) -> bool {
        rep % self.count == self.index
    }
}

/// A sweep's initial states in the representation of its tier: exact
/// workloads sample `GameState`s, scale workloads flat [`ScaleState`]s
/// (a million-node input must never round-trip through a
/// `GameState`). Built by [`SweepSpec::inputs`].
#[derive(Debug)]
pub enum Inputs {
    /// One `GameState` per rep, for the exact dynamics.
    Exact(Vec<GameState>),
    /// One flat `ScaleState` per rep, for the approximate dynamics.
    Scale(Vec<ScaleState>),
}

/// Warm-start scratch for one repetition's cells, in the tier of its
/// sweep: a [`CacheArena`] (view cache + solver scratch) or a
/// [`ScaleArena`] (dirty set + scratch pool). Built by
/// [`SweepSpec::arena`]; reusing one across a rep's `(α, k)` column is
/// purely an allocation win, outcomes are bit-identical to fresh ones.
#[derive(Debug)]
pub enum Arena {
    /// Exact-tier arena.
    Exact(Box<CacheArena>),
    /// Scale-tier arena.
    Scale(Box<ScaleArena>),
}

/// Solves one cell into its [`RunRecord`] with panic isolation — the
/// one cell solver behind both the in-process engine
/// ([`run_spec_cells`]) and the lease-queue worker.
///
/// The rep's initial state is cloned out of `inputs` and the spec's
/// dynamics run on `arena`: warm-started when `warm_start` is set,
/// from fresh scratch otherwise (`--cold`; outcomes are bit-identical
/// either way). A panic anywhere inside the solve — or injected via
/// `inject_panic`, the `panic_cell` fault — is caught, the arena is
/// replaced by a fresh one (its dirty tracking and scratch may have
/// been left mid-update, so the warm-start soundness argument no
/// longer covers them), and the payload comes back as `Err(message)`.
/// The *next* cell on the same arena is then observationally a cold
/// run.
///
/// # Panics
/// Panics (caught, as a failed cell) if `inputs` or `arena` belong to
/// the other tier than `spec`.
pub fn solve_cell(
    spec: &SweepSpec,
    inputs: &Inputs,
    cell: CellId,
    arena: &mut Arena,
    warm_start: bool,
    inject_panic: bool,
) -> Result<RunRecord, String> {
    let (alpha, k) = (spec.alphas[cell.ai], spec.ks[cell.ki]);
    let game = spec.scenario().spec(alpha, k);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected fault: panic_cell");
        }
        match (&spec.workload, inputs, &mut *arena) {
            (Workload::ScaleEr { max_rounds, .. }, Inputs::Scale(states), Arena::Scale(arena)) => {
                if !warm_start {
                    **arena = ScaleArena::new();
                }
                let mut config = ScaleConfig::new(game);
                config.max_rounds = *max_rounds;
                let mut state = states[cell.rep].clone();
                let result = run_scale(&mut state, &config, arena);
                RunRecord::from_scale(spec.class(), alpha, k, cell.rep, &result, &state)
            }
            (Workload::Tree | Workload::Er(_), Inputs::Exact(states), Arena::Exact(arena)) => {
                let config = DynamicsConfig::new(game);
                let state = states[cell.rep].clone();
                let result = if warm_start {
                    run_with_cache(state, &config, arena)
                } else {
                    run(state, &config)
                };
                RunRecord::new(spec.class(), spec.n, alpha, k, cell.rep, &result)
            }
            _ => panic!("sweep '{}': inputs or arena of the wrong tier", spec.label),
        }
    }));
    outcome.map_err(|payload| {
        *arena = spec.arena();
        (payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Runs this shard's cells of one grid through [`solve_cell`],
/// warm-starting per repetition, streaming each finished cell's
/// record (or the panic payload of a failed solve) to `sink`. This is
/// the engine's single entry point for both tiers.
///
/// Cells for which `skip(index)` returns `true` (already journaled,
/// on resume) are not run and not reported. `sink` may be called from
/// worker threads in any completion order; the canonical order is
/// re-established downstream (see `crate::engine`). `progress`, if
/// given, is called after each finished cell with `(done, total)`
/// where `total` counts this shard's non-skipped cells. `fault`, if
/// given, can force a specific canonical cell to panic
/// (`panic_cell:N`); the sweep carries on past it.
#[allow(clippy::too_many_arguments)] // the engine's one low-level entry point
pub fn run_spec_cells(
    spec: &SweepSpec,
    warm_start: bool,
    shard: Shard,
    skip: &(dyn Fn(usize) -> bool + Sync),
    sink: &(dyn Fn(CellId, Result<RunRecord, String>) + Sync),
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
    fault: Option<&crate::fault::FaultPlan>,
) {
    assert!(shard.count >= 1 && shard.index < shard.count, "invalid shard {shard:?}");
    let inputs = spec.inputs();
    // A rep's cells in canonical order (α-major, then k), minus the
    // skipped ones.
    let cells_of = |rep: usize| {
        (0..spec.alphas.len())
            .flat_map(move |ai| (0..spec.ks.len()).map(move |ki| (ai, ki)))
            .map(move |(ai, ki)| CellId { index: spec.index_of(ai, ki, rep), ai, ki, rep })
            .filter(|cell| !skip(cell.index))
    };
    let my_reps: Vec<usize> = (0..spec.reps).filter(|&r| shard.owns_rep(r)).collect();
    let total: usize = my_reps.iter().map(|&rep| cells_of(rep).count()).sum();
    let done = AtomicUsize::new(0);
    // One worker item per repetition: the rep's arena persists across
    // its whole (α, k) column, which is the warm-start win.
    let _: Vec<()> = my_reps
        .into_par_iter()
        .map(|rep| {
            let mut arena = spec.arena();
            for cell in cells_of(rep) {
                let inject = fault.is_some_and(|f| f.panics_at_cell(cell.index));
                sink(cell, solve_cell(spec, &inputs, cell, &mut arena, warm_start, inject));
                if let Some(cb) = progress {
                    cb(done.fetch_add(1, Ordering::Relaxed) + 1, total);
                }
            }
        })
        .collect();
}

/// A compact serialisable record of one run — the unit the sweep
/// engine streams to its JSONL journal and the fold API aggregates.
/// Holds only scalars, so a full 36 000-cell grid of records is a few
/// megabytes where the same grid of [`RunResult`]s was gigabytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload class tag (`"tree"` / `"er"`).
    pub class: String,
    /// Player count.
    pub n: usize,
    /// Edge price.
    pub alpha: f64,
    /// Knowledge radius.
    pub k: u32,
    /// Repetition index.
    pub rep: usize,
    /// `true` iff the dynamics converged.
    pub converged: bool,
    /// `true` iff the run hit the round cap without converging or
    /// cycling (in which case `rounds` is the cap, not a sentinel).
    pub capped: bool,
    /// Rounds executed.
    pub rounds: usize,
    /// Total accepted moves.
    pub moves: usize,
    /// Final diameter, if connected.
    pub diameter: Option<u32>,
    /// Final quality `SC/OPT`.
    pub quality: Option<f64>,
    /// Final maximum degree.
    pub max_degree: usize,
    /// Final maximum bought edges.
    pub max_bought: usize,
    /// Final minimum view size.
    pub min_view: usize,
    /// Final average view size.
    pub avg_view: f64,
    /// Final unfairness ratio.
    pub unfairness: Option<f64>,
}

impl RunRecord {
    /// Builds a record straight from a finished run — the streaming
    /// path: the [`RunResult`] (and its `GameState`) is dropped as
    /// soon as this returns.
    pub fn new(class: &str, n: usize, alpha: f64, k: u32, rep: usize, result: &RunResult) -> Self {
        let m = &result.final_metrics;
        RunRecord {
            class: class.to_string(),
            n,
            alpha,
            k,
            rep,
            converged: result.outcome.converged(),
            capped: matches!(result.outcome, ncg_dynamics::Outcome::MaxRoundsExceeded { .. }),
            rounds: result.outcome.rounds(),
            moves: result.total_moves,
            diameter: m.diameter,
            quality: m.quality,
            max_degree: m.max_degree,
            max_bought: m.max_bought,
            min_view: m.min_view,
            avg_view: m.avg_view,
            unfairness: m.unfairness,
        }
    }

    /// Builds a record from a finished scale-tier run. The schema is
    /// shared with the exact tier; fields the scale tier does not
    /// measure exhaustively are `None` (`diameter`, `quality`,
    /// `unfairness` would each cost `O(n·m)`), and the view statistics
    /// come from the deterministic 64-player [`ViewSample`]
    /// (`min_view` is the sampled minimum, not the global one).
    ///
    /// [`ViewSample`]: ncg_dynamics::scale::ViewSample
    pub fn from_scale(
        class: &str,
        alpha: f64,
        k: u32,
        rep: usize,
        result: &ScaleRunResult,
        final_state: &ScaleState,
    ) -> Self {
        let n = final_state.n();
        let g = final_state.graph();
        let max_degree =
            (0..n as ncg_graph::NodeId).map(|u| g.neighbors(u).len()).max().unwrap_or(0);
        RunRecord {
            class: class.to_string(),
            n,
            alpha,
            k,
            rep,
            converged: result.outcome.converged(),
            capped: matches!(result.outcome, ncg_dynamics::Outcome::MaxRoundsExceeded { .. }),
            rounds: result.outcome.rounds(),
            moves: result.total_moves,
            diameter: None,
            quality: None,
            max_degree,
            max_bought: final_state.max_bought(),
            min_view: result.view_sample.min,
            avg_view: result.view_sample.avg,
            unfairness: None,
        }
    }

    /// Whether the run ended in a detected best-response cycle.
    pub fn cycled(&self) -> bool {
        !self.converged && !self.capped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use parking_lot::Mutex;

    /// Runs one shard of `spec` through [`run_spec_cells`] and returns
    /// its `(index, entry)` pairs sorted by canonical index.
    fn collect(
        spec: &SweepSpec,
        warm: bool,
        shard: Shard,
        fault: Option<&FaultPlan>,
    ) -> Vec<(usize, Result<RunRecord, String>)> {
        let got = Mutex::new(Vec::new());
        run_spec_cells(
            spec,
            warm,
            shard,
            &|_| false,
            &|cell, entry| got.lock().push((cell.index, entry)),
            None,
            fault,
        );
        let mut got = got.into_inner();
        got.sort_by_key(|(i, _)| *i);
        got
    }

    /// Every record of a clean, warm, single-shard run, in canonical
    /// order.
    fn records(spec: &SweepSpec) -> Vec<RunRecord> {
        let got = collect(spec, true, Shard::all(), None);
        got.into_iter().map(|(_, entry)| entry.expect("no cell may fail")).collect()
    }

    #[test]
    fn sweep_covers_the_grid_in_order() {
        let spec = SweepSpec::tree("t", 14, 2, 1, vec![0.5, 2.0], vec![2, 1000], Objective::Max);
        let results = records(&spec);
        assert_eq!(results.len(), 8);
        // Order: α-major, then k, then rep.
        assert_eq!((results[0].alpha, results[0].k, results[0].rep), (0.5, 2, 0));
        assert_eq!((results[1].alpha, results[1].k, results[1].rep), (0.5, 2, 1));
        assert_eq!((results[2].alpha, results[2].k, results[2].rep), (0.5, 1000, 0));
        assert_eq!((results[7].alpha, results[7].k, results[7].rep), (2.0, 1000, 1));
        for c in &results {
            assert!(c.converged || c.moves > 0);
        }
    }

    #[test]
    fn progress_callback_counts_to_total() {
        let spec = SweepSpec::tree("t", 10, 2, 3, vec![1.0], vec![2], Objective::Max);
        let max_seen = AtomicUsize::new(0);
        let cb = |done: usize, total: usize| {
            assert!(done <= total);
            max_seen.fetch_max(done, Ordering::Relaxed);
        };
        run_spec_cells(&spec, true, Shard::all(), &|_| false, &|_, _| {}, Some(&cb), None);
        assert_eq!(max_seen.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn cell_index_round_trips() {
        let spec =
            SweepSpec::tree("t", 10, 3, 7, vec![0.5, 1.0, 2.0, 4.0], vec![2, 3], Objective::Max);
        assert_eq!(spec.cell_count(), 24);
        for index in 0..spec.cell_count() {
            let cell = spec.cell(index);
            assert_eq!(cell.index, index);
            assert_eq!(spec.index_of(cell.ai, cell.ki, cell.rep), index);
        }
        // α-major, then k, then rep.
        assert_eq!(spec.cell(0), CellId { index: 0, ai: 0, ki: 0, rep: 0 });
        assert_eq!(spec.cell(3), CellId { index: 3, ai: 0, ki: 1, rep: 0 });
        assert_eq!(spec.cell(6), CellId { index: 6, ai: 1, ki: 0, rep: 0 });
    }

    #[test]
    fn shard_partition_is_by_rep_and_complete() {
        let shards: Vec<Shard> = (0..3).map(|index| Shard { count: 3, index }).collect();
        for rep in 0..10 {
            let owners: Vec<usize> =
                shards.iter().filter(|s| s.owns_rep(rep)).map(|s| s.index).collect();
            assert_eq!(owners, vec![rep % 3], "rep {rep} must have exactly one owner");
        }
    }

    #[test]
    fn sharded_run_cells_cover_exactly_the_grid() {
        let spec = SweepSpec::tree("t", 10, 3, 5, vec![0.5, 2.0], vec![2], Objective::Max);
        let mut seen: Vec<usize> = (0..2)
            .flat_map(|index| collect(&spec, true, Shard { count: 2, index }, None))
            .map(|(index, _)| index)
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..6).collect::<Vec<_>>(), "shards must partition the grid exactly");
    }

    #[test]
    fn skip_suppresses_cells_and_progress_total() {
        let spec = SweepSpec::tree("t", 10, 2, 9, vec![1.0], vec![2, 3], Objective::Max);
        let ran: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let totals: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        run_spec_cells(
            &spec,
            true,
            Shard::all(),
            &|index| index % 2 == 0,
            &|cell, _| ran.lock().push(cell.index),
            Some(&|_, total| totals.lock().push(total)),
            None,
        );
        let mut ran = ran.into_inner();
        ran.sort_unstable();
        assert_eq!(ran, vec![1, 3]);
        assert!(totals.into_inner().iter().all(|&t| t == 2));
    }

    #[test]
    fn run_record_extracts_fields() {
        let spec = SweepSpec::tree("t", 12, 1, 4, vec![2.0], vec![3], Objective::Max);
        let rec = records(&spec).remove(0);
        assert_eq!(rec.class, "tree");
        assert_eq!(rec.n, 12);
        assert_eq!(rec.alpha, 2.0);
        assert_eq!(rec.k, 3);
        assert!(rec.converged);
        assert!(!rec.capped);
        assert!(!rec.cycled());
        assert!(rec.rounds >= 1);
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("\"class\":\"tree\""));
        assert!(json.contains("\"capped\":false"));
        let back: RunRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec, "records must round-trip through the journal encoding");
    }

    #[test]
    fn capped_runs_record_executed_rounds_not_a_sentinel() {
        // A toggling two-player gadget that can never converge, with a
        // cap of 1 round: the record must say rounds = 1, capped.
        let state = GameState::from_strategies(3, vec![vec![1], vec![2], vec![0]]);
        let spec = ncg_core::GameSpec::max(1.0, 2);
        let mut config = DynamicsConfig::new(spec);
        config.max_rounds = 0;
        let result = run(state, &config);
        let rec = RunRecord::new("tree", 3, spec.alpha, spec.k, 0, &result);
        assert!(rec.capped);
        assert!(!rec.converged);
        assert_eq!(rec.rounds, 0, "rounds must be the executed count, not usize::MAX");
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("\"capped\":true"));
        assert!(!json.contains(&usize::MAX.to_string()));
    }

    #[test]
    fn fingerprint_ignores_reps_but_nothing_else() {
        let base =
            SweepSpec::tree("t", 10, 3, 7, vec![0.5, 1.0, 2.0, 4.0], vec![2, 3], Objective::Max);
        let mut more_reps = base.clone();
        more_reps.reps = 12;
        assert_eq!(
            base.fingerprint(),
            more_reps.fingerprint(),
            "reps splits of one grid must share a fingerprint (hetero-reps merge)"
        );
        let mut other_seed = base.clone();
        other_seed.seed = 8;
        assert_ne!(base.fingerprint(), other_seed.fingerprint());
        let mut other_grid = base.clone();
        other_grid.ks.push(4);
        assert_ne!(base.fingerprint(), other_grid.fingerprint());
    }

    #[test]
    fn index_of_record_reindexes_across_reps_splits() {
        let writer =
            SweepSpec::tree("t", 10, 2, 7, vec![0.5, 1.0, 2.0, 4.0], vec![2, 3], Objective::Max);
        let reader = SweepSpec { reps: 5, ..writer.clone() };
        let record = |alpha: f64, k: u32, rep: usize| RunRecord {
            class: "tree".into(),
            n: 10,
            alpha,
            k,
            rep,
            converged: true,
            capped: false,
            rounds: 1,
            moves: 1,
            diameter: Some(2),
            quality: Some(1.0),
            max_degree: 2,
            max_bought: 1,
            min_view: 3,
            avg_view: 3.0,
            unfairness: Some(1.0),
        };
        // Every writer cell lands at the reader's index for the same
        // (α, k, rep), which differs from the writer's stored index.
        for index in 0..writer.cell_count() {
            let cell = writer.cell(index);
            let rec = record(writer.alphas[cell.ai], writer.ks[cell.ki], cell.rep);
            assert_eq!(
                writer.index_of_record(&rec),
                Some(index),
                "round-trip under the writer's own grid"
            );
            assert_eq!(
                reader.index_of_record(&rec),
                Some(reader.index_of(cell.ai, cell.ki, cell.rep)),
                "reindex under a larger reps split"
            );
        }
        // Records outside the grid are rejected, not mis-filed.
        assert_eq!(reader.index_of_record(&record(0.75, 2, 0)), None, "off-grid α");
        assert_eq!(reader.index_of_record(&record(0.5, 9, 0)), None, "off-grid k");
        assert_eq!(reader.index_of_record(&record(0.5, 2, 5)), None, "rep beyond reps");
        let mut er = record(0.5, 2, 0);
        er.class = "er".into();
        assert_eq!(reader.index_of_record(&er), None, "wrong workload class");
        let mut other_n = record(0.5, 2, 0);
        other_n.n = 11;
        assert_eq!(reader.index_of_record(&other_n), None, "wrong n");
    }

    /// A scale spec small enough for unit tests; two reps so the
    /// shard partition is non-trivial.
    fn tiny_scale_spec() -> SweepSpec {
        SweepSpec::scale_er("s", 120, 4.0, 6, 2, 9, vec![0.8, 4.0], vec![2], Objective::Max)
    }

    #[test]
    fn scale_spec_classifies_and_fingerprints() {
        let spec = tiny_scale_spec();
        assert!(spec.is_scale());
        assert_eq!(spec.class(), "scale_er");
        let mut other_deg = spec.clone();
        other_deg.workload = Workload::ScaleEr { avg_deg: 5.0, max_rounds: 6 };
        assert_ne!(spec.fingerprint(), other_deg.fingerprint(), "avg_deg is load-bearing");
        let mut other_cap = spec.clone();
        other_cap.workload = Workload::ScaleEr { avg_deg: 4.0, max_rounds: 7 };
        assert_ne!(spec.fingerprint(), other_cap.fingerprint(), "round cap is load-bearing");
    }

    #[test]
    #[should_panic(expected = "scale sweeps sample flat ScaleStates")]
    fn scale_spec_refuses_game_states() {
        let _ = tiny_scale_spec().states();
    }

    #[test]
    fn run_spec_cells_covers_scale_grids_and_records_round_trip() {
        let spec = tiny_scale_spec();
        let got = records(&spec);
        assert_eq!(got.len(), spec.cell_count());
        for (index, rec) in got.iter().enumerate() {
            assert_eq!(rec.class, "scale_er");
            assert_eq!(rec.n, 120);
            assert!(rec.rounds <= 6);
            assert!(rec.diameter.is_none() && rec.quality.is_none() && rec.unfairness.is_none());
            assert!(rec.avg_view >= 1.0, "sampled balls always contain their center");
            // The journal keying used by resume and merge must accept
            // scale records like any other class.
            assert_eq!(spec.index_of_record(rec), Some(index));
            let json = serde_json::to_string(rec).unwrap();
            let back: RunRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, rec);
        }
        // The dynamics do something on a random flat network: at the
        // cheap price at least, some player buys or drops an edge.
        assert!(got.iter().any(|r| r.moves > 0), "no cell moved at all");
    }

    #[test]
    fn scale_cells_are_identical_warm_cold_and_across_shards() {
        let spec = tiny_scale_spec();
        let run = |warm: bool, shards: usize| {
            let mut got: Vec<_> = (0..shards)
                .flat_map(|index| collect(&spec, warm, Shard { count: shards, index }, None))
                .collect();
            got.sort_by_key(|(i, _)| *i);
            assert!(got.iter().all(|(_, entry)| entry.is_ok()), "no failures");
            got
        };
        let reference = run(true, 1);
        assert_eq!(reference, run(false, 1), "warm arenas must not change outcomes");
        assert_eq!(reference, run(true, 2), "shard partition must not change outcomes");
    }

    #[test]
    fn panicking_scale_cell_fails_alone() {
        let spec = tiny_scale_spec();
        let fault = FaultPlan::parse("panic_cell:1").unwrap();
        let got = collect(&spec, true, Shard::all(), Some(&fault));
        assert_eq!(got.len(), spec.cell_count());
        for (index, entry) in got {
            if index == 1 {
                assert!(entry.unwrap_err().contains("injected fault: panic_cell"));
            } else {
                assert!(entry.is_ok(), "cell {index} must survive a sibling's panic");
            }
        }
    }

    #[test]
    fn panicking_cell_fails_alone_and_the_rest_match_a_clean_run() {
        let spec = SweepSpec::tree("t", 14, 2, 11, vec![0.5, 2.0], vec![2, 1000], Objective::Max);
        let clean = collect(&spec, true, Shard::all(), None);
        // Cell 2 is mid-rep-0's warm-start column: rep 0 runs cells
        // 0, 2, 4, 6, so the arena is warm before and rebuilt after.
        let fault = FaultPlan::parse("panic_cell:2").unwrap();
        let faulty = collect(&spec, true, Shard::all(), Some(&fault));
        assert_eq!(faulty.len(), clean.len(), "every cell still reports");
        for ((ci, c), (fi, f)) in clean.iter().zip(&faulty) {
            assert_eq!(ci, fi);
            if *ci == 2 {
                let message = f.as_ref().unwrap_err();
                assert!(
                    message.contains("injected fault: panic_cell"),
                    "failed cell must carry the panic payload, got {message:?}"
                );
            } else {
                assert_eq!(c, f, "cells other than the panicking one are bit-identical");
            }
        }
    }

    #[test]
    fn solve_cell_fails_a_cell_whose_arena_is_of_the_other_tier() {
        let spec = tiny_scale_spec();
        let mut arena = Arena::Exact(Box::default());
        let entry = solve_cell(&spec, &spec.inputs(), spec.cell(0), &mut arena, true, false);
        assert!(entry.unwrap_err().contains("wrong tier"));
        assert!(
            matches!(arena, Arena::Scale(_)),
            "the failed cell's arena is rebuilt for its tier"
        );
    }

    #[test]
    fn warm_and_cold_sweeps_agree_bitwise() {
        // The warm-start acceptance criterion at the engine level:
        // per-cell outcomes identical with arenas on and off.
        let spec = SweepSpec::tree("t", 16, 3, 11, vec![0.4, 3.0], vec![2, 1000], Objective::Max);
        let warm = collect(&spec, true, Shard::all(), None);
        assert!(warm.iter().all(|(_, entry)| entry.is_ok()), "unexpected cell failure");
        assert_eq!(warm, collect(&spec, false, Shard::all(), None));
    }
}
