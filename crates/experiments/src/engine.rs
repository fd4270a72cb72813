//! The experiment-level sweep orchestrator: one entry point
//! ([`execute`]) that every dynamics figure routes its sweeps
//! through, in one of four modes.
//!
//! * **Local** — run every cell in-process (warm-started per rep),
//!   stream each finished cell to the JSONL journal the moment it
//!   completes, and *fold* records into the experiment's `O(grid)`
//!   aggregates in canonical cell order (a small reorder buffer
//!   re-serialises the workers' completion order). If a journal from
//!   a killed run exists, its cells are replayed into the fold and
//!   only the missing ones are computed.
//! * **Shard** — run only the cells of shard `i` of `M` (partitioned
//!   by `rep % M`, keeping warm-start groups intact), journal them,
//!   and skip table rendering entirely: tables come from `merge`.
//! * **Merge** — run nothing; read the `M` shard journals, verify
//!   the grid is complete, fold in canonical order, and write the
//!   canonical merged journal. Because folding consumes records in
//!   the same order Local mode does and serialisation is
//!   deterministic, merged tables and JSONL are byte-identical to a
//!   single-process run (property-tested in
//!   `tests/sweep_shard_props.rs`). Each entry's canonical index is
//!   re-derived from its record under the merge target's grid, so
//!   shards run with *different* `--reps` splits of one grid merge
//!   cleanly — completeness is checked on the union.
//! * **Plan** — run nothing and journal nothing; report the specs to
//!   [`collect_plan`] so callers (the work-queue coordinator and its
//!   workers) can learn an experiment's cell work-list without
//!   executing it.
//!
//! The fold callback receives `(sweep index, cell, record)` strictly
//! in canonical order: sweeps in plan order, cells by linear index.
//!
//! Failure isolation: a cell whose solve panics (caught in
//! [`crate::sweep::solve_cell`]) is journaled as a `CellFailed`
//! marker and the rest of the sweep completes; `execute` then panics
//! with a summary instead of rendering tables from a hole-y grid.
//! Re-running the experiment retries exactly the failed cells
//! (completed ones resume from the journal).
//!
//! Fault injection: when the process-level `NCG_FAULT` plan is set
//! (see [`crate::fault`]), the engine wires it through — the journal
//! writer arms `torn_write`, the sink counts results for
//! `kill_after_cells`, and [`run_spec_cells`] injects `panic_cell` into
//! the plan's first sweep (as the lease-queue worker does).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;

use ncg_stats::{Accumulator, Summary};
use parking_lot::Mutex;

use crate::fault::{self, FaultPlan};
use crate::journal::{self, CellFailed, JournalEntry, JournalWriter};
use crate::sweep::{run_spec_cells, CellId, RunRecord, Shard, SweepSpec};

/// How an experiment's sweeps are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Run everything in this process.
    Local,
    /// Run only shard `index` of `count`, journal, render no tables.
    Shard {
        /// Total number of shards.
        count: usize,
        /// This process's shard.
        index: usize,
    },
    /// Fold the `count` shard journals into the final artifacts.
    Merge {
        /// Total number of shards to merge.
        count: usize,
    },
    /// Run nothing; record the plan's specs for [`collect_plan`].
    Plan,
}

/// Execution context threaded from the CLI into every experiment.
#[derive(Debug, Clone)]
pub struct SweepContext {
    /// Execution mode.
    pub mode: SweepMode,
    /// Directory holding journals (`None`: no journaling — the pure
    /// in-memory library path used by tests and `run(profile)`).
    pub journal_dir: Option<PathBuf>,
    /// Whether to warm-start dynamics per repetition (on by default;
    /// outcomes are bit-identical either way).
    pub warm_start: bool,
}

impl SweepContext {
    /// The default context: local, no journal, warm starts on.
    pub fn local() -> Self {
        SweepContext { mode: SweepMode::Local, journal_dir: None, warm_start: true }
    }
}

impl Default for SweepContext {
    fn default() -> Self {
        Self::local()
    }
}

/// What [`execute`] did, for the experiment's notes.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// `true` when the fold ran (Local/Merge) and tables can be
    /// rendered; `false` in shard mode.
    pub folded: bool,
    /// Cells actually computed in this process.
    pub cells_run: usize,
    /// Cells replayed from journals (resume or merge).
    pub cells_resumed: usize,
    /// Cells whose solve panicked (journaled as `CellFailed`).
    pub cells_failed: usize,
    /// The journal written, if journaling was on.
    pub journal: Option<PathBuf>,
    shard: Option<(usize, usize)>,
}

impl ExecReport {
    /// In shard (and plan) mode, the note replacing the experiment's
    /// tables; `None` otherwise.
    pub fn shard_note(&self, experiment: &str) -> Option<String> {
        let (index, count) = self.shard?;
        let path = self
            .journal
            .as_ref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "<no journal>".into());
        Some(format!(
            "{experiment} — shard {index} of {count}: journaled {} new cells \
             ({} resumed) to {path}; run `merge {experiment} --shards {count}` \
             once every shard has finished.",
            self.cells_run, self.cells_resumed
        ))
    }
}

thread_local! {
    static PLAN_SINK: RefCell<Option<Vec<SweepSpec>>> = const { RefCell::new(None) };
}

/// Runs `f` with plan collection armed on this thread and returns
/// every spec that [`execute`] calls under a [`SweepMode::Plan`]
/// context reported while it ran. This is how the queue layer turns
/// "experiment name" into "cell work-list" without running anything:
/// drive the experiment with a Plan context inside `collect_plan`
/// and read the specs off.
pub fn collect_plan(f: impl FnOnce()) -> Vec<SweepSpec> {
    PLAN_SINK.with(|sink| *sink.borrow_mut() = Some(Vec::new()));
    f();
    PLAN_SINK.with(|sink| sink.borrow_mut().take()).unwrap_or_default()
}

/// Checks a journaled entry's grid fingerprint against the spec it
/// claims to belong to; a mismatch means the journal was produced by
/// a different profile — including a different `--seed`, workload, or
/// `α`/`k` grid, which only the [`SweepSpec::fingerprint`] can see —
/// and must not be silently mixed in. (A different `--reps` of the
/// same grid is *not* a different profile: per-rep seeds don't depend
/// on the rep count, so those journals fingerprint identically and
/// merge.)
fn validate_fingerprint(spec: &SweepSpec, entry_grid: u64, cell: usize) {
    assert!(
        entry_grid == spec.fingerprint(),
        "journal entry for sweep '{}' cell {} was written under a different profile \
         (grid fingerprint {:#018x}, current {:#018x} — seed, workload, or α/k \
         grid changed); delete the stale journal and re-run",
        spec.label,
        cell,
        entry_grid,
        spec.fingerprint()
    );
}

/// The per-sweep streaming sink: appends finished cells to the
/// journal immediately (crash safety) and re-serialises the workers'
/// completion order into canonical order for the fold via a reorder
/// buffer keyed by cell index. Resumed records are preloaded into the
/// buffer, so the fold sees one contiguous canonical stream. The
/// buffer only ever holds records completed ahead of the canonical
/// cursor (plus preloaded resume records), so it stays far below the
/// grid size in practice.
struct SinkState<'a> {
    writer: Option<JournalWriter>,
    pending: BTreeMap<usize, RunRecord>,
    next: usize,
    ran: usize,
    failed: usize,
    fold: &'a mut (dyn FnMut(usize, CellId, &RunRecord) + Send),
}

impl SinkState<'_> {
    fn drain(&mut self, spec_idx: usize, spec: &SweepSpec) {
        while let Some(record) = self.pending.remove(&self.next) {
            (self.fold)(spec_idx, spec.cell(self.next), &record);
            self.next += 1;
        }
    }
}

/// Executes an experiment's sweeps under the given context, driving
/// `fold(sweep index, cell, record)` in canonical order (Local and
/// Merge modes). Returns what happened; in shard and plan modes the
/// fold is never called. Panics on journal I/O errors, on merge
/// journals that are incomplete or from a different profile, on an
/// invalid shard selection, and — after journaling `CellFailed`
/// markers and compacting — when any cell's solve panicked.
pub fn execute(
    ctx: &SweepContext,
    experiment: &str,
    specs: &[SweepSpec],
    fold: &mut (dyn FnMut(usize, CellId, &RunRecord) + Send),
) -> ExecReport {
    match ctx.mode {
        SweepMode::Merge { count } => merge(ctx, experiment, specs, count, fold),
        SweepMode::Local => run_shard(ctx, experiment, specs, Shard::all(), true, fold),
        SweepMode::Shard { count, index } => {
            assert!(count >= 1 && index < count, "invalid shard {index} of {count}");
            run_shard(ctx, experiment, specs, Shard { count, index }, false, fold)
        }
        SweepMode::Plan => {
            PLAN_SINK.with(|sink| {
                let mut sink = sink.borrow_mut();
                let sink = sink
                    .as_mut()
                    .expect("SweepMode::Plan requires running inside engine::collect_plan");
                sink.extend(specs.iter().cloned());
            });
            // Report as a pseudo-shard so figures take their existing
            // journal-only early return and render nothing.
            ExecReport {
                folded: false,
                cells_run: 0,
                cells_resumed: 0,
                cells_failed: 0,
                journal: None,
                shard: Some((0, 1)),
            }
        }
    }
}

/// Indexes a journal's completed entries by `(sweep position,
/// canonical cell index under the current plan)`. The stored `cell`
/// field encodes the *writing* run's rep count; the index is
/// re-derived from the record's own coordinates so journals from
/// other `--reps` splits of the same grid resume correctly. Entries
/// whose rep lies beyond the current plan are counted into `dropped`
/// rather than kept (they belong to a larger split). Panics when an
/// entry's grid fingerprint doesn't match — a different profile.
fn index_resumable(
    entries: Vec<JournalEntry>,
    specs: &[SweepSpec],
    dropped: &mut usize,
) -> HashMap<(usize, usize), RunRecord> {
    let mut resumed = HashMap::new();
    for entry in entries {
        let Some(si) = specs.iter().position(|s| s.label == entry.sweep) else { continue };
        validate_fingerprint(&specs[si], entry.grid, entry.cell);
        match specs[si].index_of_record(&entry.record) {
            Some(index) => {
                resumed.insert((si, index), entry.record);
            }
            None => *dropped += 1,
        }
    }
    resumed
}

fn run_shard(
    ctx: &SweepContext,
    experiment: &str,
    specs: &[SweepSpec],
    shard: Shard,
    do_fold: bool,
    fold: &mut (dyn FnMut(usize, CellId, &RunRecord) + Send),
) -> ExecReport {
    let fault: Option<Arc<FaultPlan>> = fault::env_plan();
    let path = ctx.journal_dir.as_ref().map(|dir| {
        if shard.count == 1 {
            journal::journal_path(dir, experiment)
        } else {
            journal::shard_journal_path(dir, experiment, shard.index, shard.count)
        }
    });
    // Resume: index every journaled record by (sweep, cell) — the
    // cell index re-derived under the current plan's grid.
    let mut dropped = 0usize;
    let mut resumed: HashMap<(usize, usize), RunRecord> = match path.as_ref() {
        Some(path) => index_resumable(
            journal::read(path).expect("reading the resume journal"),
            specs,
            &mut dropped,
        ),
        None => HashMap::new(),
    };
    if dropped > 0 {
        eprintln!(
            "[resume] {experiment}: dropped {dropped} journaled cells whose rep lies beyond \
             the current --reps (they belong to a larger split of this grid)"
        );
    }
    // Even an empty shard must leave a journal behind, or `merge`
    // could not tell "ran, owned nothing" from "never ran".
    let mut writer = path
        .as_ref()
        .map(|p| JournalWriter::append(p).expect("opening journal").with_fault(fault.clone()));
    let (mut cells_run, mut cells_resumed) = (0usize, 0usize);
    let failures: Mutex<Vec<(String, usize, String)>> = Mutex::new(Vec::new());
    for (si, spec) in specs.iter().enumerate() {
        // This spec's resumed records: skipped by the engine and (in
        // fold mode) preloaded into the reorder buffer so the fold
        // still sees one contiguous canonical stream.
        let mut preload: BTreeMap<usize, RunRecord> = BTreeMap::new();
        for index in 0..spec.cell_count() {
            if let Some(record) = resumed.remove(&(si, index)) {
                preload.insert(index, record);
            }
        }
        cells_resumed += preload.len();
        let skip: Vec<bool> = (0..spec.cell_count()).map(|i| preload.contains_key(&i)).collect();
        let grid = spec.fingerprint();
        let sink = Mutex::new(SinkState {
            writer: writer.take(),
            pending: if do_fold { preload } else { BTreeMap::new() },
            next: 0,
            ran: 0,
            failed: 0,
            fold: &mut *fold,
        });
        if do_fold {
            sink.lock().drain(si, spec);
        }
        run_spec_cells(
            spec,
            ctx.warm_start,
            shard,
            &|index| skip[index],
            &|cell, entry| match entry {
                Ok(record) => {
                    if let Some(f) = fault.as_ref() {
                        if f.should_die_before_result() {
                            f.abort("before journaling a cell result");
                        }
                    }
                    let mut s = sink.lock();
                    s.ran += 1;
                    if let Some(w) = s.writer.as_mut() {
                        w.push(&JournalEntry {
                            sweep: spec.label.clone(),
                            cell: cell.index,
                            grid,
                            record: record.clone(),
                        })
                        .expect("appending to the run journal");
                    }
                    if do_fold {
                        s.pending.insert(cell.index, record);
                        s.drain(si, spec);
                    }
                }
                Err(message) => {
                    let mut s = sink.lock();
                    s.failed += 1;
                    if let Some(w) = s.writer.as_mut() {
                        w.push_failed(&CellFailed {
                            sweep: spec.label.clone(),
                            cell: cell.index,
                            grid,
                            failed: message.clone(),
                        })
                        .expect("appending a cell failure to the run journal");
                    }
                    failures.lock().push((spec.label.clone(), cell.index, message));
                }
            },
            None,
            fault.as_deref().filter(|_| si == 0),
        );
        let mut s = sink.into_inner();
        if do_fold {
            s.drain(si, spec);
            // With failed cells the canonical stream has holes; the
            // summary panic below replaces table rendering entirely.
            if s.failed == 0 {
                assert_eq!(
                    s.next,
                    spec.cell_count(),
                    "sweep '{}' must fold every cell exactly once",
                    spec.label
                );
            }
        }
        cells_run += s.ran;
        writer = s.writer.take();
    }
    drop(writer);
    if let Some(path) = path.as_ref() {
        journal::compact(path, specs).expect("compacting the run journal");
    }
    let failures = failures.into_inner();
    if !failures.is_empty() {
        let listing: Vec<String> = failures
            .iter()
            .map(|(sweep, cell, message)| format!("'{sweep}' cell {cell}: {message}"))
            .collect();
        panic!(
            "{experiment}: {} cell(s) failed with panics — {}; completed cells are journaled, \
             so re-running retries only the failed ones",
            failures.len(),
            listing.join("; ")
        );
    }
    ExecReport {
        folded: do_fold,
        cells_run,
        cells_resumed,
        cells_failed: 0,
        journal: path,
        shard: (shard.count > 1).then_some((shard.index, shard.count)),
    }
}

fn merge(
    ctx: &SweepContext,
    experiment: &str,
    specs: &[SweepSpec],
    count: usize,
    fold: &mut (dyn FnMut(usize, CellId, &RunRecord) + Send),
) -> ExecReport {
    assert!(count >= 1, "merge needs at least one shard");
    let dir = ctx.journal_dir.as_ref().expect("merge mode requires a results directory");
    // The union of every shard's cells, keyed by (sweep position,
    // canonical index under the *merge target's* grid) — re-derived
    // from each record's own coordinates, so shards run under
    // different --reps splits of one grid land in one keyspace.
    // First occurrence wins: later duplicates (a retried cell, an
    // overlapping split) are dropped, and determinism of the solve
    // guarantees they'd carry identical bytes anyway.
    let mut union: BTreeMap<(usize, usize), JournalEntry> = BTreeMap::new();
    let mut dropped = 0usize;
    for index in 0..count {
        let path = journal::shard_journal_path(dir, experiment, index, count);
        assert!(
            path.is_file(),
            "missing shard journal {}; run `{experiment} --shards {count} --shard {index}` first",
            path.display()
        );
        for mut entry in journal::read(&path).expect("reading shard journal") {
            let Some(si) = specs.iter().position(|s| s.label == entry.sweep) else { continue };
            validate_fingerprint(&specs[si], entry.grid, entry.cell);
            let Some(cell) = specs[si].index_of_record(&entry.record) else {
                dropped += 1;
                continue;
            };
            entry.cell = cell;
            union.entry((si, cell)).or_insert(entry);
        }
    }
    if dropped > 0 {
        eprintln!(
            "[merge] {experiment}: dropped {dropped} journaled cells whose rep lies beyond \
             the merge target's --reps (they belong to a larger split of this grid)"
        );
    }
    // Completeness over the union, then fold in canonical order.
    let mut entries: Vec<JournalEntry> = Vec::with_capacity(union.len());
    for (si, spec) in specs.iter().enumerate() {
        for index in 0..spec.cell_count() {
            let entry = union.remove(&(si, index)).unwrap_or_else(|| {
                panic!(
                    "shard journals are incomplete: sweep '{}' is missing cell {index} \
                     (did every shard finish?)",
                    spec.label
                )
            });
            fold(si, spec.cell(index), &entry.record);
            entries.push(entry);
        }
    }
    debug_assert!(union.is_empty(), "index_of_record bounds every key to the grid");
    let merged_path = journal::journal_path(dir, experiment);
    std::fs::create_dir_all(dir).expect("creating the results directory");
    std::fs::write(&merged_path, journal::render(&entries)).expect("writing the merged journal");
    ExecReport {
        folded: true,
        cells_run: 0,
        cells_resumed: entries.len(),
        cells_failed: 0,
        journal: Some(merged_path),
        shard: None,
    }
}

/// Every record of `spec`'s grid in canonical order, from a local
/// journal-free run — the unit tests' view of a whole sweep.
#[cfg(test)]
pub(crate) fn records(spec: &SweepSpec) -> Vec<RunRecord> {
    let mut out = Vec::with_capacity(spec.cell_count());
    execute(&SweepContext::local(), "test", std::slice::from_ref(spec), &mut |_, _, record| {
        out.push(record.clone())
    });
    out
}

/// An `α × k` grid of streaming [`Accumulator`]s — the fold-side
/// counterpart of the paper's per-cell `mean ± CI` tables. Pushing
/// `None` (a metric undefined for that run, e.g. the diameter of a
/// disconnected network) is a no-op, mirroring the old
/// `filter_map` + `Summary::of` pipelines.
#[derive(Debug, Clone)]
pub struct MetricGrid {
    cols: usize,
    accs: Vec<Accumulator>,
}

impl MetricGrid {
    /// A `rows × cols` grid of empty accumulators.
    pub fn new(rows: usize, cols: usize) -> Self {
        MetricGrid { cols, accs: vec![Accumulator::new(); rows * cols] }
    }

    /// Folds an observation into cell `(ri, ci)`; `None` is skipped.
    pub fn push(&mut self, ri: usize, ci: usize, value: Option<f64>) {
        if let Some(v) = value {
            self.accs[ri * self.cols + ci].push(v);
        }
    }

    /// The summary of cell `(ri, ci)`.
    pub fn summary(&self, ri: usize, ci: usize) -> Summary {
        self.accs[ri * self.cols + ci].summary()
    }

    /// `mean ± ci` of cell `(ri, ci)` at the given precision.
    pub fn display(&self, ri: usize, ci: usize, precision: usize) -> String {
        self.summary(ri, ci).display(precision)
    }
}
