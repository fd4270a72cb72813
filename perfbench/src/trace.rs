//! The traced pass: one workload re-run single-threaded through the
//! public calls of each layer, with a span recorded around every call.
//!
//! Spans live in memory (name, start, end, parent) and are written as
//! TSV when the pass ends; `run.py` turns them into per-layer times.
//! Spans are recorded only here, around public calls — nothing inside
//! the program is instrumented.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use ncg_core::deviation::current_total;
use ncg_core::equilibrium::{BestResponder, Deviation};
use ncg_core::graph::NodeId;
use ncg_core::{GameSpec, GameState, PlayerView};
use ncg_dynamics::scale::{
    respond, run_scale, ApplyScratch, ScaleArena, ScaleConfig, ScaleScratch, ScaleState,
};
use ncg_dynamics::{run_with, DynamicsConfig, MeasureScratch, StateMetrics};
use ncg_experiments::sweep::{RunRecord, SweepSpec, Workload};
use ncg_solver::Responder;
use rayon::prelude::*;
use serde::Serialize;

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; times are nanoseconds since creation.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a pass lasts under 584 years")
    }

    /// Opens a span named `name` under `parent` (`None`: a root).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent: parent.map(|p| p.0), start_ns, end_ns: start_ns });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `span` now.
    pub fn close(&mut self, span: SpanId) {
        self.spans[span.0].end_ns = self.now_ns();
    }

    /// Writes every span as `id, parent (-1 for roots), name, start_ns,
    /// end_ns`, tab-separated, one per line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(out, "{id}\t{parent}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// A [`BestResponder`] that times each call of the wrapped exact
/// responder as a `solver` span and counts what the solver saw.
struct TimingResponder<'a> {
    inner: &'a mut Responder,
    tracer: &'a mut Tracer,
    parent: SpanId,
    counters: &'a mut ExactCounters,
}

impl BestResponder for TimingResponder<'_> {
    fn best_response(&mut self, spec: &GameSpec, view: &PlayerView) -> Deviation {
        let current = current_total(spec, view);
        let span = self.tracer.open("solver", Some(self.parent));
        let best = self.inner.best_response(spec, view);
        self.tracer.close(span);
        self.counters.solver_calls += 1;
        self.counters.view_nodes += view.len() as u64;
        if GameSpec::strictly_better(best.total_cost, current) {
            self.counters.improving += 1;
        }
        best
    }
}

/// Exact-tier layer counters, summed over the pass's cells.
#[derive(Debug, Default, Serialize)]
pub struct ExactCounters {
    /// Cells run.
    pub cells: u64,
    /// Dynamics rounds executed.
    pub rounds: u64,
    /// Strategy changes applied.
    pub moves: u64,
    /// Best-response solver calls.
    pub solver_calls: u64,
    /// Solver calls whose response strictly improved on the current cost.
    pub improving: u64,
    /// Sum of view sizes over solver calls.
    pub view_nodes: u64,
    /// Player turns the view cache skipped.
    pub cache_skips: u64,
    /// Views the view cache rebuilt.
    pub cache_rebuilds: u64,
}

/// Scale-tier layer counters: totals over every round of every cell.
#[derive(Debug, Default, Serialize)]
pub struct ScaleCounters {
    /// Rounds executed.
    pub rounds: u64,
    /// Players that responded (one `respond` call each).
    pub dirty: u64,
    /// Strictly improving proposals.
    pub proposals: u64,
    /// Proposals applied.
    pub applied: u64,
    /// Proposals dropped as conflicts.
    pub conflicts: u64,
}

/// What the traced pass reports besides its spans.
#[derive(Debug, Default, Serialize)]
pub struct TraceReport {
    /// Exact-tier counters (zero on scale workloads).
    pub exact: ExactCounters,
    /// Scale-tier counters (zero on exact workloads).
    pub scale: ScaleCounters,
    /// Final states certified as LKE (converged exact cells).
    pub lke_checked: u64,
    /// Final scale states validated.
    pub states_validated: u64,
    /// Traced records compared with the serial pass's journal.
    pub records_compared: u64,
    /// Every failed check, one message each.
    pub failures: Vec<String>,
}

/// Runs the traced pass over one sweep in the calling thread's pool
/// and returns its report. `journal` maps each cell index to the record
/// the untraced serial pass journaled; every traced record must equal
/// it, which ties the final states checked here to the journaled
/// output. Converged exact cells are certified with
/// [`ncg_solver::is_lke`] after the pass, on a pool of `check_threads`.
pub fn traced_pass(
    spec: &SweepSpec,
    journal: &HashMap<usize, RunRecord>,
    check_threads: usize,
    tracer: &mut Tracer,
) -> TraceReport {
    let mut report = TraceReport::default();
    let check_record = |index: usize, record: &RunRecord, report: &mut TraceReport| {
        report.records_compared += 1;
        match journal.get(&index) {
            Some(journaled) if journaled == record => {}
            Some(_) => report
                .failures
                .push(format!("cell {index}: traced record differs from the journaled one")),
            None => report.failures.push(format!("cell {index}: not in the serial journal")),
        }
    };
    let root = tracer.open("pass", None);
    if spec.is_scale() {
        let span = tracer.open("setup", Some(root));
        let states = spec.scale_states();
        tracer.close(span);
        let mut cells: Vec<ScaleCell> = Vec::new();
        for_each_cell(spec, |index, alpha, k, rep| {
            let cell =
                run_scale_cell(spec, &states[rep], index, alpha, k, rep, tracer, root, &mut report);
            check_record(index, &cell.record, &mut report);
            cells.push(cell);
        });
        tracer.close(root);
        for cell in &cells {
            decompose_round1(&states[cell.rep], cell, tracer, &mut report);
        }
        return report;
    }

    let span = tracer.open("setup", Some(root));
    let states = spec.states();
    tracer.close(span);
    let mut responder = Responder::exact();
    let mut measure = MeasureScratch::new();
    let mut to_certify: Vec<(usize, GameState, GameSpec)> = Vec::new();
    for_each_cell(spec, |index, alpha, k, rep| {
        let config = DynamicsConfig::new(spec.scenario().spec(alpha, k));
        let cell = tracer.open("cell", Some(root));
        let result = {
            let mut timed = TimingResponder {
                inner: &mut responder,
                tracer: &mut *tracer,
                parent: cell,
                counters: &mut report.exact,
            };
            run_with(states[rep].clone(), &config, &mut timed)
        };
        let span = tracer.open("measure", Some(cell));
        let metrics = StateMetrics::measure_with(&result.state, &config.spec, &mut measure);
        tracer.close(span);
        tracer.close(cell);
        if metrics != result.final_metrics {
            report
                .failures
                .push(format!("cell {index}: measure_with disagrees with the run's metrics"));
        }
        let c = &mut report.exact;
        c.cells += 1;
        c.rounds += result.outcome.rounds() as u64;
        c.moves += result.total_moves as u64;
        if let Some(stats) = result.cache_stats {
            c.cache_skips += stats.skips;
            c.cache_rebuilds += stats.rebuilds;
        }
        let record = RunRecord::new(spec.class(), spec.n, alpha, k, rep, &result);
        check_record(index, &record, &mut report);
        if result.outcome.converged() {
            to_certify.push((index, result.state, config.spec));
        }
    });
    tracer.close(root);

    // Certification is a check, not part of the traced pass.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(check_threads)
        .build()
        .expect("thread pool construction is infallible");
    let verdicts: Vec<(usize, bool)> = pool.install(|| {
        to_certify
            .into_par_iter()
            .map(|(index, state, spec)| (index, ncg_solver::is_lke(&state, &spec)))
            .collect()
    });
    for (index, is_lke) in verdicts {
        report.lke_checked += 1;
        if !is_lke {
            report.failures.push(format!("cell {index}: converged state is not an LKE"));
        }
    }
    report
}

/// Calls `f(index, alpha, k, rep)` for every cell, rep-major like the
/// sweep engine's single-worker order.
fn for_each_cell(spec: &SweepSpec, mut f: impl FnMut(usize, f64, u32, usize)) {
    for rep in 0..spec.reps {
        for (ai, &alpha) in spec.alphas.iter().enumerate() {
            for (ki, &k) in spec.ks.iter().enumerate() {
                f(spec.index_of(ai, ki, rep), alpha, k, rep);
            }
        }
    }
}

/// A finished scale cell, kept for the first-round decomposition.
struct ScaleCell {
    index: usize,
    rep: usize,
    config: ScaleConfig,
    record: RunRecord,
    round1: ncg_dynamics::scale::ScaleRoundStats,
}

fn scale_config(spec: &SweepSpec, alpha: f64, k: u32) -> ScaleConfig {
    let Workload::ScaleEr { max_rounds, .. } = spec.workload else {
        panic!("scale_config needs a scale sweep")
    };
    let mut config = ScaleConfig::new(spec.scenario().spec(alpha, k));
    config.max_rounds = max_rounds;
    config
}

/// Runs one scale cell to its round cap as a `cell` span (as the sweep
/// engine does: clone the initial state, fresh arena) and checks its
/// final state and per-round accounting.
#[allow(clippy::too_many_arguments)] // the cell's coordinates plus the trace sinks
fn run_scale_cell(
    spec: &SweepSpec,
    initial: &ScaleState,
    index: usize,
    alpha: f64,
    k: u32,
    rep: usize,
    tracer: &mut Tracer,
    root: SpanId,
    report: &mut TraceReport,
) -> ScaleCell {
    let config = scale_config(spec, alpha, k);
    let span = tracer.open("cell", Some(root));
    let mut state = initial.clone();
    let result = run_scale(&mut state, &config, &mut ScaleArena::new());
    tracer.close(span);
    report.states_validated += 1;
    if let Err(e) = state.validate() {
        report.failures.push(format!("cell {index}: invalid final scale state: {e}"));
    }
    let c = &mut report.scale;
    for (round, r) in result.rounds.iter().enumerate() {
        if r.applied + r.conflicts != r.proposals {
            report.failures.push(format!(
                "cell {index} round {}: applied {} + conflicts {} != proposals {}",
                round + 1,
                r.applied,
                r.conflicts,
                r.proposals
            ));
        }
        c.rounds += 1;
        c.dirty += r.dirty as u64;
        c.proposals += r.proposals as u64;
        c.applied += r.applied as u64;
        c.conflicts += r.conflicts as u64;
    }
    ScaleCell {
        index,
        rep,
        round1: result.rounds[0],
        record: RunRecord::from_scale(spec.class(), alpha, k, rep, &result, &state),
        config,
    }
}

/// Splits a cell's first round into its phases, each timed from
/// outside: a one-round `run_scale` (`round`), then — on the same
/// frozen initial network — `discover_ball` and `respond` for every
/// player (round 1 has every player dirty), then `apply_moves` of the
/// round's accepted moves, found by diffing the strategies at the
/// start and end of the round. Checks that the parts reproduce the
/// round.
fn decompose_round1(
    initial: &ScaleState,
    cell: &ScaleCell,
    tracer: &mut Tracer,
    report: &mut TraceReport,
) {
    let label = format!("cell {}", cell.index);
    let root = tracer.open("round1", None);
    let mut one = cell.config.clone();
    one.max_rounds = 1;
    let mut after = initial.clone();
    let span = tracer.open("round", Some(root));
    let result = run_scale(&mut after, &one, &mut ScaleArena::new());
    tracer.close(span);
    if result.rounds.first() != Some(&cell.round1) {
        report.failures.push(format!("{label}: one-round run_scale differs from round 1"));
    }

    let k = one.spec.k;
    let mut scratch = ScaleScratch::new();
    let mut ball: Vec<NodeId> = Vec::new();
    let mut proposals = 0usize;
    for u in 0..initial.n() as NodeId {
        let span = tracer.open("ball", Some(root));
        scratch.discover_ball(initial.graph(), u, k, &mut ball);
        tracer.close(span);
        let span = tracer.open("respond", Some(root));
        let proposal = respond(initial, &one.spec, &one.responder, u, &ball, &mut scratch);
        tracer.close(span);
        proposals += usize::from(proposal.is_some());
    }
    if proposals != cell.round1.proposals {
        report.failures.push(format!(
            "{label}: {proposals} responders proposed, round 1 counted {}",
            cell.round1.proposals
        ));
    }

    let moves: Vec<(NodeId, Vec<NodeId>)> = (0..initial.n() as NodeId)
        .filter(|&u| after.strategy(u) != initial.strategy(u))
        .map(|u| (u, after.strategy(u).to_vec()))
        .collect();
    if moves.len() != cell.round1.applied {
        report.failures.push(format!(
            "{label}: {} strategies changed, round 1 applied {}",
            moves.len(),
            cell.round1.applied
        ));
    }
    let mut patched = initial.clone();
    let mut apply = ApplyScratch::default();
    let span = tracer.open("apply", Some(root));
    patched.apply_moves(&moves, &mut apply);
    tracer.close(span);
    if patched != after {
        report.failures.push(format!("{label}: applying the diffed moves misses round 1's state"));
    }
    tracer.close(root);
}
