//! Deterministic fault injection for the sweep and queue layers.
//!
//! Chaos scenarios — a worker SIGKILLed mid-cell, a journal write torn
//! halfway through a line, duplicated completions, a stalled straggler
//! — are reproducible *test inputs* here, not flaky integration
//! scripts: a [`FaultPlan`] is parsed from the `NCG_FAULT` environment
//! variable (process level, used by the `ncg-experiments` binary and
//! the chaos CI job) or constructed directly by unit tests, and every
//! trigger point is a deterministic counter, never a timer or a random
//! draw.
//!
//! Supported plans (`NCG_FAULT=<kind>[:N]`):
//!
//! | plan | effect |
//! |---|---|
//! | `kill_after_cells:N` | abort the process when the `N+1`-th cell result would be reported/journaled — the lease on that cell stays outstanding, exactly like a SIGKILL mid-cell |
//! | `torn_write:N` | on the `N`-th journal append (1-based), write only half the line, flush, and abort — a torn line a crash-safe resume must truncate away |
//! | `dup_complete` | report every completed cell twice (idempotence probe) |
//! | `stall:N` | after `N` completed cells, lease one more cell and hang forever without heartbeating — the straggler the lease timeout exists for |
//! | `panic_cell:N` | panic inside the solve of canonical cell `N` of the first sweep — exercises the panic isolation of `sweep::solve_cell`, locally and in `work` |
//!
//! The *decisions* (`should_…` methods) are pure counter logic and
//! unit-tested in-process; the *actions* that end the process
//! ([`FaultPlan::abort`]) only ever run in a spawned binary, so
//! `cargo test` drives real kills through real processes
//! (`tests/chaos.rs`) while keeping every trigger deterministic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// What kind of fault the plan injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Abort before reporting the `n+1`-th completed cell.
    KillAfterCells(usize),
    /// Tear the `n`-th journal append (1-based) and abort.
    TornWrite(usize),
    /// Send every completion twice.
    DupComplete,
    /// After `n` completions, hold one more lease and hang forever.
    Stall(usize),
    /// Panic inside the solve of canonical cell `n` (first sweep).
    PanicCell(usize),
}

/// A parsed fault plan with its deterministic trigger counters.
#[derive(Debug)]
pub struct FaultPlan {
    kind: FaultKind,
    /// Cells whose results were reported so far (kill/stall counting).
    cells_reported: AtomicUsize,
    /// Journal appends so far (torn-write counting).
    appends: AtomicUsize,
}

impl FaultPlan {
    /// Builds a plan for `kind` with zeroed counters.
    pub fn new(kind: FaultKind) -> Self {
        FaultPlan { kind, cells_reported: AtomicUsize::new(0), appends: AtomicUsize::new(0) }
    }

    /// Parses `NCG_FAULT` syntax, e.g. `kill_after_cells:3`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (kind, arg) = match text.split_once(':') {
            Some((kind, arg)) => (kind, Some(arg)),
            None => (text, None),
        };
        let num = |what: &str| -> Result<usize, String> {
            arg.ok_or_else(|| format!("NCG_FAULT {kind} needs :{what}"))?
                .parse::<usize>()
                .map_err(|_| format!("NCG_FAULT {kind} needs a numeric :{what}, got {arg:?}"))
        };
        let kind = match kind {
            "kill_after_cells" => FaultKind::KillAfterCells(num("N")?),
            "torn_write" => FaultKind::TornWrite(num("N")?),
            "dup_complete" => FaultKind::DupComplete,
            "stall" => FaultKind::Stall(num("N")?),
            "panic_cell" => FaultKind::PanicCell(num("N")?),
            other => {
                return Err(format!(
                    "unknown NCG_FAULT kind {other:?} (expected kill_after_cells:N, \
                     torn_write:N, dup_complete, stall:N, or panic_cell:N)"
                ))
            }
        };
        Ok(FaultPlan::new(kind))
    }

    /// The plan's kind.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// Whether the solve of canonical cell `index` must panic.
    pub fn panics_at_cell(&self, index: usize) -> bool {
        self.kind == FaultKind::PanicCell(index)
    }

    /// Whether every completion should be sent twice.
    pub fn duplicates_completions(&self) -> bool {
        self.kind == FaultKind::DupComplete
    }

    /// Counts one about-to-be-reported cell result; `true` when the
    /// process must die *before* reporting it (`kill_after_cells`).
    pub fn should_die_before_result(&self) -> bool {
        match self.kind {
            FaultKind::KillAfterCells(n) => {
                self.cells_reported.fetch_add(1, Ordering::Relaxed) >= n
            }
            _ => {
                self.cells_reported.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Whether the worker has reported enough cells to enter its
    /// stall (`stall:N`): lease one more cell, then hang forever.
    pub fn should_stall(&self) -> bool {
        matches!(self.kind, FaultKind::Stall(n) if self.cells_reported.load(Ordering::Relaxed) >= n)
    }

    /// Counts one journal append; `Some(())` when this append must be
    /// torn (write half the line, flush, abort).
    pub fn should_tear_append(&self) -> bool {
        match self.kind {
            FaultKind::TornWrite(n) => self.appends.fetch_add(1, Ordering::Relaxed) + 1 == n,
            _ => false,
        }
    }

    /// Kills the process the way a SIGKILL would: no unwinding, no
    /// destructors, no flushing beyond what already happened. Only
    /// ever called from the binary's worker/journal layers — tests
    /// reach it through spawned processes.
    pub fn abort(&self, context: &str) -> ! {
        eprintln!("[ncg-fault] injecting {:?}: aborting ({context})", self.kind);
        std::process::abort();
    }
}

/// The process-wide plan parsed from `NCG_FAULT`, if any. The first
/// call locks the value in; `None` when the variable is unset. An
/// unparsable value panics — a chaos harness that silently ignores a
/// typo'd fault would report a vacuous green.
pub fn env_plan() -> Option<Arc<FaultPlan>> {
    static PLAN: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();
    PLAN.get_or_init(|| {
        std::env::var("NCG_FAULT").ok().map(|text| {
            Arc::new(FaultPlan::parse(&text).unwrap_or_else(|e| panic!("invalid NCG_FAULT: {e}")))
        })
    })
    .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind_and_rejects_garbage() {
        assert_eq!(FaultPlan::parse("kill_after_cells:3").unwrap().kind(), {
            FaultKind::KillAfterCells(3)
        });
        assert_eq!(FaultPlan::parse("torn_write:1").unwrap().kind(), FaultKind::TornWrite(1));
        assert_eq!(FaultPlan::parse("dup_complete").unwrap().kind(), FaultKind::DupComplete);
        assert_eq!(FaultPlan::parse("stall:2").unwrap().kind(), FaultKind::Stall(2));
        assert_eq!(FaultPlan::parse("panic_cell:5").unwrap().kind(), FaultKind::PanicCell(5));
        for bad in ["", "kill_after_cells", "kill_after_cells:x", "nope:1", "stall"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn kill_counter_fires_after_exactly_n_results() {
        let plan = FaultPlan::parse("kill_after_cells:2").unwrap();
        assert!(!plan.should_die_before_result(), "1st result is reported");
        assert!(!plan.should_die_before_result(), "2nd result is reported");
        assert!(plan.should_die_before_result(), "3rd result dies first");
        assert!(plan.should_die_before_result(), "and stays dead");
    }

    #[test]
    fn stall_engages_after_n_results() {
        let plan = FaultPlan::parse("stall:1").unwrap();
        assert!(!plan.should_stall());
        assert!(!plan.should_die_before_result());
        assert!(plan.should_stall(), "after one reported cell the worker stalls");
    }

    #[test]
    fn torn_write_fires_on_the_nth_append_only() {
        let plan = FaultPlan::parse("torn_write:2").unwrap();
        assert!(!plan.should_tear_append());
        assert!(plan.should_tear_append());
        assert!(!plan.should_tear_append(), "fires exactly once");
    }

    #[test]
    fn panic_cell_targets_one_canonical_index() {
        let plan = FaultPlan::parse("panic_cell:4").unwrap();
        assert!(plan.panics_at_cell(4));
        assert!(!plan.panics_at_cell(3));
        assert!(!plan.duplicates_completions());
        assert!(FaultPlan::parse("dup_complete").unwrap().duplicates_completions());
    }
}
