//! Append-only JSONL run journals: the sweep engine's durable
//! streaming format, and the basis of resume and shard merging.
//!
//! Every finished cell becomes one [`JournalEntry`] line —
//! `{"sweep": <label>, "cell": <canonical index>, "record": {…}}` —
//! appended (and flushed) the moment the cell completes, so a killed
//! run loses at most the cells still in flight. A cell whose solve
//! *panicked* becomes a [`CellFailed`] line instead (cell id + panic
//! payload), so a poisoned cell is a recorded fact, not a lost sweep.
//! On restart, entries already present are *not* re-run: the engine
//! replays them into the fold and only computes the missing cells.
//!
//! File layout under the results directory:
//!
//! * `<experiment>_runs.jsonl` — the canonical journal of a
//!   single-process run, and the output of `merge`;
//! * `<experiment>_runs.shard<i>of<M>.jsonl` — shard `i`'s journal.
//!
//! Crash safety: a process killed mid-append leaves a torn half-line
//! at the end of the file. [`JournalWriter::append`] *truncates* the
//! file back to the last newline-terminated entry before appending
//! (with a one-line warning), so the fragment can never glue onto a
//! later entry and the journal stays parsable line-by-line forever.
//!
//! Canonical journals are sorted by `(sweep order, cell index)`;
//! [`compact`] rewrites a journal into that order after a resumed run
//! so the final artifact is byte-identical to an uninterrupted one.
//! Byte-identity holds because serialisation is deterministic (struct
//! field order, shortest round-trip float formatting), so
//! parse → re-serialise is the identity on journal lines. Because the
//! grid fingerprint excludes the rep count, compaction *re-derives*
//! each entry's canonical index from the record's own `(α, k, rep)`
//! under the current plan — which is what makes journals written
//! under different `--reps` splits of one grid merge byte-identically.

use std::collections::HashSet;
use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::fault::FaultPlan;
use crate::sweep::{RunRecord, SweepSpec};

/// One journal line: which sweep of the experiment, which canonical
/// cell, the sweep's grid fingerprint, and the run's record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// The sweep's stable label within its experiment.
    pub sweep: String,
    /// Canonical linear cell index within that sweep.
    pub cell: usize,
    /// [`SweepSpec::fingerprint`] of the grid that produced the
    /// record — how resume and merge detect journals written under a
    /// different seed, workload, or `α`/`k` grid.
    pub grid: u64,
    /// The run's streamed record.
    pub record: RunRecord,
}

/// A journaled cell *failure*: the solve panicked and
/// [`crate::sweep::solve_cell`] caught it. Distinguished from
/// [`JournalEntry`] on parse by its required `failed` field (entries
/// require `record` instead).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellFailed {
    /// The sweep's stable label within its experiment.
    pub sweep: String,
    /// Canonical linear cell index within that sweep.
    pub cell: usize,
    /// Grid fingerprint, as on [`JournalEntry`].
    pub grid: u64,
    /// The panic payload, rendered as a string.
    pub failed: String,
}

/// One parsed journal line — a completed cell or a failed one.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalLine {
    /// A completed cell's entry.
    Ok(JournalEntry),
    /// A failed (panicked) cell's marker.
    Failed(CellFailed),
}

/// Path of the canonical (single-process / merged) journal.
pub fn journal_path(dir: &Path, experiment: &str) -> PathBuf {
    dir.join(format!("{experiment}_runs.jsonl"))
}

/// Path of one shard's journal.
pub fn shard_journal_path(dir: &Path, experiment: &str, index: usize, count: usize) -> PathBuf {
    dir.join(format!("{experiment}_runs.shard{index}of{count}.jsonl"))
}

/// Truncates a torn trailing half-line (no final newline — the mark
/// of a process killed mid-write) back to the last newline-terminated
/// entry, logging a one-line warning. A missing, empty, or cleanly
/// terminated file is left untouched. Shared by the run journals and
/// the coordinator's lease ledger.
pub fn truncate_torn_tail(path: &Path) -> std::io::Result<()> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if bytes.is_empty() || bytes.last() == Some(&b'\n') {
        return Ok(());
    }
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let file = fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(keep as u64)?;
    eprintln!(
        "[journal] {}: truncated a torn trailing line ({} bytes) left by an interrupted write",
        path.display(),
        bytes.len() - keep
    );
    Ok(())
}

/// An append-mode JSONL writer that flushes after every entry, so a
/// crash loses only unfinished cells.
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    file: BufWriter<fs::File>,
    fault: Option<Arc<FaultPlan>>,
}

impl JournalWriter {
    /// Opens (creating parent directories and the file if needed) the
    /// journal at `path` for appending. If a previous run was killed
    /// mid-write, the torn trailing half-line is truncated away first
    /// (see [`truncate_torn_tail`]), so appended entries continue the
    /// journal exactly where the last durable entry ended.
    pub fn append(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        truncate_torn_tail(path)?;
        let file = fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JournalWriter { path: path.to_path_buf(), file: BufWriter::new(file), fault: None })
    }

    /// Arms the `torn_write` fault: the plan's chosen append writes
    /// only half its line, flushes, and aborts the process — the torn
    /// state a crash-safe resume must recover from.
    pub fn with_fault(mut self, fault: Option<Arc<FaultPlan>>) -> Self {
        self.fault = fault;
        self
    }

    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        if let Some(fault) = self.fault.as_ref() {
            if fault.should_tear_append() {
                self.file.write_all(&line.as_bytes()[..line.len() / 2])?;
                self.file.flush()?;
                fault.abort("mid-append journal write");
            }
        }
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()
    }

    /// Appends one entry and flushes it to disk.
    pub fn push(&mut self, entry: &JournalEntry) -> std::io::Result<()> {
        let line = serde_json::to_string(entry)
            .map_err(|e| std::io::Error::other(format!("serialising journal entry: {e}")))?;
        self.write_line(&line)
    }

    /// Appends one failed-cell marker and flushes it to disk.
    pub fn push_failed(&mut self, failed: &CellFailed) -> std::io::Result<()> {
        let line = serde_json::to_string(failed)
            .map_err(|e| std::io::Error::other(format!("serialising cell failure: {e}")))?;
        self.write_line(&line)
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Reads a journal, returning its *completed* entries in file order
/// — the view resume and merge consume. Failed-cell markers are
/// skipped (the engine simply recomputes those cells); everything
/// else is as in [`read_lines`].
pub fn read(path: &Path) -> std::io::Result<Vec<JournalEntry>> {
    Ok(read_lines(path)?
        .into_iter()
        .filter_map(|line| match line {
            JournalLine::Ok(entry) => Some(entry),
            JournalLine::Failed(_) => None,
        })
        .collect())
}

/// Reads a journal, returning every line (completed and failed cells)
/// in file order. A missing file reads as empty, and an unterminated
/// final line — the torn tail of a killed append, which
/// [`JournalWriter::append`] truncates — is skipped. Any other line
/// that parses as neither kind is corruption: the read fails with
/// [`std::io::ErrorKind::InvalidData`] naming the path and line
/// number, rather than letting resume silently recompute the cell and
/// [`compact`] erase the evidence.
pub fn read_lines(path: &Path) -> std::io::Result<Vec<JournalLine>> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut lines = Vec::new();
    for (number, line) in text.split_inclusive('\n').enumerate() {
        // Only the final line can lack its newline: the torn tail.
        let Some(line) = line.strip_suffix('\n') else { break };
        // An entry line requires `record`, a failure line requires
        // `failed`; each parse rejects the other, so trying both is an
        // unambiguous dispatch.
        let parsed = serde_json::from_str(line)
            .map(JournalLine::Ok)
            .or_else(|_| serde_json::from_str(line).map(JournalLine::Failed))
            .map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{}:{}: corrupt journal line ({e}); fix or delete it and re-run",
                        path.display(),
                        number + 1
                    ),
                )
            })?;
        lines.push(parsed);
    }
    Ok(lines)
}

/// Serialises entries to JSONL text (one line per entry).
pub fn render(entries: &[JournalEntry]) -> String {
    let mut out = String::new();
    for entry in entries {
        out.push_str(&serde_json::to_string(entry).expect("journal entries always serialise"));
        out.push('\n');
    }
    out
}

/// Rewrites the journal at `path` in canonical order against the
/// current plan: entries sorted by `(position of sweep in specs,
/// cell index)`, de-duplicated by cell keeping the first occurrence.
/// Each entry's canonical index is *re-derived* from its record's
/// `(α, k, rep)` under the matching spec — the stored `cell` value
/// encodes the writing run's rep count, which may differ — so
/// journals from heterogeneous `--reps` splits compact into the same
/// bytes a single run of the merged grid would write. Entries no
/// current spec accounts for (stale sweep label, mismatched grid
/// fingerprint, off-grid record, rep beyond the plan's reps) are
/// dropped. Failed-cell markers survive only for cells that still
/// lack a completed entry — a successful retry supersedes its
/// failure. The rewrite goes through a temp file + rename, so a
/// crash cannot destroy the journal.
pub fn compact(path: &Path, specs: &[SweepSpec]) -> std::io::Result<()> {
    let spec_of = |sweep: &str, grid: u64| {
        specs.iter().position(|s| s.label == sweep && grid == s.fingerprint())
    };
    let mut ok: Vec<(usize, JournalEntry)> = Vec::new();
    let mut failed: Vec<(usize, CellFailed)> = Vec::new();
    for line in read_lines(path)? {
        match line {
            JournalLine::Ok(mut entry) => {
                let Some(pos) = spec_of(&entry.sweep, entry.grid) else { continue };
                let Some(cell) = specs[pos].index_of_record(&entry.record) else { continue };
                entry.cell = cell;
                ok.push((pos, entry));
            }
            JournalLine::Failed(marker) => {
                let Some(pos) = spec_of(&marker.sweep, marker.grid) else { continue };
                if marker.cell < specs[pos].cell_count() {
                    failed.push((pos, marker));
                }
            }
        }
    }
    // Stable sorts keep the first-written occurrence ahead of its
    // duplicates, so dedup implements first-result-wins.
    ok.sort_by_key(|(pos, e)| (*pos, e.cell));
    ok.dedup_by_key(|(pos, e)| (*pos, e.cell));
    let done: HashSet<(usize, usize)> = ok.iter().map(|(pos, e)| (*pos, e.cell)).collect();
    failed.retain(|(pos, f)| !done.contains(&(*pos, f.cell)));
    failed.sort_by_key(|(pos, f)| (*pos, f.cell));
    failed.dedup_by_key(|(pos, f)| (*pos, f.cell));
    let mut out = render(&ok.into_iter().map(|(_, e)| e).collect::<Vec<_>>());
    for (_, marker) in &failed {
        out.push_str(&serde_json::to_string(marker).expect("failure markers always serialise"));
        out.push('\n');
    }
    let tmp = path.with_extension("jsonl.tmp");
    fs::write(&tmp, out)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_core::Objective;

    fn spec(label: &str, alpha: f64, k: u32, reps: usize) -> SweepSpec {
        SweepSpec::tree(label, 10, reps, 7, vec![alpha], vec![k], Objective::Max)
    }

    fn entry(spec: &SweepSpec, cell: usize) -> JournalEntry {
        let id = spec.cell(cell);
        JournalEntry {
            sweep: spec.label.clone(),
            cell,
            grid: spec.fingerprint(),
            record: RunRecord {
                class: spec.class().into(),
                n: spec.n,
                alpha: spec.alphas[id.ai],
                k: spec.ks[id.ki],
                rep: id.rep,
                converged: true,
                capped: false,
                rounds: 2,
                moves: 3,
                diameter: Some(4),
                quality: Some(1.25),
                max_degree: 3,
                max_bought: 2,
                min_view: 4,
                avg_view: 6.5,
                unfairness: None,
            },
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ncg_journal_{tag}_{}", std::process::id()))
    }

    #[test]
    fn append_read_round_trip() {
        let dir = temp_path("rt");
        let _ = fs::remove_dir_all(&dir);
        let path = journal_path(&dir, "demo");
        let mut w = JournalWriter::append(&path).unwrap();
        let s = spec("main", 0.5, 2, 2);
        let entries = vec![entry(&s, 1), entry(&s, 0)];
        for e in &entries {
            w.push(e).unwrap();
        }
        drop(w);
        assert_eq!(read(&path).unwrap(), entries);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_reads_empty_and_truncated_lines_are_skipped() {
        let dir = temp_path("trunc");
        let _ = fs::remove_dir_all(&dir);
        let path = journal_path(&dir, "demo");
        assert!(read(&path).unwrap().is_empty());
        let mut w = JournalWriter::append(&path).unwrap();
        let good = entry(&spec("main", 1.0, 3, 1), 0);
        w.push(&good).unwrap();
        drop(w);
        // Simulate a kill mid-write: append half a line.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"sweep\":\"main\",\"cell\":1,\"rec");
        fs::write(&path, text).unwrap();
        assert_eq!(read(&path).unwrap(), vec![good]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_mid_file_line_is_an_error_naming_path_and_line() {
        let dir = temp_path("corrupt");
        let _ = fs::remove_dir_all(&dir);
        let path = journal_path(&dir, "demo");
        let s = spec("main", 0.5, 2, 3);
        let mut w = JournalWriter::append(&path).unwrap();
        for cell in 0..3 {
            w.push(&entry(&s, cell)).unwrap();
        }
        drop(w);
        // Corrupt the middle line's `record` key; the line stays
        // newline-terminated, so it is not a torn tail.
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let bad = lines[1].replacen("\"record\"", "\"recxrd\"", 1);
        fs::write(&path, format!("{}\n{bad}\n{}\n", lines[0], lines[2])).unwrap();
        for err in [read(&path).unwrap_err(), read_lines(&path).unwrap_err()] {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let message = err.to_string();
            assert!(message.contains(&format!("{}:2:", path.display())), "{message}");
        }
        let before = fs::read(&path).unwrap();
        assert!(compact(&path, std::slice::from_ref(&s)).is_err(), "compact must refuse too");
        assert_eq!(fs::read(&path).unwrap(), before, "and leave the corrupt journal untouched");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_truncates_a_torn_tail_instead_of_writing_after_it() {
        let dir = temp_path("torn_resume");
        let _ = fs::remove_dir_all(&dir);
        let path = journal_path(&dir, "demo");
        let s = spec("main", 0.5, 2, 3);
        let mut w = JournalWriter::append(&path).unwrap();
        w.push(&entry(&s, 0)).unwrap();
        drop(w);
        let clean = fs::read(&path).unwrap();
        // Kill mid-record: half of entry 1's line survives on disk.
        let full = serde_json::to_string(&entry(&s, 1)).unwrap();
        let mut bytes = clean.clone();
        bytes.extend_from_slice(&full.as_bytes()[..full.len() / 2]);
        fs::write(&path, &bytes).unwrap();
        // Reopening for append drops the fragment *before* writing.
        let mut w = JournalWriter::append(&path).unwrap();
        assert_eq!(fs::read(&path).unwrap(), clean, "torn tail must be truncated on reopen");
        w.push(&entry(&s, 2)).unwrap();
        drop(w);
        assert_eq!(
            read(&path).unwrap(),
            vec![entry(&s, 0), entry(&s, 2)],
            "the journal continues from the last durable entry"
        );
        let text = fs::read_to_string(&path).unwrap();
        assert!(!text.contains(&full[..full.len() / 2]), "no fragment bytes may survive");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_with_no_newline_at_all_truncates_to_empty() {
        let dir = temp_path("torn_all");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir, "demo");
        fs::write(&path, "{\"sweep\":\"main\",\"ce").unwrap();
        truncate_torn_tail(&path).unwrap();
        assert!(fs::read(&path).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_markers_parse_separately_and_read_skips_them() {
        let dir = temp_path("failed");
        let _ = fs::remove_dir_all(&dir);
        let path = journal_path(&dir, "demo");
        let s = spec("main", 0.5, 2, 2);
        let ok = entry(&s, 0);
        let marker = CellFailed {
            sweep: "main".into(),
            cell: 1,
            grid: s.fingerprint(),
            failed: "index out of bounds".into(),
        };
        let mut w = JournalWriter::append(&path).unwrap();
        w.push(&ok).unwrap();
        w.push_failed(&marker).unwrap();
        drop(w);
        assert_eq!(
            read_lines(&path).unwrap(),
            vec![JournalLine::Ok(ok.clone()), JournalLine::Failed(marker.clone())]
        );
        assert_eq!(read(&path).unwrap(), vec![ok], "read() yields completed cells only");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_sorts_dedups_and_round_trips_bytes() {
        let dir = temp_path("compact");
        let _ = fs::remove_dir_all(&dir);
        let path = journal_path(&dir, "demo");
        let a = spec("a", 0.025, 2, 2);
        let b = spec("b", 7.0, 1000, 1);
        let specs = vec![a.clone(), b.clone()];
        let canonical = vec![entry(&a, 0), entry(&a, 1), entry(&b, 0)];
        // Write shuffled, with a duplicate, a stale-label entry, an
        // out-of-range record, and a wrong-fingerprint entry.
        let mut w = JournalWriter::append(&path).unwrap();
        w.push(&canonical[2]).unwrap();
        w.push(&canonical[1]).unwrap();
        w.push(&JournalEntry { sweep: "stale".into(), ..canonical[0].clone() }).unwrap();
        let mut excess_rep = canonical[0].clone();
        excess_rep.record.rep = 9;
        excess_rep.cell = 9;
        w.push(&excess_rep).unwrap();
        w.push(&JournalEntry { grid: 123, ..canonical[0].clone() }).unwrap();
        w.push(&canonical[0]).unwrap();
        w.push(&canonical[1]).unwrap();
        drop(w);
        compact(&path, &specs).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), render(&canonical));
        // Compacting a canonical journal is a byte-level no-op.
        compact(&path, &specs).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), render(&canonical));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_reindexes_entries_from_a_different_reps_split() {
        let dir = temp_path("reindex");
        let _ = fs::remove_dir_all(&dir);
        let path = journal_path(&dir, "demo");
        // Two αs, one k: under reps=1 cell order is (α0 r0), (α1 r0);
        // under reps=2 it is (α0 r0), (α0 r1), (α1 r0), (α1 r1).
        let narrow = SweepSpec::tree("main", 10, 1, 7, vec![0.5, 2.0], vec![2], Objective::Max);
        let wide = SweepSpec { reps: 2, ..narrow.clone() };
        let mut w = JournalWriter::append(&path).unwrap();
        w.push(&entry(&narrow, 1)).unwrap(); // (α1, r0): wide index 2
        drop(w);
        compact(&path, std::slice::from_ref(&wide)).unwrap();
        let got = read(&path).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].cell, 2, "cell index must be recomputed under the wide grid");
        assert_eq!(got[0].record, entry(&narrow, 1).record, "record bytes unchanged");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_drops_failures_superseded_by_a_completed_retry() {
        let dir = temp_path("supersede");
        let _ = fs::remove_dir_all(&dir);
        let path = journal_path(&dir, "demo");
        let s = spec("main", 0.5, 2, 2);
        let still_failed = CellFailed {
            sweep: "main".into(),
            cell: 1,
            grid: s.fingerprint(),
            failed: "boom".into(),
        };
        let mut w = JournalWriter::append(&path).unwrap();
        w.push_failed(&CellFailed { cell: 0, ..still_failed.clone() }).unwrap();
        w.push_failed(&still_failed).unwrap();
        w.push(&entry(&s, 0)).unwrap(); // cell 0's successful retry
        drop(w);
        compact(&path, std::slice::from_ref(&s)).unwrap();
        assert_eq!(
            read_lines(&path).unwrap(),
            vec![JournalLine::Ok(entry(&s, 0)), JournalLine::Failed(still_failed)],
            "a completed retry supersedes its failure marker; unresolved failures survive"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_fault_tears_the_chosen_append() {
        // The decision side of the torn_write fault: the writer must
        // emit exactly half the line and flush. The abort() tail only
        // runs in spawned binaries, so here we check the plan wiring
        // up to the would-abort point via the counter.
        let plan = FaultPlan::parse("torn_write:2").unwrap();
        assert!(!plan.should_tear_append(), "append 1 is clean");
        assert!(plan.should_tear_append(), "append 2 tears");
    }

    #[test]
    fn fingerprint_separates_profiles() {
        let base = spec("main", 0.5, 2, 3);
        assert_eq!(base.fingerprint(), spec("main", 0.5, 2, 3).fingerprint());
        let mut other = base.clone();
        other.seed ^= 1;
        assert_ne!(base.fingerprint(), other.fingerprint(), "seed must change the fingerprint");
        assert_eq!(
            base.fingerprint(),
            spec("main", 0.5, 2, 2).fingerprint(),
            "reps splits of one grid share a fingerprint (hetero-reps merge)"
        );
        assert_ne!(base.fingerprint(), spec("main", 0.7, 2, 3).fingerprint(), "alpha grid");
        assert_ne!(base.fingerprint(), spec("main", 0.5, 3, 3).fingerprint(), "k grid");
        let mut er = base.clone();
        er.workload = crate::sweep::Workload::Er(0.1);
        assert_ne!(base.fingerprint(), er.fingerprint(), "workload family");
        let mut er2 = er.clone();
        er2.workload = crate::sweep::Workload::Er(0.2);
        assert_ne!(er.fingerprint(), er2.fingerprint(), "edge probability p");
        let mut sum = base.clone();
        sum.objective = Objective::Sum;
        assert_ne!(base.fingerprint(), sum.fingerprint(), "objective");
    }
}
