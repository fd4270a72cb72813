//! End-to-end smoke test for the `ncg-experiments` CLI: run one real
//! dynamics figure (Figure 5, quick profile trimmed to one repetition)
//! with a fixed seed into a temp `--out` directory, then assert that
//! the artifacts exist and parse as well-formed CSV.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_out_dir() -> PathBuf {
    std::env::temp_dir().join(format!("ncg_cli_smoke_{}", std::process::id()))
}

/// Checks a table CSV: at least a header plus one data row, every row
/// with the same column count, and at least one parsable number in
/// each data row.
fn assert_parses_as_csv(path: &Path) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let rows: Vec<Vec<&str>> = text.lines().map(|line| line.split(',').collect()).collect();
    assert!(rows.len() >= 2, "{}: expected header + data rows", path.display());
    let columns = rows[0].len();
    assert!(columns >= 2, "{}: expected at least two columns", path.display());
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), columns, "{}: ragged row {i}", path.display());
    }
    for (i, row) in rows.iter().enumerate().skip(1) {
        let numeric = row.iter().any(|cell| {
            cell.split_whitespace().next().is_some_and(|tok| tok.parse::<f64>().is_ok())
        });
        assert!(numeric, "{}: no numeric cell in data row {i}: {row:?}", path.display());
    }
}

#[test]
fn figure5_quick_profile_writes_parsable_artifacts() {
    let out_dir = temp_out_dir();
    let _ = std::fs::remove_dir_all(&out_dir);

    let output = Command::new(env!("CARGO_BIN_EXE_ncg-experiments"))
        .args(["figure5", "--reps", "1", "--seed", "12345", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawning the ncg-experiments binary");
    assert!(
        output.status.success(),
        "CLI exited with {:?}; stderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );

    // The two Figure 5 panels plus the notes file.
    let avg = out_dir.join("figure5_avg_view_size.csv");
    let min = out_dir.join("figure5_min_view_size.csv");
    let notes = out_dir.join("figure5_notes.txt");
    for path in [&avg, &min, &notes] {
        assert!(path.is_file(), "missing artifact {}", path.display());
    }
    assert_parses_as_csv(&avg);
    assert_parses_as_csv(&min);
    let notes_text = std::fs::read_to_string(&notes).expect("notes readable");
    assert!(!notes_text.trim().is_empty(), "notes file is empty");

    let _ = std::fs::remove_dir_all(&out_dir);
}

/// Satellite of the sweep-engine rearchitecture: a two-shard
/// `figure5` run plus `merge` must reproduce the single-process
/// artifacts byte for byte — tables, notes, and the canonical JSONL
/// run journal (quick profile, 2 reps so each shard owns one).
#[test]
fn figure5_two_shard_merge_round_trips_byte_identically() {
    let single_dir = temp_out_dir().with_extension("single");
    let shard_dir = temp_out_dir().with_extension("sharded");
    let _ = std::fs::remove_dir_all(&single_dir);
    let _ = std::fs::remove_dir_all(&shard_dir);
    let base_args = ["figure5", "--reps", "2", "--seed", "4242"];
    let run = |extra: &[&str], out: &Path| {
        let output = Command::new(env!("CARGO_BIN_EXE_ncg-experiments"))
            .args(base_args)
            .args(extra)
            .arg("--out")
            .arg(out)
            .output()
            .expect("spawning the ncg-experiments binary");
        assert!(
            output.status.success(),
            "CLI {extra:?} exited with {:?}; stderr:\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        );
    };
    run(&[], &single_dir);
    run(&["--shards", "2", "--shard", "0"], &shard_dir);
    run(&["--shards", "2", "--shard", "1"], &shard_dir);
    // `merge` is spelled as a leading subcommand.
    let output = Command::new(env!("CARGO_BIN_EXE_ncg-experiments"))
        .args(["merge", "figure5", "--reps", "2", "--seed", "4242", "--shards", "2", "--out"])
        .arg(&shard_dir)
        .output()
        .expect("spawning the ncg-experiments binary");
    assert!(
        output.status.success(),
        "merge exited with {:?}; stderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );

    for artifact in [
        "figure5_avg_view_size.csv",
        "figure5_min_view_size.csv",
        "figure5_notes.txt",
        "figure5_runs.jsonl",
    ] {
        let a = std::fs::read(single_dir.join(artifact))
            .unwrap_or_else(|e| panic!("single-run artifact {artifact}: {e}"));
        let b = std::fs::read(shard_dir.join(artifact))
            .unwrap_or_else(|e| panic!("merged artifact {artifact}: {e}"));
        assert!(!a.is_empty(), "{artifact} is empty");
        assert_eq!(a, b, "sharded+merged {artifact} differs from the single-process run");
    }
    // The shard journals themselves partition the grid: together they
    // hold exactly the lines of the canonical journal.
    let canonical = std::fs::read_to_string(single_dir.join("figure5_runs.jsonl")).unwrap();
    let mut shard_lines: Vec<String> = (0..2)
        .flat_map(|i| {
            std::fs::read_to_string(shard_dir.join(format!("figure5_runs.shard{i}of2.jsonl")))
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect();
    let mut canonical_lines: Vec<String> = canonical.lines().map(str::to_string).collect();
    shard_lines.sort();
    canonical_lines.sort();
    assert_eq!(shard_lines, canonical_lines);

    let _ = std::fs::remove_dir_all(&single_dir);
    let _ = std::fs::remove_dir_all(&shard_dir);
}

#[test]
fn rejects_unknown_experiment_with_usage() {
    let output = Command::new(env!("CARGO_BIN_EXE_ncg-experiments"))
        .arg("no-such-figure")
        .output()
        .expect("spawning the ncg-experiments binary");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage:"), "expected usage text, got:\n{stderr}");
}

#[test]
fn rejects_flags_the_chosen_action_ignores() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["figure5", "--smoke", "--connect", "127.0.0.1:9"],
            "--connect does not apply to a local run",
        ),
        (&["figure5", "--smoke", "--lease-timeout", "5"], "--lease-timeout does not apply"),
        (&["figure5", "--smoke", "--worker-id", "w"], "--worker-id does not apply"),
        (&["figure5", "--port-file", "p"], "--port-file does not apply to a local run"),
        (
            &["merge", "figure5", "--shards", "2", "--listen", "127.0.0.1:0"],
            "--listen does not apply to merge",
        ),
        (&["serve", "figure5", "--shards", "2"], "--shards does not apply to serve"),
        (&["serve", "figure5", "--worker-id", "w"], "--worker-id does not apply to serve"),
        (&["work", "figure5", "--shard", "0"], "--shard does not apply to work"),
        (&["work", "figure5", "--max-retries", "2"], "--max-retries does not apply to work"),
    ];
    for (args, reason) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_ncg-experiments"))
            .args(*args)
            .output()
            .expect("spawning the ncg-experiments binary");
        assert!(!output.status.success(), "{args:?} must be refused");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(reason), "{args:?}: expected {reason:?} in:\n{stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: expected usage text in:\n{stderr}");
    }
}
