//! Harness binary of the repository benchmark (`perfbench/README.md`).
//!
//! `perfbench/run.py` runs each subcommand in a fresh process and
//! reads the one JSON line it prints on stdout:
//!
//! ```text
//! ncg-perfbench setup --workload W --seed S --min-seconds F
//! ncg-perfbench pass  --workload W --seed S --threads T --out DIR
//! ncg-perfbench trace --workload W --seed S --journal FILE --spans FILE --check-threads T
//! ```
//!
//! * `setup` times input generation (`SweepSpec::states()` /
//!   `scale_states()`) repeatedly, for at least `--min-seconds`.
//! * `pass` runs the workload's sweep through
//!   `ncg_experiments::run_experiment` with the journal on under
//!   `DIR`, on a pool of `T` workers, as the CLI does, and reports wall
//!   time, CPU time, peak RSS and the journal checks.
//! * `trace` re-runs the sweep single-threaded through the public
//!   layer calls with spans around each (see `trace.rs`), writes the
//!   spans to `--spans`, and reports the layer counters and the checks
//!   on final states.

mod sys;
mod trace;
mod workload;

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ncg_experiments::journal::{self, JournalLine};
use ncg_experiments::sweep::SweepSpec;
use ncg_experiments::{run_experiment, SweepContext, SweepMode};
use serde::Serialize;

use workload::Workload;

/// Parsed `--key value` arguments of one subcommand.
struct Args {
    workload: Workload,
    seed: u64,
    values: HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key =
                flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            values.insert(key.to_string(), value.clone());
        }
        let name = values.get("workload").ok_or("--workload is required")?;
        let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
        let seed = values.get("seed").ok_or("--seed is required")?;
        let seed = seed.parse::<u64>().map_err(|_| format!("--seed {seed} is not a u64"))?;
        Ok(Args { workload, seed, values })
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let value = self.values.get(key).ok_or_else(|| format!("--{key} is required"))?;
        value.parse().map_err(|_| format!("--{key} {value} is malformed"))
    }

    /// The workload's single sweep; every benchmark workload plans one.
    fn spec(&self) -> SweepSpec {
        let mut specs = self.workload.specs(self.seed);
        assert_eq!(specs.len(), 1, "benchmark workloads run exactly one sweep");
        specs.pop().expect("length checked above")
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: ncg-perfbench <setup|pass|trace> --workload W --seed S ...");
        return ExitCode::FAILURE;
    };
    let outcome = Args::parse(rest).and_then(|args| match command.as_str() {
        "setup" => setup(&args),
        "pass" => pass(&args),
        "trace" => trace_cmd(&args),
        other => Err(format!("unknown subcommand {other}")),
    });
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("ncg-perfbench {command}: {message}");
            ExitCode::FAILURE
        }
    }
}

fn to_json<T: Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| format!("serialising the report: {e:?}"))
}

fn thread_pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool construction is infallible")
}

#[derive(Serialize)]
struct SetupReport {
    /// Seconds per generation of the sweep's initial states.
    seconds: Vec<f64>,
}

fn setup(args: &Args) -> Result<String, String> {
    let min_seconds: f64 = args.get("min-seconds")?;
    let spec = args.spec();
    let started = Instant::now();
    let mut seconds = Vec::new();
    while seconds.len() < 5 || started.elapsed().as_secs_f64() < min_seconds {
        let t = Instant::now();
        if spec.is_scale() {
            let states = black_box(spec.scale_states());
            seconds.push(t.elapsed().as_secs_f64());
            drop(states);
        } else {
            let states = black_box(spec.states());
            seconds.push(t.elapsed().as_secs_f64());
            drop(states);
        }
    }
    to_json(&SetupReport { seconds })
}

/// What the journal of one pass holds, checked against the sweep grid.
#[derive(Serialize, Default)]
struct JournalCheck {
    /// Cells in the grid.
    cells: usize,
    /// Grid cells with no completed entry.
    missing: usize,
    /// Completed entries beyond the first for a cell.
    duplicates: usize,
    /// Entries that belong to no cell of the grid.
    foreign: usize,
    /// `CellFailed` lines.
    failed: usize,
    /// Non-empty lines that parse as neither entry nor failure.
    unparsable: usize,
    /// Completed cells whose dynamics converged.
    converged: usize,
    /// Journal size in bytes.
    bytes: u64,
}

fn check_journal(path: &Path, spec: &SweepSpec) -> Result<JournalCheck, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading journal {}: {e}", path.display()))?;
    let lines = journal::read_lines(path).map_err(|e| format!("parsing journal: {e}"))?;
    let mut check = JournalCheck {
        cells: spec.cell_count(),
        bytes: text.len() as u64,
        unparsable: text.lines().filter(|l| !l.trim().is_empty()).count() - lines.len(),
        ..JournalCheck::default()
    };
    let mut seen = vec![0usize; spec.cell_count()];
    for line in &lines {
        match line {
            JournalLine::Ok(entry) => {
                let index = (entry.sweep == spec.label && entry.grid == spec.fingerprint())
                    .then(|| spec.index_of_record(&entry.record))
                    .flatten()
                    .filter(|&index| index == entry.cell);
                match index {
                    Some(index) => {
                        seen[index] += 1;
                        check.converged += usize::from(entry.record.converged);
                    }
                    None => check.foreign += 1,
                }
            }
            JournalLine::Failed(_) => check.failed += 1,
        }
    }
    check.missing = seen.iter().filter(|&&c| c == 0).count();
    check.duplicates = seen.iter().map(|&c| c.saturating_sub(1)).sum();
    Ok(check)
}

#[derive(Serialize)]
struct PassReport {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// The panic message when the sweep panicked (empty otherwise).
    panic: String,
    journal_path: String,
    journal: JournalCheck,
}

fn pass(args: &Args) -> Result<String, String> {
    let threads: usize = args.get("threads")?;
    let out: PathBuf = args.get::<String>("out")?.into();
    let profile = args.workload.profile(args.seed);
    let ctx =
        SweepContext { mode: SweepMode::Local, journal_dir: Some(out.clone()), warm_start: true };
    let pool = thread_pool(threads);
    let before = sys::usage();
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(|| {
        pool.install(|| {
            let output = run_experiment(args.workload.experiment(), &profile, &ctx)
                .expect("workload experiments are known");
            output.write_to(&out)
        })
    });
    let wall_s = started.elapsed().as_secs_f64();
    let after = sys::usage();
    let panic = match outcome {
        Ok(Ok(_)) => String::new(),
        Ok(Err(e)) => return Err(format!("writing the experiment's artifacts: {e}")),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into()),
    };
    let path = journal::journal_path(&out, &args.workload.journal_name());
    let journal = check_journal(&path, &args.spec())?;
    to_json(&PassReport {
        wall_s,
        cpu_s: after.cpu_s - before.cpu_s,
        peak_rss_mb: after.max_rss_kib as f64 / 1024.0,
        panic,
        journal_path: path.display().to_string(),
        journal,
    })
}

fn trace_cmd(args: &Args) -> Result<String, String> {
    let journal_path: PathBuf = args.get::<String>("journal")?.into();
    let spans_path: PathBuf = args.get::<String>("spans")?.into();
    let check_threads: usize = args.get("check-threads")?;
    let spec = args.spec();
    let entries = journal::read(&journal_path).map_err(|e| format!("reading the journal: {e}"))?;
    let journaled = entries.into_iter().map(|e| (e.cell, e.record)).collect();
    let mut tracer = trace::Tracer::new();
    let report = thread_pool(1)
        .install(|| trace::traced_pass(&spec, &journaled, check_threads, &mut tracer));
    tracer.write_tsv(&spans_path).map_err(|e| format!("writing spans: {e}"))?;
    to_json(&report)
}
