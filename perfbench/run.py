#!/usr/bin/env python3
"""The repository benchmark: one sweep of best-response dynamics per
workload, timed end to end and traced layer by layer from outside.

    python3 perfbench/run.py --workload figure5|sum_extension|scale_churn|all
        [--seed N|default|held-out] [--seconds S] [--trace 0|1]

Run from the repository root. It builds `perfbench/` (Cargo, release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), then runs
each step in a fresh `ncg-perfbench` process:

1. `setup` - times input generation, once before every pass of step 2,
   so its samples are spread over the run like the passes are;
   `setup_s` is the median of all of them.
2. `pass` on nproc threads - `ncg_experiments::run_experiment` with the
   journal on, as the CLI runs it. With `--trace 0` a run covers several
   input draws (the seed, then seeds derived from it) and cycles through
   them while one more pass still fits in `--seconds`; `wall_s`, `cpu_s` and
   `peak_rss_mb` are medians over the run's passes.
3. With `--trace 1`, one `pass` on nproc threads and one on a single
   thread at the seed itself, then `trace`, which re-runs the sweep
   single-threaded with spans around each layer's public calls and
   checks every final state. Per-layer metrics come from the spans and
   counters.

Every run checks the outputs (see README.md) and prints one line per
metric, then as its last line a JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`). It exits non-zero
if a check fails or a step cannot run.
"""

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

# The profiles' base seed, the benchmark's default.
DEFAULT_SEED = 0x9E3779B97F4A7C15
# A second seed no tuning used; a claimed gain must also hold on it.
HELD_OUT_SEED = 0x2545F4914F6CDD1D
WORKLOADS = ("figure5", "sum_extension", "scale_churn")
# Input draws per untraced run. One sweep's wall time on 2 cores moves
# by up to ~30% from one input draw to the next and, for the same
# input, from one pass to the next (the work-stealing split of heavy
# cells over 2 workers differs), so a run takes the median over
# distinct draws; scale_churn's 10^5-player inputs vary far less.
DRAWS = {"figure5": 6, "sum_extension": 16, "scale_churn": 2}
END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
# Before every pass, input generation is repeated for at least this
# long. One generation of an exact workload takes ~10-80 us, and its
# time swings by half from one fraction of a second to the next with
# the host's load, so one block of samples at the start of a run would
# catch whatever the host did then; blocks spread over the whole run
# see the same mix of host states as the passes do.
SETUP_SECONDS = 0.25
# A workload's steps must end this long after they start.
STEP_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 870.0


class BenchError(Exception):
    pass


def child_env():
    """The caller's environment without `NCG_*` knobs, so thread caps,
    kernel switches and fault injection never leak into a run."""
    return {k: v for k, v in os.environ.items() if not k.startswith("NCG_")}


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = child_env()
    env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"cargo build failed to run: {e}")
    if done.returncode != 0:
        raise BenchError(f"cargo build exited {done.returncode}")
    return target, target / "release" / "ncg-perfbench"


class Runner:
    """Runs `ncg-perfbench` steps against a deadline set per workload."""

    def __init__(self, binary):
        self.binary = binary
        self.deadline = 0.0

    def step(self, command, workload, seed, *extra):
        cmd = [str(self.binary), command, "--workload", workload, "--seed", str(seed)]
        cmd += [str(x) for x in extra]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"no time left for `{command}`")
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"`{command}` ran past the deadline")
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError(f"`{' '.join(cmd)}` exited {done.returncode}")
        return json.loads(lines[-1])


def host_steal_s():
    """CPU time the hypervisor gave other guests so far (all CPUs)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def journal_sha256(report):
    return hashlib.sha256(Path(report["journal_path"]).read_bytes()).hexdigest()


def journal_problems(report, what):
    j = report["journal"]
    problems = []
    for key in ("missing", "duplicates", "foreign", "unparsable", "failed"):
        if j[key]:
            problems.append(f"{what}: {j[key]} {key} journal cells of {j['cells']}")
    if report["panic"]:
        problems.append(f"{what}: the sweep panicked: {report['panic']}")
    return problems


def run_workload(runner, work, workload, seed, seconds, trace):
    """Runs one workload; returns (report lines, checks failed, result)."""
    threads = len(os.sched_getaffinity(0))
    lines, problems = [], []
    draws = metrics.draw_seeds(seed, 1 if trace else DRAWS[workload])
    setups = []
    passes = {draw: [] for draw in draws}
    started, count, steal = time.monotonic(), 0, host_steal_s()
    # Every draw once; with --trace 0, cycle through them while one
    # more pass, at the run's mean time per pass, ends within --seconds.
    # A run therefore lasts about --seconds whatever the host's speed,
    # unless the draws alone take longer.
    while count < len(draws) or (
            not trace and (time.monotonic() - started) * (count + 1) / count < seconds):
        draw = draws[count % len(draws)]
        setups += runner.step("setup", workload, draw, "--min-seconds", SETUP_SECONDS)["seconds"]
        out = work / f"{workload}-pass{count}"
        report = runner.step("pass", workload, draw, "--threads", threads, "--out", out)
        report["sha256"] = journal_sha256(report)
        problems += journal_problems(report, f"{threads}-thread pass {count} (seed {draw:#x})")
        passes[draw].append(report)
        count += 1
    elapsed, steal = time.monotonic() - started, host_steal_s() - steal
    for draw, reports in passes.items():
        if len({r["sha256"] for r in reports}) != 1:
            problems.append(f"seed {draw:#x}: repeated passes journaled different bytes")

    every = [r for reports in passes.values() for r in reports]
    first = [reports[0] for reports in passes.values()]
    attempted = sum(r["journal"]["cells"] for r in every)
    failed = sum(r["journal"]["failed"] + r["journal"]["missing"] for r in every)
    e2e = {
        name: metrics.Metric(metrics.median([r[name] for r in every]), unit)
        for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
    }
    e2e.update({
        "setup_s": metrics.Metric(metrics.median(setups), "s"),
        "converged_frac": metrics.ratio(sum(r["journal"]["converged"] for r in first),
                                        "converged cells", sum(r["journal"]["cells"] for r in first),
                                        "cells"),
        "failed_frac": metrics.ratio(failed, "CellFailed or missing cells", attempted,
                                     "cells attempted"),
    })
    lines.append(f"# workload {workload}  seed {seed:#x}  threads {threads}  "
                 f"cells per sweep {first[0]['journal']['cells']}  input draws {len(draws)}  "
                 f"passes {count}  setups {len(setups)}")
    lines.append("# wall_s, cpu_s, peak_rss_mb: median over the run's passes; setup_s: "
                 "median over every input generation timed before each pass")
    lines.append(f"# host CPU steal during the passes: {steal:.2f} s over {elapsed:.1f} s wall "
                 f"on {threads} CPUs (other guests' load slows every timing)")
    lines += [m.line(name) for name, m in e2e.items()]
    for draw, reports in passes.items():
        walls = ", ".join(f"{r['wall_s']:.4f}" for r in reports)
        lines.append(f"# seed {draw:#x}: wall_s per pass {walls}; journal_sha256 "
                     f"{reports[0]['sha256']}")
    lines.append(f"journal_sha256 {first[0]['sha256']}")

    layers = {}
    if trace:
        nproc = first[0]
        serial_out = work / f"{workload}-serial"
        serial = runner.step("pass", workload, seed, "--threads", 1, "--out", serial_out)
        serial["sha256"] = journal_sha256(serial)
        problems += journal_problems(serial, "1-thread pass")
        attempted += serial["journal"]["cells"]
        failed += serial["journal"]["failed"] + serial["journal"]["missing"]
        if serial["sha256"] != nproc["sha256"]:
            problems.append(f"determinism: the 1-thread journal sha256 {serial['sha256']} differs "
                            f"from the {threads}-thread one {nproc['sha256']}")
        spans_path = work / f"{workload}-spans.tsv"
        counters = runner.step("trace", workload, seed, "--journal", serial["journal_path"],
                               "--spans", spans_path, "--check-threads", threads)
        problems += counters["failures"]
        with open(spans_path) as f:
            spans = metrics.Trace(metrics.parse_spans(f))
        layers = metrics.layer_metrics(spans, counters, serial, nproc["wall_s"], threads, nproc)
        lines.append(f"# traced pass: single thread; checked {counters['lke_checked']} LKE "
                     f"certificates, {counters['states_validated']} scale states, "
                     f"{counters['records_compared']} records against the 1-thread journal")
        lines.append("# experiments.trace_overhead_s includes the cold view cache of each "
                     "traced run_with call (the sweep warm-starts one CacheArena per rep)")
        lines += [m.line(name) for name, m in layers.items()]
        for name, span in (("solver call", "solver"), ("respond call", "respond"),
                           ("cell", "cell")):
            values = [s.seconds * 1e6 for s in spans.named(span)]
            tail = metrics.tail_percentile(values)
            if tail:
                lines.append(f"# {name} us: p50 {metrics.percentile(values, 50):.3f}, "
                             f"p{tail[0]} {tail[1]:.3f} (highest percentile with >= 10 of "
                             f"{len(values)} samples beyond it)")

    lines += [f"check FAILED: {p}" for p in problems]
    lines.append(f"checks {'passed' if not problems else 'FAILED'}")
    chosen = layers if trace else {name: e2e[name] for name in END_TO_END}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in chosen.items()},
    }
    return lines, problems, result


def self_test():
    """Runs test_metrics.py; the benchmark's arithmetic must hold first."""
    suite = unittest.defaultTestLoader.loadTestsFromName("test_metrics")
    log = io.StringIO()
    outcome = unittest.TextTestRunner(stream=log, verbosity=0).run(suite)
    if not outcome.wasSuccessful():
        sys.stderr.write(log.getvalue())
    return outcome.wasSuccessful()


def parse_seed(text):
    named = {"default": DEFAULT_SEED, "held-out": HELD_OUT_SEED}
    return named[text] if text in named else int(text, 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED,
                        help="an integer (0x.. allowed), `default` or `held-out`")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    if not self_test():
        print("perfbench: self-tests of the benchmark arithmetic failed", file=sys.stderr)
        return 2
    try:
        target, binary = build()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    runner = Runner(binary)
    work = target / "perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    status = 0
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            runner.deadline = time.monotonic() + STEP_DEADLINE_S
            lines, problems, result = run_workload(runner, work, workload, args.seed,
                                                   args.seconds, args.trace)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
            status = status or (1 if problems else 0)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        status = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
