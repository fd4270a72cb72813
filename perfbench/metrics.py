"""The benchmark's arithmetic: percentiles, span self time, and the
per-layer metrics derived from a traced pass.

Kept apart from `run.py` (which only orchestrates processes) so that
`test_metrics.py` can check every formula on hand-made inputs.
"""

import math
import statistics
from fractions import Fraction

# Percentiles a tail is reported at, lowest first (strings keep the
# rank arithmetic exact).
TAIL_LADDER = ("50", "90", "99", "99.9", "99.99", "99.999")

# Every per-layer metric `--trace 1` reports: (name, unit, better).
# BENCHMARK.json's `per_layer` list must match it (a self-test checks).
PER_LAYER = (
    ("solver.calls", "count", "lower"),
    ("solver.busy_s", "s", "lower"),
    ("solver.share", "fraction", "lower"),
    ("solver.call_us_p50", "us", "lower"),
    ("solver.call_us_p99", "us", "lower"),
    ("solver.improving_frac", "fraction", "higher"),
    ("solver.view_mean", "nodes", "lower"),
    ("dynamics.rounds", "count", "lower"),
    ("dynamics.moves", "count", "lower"),
    ("dynamics.cache_skips", "count", "higher"),
    ("dynamics.cache_rebuilds", "count", "lower"),
    ("dynamics.skip_frac", "fraction", "higher"),
    ("dynamics.self_s", "s", "lower"),
    ("dynamics.measure_s", "s", "lower"),
    ("scale.rounds", "count", "lower"),
    ("scale.dirty", "count", "lower"),
    ("scale.proposals", "count", "lower"),
    ("scale.applied", "count", "higher"),
    ("scale.conflicts", "count", "lower"),
    ("scale.applied_frac", "fraction", "higher"),
    ("scale.respond_per_applied", "calls/move", "lower"),
    ("scale.round1_s", "s", "lower"),
    ("scale.ball_s", "s", "lower"),
    ("scale.respond_s", "s", "lower"),
    ("scale.respond_us_p50", "us", "lower"),
    ("scale.respond_us_p99", "us", "lower"),
    ("scale.apply_s", "s", "lower"),
    ("scale.resolve_s", "s", "lower"),
    ("experiments.serial_s", "s", "lower"),
    ("experiments.parallel_eff", "fraction", "higher"),
    ("experiments.trace_overhead_s", "s", "lower"),
    ("experiments.cell_ms_p50", "ms", "lower"),
    ("experiments.cell_ms_p90", "ms", "lower"),
    ("experiments.journal_bytes", "bytes", "lower"),
    ("experiments.converged_frac", "fraction", "higher"),
    ("experiments.failed_frac", "fraction", "lower"),
)

class Metric:
    """One reported value; `base` says what a ratio was divided by."""

    def __init__(self, value, unit, base=None):
        self.value = value
        self.unit = unit
        self.base = base

    def line(self, name):
        text = f"{name} {self.value} {self.unit}"
        return f"{text} ({self.base})" if self.base else text


def ratio(num, num_label, den, den_label, unit="fraction"):
    """`num / den` as a Metric that carries its base; 0 when `den` is 0."""
    value = num / den if den else 0.0
    return Metric(value, unit, f"= {num_label} {num:.10g} / {den_label} {den:.10g}")


def percentile(values, p):
    """Nearest-rank percentile `p` (a string or number in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(Fraction(str(p)) * len(ordered) / 100))
    return ordered[rank - 1]


def beyond(n, p):
    """How many of `n` samples lie beyond the nearest-rank percentile `p`."""
    return n - max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(values):
    """The highest ladder percentile with at least ten samples beyond it,
    as `(p, value)`; `None` when even the median has fewer."""
    supported = [p for p in TAIL_LADDER if beyond(len(values), p) >= 10]
    if not supported:
        return None
    return supported[-1], percentile(values, supported[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def draw_seeds(seed, count):
    """A run's input draws: `seed` itself, then SplitMix64 outputs
    seeded by it, so runs at nearby seeds share no draws."""
    mask = (1 << 64) - 1
    draws, state = [seed], seed
    while len(draws) < count:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        draws.append(z ^ (z >> 31))
    return draws


class Span:
    __slots__ = ("id", "parent", "name", "start", "end")

    def __init__(self, sid, parent, name, start, end):
        self.id, self.parent, self.name, self.start, self.end = sid, parent, name, start, end

    @property
    def seconds(self):
        return (self.end - self.start) * 1e-9


def parse_spans(lines):
    """Spans from the TSV lines `ncg-perfbench trace` writes."""
    spans = []
    for line in lines:
        sid, parent, name, start, end = line.rstrip("\n").split("\t")
        parent = int(parent)
        spans.append(Span(int(sid), None if parent < 0 else parent, name, int(start), int(end)))
    return spans


def self_seconds(span, children):
    """The span's duration minus the part of it its children cover
    (overlapping children count once; parts outside the span not at all)."""
    covered = 0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        start, end = max(child.start, reach), min(child.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return (span.end - span.start - covered) * 1e-9


class Trace:
    """Spans of one traced pass, indexed by name and parent."""

    def __init__(self, spans):
        self.spans = spans
        self.children = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def seconds(self, name):
        return sum(s.seconds for s in self.named(name))


def layer_metrics(trace, counters, serial, nproc_wall_s, threads, nproc_pass):
    """Every per-layer metric, in PER_LAYER order, as name -> Metric.

    `trace` holds the traced pass's spans and `counters` its report;
    `serial` is the untraced single-thread pass report, `nproc_pass` one
    untraced pass on `threads` workers and `nproc_wall_s` their median
    wall time.
    """
    exact, scale = counters["exact"], counters["scale"]
    m = {}
    roots = [s for s in trace.named("pass") if s.parent is None]
    pass_s = sum(s.seconds for s in roots)

    solver_us = [s.seconds * 1e6 for s in trace.named("solver")]
    calls = exact["solver_calls"]
    busy_s = sum(solver_us) * 1e-6
    m["solver.calls"] = Metric(len(solver_us), "count")
    m["solver.busy_s"] = Metric(busy_s, "s")
    m["solver.share"] = ratio(busy_s, "solver.busy_s", pass_s, "traced pass s")
    m["solver.call_us_p50"] = Metric(percentile(solver_us, 50), "us")
    m["solver.call_us_p99"] = Metric(percentile(solver_us, 99), "us")
    m["solver.improving_frac"] = ratio(exact["improving"], "improving calls", calls, "calls")
    m["solver.view_mean"] = ratio(exact["view_nodes"], "view nodes", calls, "calls", unit="nodes")

    cells = trace.named("cell")
    skips = exact["cache_skips"]
    m["dynamics.rounds"] = Metric(exact["rounds"], "count")
    m["dynamics.moves"] = Metric(exact["moves"], "count")
    m["dynamics.cache_skips"] = Metric(skips, "count")
    m["dynamics.cache_rebuilds"] = Metric(exact["cache_rebuilds"], "count")
    m["dynamics.skip_frac"] = ratio(skips, "skipped turns", skips + calls, "player turns")
    exact_cells = cells if exact["cells"] else []
    self_s = sum(self_seconds(c, trace.children.get(c.id, [])) for c in exact_cells)
    m["dynamics.self_s"] = Metric(self_s, "s")
    m["dynamics.measure_s"] = Metric(trace.seconds("measure"), "s")

    m["scale.rounds"] = Metric(scale["rounds"], "count")
    m["scale.dirty"] = Metric(scale["dirty"], "count")
    m["scale.proposals"] = Metric(scale["proposals"], "count")
    m["scale.applied"] = Metric(scale["applied"], "count")
    m["scale.conflicts"] = Metric(scale["conflicts"], "count")
    m["scale.applied_frac"] = ratio(
        scale["applied"], "applied", scale["proposals"], "proposals")
    m["scale.respond_per_applied"] = ratio(
        scale["dirty"], "respond calls", scale["applied"], "applied moves", unit="calls/move")
    decomposed = len(trace.named("round1"))
    per_round = {
        name: trace.seconds(name) / decomposed if decomposed else 0.0
        for name in ("round", "ball", "respond", "apply")
    }
    respond_us = [s.seconds * 1e6 for s in trace.named("respond")]
    m["scale.round1_s"] = Metric(per_round["round"], "s")
    m["scale.ball_s"] = Metric(per_round["ball"], "s")
    m["scale.respond_s"] = Metric(per_round["respond"], "s")
    m["scale.respond_us_p50"] = Metric(percentile(respond_us, 50), "us")
    m["scale.respond_us_p99"] = Metric(percentile(respond_us, 99), "us")
    m["scale.apply_s"] = Metric(per_round["apply"], "s")
    resolve_s = per_round["round"] - per_round["ball"] - per_round["respond"] - per_round["apply"]
    m["scale.resolve_s"] = Metric(resolve_s, "s")

    cell_ms = [c.seconds * 1e3 for c in cells]
    journal = nproc_pass["journal"]
    m["experiments.serial_s"] = Metric(serial["wall_s"], "s")
    m["experiments.parallel_eff"] = ratio(
        serial["wall_s"], "serial_s", threads * nproc_wall_s, f"{threads} threads x wall_s")
    m["experiments.trace_overhead_s"] = Metric(pass_s - serial["wall_s"], "s")
    m["experiments.cell_ms_p50"] = Metric(percentile(cell_ms, 50), "ms")
    m["experiments.cell_ms_p90"] = Metric(percentile(cell_ms, 90), "ms")
    m["experiments.journal_bytes"] = Metric(journal["bytes"], "bytes")
    m["experiments.converged_frac"] = ratio(
        journal["converged"], "converged cells", journal["cells"], "cells")
    m["experiments.failed_frac"] = ratio(
        journal["failed"], "CellFailed cells", journal["cells"], "cells attempted")
    return {name: m[name] for name, _, _ in PER_LAYER}
