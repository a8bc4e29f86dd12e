"""Per-layer tracing of decg, installed from outside the package.

`Tracer.install()` rebinds public decg functions in the module namespaces
their callers look them up in (`decg.cli.read_decg`, `decg.colorer.fnv1a64`,
`decg.cliques.max_clique`, ...).  Each wrapped call records a span
(name, start, end, parent) and bumps counters; hot functions are counted
without a span.  Spans stay in memory until `dump()` hands them over once.

Nothing under src/ knows about this module: a traced child process imports
decg, installs the hooks and then calls `decg.cli.main` or the library
entry point exactly as an untraced one would.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        parent = self._open[-1] if self._open else -1
        span = [name, time.perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
            self.counts[name + "_calls"] += 1

    def install(self) -> None:
        for module_name, attr, make in HOOKS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            setattr(owner, leaf, functools.wraps(original)(make(self, original)))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(sorted(self.counts.items()))}


# --- hooks -------------------------------------------------------------------


def _span(name, count=None):
    """Wrap in a span; `count(counts, args, result)` runs after the call."""

    def make(tracer, fn):
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    return make


def _counted(name, count=None):
    """Count calls without a span, for functions too hot or too small to time."""

    def make(tracer, fn):
        def wrapper(*args, **kwargs):
            tracer.counts[name + "_calls"] += 1
            if count is not None:
                count(tracer.counts, args)
            return fn(*args, **kwargs)

        return wrapper

    return make


def _greedy(tracer, fn):
    # Counts points as the greedy pass pulls them, so kept_ratio is measured
    # against what was streamed, whatever the stream's length.
    def wrapper(system, points, *rest, **kwargs):
        def streamed():
            for p in points:
                tracer.counts["sepset.points_streamed"] += 1
                yield p

        result = tracer.call("sepset.greedy_separated", fn, (system, streamed(), *rest), kwargs)
        tracer.counts["sepset.points_kept"] += len(result.points)
        return result

    return wrapper


def _hashed(prefix):
    def count(counts, args, result=None):
        counts[prefix + "_bytes"] += len(args[0])

    return count


def _dumped(counts, args, result):
    counts["colorer.decg_bytes"] += len(result.encode("utf-8"))


def _parsed(counts, args, result):
    source = args[0]
    counts["colorer.decg_bytes"] += len(source) if isinstance(source, bytes) else os.path.getsize(source)


def _revalidated(counts, args, result):
    graph = args[0]
    counts["cliques.edges_revalidated"] += (
        graph.edge_count if result is None else graph.edge_index(result[0], result[1]) + 1
    )


def _recovered(counts, args, result):
    counts["metric.pairs_checked"] += result.pairs_checked
    counts["metric.pairs_skipped"] += result.skipped


# (module, attribute, wrapper factory).  Names the CLI imported into its own
# namespace are rebound there, because that is where cmd_* looks them up.
HOOKS = (
    ("decg.cli", "main", _span("cli.main")),
    ("decg.cli", "fnv1a64", _counted("cli.fnv1a64", _hashed("cli.fnv1a64"))),
    ("decg.cli", "greedy_separated", _greedy),
    ("decg.cli", "color_graph", _span("colorer.color_graph")),
    ("decg.cli", "decg_dumps", _span("colorer.decg_dumps", _dumped)),
    ("decg.cli", "read_decg", _span("colorer.read_decg", _parsed)),
    ("decg.colorer", "fnv1a64", _span("colorer.fnv1a64", _hashed("colorer.fnv1a64"))),
    ("decg.cli", "revalidate_edges", _span("cliques.revalidate_edges", _revalidated)),
    ("decg.cli", "mono_clique_report", _span("cliques.mono_clique_report")),
    ("decg.cliques", "color_classes", _span("cliques.color_classes")),
    ("decg.cliques", "max_clique", _span("cliques.max_clique")),
    ("decg.cli", "opposite_ramsey_exact", _span("ramsey.opposite_ramsey_exact")),
    ("decg.metric", "verify_recovery", _span("metric.verify_recovery", _recovered)),
    ("decg.action", "ShiftSystem.distance_at_least", _counted("action.distance_at_least")),
)


# --- derived metrics -----------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start  # children are merged so overlaps are not counted twice
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


# (per-layer metric, unit).  Span totals end in _s, self times in _self_s.
PER_LAYER = (
    ("action.distance_at_least_calls", "count"),
    ("sepset.greedy_separated_s", "s"),
    ("sepset.kept_ratio", "ratio"),
    ("colorer.color_graph_s", "s"),
    ("colorer.decg_dumps_s", "s"),
    ("colorer.decg_dumps_self_s", "s"),
    ("colorer.read_decg_s", "s"),
    ("colorer.read_decg_self_s", "s"),
    ("colorer.fnv1a64_s", "s"),
    ("colorer.fnv1a64_calls", "count"),
    ("colorer.fnv1a64_bytes", "B"),
    ("colorer.decg_bytes", "B"),
    ("cliques.revalidate_edges_s", "s"),
    ("cliques.edges_revalidated", "count"),
    ("cliques.color_classes_s", "s"),
    ("cliques.max_clique_s", "s"),
    ("cliques.max_clique_max_s", "s"),
    ("cliques.max_clique_calls", "count"),
    ("cliques.mono_clique_report_s", "s"),
    ("cliques.mono_clique_report_self_s", "s"),
    ("ramsey.opposite_ramsey_exact_s", "s"),
    ("metric.verify_recovery_s", "s"),
    ("metric.pairs_checked", "count"),
    ("metric.pairs_skipped", "count"),
    ("cli.self_s", "s"),
    ("cli.fnv1a64_calls", "count"),
    ("cli.fnv1a64_bytes", "B"),
)

# Counters that a deterministic program must repeat exactly from run to run.
COUNTERS = tuple(name for name, unit in PER_LAYER if unit in ("count", "B"))


def summarize(traces) -> dict[str, float]:
    """Per-layer metrics of one workload iteration from its commands' traces."""
    totals: Counter = Counter()
    selfs: Counter = Counter()
    slowest: dict[str, float] = {}
    counts: Counter = Counter()
    for trace in traces:
        spans = trace["spans"]
        counts.update(trace["counts"])
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            totals[name] += end - start
            selfs[name] += own
            slowest[name] = max(slowest.get(name, 0.0), end - start)
    out = {}
    for metric, unit in PER_LAYER:
        if metric.endswith("_self_s"):
            out[metric] = selfs[metric[: -len("_self_s")]]
        elif metric == "cli.self_s":
            out[metric] = selfs["cli.main"]
        elif metric == "cliques.max_clique_max_s":
            out[metric] = slowest.get("cliques.max_clique", 0.0)
        elif metric == "sepset.kept_ratio":
            streamed = counts["sepset.points_streamed"]
            out[metric] = counts["sepset.points_kept"] / streamed if streamed else 0.0
        elif unit == "s":
            out[metric] = totals[metric[: -len("_s")]]
        else:
            out[metric] = counts[metric]
    return out
