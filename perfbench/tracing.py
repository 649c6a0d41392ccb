"""Layer spans recorded from outside the couplemap package.

`Tracer.install()` replaces each public function named in `SPANS`, in every
loaded ``couplemap`` module namespace that holds a reference to it, with a
wrapper that records one span: name, start, end, parent and thread. Every
namespace matters because modules call each other through their globals
(`couplemap.ensemble.measure_all` and `couplemap.metrics.path_stats` are what
`run_fgn_ensemble` and `measure_all` actually look up). `uninstall()` puts the
originals back. Spans stay in memory until `dump()` writes them as JSON lines.

A span's parent is the innermost open span on its own thread or, on a thread
with no open span (a pool worker), the innermost open span of the thread that
installed the tracer. Self time is a span's duration minus the union of the
intervals its children cover, so a pool span's self time is the time in which
no worker was inside a traced call.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _count_network(counts, args, result):
    a = np.asarray(args[0].weights) > 0
    counts["metrics.networks"] += 1
    counts["metrics.edges"] += int(a.sum() - np.trace(a))


def _count_draw(counts, args, result):
    counts["synth.draws"] += 1


def _count_written(counts, args, result):
    counts["netmap.bytes_written"] += os.path.getsize(args[1])


def _count_rows(counts, args, result):
    counts["series.rows_parsed"] += len(result)


# (module, public function, span name, count hook or None)
SPANS = (
    ("couplemap.metrics", "measure_all", "metrics.measure_all", _count_network),
    ("couplemap.metrics", "degree_stats", "metrics.degree", None),
    ("couplemap.metrics", "clustering_stats", "metrics.clustering", None),
    ("couplemap.metrics", "deformation_ratio", "metrics.deformation", None),
    ("couplemap.metrics", "path_stats", "metrics.paths", None),
    ("couplemap.metrics", "assortativity_stats", "metrics.assortativity", None),
    ("couplemap.metrics", "detect_communities", "metrics.communities", None),
    ("couplemap.metrics", "modularity_stats", "metrics.modularity", None),
    ("couplemap.synth", "generate_fgn", "synth.generate_fgn", _count_draw),
    ("couplemap.synth", "surrogate", "synth.surrogate", _count_draw),
    ("couplemap.netmap", "map_pair", "netmap.map", None),
    ("couplemap.netmap", "map_lagged", "netmap.map", None),
    ("couplemap.netmap", "write_adjacency_tsv", "netmap.write", _count_written),
    ("couplemap.netmap", "write_edge_list_csv", "netmap.write", _count_written),
    ("couplemap.netmap", "write_joint_tsv", "netmap.write", _count_written),
    ("couplemap.series", "load_csv", "series.load_csv", _count_rows),
    ("couplemap.series", "align_pair", "series.align", None),
    ("couplemap.series", "prepare", "series.prepare", None),
    ("couplemap.ensemble", "run_fgn_ensemble", "ensemble.run", None),
    ("couplemap.ensemble", "run_surrogate_pair", "ensemble.run", None),
    ("couplemap.ensemble", "confidence_interval", "ensemble.confidence_interval", None),
    ("couplemap.ensemble", "write_summary_csv", "ensemble.summary_io", None),
    ("couplemap.ensemble", "read_summary_csv", "ensemble.summary_io", None),
    ("couplemap.cli", "main", "cli.main", None),
)

# Per-layer metric -> span whose self time it reports, in milliseconds.
SELF_TIME_METRICS = {
    "metrics.measure_all_ms": "metrics.measure_all",
    "metrics.degree_ms": "metrics.degree",
    "metrics.clustering_ms": "metrics.clustering",
    "metrics.deformation_ms": "metrics.deformation",
    "metrics.paths_ms": "metrics.paths",
    "metrics.assortativity_ms": "metrics.assortativity",
    "metrics.communities_ms": "metrics.communities",
    "metrics.modularity_ms": "metrics.modularity",
    "synth.generate_fgn_ms": "synth.generate_fgn",
    "synth.surrogate_ms": "synth.surrogate",
    "netmap.map_ms": "netmap.map",
    "netmap.write_ms": "netmap.write",
    "series.load_csv_ms": "series.load_csv",
    "series.align_ms": "series.align",
    "series.prepare_ms": "series.prepare",
    "ensemble.self_ms": "ensemble.run",
    "ensemble.confidence_interval_ms": "ensemble.confidence_interval",
    "ensemble.summary_io_ms": "ensemble.summary_io",
    "cli.self_ms": "cli.main",
}
COUNT_METRICS = (
    "metrics.networks",
    "metrics.edges",
    "synth.draws",
    "netmap.bytes_written",
    "series.rows_parsed",
)


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class Tracer:
    """Wraps the package's public functions while installed; see module doc."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1, thread id)
        self.counts = Counter()
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._saved = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, count):
        spans, counts, main_stack = self.spans, self.counts, self._main_stack
        lock = self._count_lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else -1
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident()))
            if count is not None:
                with lock:
                    count(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "couplemap" or key.startswith("couplemap."))
        ]
        for module_name, attr, name, count in SPANS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._saved.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()

    def self_times(self) -> dict:
        """Span name -> summed self time in seconds."""
        children = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            children[parent].append((start, end))
        totals = Counter()
        for sid, name, start, end, _, _ in self.spans:
            covered = _union_length(
                (max(lo, start), min(hi, end))
                for lo, hi in children.get(sid, ())
                if hi > start and lo < end
            )
            totals[name] += (end - start) - covered
        return totals

    def layer_metrics(self, operations: int) -> dict:
        """Every per-layer metric, per operation."""
        selfs = self.self_times()
        out = {
            metric: (1e3 * selfs.get(span, 0.0) / operations, "ms")
            for metric, span in SELF_TIME_METRICS.items()
        }
        for metric in COUNT_METRICS:
            out[metric] = (self.counts.get(metric, 0) / operations, "count")
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread in self.spans:
                record = {
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "thread": thread,
                }
                fh.write(json.dumps(record) + "\n")
