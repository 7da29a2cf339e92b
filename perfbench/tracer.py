"""Spans around the public functions of each layer, kept in memory.

The traced run wraps the methods listed in :data:`TARGETS` (a layer
name, a module, a class and method names) with a timer that records a
span per call: its name, layer, duration and the time its direct child
spans covered.  A span's *self time* is its duration minus that covered
time, so a layer's self time is the part of its calls not spent in
other traced calls.  Spans are aggregated per name in memory (a run
makes millions of kernel calls) and written out as JSON when asked;
the spans listed in :data:`SAMPLED` also keep every duration, with its
end time, for percentiles.

Nothing inside ``src/`` is changed: wrapping is done from outside by
replacing class attributes, in-process (:meth:`Tracer.install`) or in a
served subprocess through ``perfbench/hook/sitecustomize.py``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time

#: (layer, module, class, methods) — each method becomes one span name.
TARGETS = (
    ("search", "repro.sgtree.tree", "SGTree",
     ("nearest", "range_query", "batch_nearest", "batch_range_query")),
    ("storage", "repro.sgtree.node", "NodeStore", ("read",)),
    ("wal", "repro.sgtree.node", "NodeStore", ("commit",)),
    ("kernel", "repro.core.distance", "HammingMetric",
     ("distance", "distance_many", "lower_bound", "lower_bound_many",
      "distance_matrix", "lower_bound_matrix",
      "distance_matrix_from_counts", "lower_bound_matrix_from_counts")),
    ("kernel", "repro.core.ckernel", "HammingFilter", ("__call__",)),
    ("kernel", "repro.core.ckernel", "MultiHammingFilter", ("__call__",)),
    ("shard", "repro.server.shard", "ShardHandle", ("call",)),
)

#: Spans whose individual durations are kept (``(end, seconds)`` pairs).
SAMPLED = frozenset({"ShardHandle.call", "NodeStore.commit"})
_MAX_SAMPLES = 200_000


def _row(layer: str) -> list:
    """``[layer, calls, entries, total_s, self_s, entry_s]`` of one span name.

    ``entries`` counts calls made from outside the span's layer and
    ``entry_s`` sums their durations, so a layer's wall time is the sum
    of its ``entry_s`` with nested same-layer calls counted once.
    """
    return [layer, 0, 0, 0.0, 0.0, 0.0]


def _add(row: list, other: list) -> None:
    for i in range(1, 6):
        row[i] += other[i]


class _ThreadAgg:
    __slots__ = ("stack", "spans", "samples")

    def __init__(self) -> None:
        self.stack: list[list] = []   # [layer, child_seconds] per open span
        self.spans: dict[str, list] = {}   # name -> _row()
        self.samples: dict[str, list] = {}


class Tracer:
    """Aggregates spans recorded by wrapped functions, per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadAgg] = []
        self._lock = threading.Lock()
        self._originals: list[tuple[type, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _agg(self) -> _ThreadAgg:
        agg = getattr(self._local, "agg", None)
        if agg is None:
            agg = self._local.agg = _ThreadAgg()
            with self._lock:
                self._threads.append(agg)
        return agg

    def span(self, name: str, layer: str, fn):
        """``fn`` wrapped so every call records one span."""
        tracer = self
        perf = time.perf_counter
        sampled = name in SAMPLED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            agg = tracer._agg()
            stack = agg.stack
            frame = [layer, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer._record(agg, name, layer, end - start, frame[1],
                               parent, end if sampled else None)

        return traced

    def _record(self, agg: _ThreadAgg, name: str, layer: str, seconds: float,
                child_seconds: float, parent: "list | None",
                end: "float | None") -> None:
        if parent is not None:
            parent[1] += seconds
        row = agg.spans.get(name)
        if row is None:
            row = agg.spans[name] = _row(layer)
        row[1] += 1
        if parent is None or parent[0] != layer:
            row[2] += 1
            row[5] += seconds
        row[3] += seconds
        row[4] += seconds - child_seconds
        if end is not None:
            samples = agg.samples.setdefault(name, [])
            if len(samples) < _MAX_SAMPLES:
                samples.append((end, seconds))

    # -- install / remove -------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every :data:`TARGETS` method (idempotent per tracer)."""
        if self._originals:
            return self
        for layer, module_name, class_name, methods in TARGETS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                original = cls.__dict__.get(method, getattr(cls, method))
                self._originals.append((cls, method, cls.__dict__.get(method)))
                setattr(cls, method, self.span(f"{class_name}.{method}", layer, original))
        return self

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._originals):
            if original is None:
                delattr(cls, method)
            else:
                setattr(cls, method, original)
        self._originals.clear()

    def reset(self) -> None:
        """Forget every span (a forked child starts from zero)."""
        self._local = threading.local()
        with self._lock:
            self._threads = []

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates summed over threads: ``{"spans": ..., "samples": ...}``."""
        spans: dict[str, list] = {}
        samples: dict[str, list] = {}
        with self._lock:
            threads = list(self._threads)
        for agg in threads:
            for name, row in list(agg.spans.items()):
                _add(spans.setdefault(name, _row(row[0])), row)
            for name, values in list(agg.samples.items()):
                samples.setdefault(name, []).extend(list(values))
        return {"spans": spans, "samples": samples}

    def write(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


# -- reading ----------------------------------------------------------------

def merge(snapshots: "list[dict]") -> dict:
    """Sum several snapshots (one per process)."""
    spans: dict[str, list] = {}
    samples: dict[str, list] = {}
    for snap in snapshots:
        for name, row in snap["spans"].items():
            _add(spans.setdefault(name, _row(row[0])), row)
        for name, values in snap["samples"].items():
            samples.setdefault(name, []).extend(values)
    return {"spans": spans, "samples": samples}


def diff(after: dict, before: dict) -> dict:
    """Span aggregates recorded between two snapshots of the same processes."""
    spans = {}
    for name, row in after["spans"].items():
        old = before["spans"].get(name, _row(row[0]))
        spans[name] = [row[0]] + [row[i] - old[i] for i in range(1, 6)]
    return {"spans": spans, "samples": after["samples"]}


def layer_totals(snap: dict) -> "dict[str, dict[str, float]]":
    """Per layer: ``calls``, ``entries``, ``self_s`` and ``wall_s``.

    ``self_s`` is time inside the layer and not inside another traced
    span; ``wall_s`` is the duration of the layer's entry spans.
    """
    layers: dict[str, dict[str, float]] = {}
    for layer, calls, entries, _total, self_s, entry_s in snap["spans"].values():
        row = layers.setdefault(layer, {"calls": 0, "entries": 0, "self_s": 0.0, "wall_s": 0.0})
        row["calls"] += calls
        row["entries"] += entries
        row["self_s"] += self_s
        row["wall_s"] += entry_s
    return layers


def window_samples(snap: dict, name: str, start: float, end: float) -> "list[float]":
    """Durations (s) of ``name`` spans that ended inside ``[start, end]``."""
    return [seconds for stamp, seconds in snap["samples"].get(name, [])
            if start <= stamp <= end]


def layer_metrics(snap: dict, n_queries: int, start: float, end: float) -> dict:
    """The span-derived per-layer metrics of a traced window."""
    layers = layer_totals(snap)
    empty = {"calls": 0, "entries": 0, "self_s": 0.0, "wall_s": 0.0}
    search, storage, kernel = (layers.get(x, empty) for x in ("search", "storage", "kernel"))
    rpc = window_samples(snap, "ShardHandle.call", start, end)
    commits = window_samples(snap, "NodeStore.commit", start, end)
    per_query = 1e3 / n_queries if n_queries else 0.0
    return {
        "search.self_ms_per_query": search["self_s"] * per_query,
        "storage.read_ms_per_query": storage["wall_s"] * per_query,
        "kernel.calls_per_query": kernel["entries"] * per_query / 1e3,
        "kernel.ms_per_query": kernel["self_s"] * per_query,
        "shard.rpc_ms_p50": _median_ms(rpc),
        "wal.commit_ms_p50": _median_ms(commits),
    }


def _median_ms(seconds: "list[float]") -> float:
    ordered = sorted(seconds)
    return ordered[(len(ordered) - 1) // 2] * 1e3 if ordered else 0.0


def read_dir(path: str) -> dict:
    """Merge the per-process snapshot files a hooked server wrote."""
    snapshots = []
    for entry in sorted(os.listdir(path)):
        if entry.endswith(".json"):
            try:
                with open(os.path.join(path, entry), encoding="utf-8") as handle:
                    snapshots.append(json.load(handle))
            except (OSError, ValueError):
                continue  # a file being replaced right now; the next read has it
    return merge(snapshots) if snapshots else {"spans": {}, "samples": {}}
