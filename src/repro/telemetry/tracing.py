"""Span-based query tracing and the EXPLAIN tree renderer.

A :class:`Tracer` rides along a traversal and records one
:class:`VisitSpan` per node access: page id, level, fan-out, whether the
buffer served the access, decode wall time, the k-NN threshold on entry
and exit, and — for directory nodes — every entry's lower bound together
with the pruned-vs-descended decision made at that moment.  The spans
reconstruct *why* branch-and-bound visited what it visited, which turns
pruning-quality regressions from guesswork into a diff of two traces.

The invariant the CLI enforces (and the tests assert): the trace is
**complete** — ``len(spans)`` equals the ``SearchStats.node_accesses``
delta of the traced query, and every span beyond the root is the child
of exactly one ``descended`` entry decision.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

__all__ = [
    "EntryDecision",
    "VisitSpan",
    "Tracer",
    "ExplainReport",
    "TraceSpan",
    "TraceContext",
    "RequestTrace",
    "TraceSampler",
    "TraceStore",
    "JsonlTraceSink",
    "RequestTracing",
    "new_trace_id",
    "sanitize_request_id",
]


@dataclass
class EntryDecision:
    """One directory entry's fate during a node visit."""

    ref: int
    bound: float
    action: str  # "descended" | "pruned"
    threshold: float  # pruning threshold at decision time

    def to_dict(self) -> dict:
        return {
            "ref": self.ref,
            "bound": _json_float(self.bound),
            "action": self.action,
            "threshold": _json_float(self.threshold),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "EntryDecision":
        return cls(
            ref=int(doc["ref"]),
            bound=_parse_float(doc["bound"]),
            action=doc["action"],
            threshold=_parse_float(doc["threshold"]),
        )


@dataclass
class VisitSpan:
    """One node access, with everything the visit decided."""

    index: int
    parent: int | None
    page_id: int
    level: int
    is_leaf: bool
    fanout: int
    buffer_hit: bool
    decode_seconds: float
    threshold_in: float
    threshold_out: float = math.inf
    entries: list[EntryDecision] = field(default_factory=list)
    n_compared: int = 0  # leaf transactions compared
    n_admitted: int = 0  # leaf candidates that entered the result

    @property
    def n_descended(self) -> int:
        return sum(1 for e in self.entries if e.action == "descended")

    @property
    def n_pruned(self) -> int:
        return sum(1 for e in self.entries if e.action == "pruned")

    def to_dict(self) -> dict:
        return {
            "span": self.index,
            "parent": self.parent,
            "page_id": self.page_id,
            "level": self.level,
            "is_leaf": self.is_leaf,
            "fanout": self.fanout,
            "buffer_hit": self.buffer_hit,
            "decode_seconds": self.decode_seconds,
            "threshold_in": _json_float(self.threshold_in),
            "threshold_out": _json_float(self.threshold_out),
            "entries": [e.to_dict() for e in self.entries],
            "n_descended": self.n_descended,
            "n_pruned": self.n_pruned,
            "n_compared": self.n_compared,
            "n_admitted": self.n_admitted,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "VisitSpan":
        """Rebuild a span from its :meth:`to_dict` form.

        This is how per-shard span trees shipped across the worker wire
        protocol come back to life on the coordinator (and in the
        ``repro-sgtree trace`` pretty-printer).
        """
        span = cls(
            index=int(doc["span"]),
            parent=None if doc.get("parent") is None else int(doc["parent"]),
            page_id=int(doc["page_id"]),
            level=int(doc["level"]),
            is_leaf=bool(doc["is_leaf"]),
            fanout=int(doc["fanout"]),
            buffer_hit=bool(doc["buffer_hit"]),
            decode_seconds=float(doc["decode_seconds"]),
            threshold_in=_parse_float(doc["threshold_in"]),
            threshold_out=_parse_float(doc.get("threshold_out", "inf")),
            entries=[EntryDecision.from_dict(e) for e in doc.get("entries", [])],
            n_compared=int(doc.get("n_compared", 0)),
            n_admitted=int(doc.get("n_admitted", 0)),
        )
        return span


def _json_float(value: float) -> "float | str":
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        return "nan"
    return value


def _parse_float(value: "float | str") -> float:
    if isinstance(value, str):
        return {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}[value]
    return float(value)


def _fmt_bound(value: float) -> str:
    if math.isinf(value):
        return "inf"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.3f}"


class Tracer:
    """Record visit spans for one traced query.

    The traversal calls :meth:`visit` instead of ``store.read`` — the
    tracer performs (and times) the fetch itself so the span's buffer
    hit/miss and decode time describe exactly that access — then reports
    decisions through :meth:`decide`/:meth:`leaf` and closes the span
    with :meth:`finish`.
    """

    def __init__(self):
        self.spans: list[VisitSpan] = []

    def visit(self, store, page_id: int, parent: "VisitSpan | None",
              threshold: float = math.inf) -> tuple:
        """Fetch ``page_id`` through the store, opening a span.

        Returns ``(span, node)``.  Buffer hit/miss is read off the
        store's own random-I/O counter delta, so the span agrees with
        :class:`~repro.sgtree.search.SearchStats` by construction.
        """
        ios_before = store.counters.random_ios
        start = time.perf_counter()
        node = store.read(page_id)
        elapsed = time.perf_counter() - start
        span = VisitSpan(
            index=len(self.spans),
            parent=parent.index if parent is not None else None,
            page_id=page_id,
            level=node.level,
            is_leaf=node.is_leaf,
            fanout=len(node),
            buffer_hit=store.counters.random_ios == ios_before,
            decode_seconds=elapsed,
            threshold_in=threshold,
        )
        self.spans.append(span)
        return span, node

    def decide(self, span: VisitSpan, ref: int, bound: float, action: str,
               threshold: float = math.inf) -> None:
        """Record one directory entry's pruned/descended decision."""
        span.entries.append(EntryDecision(ref, float(bound), action, threshold))

    def leaf(self, span: VisitSpan, n_compared: int, n_admitted: int) -> None:
        """Record a leaf sweep: candidates compared and admitted."""
        span.n_compared += n_compared
        span.n_admitted += n_admitted

    def finish(self, span: VisitSpan, threshold: float = math.inf) -> None:
        span.threshold_out = threshold

    # -- derived views ------------------------------------------------------

    @property
    def node_accesses(self) -> int:
        return len(self.spans)

    @property
    def n_descended(self) -> int:
        return sum(span.n_descended for span in self.spans)

    @property
    def n_pruned(self) -> int:
        return sum(span.n_pruned for span in self.spans)

    @property
    def buffer_hits(self) -> int:
        return sum(1 for span in self.spans if span.buffer_hit)

    def reconciles(self, stats) -> bool:
        """Does the trace account for the stats exactly?

        A complete trace satisfies both identities: spans == node
        accesses, and every non-root span is the unique child of one
        ``descended`` decision (so descended + 1 == spans).
        """
        return (
            len(self.spans) == stats.node_accesses
            and self.n_descended + 1 == len(self.spans)
            and self.buffer_hits == stats.buffer_hits
        )

    def to_jsonl(self) -> str:
        """One JSON object per span, in visit order."""
        return "".join(
            json.dumps(span.to_dict(), sort_keys=True) + "\n"
            for span in self.spans
        )

    def render(self, max_entries: int = 8) -> str:
        """The EXPLAIN tree: spans indented under their parent span.

        Directory spans list up to ``max_entries`` per-entry decisions
        (descended first, then the cheapest pruned ones); leaf spans
        summarise the sweep.  Pass ``max_entries=0`` for every entry.
        """
        children: dict[int | None, list[VisitSpan]] = {}
        for span in self.spans:
            children.setdefault(span.parent, []).append(span)
        lines: list[str] = []

        def emit(span: VisitSpan, depth: int) -> None:
            indent = "  " * depth
            io = "hit" if span.buffer_hit else "MISS"
            head = (
                f"{indent}#{span.index} node page={span.page_id} "
                f"level={span.level} fanout={span.fanout} buffer={io} "
                f"decode={span.decode_seconds * 1e6:.0f}us"
            )
            if not math.isinf(span.threshold_in):
                head += f" tau_in={_fmt_bound(span.threshold_in)}"
            if not math.isinf(span.threshold_out):
                head += f" tau_out={_fmt_bound(span.threshold_out)}"
            lines.append(head)
            if span.is_leaf:
                lines.append(
                    f"{indent}  leaf: compared={span.n_compared} "
                    f"admitted={span.n_admitted}"
                )
                return
            shown = span.entries
            if max_entries and len(shown) > max_entries:
                descended = [e for e in shown if e.action == "descended"]
                pruned = sorted(
                    (e for e in shown if e.action == "pruned"),
                    key=lambda e: e.bound,
                )
                shown = (descended + pruned)[:max_entries]
            for entry in shown:
                mark = "->" if entry.action == "descended" else " x"
                lines.append(
                    f"{indent}  {mark} entry ref={entry.ref} "
                    f"bound={_fmt_bound(entry.bound)} {entry.action} "
                    f"(tau={_fmt_bound(entry.threshold)})"
                )
            hidden = len(span.entries) - len(shown)
            if hidden > 0:
                lines.append(f"{indent}  .. {hidden} more pruned entries")
            for child in children.get(span.index, ()):
                emit(child, depth + 1)

        for root in children.get(None, ()):
            emit(root, 0)
        lines.append(
            f"totals: {len(self.spans)} node accesses "
            f"({self.buffer_hits} buffer hits), "
            f"{self.n_descended} descended, {self.n_pruned} pruned, "
            f"{sum(s.n_compared for s in self.spans)} leaf entries compared"
        )
        return "\n".join(lines)


@dataclass
class ExplainReport:
    """What :meth:`SGTree.explain` returns: results plus the evidence."""

    kind: str
    params: dict
    results: list
    stats: object  # SearchStats (typed loosely; no import cycle)
    tracer: Tracer

    def render(self, max_entries: int = 8) -> str:
        header = ", ".join(f"{k}={v}" for k, v in self.params.items())
        reconciled = self.tracer.reconciles(self.stats)
        lines = [
            f"EXPLAIN {self.kind} ({header})",
            self.tracer.render(max_entries=max_entries),
            f"stats: node_accesses={self.stats.node_accesses} "
            f"random_ios={self.stats.random_ios} "
            f"leaf_entries={self.stats.leaf_entries}",
        ]
        provenance = getattr(self.stats, "bound_provenance", None)
        if provenance is not None:
            # "pilot": an initial seed, not the heap's own k-th
            # distance, was the pruning threshold when the search ended.
            lines.append(f"pruning bound: provenance={provenance}")
        lines.append(
            f"trace reconciles with stats: {'yes' if reconciled else 'NO'}"
        )
        return "\n".join(lines)

    def to_jsonl(self) -> str:
        return self.tracer.to_jsonl()


# ===========================================================================
# Distributed request tracing (serving stack)
#
# Everything above traces ONE traversal against ONE tree.  The classes
# below stitch a whole served request together across processes: the
# request gets a trace id at the HTTP front door, a compact
# ``TraceContext`` travels through the scatter-gather wire protocol, each
# shard worker runs a per-node ``Tracer`` when the request is sampled,
# and the coordinator reassembles one ``RequestTrace`` — admission wait,
# per-shard RPC attempts (retries, breaker refusals), per-node visit
# spans from inside the workers, and merge time — that reconciles
# against the aggregated ``SearchStats`` exactly like a single-tree
# EXPLAIN does.

#: request ids are capped at this many characters (header hygiene).
MAX_TRACE_ID_LEN = 64

_TRACE_ID_RE = re.compile(r"[^A-Za-z0-9._\-]")

#: slack allowed when checking span timing against the request wall time
#: (perf_counter reads on both ends of a span are not atomic).
_SPAN_TIME_SLACK = 1e-3


# Seeded once from the OS; getrandbits on a shared Random is a single C
# call (atomic under the GIL), and it is ~6x cheaper than uuid.uuid4 —
# this runs once per served request, so it sits on the tracing hot path.
_ID_RNG = random.Random(int.from_bytes(os.urandom(8), "big"))


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return "%032x" % _ID_RNG.getrandbits(128)


def sanitize_request_id(value: "str | None") -> str:
    """An inbound ``X-Request-Id`` made safe, or a fresh id.

    Strips characters outside ``[A-Za-z0-9._-]`` and caps the length;
    an empty or absent header yields a generated id, so the caller can
    always echo a non-empty ``X-Request-Id`` back.
    """
    if value is None:
        return new_trace_id()
    cleaned = _TRACE_ID_RE.sub("", value.strip())[:MAX_TRACE_ID_LEN]
    return cleaned if cleaned else new_trace_id()


class TraceContext:
    """The compact trace context that crosses the shard wire protocol.

    Only two facts travel: the trace id (correlation) and whether the
    request is head-sampled (workers run the expensive per-node
    :class:`Tracer` only for sampled requests).
    """

    __slots__ = ("trace_id", "sampled")

    def __init__(self, trace_id: str, sampled: bool = False):
        self.trace_id = trace_id
        self.sampled = bool(sampled)

    def to_wire(self) -> dict:
        return {"trace_id": self.trace_id, "sampled": self.sampled}

    @classmethod
    def from_wire(cls, doc: "dict | None") -> "TraceContext | None":
        if not doc:
            return None
        return cls(str(doc.get("trace_id", "")), bool(doc.get("sampled")))

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id!r}, sampled={self.sampled})"


@dataclass(slots=True)
class TraceSpan:
    """One timed step of a served request (coordinator side).

    ``start`` is seconds since the trace began; ``shard`` scopes the
    span to one shard (RPC attempts, retry backoffs) or ``None`` for
    request-level steps (admission, scatter, merge).
    """

    name: str
    start: float
    duration: float = 0.0
    shard: "int | None" = None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "shard": self.shard,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TraceSpan":
        return cls(
            name=doc["name"],
            start=float(doc["start"]),
            duration=float(doc.get("duration", 0.0)),
            shard=None if doc.get("shard") is None else int(doc["shard"]),
            attrs=dict(doc.get("attrs") or {}),
        )


class _SpanTimer:
    """Context manager timing one :class:`TraceSpan`; appends on exit."""

    __slots__ = ("_trace", "_span")

    def __init__(self, trace: "RequestTrace", span: TraceSpan):
        self._trace = trace
        self._span = span

    def __enter__(self) -> TraceSpan:
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        span = self._span
        span.duration = self._trace.elapsed() - span.start
        self._trace.add(span)


class RequestTrace:
    """One request's cross-process trace, assembled on the coordinator.

    Thread-safe by construction: scatter-pool threads append RPC spans
    and attach per-shard visit-span trees concurrently while the request
    thread records admission/merge spans.  A trace is *always* recorded
    at the coordinator level (a handful of spans per request — cheap);
    only head-sampled requests additionally carry per-node visit spans
    shipped back from the workers.
    """

    def __init__(self, trace_id: str, route: str, sampled: bool = False):
        self.trace_id = trace_id
        self.route = route
        self.sampled = bool(sampled)
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self.spans: "list[TraceSpan]" = []
        #: shard id -> {"spans": [visit-span dicts], "stats": {...},
        #:              "reconciled": bool}
        self.shards: "dict[int, dict]" = {}
        self.code = "200"
        self.error: "str | None" = None
        self.partial = False
        self.coverage: "dict | None" = None
        self.stats: "dict | None" = None
        self.duration = 0.0
        self._finished = False

    # -- recording ---------------------------------------------------------

    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.sampled)

    def elapsed(self) -> float:
        """Seconds since the trace began (span clock)."""
        return time.perf_counter() - self._t0

    def add(self, span: TraceSpan) -> TraceSpan:
        with self._lock:
            self.spans.append(span)
        return span

    def add_span(self, name: str, duration: float = 0.0,
                 shard: "int | None" = None,
                 start: "float | None" = None, **attrs: object) -> TraceSpan:
        """Record a span explicitly (zero-duration annotations, mostly)."""
        if start is None:
            start = self.elapsed()
        return self.add(TraceSpan(name, start, duration, shard, attrs))

    def span(self, name: str, shard: "int | None" = None,
             **attrs: object) -> "_SpanTimer":
        """Time a ``with`` block as one span; ``as`` yields the span for
        late attrs.  (A slotted timer object, not a generator — this
        runs twice per served request, so it stays allocation-light.)"""
        return _SpanTimer(self, TraceSpan(name, self.elapsed(), 0.0,
                                          shard, attrs))

    def attach_shard(self, shard_id: int, spans: "list[dict]",
                     stats: "dict | None" = None,
                     reconciled: "bool | None" = None) -> None:
        """Attach one shard's per-node visit-span tree (wire form)."""
        with self._lock:
            self.shards[int(shard_id)] = {
                "spans": list(spans),
                "stats": dict(stats) if stats else {},
                "reconciled": reconciled,
            }

    def finish(self, code: "str | int" = "200", error: "str | None" = None,
               stats: "dict | None" = None, coverage: "dict | None" = None,
               partial: bool = False) -> None:
        """Close the trace: final status, aggregated stats, coverage."""
        self.duration = self.elapsed()
        self.code = str(code)
        self.error = error
        self.stats = stats
        self.coverage = coverage
        self.partial = bool(partial)
        self._finished = True

    @property
    def ok(self) -> bool:
        return self.error is None and self.code == "200"

    # -- stitching ---------------------------------------------------------

    def stitch_report(self) -> dict:
        """Verify the assembled trace is one coherent document.

        Checks, in order: every coordinator span fits inside the request
        wall time; every per-shard visit-span tree has no orphans (each
        non-root span's parent precedes it) and reconciles against its
        shard-local stats (spans == node accesses, descended + 1 ==
        spans, buffer hits agree — the same invariant
        :meth:`Tracer.reconciles` enforces single-tree); and the summed
        per-shard node accesses equal the aggregated request stats.
        Returns ``{"ok": bool, "problems": [...], "shards": {...}}``.
        """
        problems: list[str] = []
        with self._lock:
            spans = list(self.spans)
            shards = {k: v for k, v in self.shards.items()}
        wall = self.duration if self._finished else self.elapsed()
        for span in spans:
            if span.start < -_SPAN_TIME_SLACK:
                problems.append(f"span {span.name!r} starts before the trace")
            if span.start + span.duration > wall + _SPAN_TIME_SLACK:
                problems.append(
                    f"span {span.name!r} ends {span.start + span.duration:.6f}s "
                    f"past the request wall time {wall:.6f}s"
                )
        shard_rows: dict = {}
        visited_total = 0
        for shard_id, doc in sorted(shards.items()):
            row: dict = {"spans": len(doc["spans"])}
            stats = doc.get("stats") or {}
            seen: set[int] = set()
            orphans = 0
            descended = 0
            buffer_hits = 0
            for span_doc in doc["spans"]:
                index = int(span_doc["span"])
                parent = span_doc.get("parent")
                if parent is not None and int(parent) not in seen:
                    orphans += 1
                seen.add(index)
                descended += int(span_doc.get("n_descended", 0))
                buffer_hits += 1 if span_doc.get("buffer_hit") else 0
            row["orphans"] = orphans
            if orphans:
                problems.append(f"shard {shard_id}: {orphans} orphan spans")
            n_spans = len(doc["spans"])
            visited_total += n_spans
            accesses = stats.get("node_accesses")
            if accesses is not None and n_spans != accesses:
                problems.append(
                    f"shard {shard_id}: {n_spans} spans != "
                    f"{accesses} node accesses"
                )
            if n_spans and descended + 1 != n_spans:
                problems.append(
                    f"shard {shard_id}: {descended} descended decisions for "
                    f"{n_spans} spans (want spans - 1)"
                )
            expected_hits = stats.get("buffer_hits")
            if expected_hits is not None and buffer_hits != expected_hits:
                problems.append(
                    f"shard {shard_id}: {buffer_hits} span buffer hits != "
                    f"{expected_hits} stats buffer hits"
                )
            if doc.get("reconciled") is False:
                problems.append(
                    f"shard {shard_id}: worker-side reconciliation failed"
                )
            row["reconciled"] = doc.get("reconciled")
            shard_rows[shard_id] = row
        if shards and self.stats is not None:
            total = self.stats.get("node_accesses")
            if total is not None and self.ok and not self.partial \
                    and visited_total != total:
                problems.append(
                    f"per-shard spans sum to {visited_total} node accesses; "
                    f"aggregated stats report {total}"
                )
        return {"ok": not problems, "problems": problems, "shards": shard_rows}

    # -- serialisation / display -------------------------------------------

    def summary(self) -> dict:
        """The ``/debug/traces`` listing row."""
        with self._lock:
            n_spans, n_shards = len(self.spans), len(self.shards)
        return {
            "trace_id": self.trace_id,
            "route": self.route,
            "code": self.code,
            "started_at": self.started_at,
            "duration": self.duration,
            "sampled": self.sampled,
            "partial": self.partial,
            "spans": n_spans,
            "shards": n_shards,
        }

    def to_dict(self) -> dict:
        stitch = self.stitch_report()
        with self._lock:
            spans = [s.to_dict() for s in self.spans]
            shards = {
                str(shard_id): dict(doc)
                for shard_id, doc in sorted(self.shards.items())
            }
        return {
            "trace_id": self.trace_id,
            "route": self.route,
            "code": self.code,
            "error": self.error,
            "started_at": self.started_at,
            "duration": self.duration,
            "sampled": self.sampled,
            "partial": self.partial,
            "coverage": self.coverage,
            "stats": self.stats,
            "spans": spans,
            "shards": shards,
            "stitch": stitch,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RequestTrace":
        """Rebuild a trace from its stored form (CLI pretty-printer)."""
        trace = cls(doc["trace_id"], doc.get("route", "?"),
                    sampled=bool(doc.get("sampled")))
        trace.started_at = float(doc.get("started_at", 0.0))
        trace.duration = float(doc.get("duration", 0.0))
        trace.code = str(doc.get("code", "200"))
        trace.error = doc.get("error")
        trace.partial = bool(doc.get("partial"))
        trace.coverage = doc.get("coverage")
        trace.stats = doc.get("stats")
        trace.spans = [TraceSpan.from_dict(s) for s in doc.get("spans", [])]
        trace.shards = {
            int(shard_id): dict(shard_doc)
            for shard_id, shard_doc in (doc.get("shards") or {}).items()
        }
        trace._finished = True
        return trace

    def render(self, max_entries: int = 4) -> str:
        """The stitched trace as readable text (``repro-sgtree trace``)."""

        def ms(seconds: float) -> str:
            return f"{seconds * 1e3:.2f}ms"

        flags = []
        if self.sampled:
            flags.append("sampled")
        if self.partial:
            flags.append("PARTIAL")
        if self.error:
            flags.append(f"error={self.error}")
        head = (
            f"TRACE {self.trace_id} route={self.route} code={self.code} "
            f"duration={ms(self.duration)}"
        )
        if flags:
            head += " " + " ".join(flags)
        lines = [head]
        with self._lock:
            spans = sorted(self.spans, key=lambda s: (s.start, s.name))
            shards = {k: v for k, v in sorted(self.shards.items())}
        for span in spans:
            scope = f" shard={span.shard}" if span.shard is not None else ""
            attrs = "".join(f" {k}={v}" for k, v in sorted(span.attrs.items()))
            lines.append(
                f"  +{ms(span.start)} {span.name}{scope} "
                f"[{ms(span.duration)}]{attrs}"
            )
        for shard_id, doc in shards.items():
            stats = doc.get("stats") or {}
            verdict = doc.get("reconciled")
            verdict_text = {True: "yes", False: "NO", None: "n/a"}[verdict]
            lines.append(
                f"  shard {shard_id} visits: {len(doc['spans'])} spans, "
                f"node_accesses={stats.get('node_accesses', '?')}, "
                f"reconciles={verdict_text}"
            )
            tracer = Tracer()
            tracer.spans = [VisitSpan.from_dict(s) for s in doc["spans"]]
            for line in tracer.render(max_entries=max_entries).splitlines():
                lines.append(f"    {line}")
        if self.coverage is not None:
            lines.append(
                f"  coverage: {self.coverage.get('shards_answered')}/"
                f"{self.coverage.get('shards_total')} shards"
                + (f", errors={self.coverage.get('errors')}"
                   if self.coverage.get("errors") else "")
            )
        stitch = self.stitch_report()
        lines.append(
            "  stitched: " + ("yes" if stitch["ok"]
                              else "NO (" + "; ".join(stitch["problems"]) + ")")
        )
        return "\n".join(lines)


class TraceSampler:
    """Head-based probabilistic sampling (seedable for tests).

    The head decision gates the *expensive* part of tracing — per-node
    worker tracers riding the wire protocol.  Retention of the finished
    trace is a separate decision (:meth:`RequestTracing.should_keep`)
    that also triggers on slow/error/partial requests, which need no
    head decision because the cheap coordinator spans always exist.
    """

    def __init__(self, rate: float = 0.01, seed: "int | None" = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def sample(self) -> bool:
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        with self._lock:
            return self._rng.random() < self.rate


class TraceStore:
    """A bounded in-memory ring of finished traces, newest last.

    Stores the JSON-able document (not the live object), so readers of
    ``/debug/traces`` can never observe a trace mid-mutation.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: "OrderedDict[str, dict]" = OrderedDict()

    def put(self, trace: "RequestTrace | dict") -> dict:
        doc = trace.to_dict() if isinstance(trace, RequestTrace) else dict(trace)
        with self._lock:
            self._ring.pop(doc["trace_id"], None)
            self._ring[doc["trace_id"]] = doc
            while len(self._ring) > self.capacity:
                self._ring.popitem(last=False)
        return doc

    def get(self, trace_id: str) -> "dict | None":
        with self._lock:
            return self._ring.get(trace_id)

    def recent(self, limit: int = 50) -> "list[dict]":
        """Summaries of the most recent traces, newest first."""
        with self._lock:
            docs = list(self._ring.values())[-max(0, limit):]
        out = []
        for doc in reversed(docs):
            out.append({
                "trace_id": doc["trace_id"],
                "route": doc.get("route"),
                "code": doc.get("code"),
                "started_at": doc.get("started_at"),
                "duration": doc.get("duration"),
                "sampled": doc.get("sampled"),
                "partial": doc.get("partial"),
                "spans": len(doc.get("spans", [])),
                "shards": len(doc.get("shards", {})),
            })
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


class JsonlTraceSink:
    """Appends one JSON trace document per line (offline analysis).

    Flush-safe against a concurrent close (the SIGTERM drain path):
    writes after :meth:`close` are dropped whole instead of truncating
    the file mid-line.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._closed = False

    def write(self, doc: dict) -> None:
        line = json.dumps(doc, sort_keys=True, default=str) + "\n"
        with self._lock:
            if self._closed:
                return
            self._fh.write(line)
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._fh.flush()
            finally:
                self._fh.close()


class RequestTracing:
    """The serving stack's tracing policy bundle.

    One instance per service: a head :class:`TraceSampler`, the bounded
    :class:`TraceStore` behind ``/debug/traces``, an optional
    :class:`JsonlTraceSink`, and the slow-request threshold that both
    forces retention and drives the ``slow_query`` event.
    """

    def __init__(self, sample_rate: float = 0.01, capacity: int = 256,
                 slow_threshold: "float | None" = None,
                 sink: "JsonlTraceSink | None" = None,
                 seed: "int | None" = None):
        if slow_threshold is not None and slow_threshold < 0:
            raise ValueError(
                f"slow_threshold must be >= 0, got {slow_threshold}"
            )
        self.sampler = TraceSampler(sample_rate, seed=seed)
        self.store = TraceStore(capacity)
        self.sink = sink
        self.slow_threshold = slow_threshold

    def start(self, route: str, request_id: "str | None" = None,
              ) -> RequestTrace:
        """Open a trace for one request (always — coordinator spans are
        cheap); the head sampling decision rides in ``sampled``."""
        trace_id = sanitize_request_id(request_id) if request_id \
            else new_trace_id()
        return RequestTrace(trace_id, route, sampled=self.sampler.sample())

    def is_slow(self, trace: RequestTrace) -> bool:
        return (
            self.slow_threshold is not None
            and trace.duration >= self.slow_threshold
        )

    def should_keep(self, trace: RequestTrace) -> bool:
        """Retention: head-sampled, or slow, or errored, or partial."""
        return (
            trace.sampled
            or trace.partial
            or not trace.ok
            or self.is_slow(trace)
        )

    def finish(self, trace: RequestTrace) -> bool:
        """Apply retention to a finished trace; returns whether kept."""
        if not self.should_keep(trace):
            return False
        doc = self.store.put(trace)
        if self.sink is not None:
            self.sink.write(doc)
        return True

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()
