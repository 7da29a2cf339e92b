"""The serving core: admission control, deadlines, snapshot hot-swap.

:class:`QueryService` is the protocol-independent heart of
``repro-sgtree serve`` — it owns a :class:`~repro.sgtree.concurrent.
ConcurrentSGTree` and adds the three behaviours a resident server needs
that the in-process API does not provide:

* **Admission control.**  At most ``max_inflight`` requests execute
  concurrently; at most ``max_queue`` more wait for a slot.  A request
  arriving past both limits is *shed* immediately with
  :class:`RequestShed` (HTTP 429) instead of queuing unboundedly — under
  overload the server's memory and tail latency stay bounded, and
  clients get an honest backpressure signal they can retry against.
* **Deadlines.**  Every request carries a
  :class:`~repro.sgtree.search.Deadline` (its own, or the service
  default).  The deadline bounds the queue wait *and* propagates into
  the traversal, whose per-node cancellation checkpoints abort an
  expired query with :class:`~repro.errors.QueryTimeout` (HTTP 504) —
  a slow query stops burning node accesses the moment its caller has
  given up.
* **Snapshot hot-swap.**  :meth:`reload` builds or reopens an index in
  the calling thread (queries keep flowing), then atomically publishes
  it via :meth:`~repro.sgtree.concurrent.ConcurrentSGTree.swap` — one
  snapshot publish like any other write (``docs/concurrency.md``).
  In-flight queries finish against the old snapshot, every query
  admitted after the swap pins the new one, and the old tree's pager is
  closed through epoch reclamation only after its last reader drains;
  no request is dropped.

Every single-tree response also reports the snapshot generation it was
answered from (``tree_generation``): with concurrent writers publishing
copy-on-write snapshots, results are bit-identical per pinned generation
and clients can observe the generation advancing monotonically.

All of it is observable: request counters/latency histograms by route,
queue-depth and in-flight gauges, shed/timeout counters and a
``snapshot_swap`` structured event land on the attached
:class:`~repro.telemetry.Telemetry` (see ``docs/serving.md``).
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..errors import QueryTimeout, ReproError
from ..sgtree.concurrent import ConcurrentSGTree
from ..sgtree.search import Deadline, SearchStats
from ..sgtree.tree import SGTree
from ..telemetry.tracing import RequestTrace
from .query import Query

__all__ = [
    "QueryService",
    "ServedQuery",
    "RequestShed",
    "ReloadInProgress",
]


def _stats_doc(stats: SearchStats) -> dict:
    """The wire/trace form of one request's aggregated accounting.

    ``buffer_hits`` travels explicitly because it is a *derived*
    property (accesses minus random I/Os) and the trace↔stats
    reconciliation needs it on the far side of a JSON boundary.

    ``bound_provenance`` surfaces cooperative cross-shard pruning:
    ``"pilot"`` when the pilot shard's seed was the threshold in force
    at the end, ``null`` when the local heap's own k-th distance was.
    """
    return {
        "node_accesses": stats.node_accesses,
        "random_ios": stats.random_ios,
        "leaf_entries": stats.leaf_entries,
        "buffer_hits": stats.buffer_hits,
        "bound_provenance": stats.bound_provenance,
    }


def _decode_cache_health(store) -> dict:
    """Node read-array counters for a ``/healthz`` row: ``hits`` are
    reads that found a node's arrays ready, ``misses`` reads that had to
    decode or stack them."""
    stats = store.decode_cache.stats
    return {"hits": stats.hits, "misses": stats.misses}


class RequestShed(ReproError):
    """Admission control rejected the request (server saturated).

    The HTTP layer maps this to ``429 Too Many Requests``.  ``waiting``
    and ``inflight`` snapshot the saturation the request observed.
    """

    def __init__(self, waiting: int, inflight: int):
        self.waiting = waiting
        self.inflight = inflight
        super().__init__(
            f"server saturated: {inflight} requests in flight, "
            f"{waiting} queued"
        )


class ReloadInProgress(ReproError):
    """A snapshot reload is already running (HTTP 409); retry later."""


@dataclass
class ServedQuery:
    """One served query: results plus its accounting.

    ``coverage`` and ``partial`` are populated by the sharded service
    (:class:`~repro.server.shard.ShardedQueryService`): a response that
    could not reach every shard is flagged ``partial`` and carries the
    per-shard detail in ``coverage``.  Single-tree serving always
    answers completely and leaves them at their defaults.
    """

    kind: str
    results: object
    stats: SearchStats = field(default_factory=SearchStats)
    generation: int = 0
    seconds: float = 0.0
    coverage: "dict | None" = None
    partial: bool = False
    trace_id: "str | None" = None
    #: Snapshot generation the query was answered from (single-tree
    #: serving pins one snapshot per request; sharded responses leave
    #: the default — each shard worker reports its own generation).
    tree_generation: int = 0


class QueryService:
    """Admission-controlled, deadline-aware front end over one index.

    Parameters
    ----------
    tree:
        A :class:`~repro.sgtree.tree.SGTree` (wrapped in a
        :class:`~repro.sgtree.concurrent.ConcurrentSGTree`) or an
        existing ``ConcurrentSGTree``.
    telemetry:
        An optional :class:`~repro.telemetry.Telemetry`; when given,
        every request updates the server metric families and structural
        events are emitted on reloads.
    max_inflight:
        Concurrent executing requests (each holds one slot for its whole
        execution, including batch requests).
    max_queue:
        Requests allowed to wait for a slot; one more is shed.
    default_deadline:
        Per-request budget in seconds applied when a request does not
        carry its own; ``None`` disables the default (requests without a
        deadline then wait and run unboundedly).

    The service is thread-safe; one instance serves every handler thread
    of the HTTP layer.
    """

    def __init__(
        self,
        tree: "SGTree | ConcurrentSGTree",
        telemetry=None,
        max_inflight: int = 8,
        max_queue: int = 32,
        default_deadline: "float | None" = None,
        tracing=None,
    ):
        self._init_admission(
            telemetry=telemetry, max_inflight=max_inflight,
            max_queue=max_queue, default_deadline=default_deadline,
            tracing=tracing,
        )
        if isinstance(tree, SGTree):
            tree = ConcurrentSGTree(tree)
        if telemetry is not None:
            # The facade owns the snapshot/epoch gauges; attaching the
            # inner tree beforehand (as the CLI does) registers only the
            # tree-shape collectors, and re-attachment is idempotent.
            tree.attach_telemetry(telemetry)
        self._tree = tree

    def _init_admission(
        self,
        telemetry=None,
        max_inflight: int = 8,
        max_queue: int = 32,
        default_deadline: "float | None" = None,
        tracing=None,
    ) -> None:
        """Admission-control state shared by every service flavour.

        Subclasses with a different execution backend (the sharded
        service) call this instead of ``QueryService.__init__`` and then
        install their own backend.  ``tracing`` is an optional
        :class:`~repro.telemetry.tracing.RequestTracing` bundle; when
        attached, every request records a coordinator-level
        :class:`~repro.telemetry.tracing.RequestTrace` (admission wait,
        execution, per-shard RPC, merge), head-sampled requests
        additionally carry per-node visit spans, and finished traces
        land in the bounded store behind ``/debug/traces``.
        """
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError(
                f"default_deadline must be positive, got {default_deadline}"
            )
        self.telemetry = telemetry
        self.tracing = tracing
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.default_deadline = default_deadline
        self._slots = threading.Semaphore(max_inflight)
        self._admission_lock = threading.Lock()
        self._waiting = 0
        self._inflight = 0
        self._generation = 0
        self._reload_lock = threading.Lock()
        self._reloading = False
        self._closed = False
        self._trace_ctx = threading.local()

    # -- introspection -----------------------------------------------------

    @property
    def tree(self) -> ConcurrentSGTree:
        return self._tree

    @property
    def generation(self) -> int:
        """Monotonic snapshot generation; bumped by every :meth:`reload`."""
        return self._generation

    def _ready(self) -> bool:
        """Readiness: willing to accept traffic *right now*.

        Single-tree serving is unready only while closed or mid-reload
        (a swap is about to land); the sharded service additionally
        requires a quorum of shards up.
        """
        return not self._closed and not self._reloading

    def _health_extra(self) -> dict:
        """Backend-specific ``/healthz`` fields (overridden when sharded)."""
        return {
            "transactions": len(self._tree),
            "n_bits": self._tree.n_bits,
            # "generation" above counts reloads; the copy-on-write
            # publish/reclamation state travels under "snapshot" (see
            # docs/concurrency.md).
            "decode_cache": _decode_cache_health(self._tree.tree.store),
            "snapshot": {
                "generation": self._tree.generation,
                "publishes": self._tree.publishes,
                "active_pins": self._tree.active_pins,
                "reclaim_pending": self._tree.pending_reclaim,
            },
        }

    def health(self) -> dict:
        """A liveness/readiness snapshot (the ``/healthz`` payload).

        ``live`` means the process serves requests at all (false only
        once closed); ``ready`` means it should receive traffic now —
        false during a snapshot swap, or (sharded) while fewer than
        ``quorum`` shards are up.  Load balancers route on ``ready`` and
        restart on ``live``.
        """
        with self._admission_lock:
            waiting, inflight = self._waiting, self._inflight
        doc = {
            "status": "closed" if self._closed else "ok",
            "live": not self._closed,
            "ready": self._ready(),
            "reloading": self._reloading,
            "generation": self._generation,
            "inflight": inflight,
            "queue_depth": waiting,
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
        }
        doc.update(self._health_extra())
        return doc

    def metrics_text(self) -> str:
        """Prometheus text exposition of the attached registry."""
        if self.telemetry is None:
            return "# telemetry detached\n"
        return self.telemetry.render_prometheus()

    # -- deadline helpers --------------------------------------------------

    def resolve_deadline(self, budget_seconds: "float | None") -> "Deadline | None":
        """A request's deadline: its own budget, or the service default."""
        if budget_seconds is not None:
            return Deadline.after(budget_seconds)
        if self.default_deadline is not None:
            return Deadline.after(self.default_deadline)
        return None

    # -- the request path --------------------------------------------------

    def _admit(self, route: str, deadline: "Deadline | None") -> None:
        """Take an execution slot, queuing within limits.

        Raises :class:`RequestShed` when the queue is full and
        :class:`~repro.errors.QueryTimeout` when the deadline expires
        before a slot frees up.
        """
        telemetry = self.telemetry
        if self._slots.acquire(blocking=False):
            return
        with self._admission_lock:
            if self._waiting >= self.max_queue:
                waiting, inflight = self._waiting, self._inflight
                if telemetry is not None:
                    telemetry.server_shed_total.labels(route=route).inc()
                raise RequestShed(waiting, inflight)
            self._waiting += 1
            if telemetry is not None:
                telemetry.server_queue_depth.set(self._waiting)
        try:
            if deadline is None:
                acquired = self._slots.acquire()
            else:
                acquired = self._slots.acquire(timeout=deadline.remaining())
        finally:
            with self._admission_lock:
                self._waiting -= 1
                if telemetry is not None:
                    telemetry.server_queue_depth.set(self._waiting)
        if not acquired:
            if telemetry is not None:
                telemetry.server_timeouts_total.labels(route=route).inc()
            raise QueryTimeout(deadline.budget, deadline.budget)

    def current_trace(self) -> "RequestTrace | None":
        """The trace of the request executing on *this* thread, if any.

        The execution hooks (and the sharded scatter path) read this to
        record spans without changing every hook signature.
        """
        return getattr(self._trace_ctx, "trace", None)

    def _serve(self, route: str, deadline: "Deadline | None",
               fn: "Callable[[], ServedQuery]",
               request_id: "str | None" = None) -> ServedQuery:
        """Admission + execution + telemetry + tracing for one request."""
        if self._closed:
            raise ReproError("service is closed")
        telemetry = self.telemetry
        tracing = self.tracing
        trace = None
        if tracing is not None:
            trace = tracing.start(route, request_id=request_id)
        start = time.perf_counter()
        code = "200"
        served: "ServedQuery | None" = None
        try:
            if trace is not None:
                with trace.span("admission_wait"):
                    self._admit(route, deadline)
            else:
                self._admit(route, deadline)
            try:
                with self._admission_lock:
                    self._inflight += 1
                    if telemetry is not None:
                        telemetry.server_inflight.set(self._inflight)
                self._trace_ctx.trace = trace
                try:
                    if trace is not None:
                        with trace.span("execute"):
                            response = fn()
                    else:
                        response = fn()
                finally:
                    self._trace_ctx.trace = None
                    with self._admission_lock:
                        self._inflight -= 1
                        if telemetry is not None:
                            telemetry.server_inflight.set(self._inflight)
            finally:
                self._slots.release()
            response.seconds = time.perf_counter() - start
            response.generation = self._generation
            if trace is not None:
                response.trace_id = trace.trace_id
            served = response
            return response
        except RequestShed:
            code = "429"
            raise
        except QueryTimeout:
            code = "504"
            if telemetry is not None:
                telemetry.server_timeouts_total.labels(route=route).inc()
            raise
        except (ValueError, TypeError):
            code = "400"
            raise
        except Exception:
            code = "500"
            raise
        finally:
            elapsed = time.perf_counter() - start
            if telemetry is not None:
                telemetry.server_requests_total.labels(
                    route=route, code=code
                ).inc()
                telemetry.server_request_seconds.labels(route=route).observe(
                    elapsed,
                    exemplar=trace.trace_id if trace is not None else None,
                )
            if trace is not None:
                self._finish_trace(trace, code, served)

    def _finish_trace(self, trace: RequestTrace, code: str,
                      served: "ServedQuery | None") -> None:
        """Close a request trace, apply retention, emit access events.

        Runs inside ``_serve``'s ``finally`` — ``sys.exc_info`` still
        sees the in-flight exception, which becomes the trace's
        ``error`` (and forces retention via ``should_keep``).
        """
        exc = sys.exc_info()[1]
        trace.finish(
            code=code,
            error=None if exc is None else f"{type(exc).__name__}: {exc}",
            stats=_stats_doc(served.stats) if served is not None else None,
            coverage=served.coverage if served is not None else None,
            partial=served.partial if served is not None else False,
        )
        kept = self.tracing.finish(trace)
        telemetry = self.telemetry
        if telemetry is None:
            return
        coverage = trace.coverage or {}
        shards_total = coverage.get("shards_total")
        shards_answered = coverage.get("shards_answered")
        telemetry.emit(
            "http_access",
            trace_id=trace.trace_id,
            route=trace.route,
            code=code,
            seconds=round(trace.duration, 6),
            partial=trace.partial,
            shards_total=shards_total,
            shards_answered=shards_answered,
            sampled=trace.sampled,
            kept=kept,
        )
        if self.tracing.is_slow(trace):
            top = sorted(
                trace.spans, key=lambda s: s.duration, reverse=True
            )[:3]
            telemetry.emit(
                "slow_query",
                trace_id=trace.trace_id,
                route=trace.route,
                seconds=round(trace.duration, 6),
                threshold_seconds=self.tracing.slow_threshold,
                shards_total=shards_total,
                shards_answered=shards_answered,
                top_spans=[
                    {"name": s.name, "seconds": round(s.duration, 6),
                     "shard": s.shard}
                    for s in top
                ],
            )

    # -- trace retrieval ---------------------------------------------------

    def traces(self) -> "list[dict] | None":
        """Summaries of retained traces (``/debug/traces``), newest
        first; ``None`` when tracing is not attached."""
        if self.tracing is None:
            return None
        return self.tracing.store.recent()

    def trace(self, trace_id: str) -> "dict | None":
        """One retained trace in full (``/debug/traces/<id>``)."""
        if self.tracing is None:
            return None
        return self.tracing.store.get(trace_id)

    def _n_bits(self) -> int:
        """Signature length of the index serving right now."""
        return self._tree.n_bits

    def _retrying(self, fn: "Callable[[], ServedQuery]") -> ServedQuery:
        """Absorb the signature/generation race around a hot-swap.

        A query that built its signature just before a swap to an index
        with a different ``n_bits`` fails with a shape ``ValueError``;
        one rebuild against the new generation resolves it.  Any other
        ``ValueError`` is the request's own fault and is raised as is.
        """
        n_bits = self._n_bits()
        try:
            return fn()
        except ValueError:
            if self._n_bits() == n_bits:
                raise
            return fn()

    # -- the query route ---------------------------------------------------

    def query(self, query: Query, deadline_seconds: "float | None" = None,
              request_id: "str | None" = None) -> ServedQuery:
        """Answer one :class:`~repro.server.query.Query`.

        The request waits for an admission slot and runs under its own
        ``deadline_seconds`` budget (or the service default);
        ``request_id`` names its trace.  A batch occupies **one** slot
        and is one shared traversal, so a huge batch cannot starve
        interactive requests of more than one slot, and one deadline
        bounds it all.
        """
        deadline = self.resolve_deadline(deadline_seconds)
        return self._serve(
            query.route, deadline,
            lambda: self._retrying(lambda: self._run(query, deadline)),
            request_id=request_id,
        )

    def _run(self, query: Query, deadline: "Deadline | None") -> ServedQuery:
        """Execute one admitted query (the sharded service scatters instead).

        Every kind, batches included, pins one snapshot and answers with
        :meth:`Query.run`; the generation reported is the pinned one.  A
        head-sampled single query files its per-node visit spans as
        shard 0 of the request trace.
        """
        stats = SearchStats()
        trace = self.current_trace()
        tracer = query.tracer(trace is not None and trace.sampled)
        with self._tree.snapshot() as snap:
            results = query.run(
                snap, stats=stats, deadline=deadline, tracer=tracer
            )
            generation = snap.generation
        if tracer is not None:
            trace.attach_shard(
                0,
                [span.to_dict() for span in tracer.spans],
                stats=_stats_doc(stats),
                reconciled=tracer.reconciles(stats),
            )
        return ServedQuery(
            query.kind, results, stats, tree_generation=generation
        )

    # -- snapshot hot-swap -------------------------------------------------

    def reload(
        self,
        index_path: "str | None" = None,
        dataset_path: "str | None" = None,
        bulk: "str | None" = "gray",
        **build_kwargs: object,
    ) -> dict:
        """Atomically replace the served index; returns swap info.

        Exactly one of ``index_path`` (a persisted index from
        ``repro-sgtree build`` / :func:`~repro.sgtree.persistence.
        save_tree`) or ``dataset_path`` (a JSONL transaction file, bulk
        loaded with ``bulk`` or inserted one-by-one when ``bulk`` is
        ``None``) must be given.  The load/build runs in the calling
        thread — queries keep flowing against the old snapshot — and the
        replacement lands as one atomic snapshot publish.  In-flight
        queries finish on the old tree; its pager is closed through
        epoch reclamation once the last reader pinned to it drains; no
        request is dropped.

        Raises :class:`ReloadInProgress` when another reload is running.
        """
        if (index_path is None) == (dataset_path is None):
            raise ValueError(
                "reload: exactly one of index_path or dataset_path is required"
            )
        if not self._reload_lock.acquire(blocking=False):
            raise ReloadInProgress("a snapshot reload is already running")
        self._reloading = True
        telemetry = self.telemetry
        outcome = "error"
        try:
            start = time.perf_counter()
            if index_path is not None:
                from ..sgtree.persistence import load_tree

                new_tree = load_tree(index_path)
                source = index_path
            else:
                from ..data.io import load_transactions

                transactions, n_bits = load_transactions(dataset_path)
                if bulk is not None:
                    from ..sgtree.bulkload import bulk_load

                    new_tree = bulk_load(
                        transactions, n_bits, method=bulk, **build_kwargs
                    )
                else:
                    new_tree = SGTree(n_bits, **build_kwargs)
                    new_tree.insert_many(transactions)
                source = dataset_path
            if telemetry is not None:
                # Rebind the tree-shape/store collectors to the
                # replacement; otherwise scrapes keep reading the
                # retired tree and post-reload mutations emit nothing.
                new_tree.attach_telemetry(telemetry)
            # The old pager must not be closed while a straggling reader
            # is still pinned to the old snapshot; the retirement hook
            # runs through epoch reclamation after the last pin drains.
            self._tree.swap(
                new_tree,
                on_retire=lambda old: old.store.pager.close(),
            )
            self._generation += 1
            seconds = time.perf_counter() - start
            outcome = "ok"
            info = {
                "generation": self._generation,
                "transactions": len(new_tree),
                "n_bits": new_tree.n_bits,
                "source": source,
                "seconds": seconds,
            }
            if telemetry is not None:
                telemetry.emit("snapshot_swap", **info)
            return info
        finally:
            if telemetry is not None:
                telemetry.server_reloads_total.labels(outcome=outcome).inc()
            self._reloading = False
            self._reload_lock.release()

    def drain(self, timeout: float) -> bool:
        """Wait until no request is executing or queued (graceful stop).

        Polls the admission counters for up to ``timeout`` seconds and
        returns whether the service fully drained — the graceful-
        shutdown path closes the listener first, so no new work arrives
        while this waits for the in-flight tail to finish.
        """
        limit = time.monotonic() + max(0.0, timeout)
        while True:
            with self._admission_lock:
                idle = self._waiting == 0 and self._inflight == 0
            if idle:
                return True
            if time.monotonic() >= limit:
                return False
            time.sleep(0.01)

    def close(self) -> None:
        """Stop serving (idempotent).

        The underlying pager is left open — the caller that built the
        tree owns it (the CLI closes it on exit).
        """
        self._closed = True
        if self.tracing is not None:
            self.tracing.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
