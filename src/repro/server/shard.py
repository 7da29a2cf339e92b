"""Sharded, fault-tolerant serving: partition, workers, scatter-gather.

This module turns the single-tree serving stack into an N-shard service
that keeps answering when individual shards crash, wedge, or slow down:

* :func:`partition_transactions` splits a transaction collection into
  N similarity-preserving partitions, reusing the min-hash / gray-code
  orderings of :mod:`repro.sgtree.bulkload` — similar transactions land
  in the same shard, so per-shard pruning stays as tight as the paper's
  single-tree bounds;
* :class:`ProcessShardWorker` runs one shard tree in its own
  ``multiprocessing`` process behind a duplex pipe, speaking a picklable
  request/response protocol, and accepts a seeded
  :class:`~repro.storage.faults.ShardChaos` stream for fault campaigns;
* :class:`ShardHandle` supervises one worker: a per-shard
  :class:`~repro.server.resilience.CircuitBreaker`, a deadline-aware
  :class:`~repro.server.resilience.RetryPolicy`, restart bookkeeping,
  and bounded waits so a dead or wedged worker can never hold a request
  past its :class:`~repro.sgtree.search.Deadline`;
* :class:`ShardedTree` scatters a query to every admitted shard, gathers
  within the deadline, merges (global top-k for kNN, union for
  range/containment), and reports :class:`Coverage` — which shards
  answered, which failed and why;
* :class:`ShardedQueryService` plugs the coordinator into the admission
  control / deadline / telemetry machinery of
  :class:`~repro.server.service.QueryService`, downgrading shard
  failures to **partial results** (``partial: true`` plus per-shard
  error detail) instead of failing the whole request.

Partial-result semantics (argued in ``docs/resilience.md`` and DESIGN.md
§10): a degraded range/containment answer is always a *subset* of the
full-index answer, and every degraded kNN hit carries its true distance
— it is exactly the full answer over the union of the shards that
responded, never a fabricated or mis-scored result.

Concurrency model: each worker owns a plain single-threaded
:class:`~repro.sgtree.tree.SGTree` behind its pipe — requests are
serialised per shard, so no latching is needed inside a worker.  A
supervisor restart rebuilds the shard's tree and is, from the
coordinator's view, an atomic whole-tree publish: the same
replace-then-retire shape as a copy-on-write snapshot publish on a
single-tree service (see ``docs/concurrency.md``), surfaced to probes
as a new worker ``generation``.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from bisect import bisect_left
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core import bitops
from ..core.signature import Signature
from ..core.transaction import Transaction
from ..errors import (
    CircuitOpen,
    QueryTimeout,
    ReproError,
    RetryExhausted,
    ShardUnavailable,
)
from ..sgtree.bulkload import bulk_load, gray_sort_order, minhash_order
from ..sgtree.search import Deadline, SearchStats
from ..sgtree.tree import SGTree
from ..telemetry.tracing import TraceContext
from .query import Query
from .resilience import Backoff, CircuitBreaker, RetryPolicy
from .service import QueryService, ServedQuery, _decode_cache_health, _stats_doc

__all__ = [
    "partition_transactions",
    "partition_routed",
    "ShardRouter",
    "Coverage",
    "ProcessShardWorker",
    "ShardHandle",
    "ShardedTree",
    "ShardedQueryService",
    "make_shard_handles",
]

#: Upper bound on one worker call when the request carries no deadline.
DEFAULT_CALL_TIMEOUT = 30.0

#: How often a bounded wait re-checks liveness and expiry.
POLL_INTERVAL = 0.02

#: Upper bound on waiting for a killed worker process to exit.
KILL_JOIN_TIMEOUT = 5.0


def _span(trace, name: str, **attrs: object):
    """A trace span when a trace rides the request, a no-op otherwise."""
    if trace is None:
        return nullcontext()
    return trace.span(name, **attrs)


def _attach_shard_trace(trace, shard_id: int, response: dict) -> None:
    """Stitch a shard's shipped-back visit spans into the request trace."""
    if trace is not None and "trace" in response:
        trace.attach_shard(
            shard_id,
            response["trace"].get("spans", []),
            stats=response.get("stats"),
            reconciled=response["trace"].get("reconciled"),
        )


# ---------------------------------------------------------------------------
# partitioning


class ShardRouter:
    """Routes a query signature to its *home shard* — the contiguous
    run of the partition order the query's own sort key falls into.

    :func:`partition_routed` cuts the minhash/gray-ordered collection
    into runs; the router retains each run's upper boundary key (the key
    of its last transaction) plus whatever is needed to recompute the
    key function (the cached min-hash permutations, or nothing for gray
    ranks).  Routing is then a :func:`bisect.bisect_left` over the
    boundaries: the first shard whose upper key is ``>=`` the query's
    key holds the query's nearest neighbourhood of the ordering.

    The route is a *heuristic*, never a correctness input: the home
    shard merely goes first so its k-th distance can seed everyone
    else's pruning.  A query routed to the "wrong" shard just seeds a
    looser bound.
    """

    def __init__(self, method: str, uppers: "list", n_bits: int,
                 n_hashes: int = 4, seed: int = 0):
        self.method = method
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self.seed = seed
        self._uppers = list(uppers)
        if method == "minhash":
            # The exact permutations minhash_order derives from `seed`,
            # cached so routing costs one gather + min per hash.
            rng = np.random.default_rng(seed)
            self._permutations = [
                rng.permutation(n_bits) for _ in range(n_hashes)
            ]

    @property
    def shard_count(self) -> int:
        return len(self._uppers)

    def key(self, signature: Signature):
        """The partition-order sort key of one signature."""
        if self.method == "gray":
            return bitops.gray_rank(signature.words)
        items = np.asarray(signature.items(), dtype=np.int64)
        if items.size == 0:
            return (self.n_bits,) * self.n_hashes
        return tuple(int(perm[items].min()) for perm in self._permutations)

    def route(self, signature: Signature) -> int:
        """The home shard id for ``signature`` (always a valid id)."""
        index = bisect_left(self._uppers, self.key(signature))
        return min(index, len(self._uppers) - 1)


def partition_routed(
    transactions: Sequence[Transaction],
    n_shards: int,
    method: str = "minhash",
    n_hashes: int = 4,
    seed: int = 0,
) -> "tuple[list[list[Transaction]], ShardRouter]":
    """Split transactions into ``n_shards`` similarity-preserving runs.

    The collection is ordered by the bulk-load key (``"minhash"`` or
    ``"gray"`` — the same similarity-preserving orders
    :func:`~repro.sgtree.bulkload.bulk_load` packs nodes from) and cut
    into contiguous runs of near-equal size, so each shard holds a
    neighbourhood of similar transactions rather than a random sample —
    per-shard signatures stay tight and per-shard pruning effective.
    Every transaction lands in exactly one shard; shards may be empty
    only when there are fewer transactions than shards.

    Returns the partitions together with a :class:`ShardRouter` built
    from the run boundaries, so the coordinator can send a query to its
    home shard first (pilot routing) and seed the global bound with
    that shard's k-th distance.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    transactions = list(transactions)
    signatures = [t.signature for t in transactions]
    if method == "gray":
        order = gray_sort_order(signatures)
    elif method == "minhash":
        order = minhash_order(signatures, n_hashes=n_hashes, seed=seed)
    else:
        raise ValueError(
            f"unknown partition method {method!r}; use 'gray' or 'minhash'"
        )
    n_bits = transactions[0].signature.n_bits if transactions else 0
    ordered = [transactions[i] for i in order]
    partitions: list[list[Transaction]] = []
    base, extra = divmod(len(ordered), n_shards)
    start = 0
    for shard in range(n_shards):
        size = base + (1 if shard < extra else 0)
        partitions.append(ordered[start : start + size])
        start += size
    router = ShardRouter(method, [], n_bits, n_hashes=n_hashes, seed=seed)
    # Upper boundary = the key of each run's last transaction; an empty
    # run (fewer transactions than shards) inherits its left neighbour's
    # boundary so bisect skips past it.
    uppers: list = []
    sentinel = -1 if method == "gray" else (-1,) * n_hashes
    last_key = sentinel
    for partition in partitions:
        if partition:
            last_key = router.key(partition[-1].signature)
        uppers.append(last_key)
    router._uppers = uppers
    return partitions, router


def partition_transactions(
    transactions: Sequence[Transaction],
    n_shards: int,
    method: str = "minhash",
    n_hashes: int = 4,
    seed: int = 0,
) -> list[list[Transaction]]:
    """The partitions of :func:`partition_routed`, without the router."""
    return partition_routed(
        transactions, n_shards, method=method, n_hashes=n_hashes, seed=seed
    )[0]


# ---------------------------------------------------------------------------
# wire protocol (everything picklable)


def _build_shard_tree(n_bits: int, rows: "list[tuple[int, tuple[int, ...]]]",
                      tree_kwargs: "dict | None" = None) -> SGTree:
    """A shard tree from ``(tid, items)`` rows (the picklable form)."""
    transactions = [
        Transaction(tid, Signature.from_items(list(items), n_bits))
        for tid, items in rows
    ]
    if not transactions:
        return SGTree(n_bits, **(tree_kwargs or {}))
    return bulk_load(transactions, n_bits, method="gray", **(tree_kwargs or {}))


def _handle_request(tree: SGTree, request: dict) -> dict:
    """Execute one wire request against a shard tree.

    Returns a response dict: ``{"ok": True, "results": ..., "stats":
    {...}}`` or ``{"ok": False, "error": <type name>, "message": ...}``.
    Every request but ``ping`` is a :meth:`Query.to_wire` dict plus
    request context: the ``budget`` (remaining seconds) becomes a local
    :class:`Deadline`, so an over-budget traversal aborts *inside the
    worker* too — a shard never burns CPU for a caller that has already
    given up; a sampled ``trace`` context turns on per-node tracing; a
    kNN ``initial_threshold`` (the pilot shard's k-th distance) is
    applied before the first node is visited.
    """
    try:
        if request["op"] == "ping":
            return {
                "ok": True, "transactions": len(tree), "n_bits": tree.n_bits,
                "decode_cache": _decode_cache_health(tree.store),
            }
        budget = request.get("budget")
        deadline = Deadline.after(max(0.0, budget)) if budget is not None else None
        query = Query.from_wire(request)
        ctx = TraceContext.from_wire(request.get("trace"))
        tracer = query.tracer(ctx is not None and ctx.sampled)
        stats = SearchStats()
        results = query.run(
            tree, stats=stats, deadline=deadline, tracer=tracer,
            initial_threshold=request.get("initial_threshold"),
        )
        response = {
            "ok": True,
            "results": _plain(results),
            # buffer_hits travels explicitly: it is a derived property
            # and the coordinator's stitch check needs it post-JSON.
            "stats": _stats_doc(stats),
        }
        if tracer is not None:
            response["trace"] = {
                "spans": [span.to_dict() for span in tracer.spans],
                "reconciled": tracer.reconciles(stats),
            }
        return response
    except Exception as exc:  # noqa: BLE001 - every failure crosses the wire
        return {"ok": False, "error": type(exc).__name__, "message": str(exc)}


def _plain(results: list) -> list:
    """Engine answers with each ``Neighbor`` as a plain ``(distance,
    tid)`` tuple, per row for a batch: a named tuple costs a Python-level
    constructor call per hit to unpickle, a plain tuple none."""
    if results and isinstance(results[0], list):
        return [_plain(row) for row in results]
    return [tuple(hit) if isinstance(hit, tuple) else hit for hit in results]


class _PendingCall:
    """A one-shot mailbox the caller waits on with a bounded timeout."""

    __slots__ = ("_event", "response")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.response: "dict | None" = None

    def resolve(self, response: dict) -> None:
        self.response = response
        self._event.set()

    def wait(self, timeout: float) -> "dict | None":
        if self._event.wait(timeout):
            return self.response
        return None


# ---------------------------------------------------------------------------
# workers


def _process_worker_main(conn, build_tree, chaos) -> None:
    """Entry point of a shard process: build the tree, serve the pipe."""
    import os

    tree = build_tree()
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request.get("op") == "stop":
            conn.send({"id": request.get("id"), "ok": True})
            return
        if chaos is not None:
            action = chaos.draw()
            if action == "kill":
                os._exit(1)  # abrupt death, in-flight request abandoned
            if action == "latency":
                time.sleep(chaos.plan.latency_seconds)
        response = _handle_request(tree, request)
        response["id"] = request.get("id")
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):
            return


class ProcessShardWorker:
    """One shard tree in its own OS process, behind a duplex pipe.

    The parent keeps a receiver thread that matches responses to pending
    calls by request id, so a response to an *abandoned* call (its
    deadline expired first) is absorbed harmlessly instead of
    desynchronising the pipe.  Process death surfaces as ``EOFError`` on
    the receiver, which fails every pending call fast with
    :class:`~repro.errors.ShardUnavailable`.

    ``build_tree`` runs in the child, so a supervisor restart rebuilds
    the shard from source (which is also what heals a shard whose pager
    went bad); it must be picklable unless the start method is
    ``fork``.  ``chaos`` (a :class:`~repro.storage.faults.ShardChaos`)
    is drawn in the child once per request: a ``"kill"`` exits the
    process without answering the in-flight request, so the abandoned
    caller is bounded by its own deadline.  The draws and the plan's
    ``injected`` counts stay in the child; the parent sees a kill as a
    dead worker (a ``ShardUnavailable`` outcome, then a restart).
    """

    def __init__(
        self,
        build_tree: "Callable[[], SGTree]",
        shard_id: int = 0,
        chaos=None,
        start_method: "str | None" = None,
    ):
        import multiprocessing

        self.shard_id = shard_id
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        ctx = multiprocessing.get_context(start_method)
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_process_worker_main,
            args=(child_conn, build_tree, chaos),
            daemon=True,
            name=f"sgtree-shard-{shard_id}",
        )
        self._process.start()
        child_conn.close()
        self._pending: "dict[int, _PendingCall]" = {}
        self._lock = threading.Lock()
        self._closed = False
        self._receiver = threading.Thread(
            target=self._receive_loop,
            name=f"sgtree-shard-{shard_id}-rx",
            daemon=True,
        )
        self._receiver.start()

    def is_alive(self) -> bool:
        return not self._closed and self._process.is_alive()

    def submit(self, request: dict) -> _PendingCall:
        pending = _PendingCall()
        with self._lock:
            if not self.is_alive():
                raise ShardUnavailable(
                    "worker process is down", shard_id=self.shard_id
                )
            self._pending[request["id"]] = pending
            try:
                self._conn.send(request)
            except (BrokenPipeError, OSError):
                self._pending.pop(request["id"], None)
                raise ShardUnavailable(
                    "worker pipe is broken", shard_id=self.shard_id
                ) from None
        return pending

    def kill(self) -> None:
        """SIGKILL the worker process and wait (bounded) for it to exit.

        Without the wait, :meth:`is_alive` can still read ``True`` for a
        moment after the signal, and readiness would count a dead shard.
        """
        self._process.kill()
        self._process.join(timeout=KILL_JOIN_TIMEOUT)

    def close(self) -> None:
        self._closed = True
        try:
            with self._lock:
                self._conn.send({"id": -1, "op": "stop"})
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=2.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=2.0)
        try:
            self._conn.close()
        except OSError:
            pass

    def _receive_loop(self) -> None:
        while True:
            try:
                response = self._conn.recv()
            except (EOFError, OSError):
                break
            except Exception:
                if self._closed:  # interpreter/service teardown race
                    break
                raise
            with self._lock:
                pending = self._pending.pop(response.get("id"), None)
            if pending is not None:
                pending.resolve(response)
        with self._lock:
            stranded = list(self._pending.values())
            self._pending.clear()
        for pending in stranded:
            pending.resolve({
                "ok": False, "error": "ShardUnavailable",
                "message": "worker process died",
            })


# ---------------------------------------------------------------------------
# supervision unit: one shard behind breaker + retry


class _WorkerFault(ReproError):
    """A worker-reported internal failure (retriable transient)."""


class ShardHandle:
    """One supervised shard: worker + circuit breaker + retry policy.

    ``factory(incarnation)`` builds a fresh worker; the supervisor calls
    :meth:`restart` with the next incarnation number after a crash, so
    every life of the shard is distinguishable (surfaced as the shard's
    ``generation`` on ``/healthz``).  :meth:`call` is the only request
    path and enforces the resilience contract:

    1. the breaker must admit the call (:class:`~repro.errors.CircuitOpen`
       otherwise, carrying ``retry_after``);
    2. each attempt is bounded — by the request deadline when there is
       one, by :data:`DEFAULT_CALL_TIMEOUT` otherwise — and polls worker
       liveness so a dead worker fails in ~:data:`POLL_INTERVAL`, not at
       the timeout;
    3. transient failures retry under the handle's
       :class:`~repro.server.resilience.RetryPolicy`, whose backoff
       sleeps never outlive the deadline;
    4. every outcome lands on the breaker and, when telemetry is
       attached, on the per-shard metric families.
    """

    def __init__(
        self,
        shard_id: int,
        factory: "Callable[[int], object]",
        breaker: "CircuitBreaker | None" = None,
        retry: "RetryPolicy | None" = None,
        telemetry=None,
        call_timeout: float = DEFAULT_CALL_TIMEOUT,
    ):
        self.shard_id = shard_id
        self.factory = factory
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=2, backoff=Backoff(initial=0.01, max_delay=0.1, seed=shard_id)
        )
        self.telemetry = telemetry
        self.call_timeout = call_timeout
        self.restarts = 0
        self.incarnation = 0
        self.state = "up"
        self.transactions: "int | None" = None
        self.decode_cache: "dict | None" = None
        #: Whether this incarnation has answered a ping yet (it builds
        #: its tree first, so a slow first answer is not a wedge).
        self.answered = False
        self._ids = itertools.count(1)
        self._lock = threading.RLock()
        if telemetry is not None:
            label = str(shard_id)
            self.breaker.on_transition = lambda old, new: (
                telemetry.shard_breaker_state.labels(shard=label).set(
                    {"closed": 0.0, "half-open": 1.0, "open": 2.0}[new]
                ),
                telemetry.emit(
                    "breaker_transition", shard=shard_id,
                    from_state=old, to_state=new,
                ),
            )
        self.worker = factory(0)

    # -- the request path --------------------------------------------------

    def call(self, request: dict, deadline: "Deadline | None" = None,
             trace=None, role: "str | None" = None) -> dict:
        """One resilient request; returns the worker's ``ok`` response.

        Raises :class:`~repro.errors.CircuitOpen`,
        :class:`~repro.errors.RetryExhausted`,
        :class:`~repro.errors.QueryTimeout`, or ``ValueError`` (a
        non-retriable bad request).

        When ``trace`` (a :class:`~repro.telemetry.tracing.RequestTrace`)
        rides along, the trace context joins the wire request, every
        attempt records an ``rpc`` span for this shard, a breaker
        rejection records a zero-duration ``rpc`` span annotated
        ``circuit_open``, and retry backoffs are timed by the retry
        policy itself.

        ``role`` annotates this shard's ``rpc`` spans (``"pilot"`` for
        the home shard queried first); a request seeded with the pilot's
        ``initial_threshold`` records it as the span's ``bound_seed``.
        """
        telemetry = self.telemetry
        label = str(self.shard_id)
        span_attrs = {"role": role} if role is not None else {}
        if not self.breaker.allow():
            if telemetry is not None:
                telemetry.shard_requests_total.labels(
                    shard=label, outcome="open"
                ).inc()
            if trace is not None:
                trace.add_span(
                    "rpc", shard=self.shard_id, outcome="circuit_open",
                    retry_after=round(self.breaker.retry_after(), 6),
                    **span_attrs,
                )
            raise CircuitOpen(
                "circuit breaker is open",
                shard_id=self.shard_id,
                retry_after=self.breaker.retry_after(),
            )
        if trace is not None and "trace" not in request:
            request = dict(request)
            request["trace"] = trace.context().to_wire()

        def attempt() -> dict:
            with _span(trace, "rpc", shard=self.shard_id, **span_attrs) as span:
                started = time.perf_counter()
                try:
                    response = self._attempt_once(request, deadline, span)
                except BaseException as exc:
                    if span is not None:
                        span.attrs["outcome"] = type(exc).__name__
                    if isinstance(exc, QueryTimeout):
                        if telemetry is not None:
                            telemetry.shard_requests_total.labels(
                                shard=label, outcome="timeout"
                            ).inc()
                    elif isinstance(exc, ValueError):
                        pass
                    else:
                        self.breaker.record_failure()
                        if telemetry is not None:
                            telemetry.shard_requests_total.labels(
                                shard=label, outcome="error"
                            ).inc()
                    raise
                latency = time.perf_counter() - started
                self.breaker.record_success(latency)
                if span is not None:
                    span.attrs["outcome"] = "ok"
                if telemetry is not None:
                    telemetry.shard_requests_total.labels(
                        shard=label, outcome="ok"
                    ).inc()
                    telemetry.shard_call_seconds.labels(shard=label).observe(
                        latency
                    )
                return response

        def on_retry(attempt_number: int, exc: BaseException) -> None:
            if telemetry is not None:
                telemetry.shard_retries_total.labels(shard=label).inc()

        return self.retry.run(
            attempt, deadline=deadline, shard_id=self.shard_id,
            on_retry=on_retry, trace=trace,
        )

    def _attempt_once(self, request: dict, deadline: "Deadline | None",
                      span=None) -> dict:
        worker = self.worker
        if worker is None or not worker.is_alive():
            raise ShardUnavailable("worker is down", shard_id=self.shard_id)
        wire = dict(request)
        wire["id"] = next(self._ids)
        if deadline is not None:
            wire["budget"] = deadline.remaining()
        seed = wire.get("initial_threshold")
        if seed is not None and span is not None:
            span.attrs["bound_seed"] = round(seed, 6)
        pending = worker.submit(wire)
        response = self._await(pending, worker, deadline)
        if not response.get("ok"):
            error = response.get("error", "unknown")
            message = response.get("message", "")
            if error in ("ValueError", "TypeError"):
                raise ValueError(f"shard {self.shard_id}: {message}")
            if error == "QueryTimeout":
                # The worker ran out of the request budget; confirm
                # against our own clock (raises QueryTimeout), else
                # treat as transient and let the retry policy decide.
                if deadline is not None:
                    deadline.check()
            raise _WorkerFault(
                f"shard {self.shard_id} failed: {error}: {message}"
            )
        return response

    def _await(self, pending: _PendingCall, worker,
               deadline: "Deadline | None") -> dict:
        """Bounded wait: resolves, or the worker dies, or time runs out."""
        limit = time.monotonic() + self.call_timeout
        while True:
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0.0:
                    deadline.check()
                slice_ = min(POLL_INTERVAL, remaining)
            else:
                slice_ = POLL_INTERVAL
            response = pending.wait(slice_)
            if response is not None:
                return response
            if not worker.is_alive():
                raise ShardUnavailable(
                    "worker died mid-call", shard_id=self.shard_id
                )
            if deadline is None and time.monotonic() >= limit:
                raise ShardUnavailable(
                    f"no response within {self.call_timeout:.1f}s",
                    shard_id=self.shard_id,
                )

    # -- supervision hooks -------------------------------------------------

    def probe(self, timeout: float = 1.0) -> "dict | None":
        """A liveness ping outside the retry/breaker path.

        Returns the ping response, or ``None`` when the worker is dead
        or did not answer in time (both mean "restart me").
        """
        worker = self.worker
        if worker is None or not worker.is_alive():
            return None
        try:
            pending = worker.submit({"op": "ping", "id": next(self._ids)})
        except ShardUnavailable:
            return None
        limit = time.monotonic() + timeout
        while time.monotonic() < limit:
            response = pending.wait(POLL_INTERVAL)
            if response is not None:
                if response.get("ok"):
                    self.answered = True
                    self.transactions = response.get("transactions")
                    self.decode_cache = response.get("decode_cache")
                    return response
                return None
            if not worker.is_alive():
                return None
        return None

    def restart(self) -> None:
        """Replace the worker with a fresh incarnation (breaker reset)."""
        with self._lock:
            old = self.worker
            self.worker = None
            if old is not None:
                try:
                    old.close()
                except Exception:  # noqa: BLE001 - old worker may be dead
                    pass
            self.incarnation += 1
            self.restarts += 1
            self.answered = False
            self.worker = self.factory(self.incarnation)
            self.breaker.reset()
            self.state = "up"
            if self.telemetry is not None:
                self.telemetry.shard_restarts_total.labels(
                    shard=str(self.shard_id)
                ).inc()

    def building(self) -> bool:
        """A live worker that has not answered its first ping yet."""
        worker = self.worker
        return not self.answered and worker is not None and worker.is_alive()

    def is_up(self) -> bool:
        worker = self.worker
        return (
            self.state == "up"
            and worker is not None
            and worker.is_alive()
            and self.breaker.state != CircuitBreaker.OPEN
        )

    def snapshot(self) -> dict:
        """The shard's ``/healthz`` row."""
        worker = self.worker
        return {
            "shard": self.shard_id,
            "state": self.state if worker is not None and worker.is_alive()
            else "down",
            "breaker": self.breaker.state,
            "restarts": self.restarts,
            "generation": self.incarnation,
            "transactions": self.transactions,
            "decode_cache": self.decode_cache,
        }

    def close(self) -> None:
        with self._lock:
            worker, self.worker = self.worker, None
            self.state = "closed"
        if worker is not None:
            worker.close()


def make_shard_handles(
    partitions: "Sequence[Sequence[Transaction]]",
    n_bits: int,
    chaos_plan=None,
    telemetry=None,
    tree_kwargs: "dict | None" = None,
    breaker_factory: "Callable[[int], CircuitBreaker] | None" = None,
    retry_factory: "Callable[[int], RetryPolicy] | None" = None,
    call_timeout: float = DEFAULT_CALL_TIMEOUT,
) -> "list[ShardHandle]":
    """One supervised :class:`ShardHandle` per partition, each running a
    :class:`ProcessShardWorker`.

    ``chaos_plan`` (a :class:`~repro.storage.faults.ChaosPlan`) arms the
    workers with seeded fault streams; each incarnation draws its own
    stream, and one started after :meth:`ChaosPlan.quiesce` runs
    without chaos.  The handle's factory rebuilds the shard tree from
    its partition on every restart — which is what heals a shard whose
    pager rotted.
    """
    handles: list[ShardHandle] = []
    for shard_id, partition in enumerate(partitions):
        rows = [(t.tid, tuple(t.signature.items())) for t in partition]
        build_tree = functools.partial(
            _build_shard_tree, n_bits, rows, tree_kwargs
        )

        def factory(incarnation: int, shard_id=shard_id, build_tree=build_tree):
            chaos = (
                chaos_plan.for_shard(shard_id, incarnation=incarnation)
                if chaos_plan is not None else None
            )
            return ProcessShardWorker(build_tree, shard_id=shard_id, chaos=chaos)

        handles.append(
            ShardHandle(
                shard_id,
                factory,
                breaker=breaker_factory(shard_id) if breaker_factory else None,
                retry=retry_factory(shard_id) if retry_factory else None,
                telemetry=telemetry,
                call_timeout=call_timeout,
            )
        )
    return handles


# ---------------------------------------------------------------------------
# scatter-gather


@dataclass
class Coverage:
    """Which shards contributed to a response.

    ``errors`` maps a shard id to a one-line failure description
    (exception type + message); a response with ``partial`` set served
    only the shards in ``answered``.
    """

    total: int
    answered: int
    errors: "dict[int, str]" = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        return self.answered < self.total

    def as_dict(self) -> dict:
        return {
            "shards_total": self.total,
            "shards_answered": self.answered,
            "partial": self.partial,
            "errors": {str(k): v for k, v in sorted(self.errors.items())},
        }


class ShardedTree:
    """Scatter-gather coordinator over N supervised shards.

    Queries scatter to every shard whose breaker admits them, gather
    within the request deadline, and merge: global top-k (by
    ``(distance, tid)``) for kNN, sorted union for range, sorted tid
    union for containment.  Shards that fail, trip their breaker, or
    miss the deadline are recorded in the returned :class:`Coverage`
    instead of failing the request — unless *no* shard answered, in
    which case the most informative error is raised
    (:class:`~repro.errors.QueryTimeout` when the budget ran out,
    :class:`~repro.errors.CircuitOpen` when every breaker is open,
    :class:`~repro.errors.ShardUnavailable` otherwise).

    kNN queries prune **cooperatively** when a ``router`` (from
    :func:`partition_routed`) is attached: the query's home shard runs
    first as the *pilot*, and when it answers with k hits their k-th
    distance rides every other shard's request as ``initial_threshold``.
    Without a router every shard prunes on its own k-th distance and
    the answers merge at the end.  Merged results stay bit-identical to
    the single-tree engine — the seed is the pilot's exact k-th
    distance, at least the global one, and the pilot's answer is merged
    (see ``docs/serving.md`` and DESIGN.md §13).
    """

    def __init__(self, handles: "Sequence[ShardHandle]", n_bits: int,
                 telemetry=None, router: "ShardRouter | None" = None):
        if not handles:
            raise ValueError("a sharded tree needs at least one shard")
        self.handles = list(handles)
        self.n_bits = n_bits
        self.telemetry = telemetry
        self.router = router
        self._pool = ThreadPoolExecutor(
            max_workers=len(self.handles), thread_name_prefix="sgtree-scatter"
        )

    def __len__(self) -> int:
        return sum(h.transactions or 0 for h in self.handles)

    @property
    def shard_count(self) -> int:
        return len(self.handles)

    def shards_up(self) -> int:
        return sum(1 for h in self.handles if h.is_up())

    def health(self) -> "list[dict]":
        return [h.snapshot() for h in self.handles]

    # -- scatter/gather ----------------------------------------------------

    def _scatter_to(self, handles: "Sequence[ShardHandle]", request: dict,
                    deadline: "Deadline | None", trace=None,
                    ) -> "tuple[dict[int, dict], dict[int, str]]":
        """Send ``request`` to ``handles``; gather within the deadline.

        Returns ``(responses, errors)`` by shard id.  When ``trace``
        rides along it is handed to every :meth:`ShardHandle.call` (per-
        attempt ``rpc`` spans), the whole fan-out is timed as one
        ``scatter`` span, and each shard's shipped-back visit-span tree
        is stitched into the trace as it arrives.
        """
        with _span(trace, "scatter", shards=len(handles)) as span:
            futures = {
                self._pool.submit(handle.call, request, deadline, trace): handle
                for handle in handles
            }
            answered: "dict[int, dict]" = {}
            errors: "dict[int, str]" = {}
            outstanding = set(futures)
            while outstanding:
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining <= 0.0:
                        break
                    done, outstanding = wait(
                        outstanding, timeout=remaining,
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        break
                else:
                    done, outstanding = wait(
                        outstanding, return_when=FIRST_COMPLETED
                    )
                for future in done:
                    handle = futures[future]
                    try:
                        response = future.result()
                    except Exception as exc:  # noqa: BLE001 - per-shard detail
                        errors[handle.shard_id] = f"{type(exc).__name__}: {exc}"
                        continue
                    answered[handle.shard_id] = response
                    _attach_shard_trace(trace, handle.shard_id, response)
            for future in outstanding:
                # Deadline ran out first; the handle's own bounded wait
                # unblocks these scatter threads moments later.
                handle = futures[future]
                errors[handle.shard_id] = "QueryTimeout: gather deadline expired"
                future.cancel()
            if span is not None:
                span.attrs["answered"] = len(answered)
            return answered, errors

    def _raise_total_failure(self, errors: "dict[int, str]",
                             deadline: "Deadline | None") -> None:
        descriptions = "; ".join(
            f"shard {sid}: {err}" for sid, err in sorted(errors.items())
        )
        if deadline is not None and deadline.expired():
            raise QueryTimeout(deadline.budget, deadline.budget)
        if errors and all(e.startswith("ValueError") for e in errors.values()):
            # Every shard rejected the request itself: a client error.
            raise ValueError(descriptions)
        if errors and all(e.startswith("CircuitOpen") for e in errors.values()):
            raise CircuitOpen(
                f"every shard breaker is open ({descriptions})",
                retry_after=max(h.breaker.retry_after() for h in self.handles),
            )
        raise ShardUnavailable(
            f"all {len(self.handles)} shards failed ({descriptions})"
        )

    # -- merged query surface ----------------------------------------------

    @staticmethod
    def _merge_stats(responses: "dict[int, dict]", stats: "SearchStats | None",
                     ) -> None:
        if stats is None:
            return
        for response in responses.values():
            row = response.get("stats") or {}
            stats.node_accesses += row.get("node_accesses", 0)
            stats.random_ios += row.get("random_ios", 0)
            stats.leaf_entries += row.get("leaf_entries", 0)

    def query(self, query: Query, stats: "SearchStats | None" = None,
              deadline: "Deadline | None" = None, trace=None,
              ) -> "tuple[list, Coverage]":
        """Answer one query across the shards: ``(merged, coverage)``.

        Scatters the query's wire dict, gathers within the deadline and
        folds the answers with :meth:`Query.merge`; ``stats`` sums the
        shards' traffic.  Cooperative kNN (see the class docstring)
        asks the pilot shard first and seeds the rest with its k-th
        distance; a pilot that fails or holds fewer than k hits leaves
        the rest unseeded.  ``stats.bound_provenance`` reads ``"pilot"``
        when the seed was the bound in force at the end of some shard's
        traversal.
        """
        request = query.to_wire()
        if trace is not None:
            request["trace"] = trace.context().to_wire()
        responses: "dict[int, dict]" = {}
        errors: "dict[int, str]" = {}
        pilot = None
        if query.kind == "knn" and self.router is not None \
                and len(self.handles) > 1:
            pilot_id = self.router.route(query.signatures(self.n_bits)[0])
            pilot = next(
                (h for h in self.handles if h.shard_id == pilot_id), None
            )
        if pilot is not None:
            with _span(trace, "pilot", shard=pilot.shard_id):
                try:
                    response = pilot.call(request, deadline, trace, role="pilot")
                except Exception as exc:  # noqa: BLE001 - per-shard detail
                    errors[pilot.shard_id] = f"{type(exc).__name__}: {exc}"
                else:
                    responses[pilot.shard_id] = response
                    _attach_shard_trace(trace, pilot.shard_id, response)
                    hits = response["results"]
                    if len(hits) >= query.k:
                        request["initial_threshold"] = max(d for d, _ in hits)
        rest = [h for h in self.handles if h is not pilot]
        answered, failed = self._scatter_to(rest, request, deadline, trace)
        responses.update(answered)
        errors.update(failed)
        if not responses:
            self._raise_total_failure(errors, deadline)
        self._merge_stats(responses, stats)
        with _span(trace, "merge", op=query.kind):
            merged = query.merge(
                [response["results"] for response in responses.values()]
            )
        if query.kind == "knn":
            seed_bound = any(
                (response.get("stats") or {}).get("bound_provenance")
                == "pilot" for response in answered.values()
            )
            if seed_bound and stats is not None:
                stats.bound_provenance = "pilot"
            if self.telemetry is not None:
                self.telemetry.bound_provenance_total.labels(
                    source="pilot" if seed_bound else "local"
                ).inc()
        return merged, Coverage(len(self.handles), len(responses), errors)

    def close(self) -> None:
        self._pool.shutdown(wait=False)
        for handle in self.handles:
            handle.close()


# ---------------------------------------------------------------------------
# the sharded service


class ShardedQueryService(QueryService):
    """Admission-controlled front end over a :class:`ShardedTree`.

    Inherits the whole request path of
    :class:`~repro.server.service.QueryService` — admission slots,
    bounded queue, deadlines, per-route telemetry — and swaps the
    execution hook for scatter-gather over the shards.  Shard failures
    degrade responses to partial results with
    :class:`Coverage` detail; the request itself only fails when *no*
    shard answered.

    Readiness (``/healthz``) requires at least ``quorum`` shards up
    (default: a majority); liveness is the process itself.  Snapshot
    reload is per-shard territory (the supervisor restarts shards
    individually) and the single-tree ``/admin/reload`` is rejected.
    """

    def __init__(
        self,
        shards: ShardedTree,
        supervisor=None,
        telemetry=None,
        max_inflight: int = 8,
        max_queue: int = 32,
        default_deadline: "float | None" = None,
        quorum: "int | None" = None,
        tracing=None,
    ):
        self._init_admission(
            telemetry=telemetry, max_inflight=max_inflight,
            max_queue=max_queue, default_deadline=default_deadline,
            tracing=tracing,
        )
        if quorum is None:
            quorum = shards.shard_count // 2 + 1
        if not 1 <= quorum <= shards.shard_count:
            raise ValueError(
                f"quorum must be in [1, {shards.shard_count}], got {quorum}"
            )
        self._shards = shards
        self._supervisor = supervisor
        self.quorum = quorum
        # Prime per-shard transaction counts so /healthz and __len__
        # report real numbers before the first supervisor probe.
        for handle in shards.handles:
            handle.probe(timeout=5.0)

    # -- surface adjustments -----------------------------------------------

    @property
    def shards(self) -> ShardedTree:
        return self._shards

    @property
    def tree(self):  # pragma: no cover - defensive
        raise AttributeError("a sharded service has no single tree")

    def _n_bits(self) -> int:
        return self._shards.n_bits

    # -- execution hook ----------------------------------------------------

    def _run(self, query: Query, deadline: "Deadline | None") -> ServedQuery:
        stats = SearchStats()
        results, coverage = self._shards.query(
            query, stats, deadline, self.current_trace()
        )
        telemetry = self.telemetry
        if telemetry is not None:
            if coverage.partial:
                telemetry.server_partial_total.labels(route=query.route).inc()
            telemetry.shards_up.set(self._shards.shards_up())
        return ServedQuery(
            query.kind, results, stats,
            coverage=coverage.as_dict(), partial=coverage.partial,
        )

    # -- health / lifecycle -------------------------------------------------

    def _ready(self) -> bool:
        return not self._closed and self._shards.shards_up() >= self.quorum

    def _health_extra(self) -> dict:
        detail = self._shards.health()
        up = self._shards.shards_up()
        return {
            "transactions": len(self._shards),
            "n_bits": self._shards.n_bits,
            "shards": {
                "total": self._shards.shard_count,
                "up": up,
                "quorum": self.quorum,
                "detail": detail,
            },
        }

    def reload(self, *args, **kwargs) -> dict:
        raise ReproError(
            "a sharded service reloads per shard through its supervisor; "
            "/admin/reload applies to single-tree serving only"
        )

    def close(self) -> None:
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.stop()
        self._shards.close()
