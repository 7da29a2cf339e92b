"""Cooperative cross-shard kNN pruning: the shared k-th-distance bound.

The paper's kNN search (Section 5.2) is branch-and-bound: its cost is
governed entirely by how tight the running k-th-distance threshold is.
A sharded deployment that only merges at the end leaves that leverage on
the table — each shard prunes against its own local top-k even when
another shard has already found k closer neighbours.  This module makes
the bound a first-class shared object:

* :class:`GlobalBound` is the coordinator's monotone-tightening cell.
  It is **candidate-backed**: the threshold it publishes is always the
  k-th best distance among ``(distance, tid)`` pairs the coordinator
  itself holds, never a bare number a shard once claimed.  That single
  invariant buys both safety properties for free —

  - *monotone tightening*: candidates only accumulate, so the k-th best
    held distance only decreases;
  - *dead-shard safety*: any bound that ever tightened a survivor's
    search is backed by k candidates the coordinator still holds and
    will merge into the final answer (:meth:`candidates`), so a shard
    dying after reporting a tight bound can never cause a result it
    justified to go missing.

Shard workers reach the cell over their pipe: the search engines poll a
per-request channel every ``interval`` node visits, piggybacking on the
per-visit deadline checkpoint; the channel sends the worker's current
top-k *pairs* up as a ``bound_report``, the coordinator folds them in
and answers with a ``bound_update`` carrying the (possibly tighter)
global threshold for the engine to adopt (see :mod:`repro.server.shard`).

Why a stale bound is always safe (the argument DESIGN.md §13 spells
out): a shard caps its heap at threshold ``c`` and therefore returns
exactly the neighbours of its unseeded top-k with distance ``<= c``
(ties at ``c`` are admitted, matching the engines' strict ``>`` prune).
Every ``c`` the coordinator ever publishes is a k-th best distance over
*true* result pairs, hence ``c >=`` the final global k-th distance at
all times.  Dropping only candidates strictly beyond the global k-th
distance can never change the merged top-k, so the merged answer is
bit-identical to the single-tree engine's — including ``(distance,
tid)`` tie order — no matter how stale, reordered, or lost the bound
messages were.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

__all__ = ["DEFAULT_BOUND_INTERVAL", "GlobalBound"]

#: Node visits between two bound exchanges inside a shard traversal.
#: Small enough that a tight bound propagates while traversals are
#: still young, large enough that the exchange stays off the per-visit
#: fast path (one lock acquisition / pipe message per M visits).
DEFAULT_BOUND_INTERVAL = 16


class GlobalBound:
    """The coordinator's candidate-backed, monotone-tightening bound.

    One instance lives for one cooperative kNN request.  Shards (and
    the coordinator itself, as responses arrive) fold ``(distance,
    tid)`` pairs in; the cell keeps the best ``k`` seen so far and
    publishes their k-th distance as the global threshold.

    Thread-safe: folds arrive concurrently from scatter threads and the
    process workers' receive loops.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._lock = threading.Lock()
        self._candidates: "dict[int, float]" = {}
        self._threshold = float("inf")
        #: Provenance of the currently-binding threshold: ``None`` while
        #: nothing tightened it (shards prune locally), ``"pilot"`` when
        #: the home shard's answer seeded it, ``"broadcast"`` once a
        #: mid-flight report or a gathered response tightened it further.
        self.source: "str | None" = None
        #: Mid-flight reports folded (not counting response-arrival folds).
        self.reports = 0
        #: Folds that strictly tightened the published threshold.
        self.tightenings = 0

    @property
    def threshold(self) -> float:
        """The current global bound (``inf`` until k candidates exist)."""
        with self._lock:
            return self._threshold

    def fold(self, pairs: "Iterable[Sequence]", source: str = "broadcast",
             report: bool = False) -> float:
        """Merge ``(distance, tid)`` pairs; return the new threshold.

        The threshold is recomputed as the k-th best distance among all
        held candidates — it can only decrease.  ``source`` labels a
        fold that ends up binding (``"pilot"`` for the home shard's
        gathered answer, ``"broadcast"`` for mid-flight reports and
        scatter arrivals); ``report=True`` counts the fold as a
        mid-flight report for observability.
        """
        with self._lock:
            if report:
                self.reports += 1
            changed = False
            for distance, tid in pairs:
                known = self._candidates.get(tid)
                if known is None or distance < known:
                    self._candidates[tid] = distance
                    changed = True
            if not changed:
                return self._threshold
            if len(self._candidates) > self.k:
                keep = sorted(
                    (distance, tid) for tid, distance in self._candidates.items()
                )[: self.k]
                self._candidates = {tid: distance for distance, tid in keep}
            if len(self._candidates) >= self.k:
                kth = max(self._candidates.values())
                if kth < self._threshold:
                    self._threshold = kth
                    self.source = source
                    self.tightenings += 1
            return self._threshold

    def candidates(self) -> "list[tuple[float, int]]":
        """The held ``(distance, tid)`` pairs, best first.

        These carry true distances (they came from real shard heaps),
        so the coordinator merges them into the final answer — the
        salvage that makes a dead shard's bound safe: whatever evidence
        justified the bound is still part of the result.
        """
        with self._lock:
            return sorted(
                (distance, tid) for tid, distance in self._candidates.items()
            )

