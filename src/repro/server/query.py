"""One query value, from the HTTP body to the shard worker.

A :class:`Query` names one of the five query kinds the serving stack
answers (``knn``, ``range``, ``containment``, ``batch_knn``,
``batch_range``) and carries the fields that kind uses.  Every layer
forwards the same value untouched: the HTTP front end builds it with
:meth:`Query.from_body` (the only validation of client fields), the
services route it, the sharded coordinator ships :meth:`Query.to_wire`
to each worker, and the worker rebuilds it with :meth:`Query.from_wire`
and answers with :meth:`Query.run`, which calls the matching
:class:`~repro.sgtree.tree.SGTree` query method (Section 4 of the
paper: one traversal over one tree).  :meth:`Query.merge` folds the
per-shard answers into the global one.

Request context — deadline, stats, tracer and bound seed — travels
beside the query as keyword arguments, never inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from ..core.signature import Signature
from ..sgtree.search import Neighbor
from ..telemetry.tracing import Tracer

__all__ = ["Query", "ROUTES"]

#: The ``POST /query/<route>`` paths; ``batch`` carries its kind in the body.
ROUTES = ("knn", "range", "containment", "batch")

#: Each batch kind and the single-query kind it answers per query.
_BATCH = {"batch_knn": "knn", "batch_range": "range"}

#: Item ids and ``k`` must fit the engines' int64 arrays.
_INT_LIMIT = 2**63


def _items(value: object, name: str) -> tuple:
    if not isinstance(value, list) or any(
        type(i) is not int or not 0 <= i < _INT_LIMIT for i in value
    ):
        raise ValueError(f"{name} must be a list of integer item ids >= 0")
    return tuple(value)


@dataclass(frozen=True)
class Query:
    """One query: its kind plus the fields that kind reads.

    ``items`` is the single query's item ids; ``queries`` holds one item
    list per query of a batch.  ``k`` applies to the kNN kinds,
    ``epsilon`` to the range kinds, ``metric`` to every kind but
    containment, and ``algorithm`` to ``knn`` only.  Construction does
    not validate; :meth:`from_body` does, and the engines reject what
    reaches them malformed.
    """

    kind: str
    items: Sequence[int] = ()
    queries: Sequence[Sequence[int]] = ()
    k: int = 1
    epsilon: "float | None" = None
    metric: "str | None" = None
    algorithm: str = "depth-first"

    @property
    def batch(self) -> bool:
        return self.kind in _BATCH

    @property
    def route(self) -> str:
        """The ``route`` label of the request metrics."""
        return "batch" if self.batch else self.kind

    # -- the client and wire forms -----------------------------------------

    @classmethod
    def from_body(cls, route: str, body: dict) -> "Query":
        """Validate a ``POST /query/<route>`` JSON body into a query.

        ``k`` must be a JSON integer >= 1 and item ids JSON integers
        >= 0 (neither a boolean, both below 2**63), and ``epsilon`` a
        finite number >= 0; a ``batch`` body names ``"kind": "knn"``
        (the default) or ``"range"``.  Malformed bodies raise
        ``ValueError`` or ``KeyError`` (HTTP 400).
        """
        if route == "batch":
            kind = body.get("kind", "knn")
            if kind not in ("knn", "range"):
                raise ValueError(
                    f"batch kind must be 'knn' or 'range', got {kind!r}"
                )
            kind = f"batch_{kind}"
            queries = body["queries"]
            if not isinstance(queries, list):
                raise ValueError("queries must be a list of item lists")
            fields = {"queries": tuple(_items(q, "queries") for q in queries)}
        elif route in ROUTES:
            kind = route
            fields = {"items": _items(body["items"], "items")}
        else:
            raise ValueError(f"unknown query kind {route!r}")
        each = _BATCH.get(kind, kind)
        if each == "knn":
            k = body.get("k", 1)
            if type(k) is not int or not 1 <= k < _INT_LIMIT:
                raise ValueError(f"k must be an integer >= 1, got {k!r}")
            fields["k"] = k
        if each == "range":
            epsilon = body.get("epsilon")
            if epsilon is None:
                raise ValueError(f"{kind} requires epsilon")
            if type(epsilon) not in (int, float) or not (
                0 <= epsilon < math.inf
            ):
                raise ValueError(
                    f"epsilon must be a finite number >= 0, got {epsilon!r}"
                )
            fields["epsilon"] = float(epsilon)
        if each != "containment":
            fields["metric"] = body.get("metric")
        if kind == "knn":
            fields["algorithm"] = body.get("algorithm", "depth-first")
        return cls(kind, **fields)

    def to_wire(self) -> dict:
        """The worker request: the query's fields under ``op`` = kind."""
        return {
            "op": self.kind, "items": self.items, "queries": self.queries,
            "k": self.k, "epsilon": self.epsilon, "metric": self.metric,
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "Query":
        """The inverse of :meth:`to_wire`; request-context keys are ignored."""
        return cls(
            wire["op"], items=wire["items"], queries=wire["queries"],
            k=wire["k"], epsilon=wire["epsilon"], metric=wire["metric"],
            algorithm=wire["algorithm"],
        )

    # -- answering ---------------------------------------------------------

    def signatures(self, n_bits: int) -> "list[Signature]":
        """One signature per batch query, or the single query's one."""
        lists = self.queries if self.batch else (self.items,)
        return [Signature.from_items(items, n_bits) for items in lists]

    def tracer(self, sampled: bool) -> "Tracer | None":
        """A per-node visit tracer for a head-sampled request, if any.

        Per-node tracing understands only the single-query depth-first
        traversals (the restriction ``SGTree.explain`` has), so batches
        and best-first kNN run untraced even when sampled.
        """
        if sampled and not self.batch and self.algorithm == "depth-first":
            return Tracer()
        return None

    def run(self, tree, stats=None, deadline=None, tracer=None,
            initial_threshold: "float | None" = None) -> list:
        """Answer on one tree (or pinned snapshot) with its query method.

        ``tracer`` reaches the single-query kinds; ``initial_threshold``
        reaches the kNN kinds (a batch seeds every query with the one
        threshold).
        """
        signatures = self.signatures(tree.n_bits)
        kind = self.kind
        if kind == "knn":
            return tree.nearest(
                signatures[0], k=self.k, metric=self.metric,
                algorithm=self.algorithm, stats=stats, deadline=deadline,
                tracer=tracer, initial_threshold=initial_threshold,
            )
        if kind == "range":
            return tree.range_query(
                signatures[0], self.epsilon, metric=self.metric,
                stats=stats, deadline=deadline, tracer=tracer,
            )
        if kind == "containment":
            return tree.containment_query(
                signatures[0], stats=stats, deadline=deadline, tracer=tracer,
            )
        if kind == "batch_knn":
            return tree.batch_nearest(
                signatures, k=self.k, metric=self.metric, stats=stats,
                deadline=deadline, initial_thresholds=initial_threshold,
            )
        if kind == "batch_range":
            return tree.batch_range_query(
                signatures, self.epsilon, metric=self.metric, stats=stats,
                deadline=deadline,
            )
        raise ValueError(f"unknown query kind {kind!r}")

    def merge(self, answers: Iterable) -> list:
        """Fold per-shard answers into the global answer.

        kNN keeps the global top-k by ``(distance, tid)`` (a pair held
        twice counts once), range the sorted union, containment the
        sorted tids; a batch merges each of its queries that way.
        """
        answers = list(answers)
        if self.batch:
            each = replace(self, kind=_BATCH[self.kind])
            return [
                each.merge(answer[i] for answer in answers)
                for i in range(len(self.queries))
            ]
        if self.kind == "containment":
            return sorted(tid for answer in answers for tid in answer)
        hits = (
            Neighbor(distance, tid)
            for answer in answers for distance, tid in answer
        )
        if self.kind == "knn":
            return sorted(set(hits))[: self.k]
        return sorted(hits)
