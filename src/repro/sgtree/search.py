"""Query processing on the SG-tree (Section 4), one traversal per shape.

* **Set predicates** — containment (itemset superset; Section 3's
  descent following entries whose signature contains the query
  signature), subset and equality share one stack walk
  (:func:`containment_search`, :func:`subset_search`,
  :func:`equality_search`).  The paper (citing Helmer & Moerkotte) notes
  signature trees are *not* the right tool for subset and equality
  queries, which the inverted-index baseline ablation regenerates.
* **Similarity range** — :func:`batch_range`, branch-and-bound pruning
  entries whose optimistic bound exceeds ``epsilon``, for one query or a
  whole batch in one shared traversal.
* **Depth-first k-NN** — :func:`knn_depth_first`, the paper's Figure 4:
  entries visited in ascending lower-bound order with a minimum-area
  tie-break.
* **Best-first k-NN** — the I/O-optimal global priority queue the paper
  attributes to Hjaltason & Samet: :func:`browse` yields neighbours in
  increasing distance, and :func:`knn_best_first` is its first ``k``.
* **Batched k-NN** — :func:`batch_knn`, one shared frontier for a whole
  query batch.
* **Aggregates** — :func:`range_count_bounds` (and :func:`range_count`)
  and :func:`constrained_nearest`.

Searches optionally fill a :class:`SearchStats`, whose fields feed the
paper's evaluation metrics: node accesses, random I/Os (buffer misses)
and the number of leaf transactions compared (the "% of data accessed").

Every traversal the query-serving layer exposes (k-NN, range,
containment, and both batch engines) also accepts a :class:`Deadline`
and checks it once per node visit — a cooperative cancellation
checkpoint.  An expired query raises
:class:`~repro.errors.QueryTimeout` instead of visiting further nodes;
the stats still account the traffic generated up to that point.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core import bitops, ckernel
from ..core.distance import HammingMetric, Metric
from ..core.signature import Signature
from ..errors import QueryTimeout
from ..storage.page import PageId
from .node import NodeStore

__all__ = [
    "Deadline",
    "Neighbor",
    "KnnHeap",
    "strengthen_hamming_bounds",
    "SearchStats",
    "knn_depth_first",
    "knn_best_first",
    "batch_knn",
    "batch_range",
    "browse",
    "range_count",
    "range_count_bounds",
    "constrained_nearest",
    "containment_search",
    "subset_search",
    "equality_search",
]


class Deadline:
    """A wall-clock budget a traversal checks cooperatively.

    Built from a relative budget (:meth:`after`) or an absolute
    :func:`time.monotonic` timestamp.  Traversals call :meth:`check`
    once per node visit — before paying the node access — and an
    expired deadline raises :class:`~repro.errors.QueryTimeout` there,
    so cancellation latency is bounded by the cost of a single node.

    A ``None`` deadline everywhere means "no budget"; the disabled path
    costs one ``is None`` test per node visit.
    """

    __slots__ = ("at", "budget")

    def __init__(self, at: float, budget: float | None = None):
        self.at = float(at)
        #: the original relative budget in seconds (for error messages);
        #: reconstructed from ``at`` when constructed absolutely.
        self.budget = float(budget) if budget is not None else 0.0

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now (finite, non-negative)."""
        if not 0 <= seconds < math.inf:
            raise ValueError(
                f"deadline budget must be finite and >= 0, got {seconds}"
            )
        return cls(time.monotonic() + seconds, budget=seconds)

    def expired(self) -> bool:
        return time.monotonic() >= self.at

    def remaining(self) -> float:
        """Seconds left before expiry (never negative)."""
        return max(0.0, self.at - time.monotonic())

    def check(self) -> None:
        """Raise :class:`~repro.errors.QueryTimeout` once expired."""
        now = time.monotonic()
        if now >= self.at:
            raise QueryTimeout(now - self.at + self.budget, self.budget)

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.6f}s)"


class Neighbor(NamedTuple):
    """One search hit: distance from the query and the transaction id."""

    distance: float
    tid: int


@dataclass
class SearchStats:
    """Per-query (or per-batch) traffic, in the paper's evaluation units."""

    node_accesses: int = 0
    random_ios: int = 0
    leaf_entries: int = 0
    #: ``"pilot"`` when an ``initial_threshold`` seed, not the query's
    #: own k-th distance, was the pruning bound in force at the end.
    #: ``None`` means local (or not a kNN traversal).
    bound_provenance: "str | None" = None

    @property
    def buffer_hits(self) -> int:
        """Node accesses served by the buffer (no random I/O paid)."""
        return self.node_accesses - self.random_ios

    @property
    def hit_ratio(self) -> "float | None":
        """Buffer hit ratio over the node accesses (1.0 = fully cached).

        ``None`` when no node was accessed — an idle shard has no hit
        ratio, and reporting ``0.0`` would wrongly drag down any caller
        averaging ratios across shards.  Aggregate with
        :meth:`aggregate` (ratio of summed counters), never by averaging
        per-shard ratios.
        """
        if not self.node_accesses:
            return None
        return self.buffer_hits / self.node_accesses

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another query's (or batch shard's) traffic."""
        self.node_accesses += other.node_accesses
        self.random_ios += other.random_ios
        self.leaf_entries += other.leaf_entries
        if self.bound_provenance is None:
            self.bound_provenance = other.bound_provenance

    @classmethod
    def aggregate(cls, shards: "list[SearchStats | None]") -> "SearchStats":
        """NaN-safe ratio-of-sums aggregation over per-shard stats.

        Counters are summed before any ratio is derived, so the
        aggregate ``hit_ratio`` is the traffic-weighted ratio: a shard
        that accessed nothing (``hit_ratio is None``) contributes
        nothing, instead of pulling a naive mean of ratios toward zero.
        ``None`` entries (shards that never ran) are skipped.
        """
        total = cls()
        for shard in shards:
            if shard is not None:
                total.merge(shard)
        return total

    def data_fraction(self, database_size: int) -> float:
        """The paper's "% of data processed" for a database of given size."""
        if database_size <= 0:
            return 0.0
        return 100.0 * self.leaf_entries / database_size


class _StatsScope:
    """Capture one traversal's traffic into a :class:`SearchStats`.

    The scope accumulates leaf-sweep counts on itself
    (``scope.leaf_entries``) and flushes them together with the
    store-counter deltas in ``__exit__`` — which runs whether the
    traversal returns or raises, so a search aborted mid-traversal still
    accounts exactly the node accesses and random I/Os it generated.
    The exception, if any, is never swallowed.
    """

    __slots__ = ("_store", "_stats", "_before", "leaf_entries")

    def __init__(self, store: NodeStore, stats: SearchStats | None):
        self._store = store
        self._stats = stats
        self._before = None
        self.leaf_entries = 0

    def __enter__(self) -> "_StatsScope":
        self._before = self._store.counters.snapshot()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        stats = self._stats
        if stats is not None:
            after = self._store.counters
            stats.node_accesses += after.node_accesses - self._before.node_accesses
            stats.random_ios += after.random_ios - self._before.random_ios
            stats.leaf_entries += self.leaf_entries
        return False


def strengthen_hamming_bounds(
    metric: Metric, query_areas, node, bounds: np.ndarray
) -> np.ndarray:
    """Sharpen plain-Hamming directory bounds with subtree area stats.

    The Section-6 "statistics from the indexed data" optimisation: with
    the entry's subtree area range ``[lo, hi]`` and
    ``c = min(|q ∩ sig|, hi)``,

        ham(q, t) = (|q| − |q∩t|) + (|t| − |q∩t|)
                  ≥ (|q| − c) + max(0, lo − c)

    which dominates the generic ``|q minus sig|`` and reduces to the
    fixed-dimensionality bound when ``lo == hi``.  Applied only for the
    plain Hamming metric (the fixed-area variant already encodes it) and
    only when every entry carries statistics.

    ``query_areas`` is one query's area (a scalar, with ``(E,)`` bounds)
    or a ``(Q, 1)`` float64 column of areas (with ``(Q, E)`` bounds);
    both run the same float64 operations, so batched and sequential
    traversals prune identically.
    """
    if metric.name != "hamming" or getattr(metric, "fixed_area", None) is not None:
        return bounds
    ranges = node.area_ranges()
    if ranges is None:
        return bounds
    mins, maxs = ranges
    common = query_areas - bounds  # |q ∩ sig| per entry
    c = np.minimum(common, maxs)
    return (query_areas - c) + np.maximum(0, mins - c)


#: What :func:`_robust_bounds` takes off a ratio-metric bound: 4 eps.
_RATIO_SLACK = 4 * np.finfo(np.float64).eps


def _robust_bounds(metric: Metric, bounds: np.ndarray) -> np.ndarray:
    """Lower ratio-metric bounds by their rounding error so pruning stays sound.

    A ratio metric's bound and a member's distance are both ``1 − s``
    for a similarity ``s`` in ``[0, 1]``, computed through *different*
    float expressions, so when the two are equal mathematically the
    bound can round above the distance and strict pruning then drops an
    exact tie.  Each side's error is absolute, at most about 1.25 eps:
    cosine's ``sqrt`` and division each err by half an ulp of ``s`` and
    the final subtraction by half an ulp of the result (Jaccard and Dice
    have one division).  So the gap is at most ~2.25 eps, which is many
    ulps of a small result: cosine's ``1 − sqrt(1/3)`` and
    ``1 − 1/sqrt(3)`` are 2 ulps apart at 0.42.  Subtracting 4 eps keeps
    every bound admissible (a lower bound may undershoot) and restores
    exact results for either traversal engine, which is what makes
    batched and sequential answers identical on ties.  Hamming bounds
    are integers in float64, hence already exact.
    """
    if metric.name == "hamming":
        return bounds
    return bounds - _RATIO_SLACK


def _directory_bounds(metric: Metric, query: Signature, node) -> np.ndarray:
    """Per-entry lower bounds for a directory node, stats-sharpened."""
    bounds = metric.lower_bound_many(query, node.signature_matrix())
    return _robust_bounds(
        metric, strengthen_hamming_bounds(metric, query.area, node, bounds)
    )


def _stack_queries(queries: "list[Signature]") -> tuple[np.ndarray, np.ndarray]:
    """Stack a query batch into a ``(Q, n_words)`` matrix plus its areas."""
    matrix = np.stack([query.words for query in queries])
    areas = np.asarray(bitops.popcount(matrix), dtype=np.int64)
    return matrix, areas


class _BatchContext:
    """Per-batch precomputation shared by every node visit.

    Stacks the query signatures once; a leaf or directory visit is then
    a single matrix×matrix kernel call over the node's cached
    signature matrix.  For the Hamming metric the leaf sweep goes
    through the fused threshold filter in :mod:`~repro.core.ckernel`
    when the compiled kernels are available: one native call computes
    every (query, entry) distance *and* drops the pairs the caller's
    thresholds already reject, so nothing per-pair ever surfaces to
    Python.  Both paths emit identical pairs and identical float64
    distances (Hamming distances are exact small integers either way).
    """

    __slots__ = ("qmatrix", "qareas", "_fused", "_tau", "_filter", "_multi")

    def __init__(self, queries: "list[Signature]", metric: Metric):
        self.qmatrix, self.qareas = _stack_queries(queries)
        self.qmatrix = np.ascontiguousarray(self.qmatrix)
        # The fused filter hard-codes the plain XOR-popcount distance, so
        # it is only sound when the metric's leaf distance *is* that
        # (true for HammingMetric and subclasses that don't override the
        # counts form — fixed_area only changes directory bounds).
        self._fused = (
            ckernel.available()
            and isinstance(metric, HammingMetric)
            and type(metric).distance_matrix_from_counts
            is HammingMetric.distance_matrix_from_counts
        )
        self._tau: np.ndarray | None = None
        self._filter: "ckernel.HammingFilter | None" = None
        self._multi: "ckernel.MultiHammingFilter | None" = None

    def bind_thresholds(self, thresholds: np.ndarray) -> None:
        """Attach the engine's per-query threshold vector.

        The vector is read at every :meth:`leaf_candidates` /
        :meth:`sweep_many` call — through its buffer on the fused path —
        so the engine must tighten it strictly in place (never
        reallocate it).
        """
        self._tau = thresholds
        if self._fused:
            self._filter = ckernel.HammingFilter(self.qmatrix, thresholds)
            self._multi = ckernel.MultiHammingFilter(self.qmatrix, thresholds)

    def leaf_candidates(
        self, metric: Metric, node, qidx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Threshold-filtered leaf sweep: ``(rows, cols, distances)``.

        ``rows`` indexes into ``qidx``, ``cols`` into the node's
        entries; only pairs with ``distance <= thresholds[qidx[row]]``
        survive.  On the fused path the returned arrays are views into
        reusable scratch buffers — valid until the next call, so
        callers that retain them must copy.
        """
        if self._filter is not None and node.matrix_ptr is not None:
            return self._filter(qidx, node.matrix_ptr, len(node))
        # the node keeps its areas, so a ratio metric's sweep does not
        # recount them on every visit
        inter = bitops.cross_intersect_count(
            self.qmatrix[qidx], node.signature_matrix()
        )
        distances = metric.distance_matrix_from_counts(
            inter, self.qareas[qidx], node.entry_areas()
        )
        rows, cols = np.nonzero(distances <= self._tau[qidx][:, None])
        return rows, cols, distances[rows, cols]

    def sweep_many(
        self, metric: Metric, leaves: "list[tuple[np.ndarray, object]]"
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Threshold-filtered sweep of a whole run of leaves at once.

        ``leaves`` holds ``(qidx, node)`` pairs in pop order.  Returns
        fully resolved parallel arrays ``(query index, entry ref,
        distance)`` over every surviving pair of the run.  On the fused
        path this is a single native call and the arrays are scratch
        views valid until the next call; the numpy path concatenates
        per-leaf results.  Both emit the same pairs and float64 values.
        """
        multi = self._multi
        if multi is not None:
            n_leaves = len(leaves)
            qns = np.empty(n_leaves, dtype=np.int64)
            mats = np.empty(n_leaves, dtype=np.uint64)
            reftabs = np.empty(n_leaves, dtype=np.uint64)
            brows = np.empty(n_leaves, dtype=np.int64)
            need = 0
            parts = []
            for i, (qidx, node) in enumerate(leaves):
                mp = node.matrix_ptr
                rp = node.refs_ptr
                if mp is None or rp is None:
                    break  # a layout the kernel cannot read — numpy path
                rows = len(node)
                parts.append(qidx)
                qns[i] = qidx.size
                mats[i] = mp
                reftabs[i] = rp
                brows[i] = rows
                need += qidx.size * rows
            else:
                qsel = parts[0] if n_leaves == 1 else np.concatenate(parts)
                return multi(qsel, qns, mats, reftabs, brows, need)
        qs: list[np.ndarray] = []
        ts: list[np.ndarray] = []
        ds: list[np.ndarray] = []
        for qidx, node in leaves:
            rows, cols, cand_d = self.leaf_candidates(metric, node, qidx)
            if rows.size:
                qs.append(qidx[rows])
                ts.append(node.entry_refs()[cols])
                ds.append(cand_d.copy())  # may be scratch-backed
        if not qs:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0, dtype=np.float64)
        return np.concatenate(qs), np.concatenate(ts), np.concatenate(ds)

    def directory_bounds(self, metric: Metric, node, qidx: np.ndarray) -> np.ndarray:
        """``(|qidx|, E)`` stats-sharpened lower bounds for a directory."""
        bounds = metric.lower_bound_matrix(
            self.qmatrix[qidx], self.qareas[qidx], node.signature_matrix()
        )
        areas = self.qareas[qidx].astype(np.float64)[:, None]
        return _robust_bounds(
            metric, strengthen_hamming_bounds(metric, areas, node, bounds)
        )


def _entry_order(metric: Metric, query: Signature, node) -> tuple[np.ndarray, np.ndarray]:
    """Lower bounds and the Figure-4 visit order for a directory node.

    Entries are sorted by ascending optimistic bound; ties are broken by
    placing the smallest-area entries first (the paper's probabilistic
    argument: among subtrees sharing the same number of common items with
    the query, the densest one is most likely to contain the optimistic
    neighbour).
    """
    bounds = _directory_bounds(metric, query, node)
    order = np.lexsort((node.entry_areas(), bounds))
    return bounds, order


def _seed_cap(initial_threshold: "float | None") -> float:
    """The pruning cap an ``initial_threshold`` seed sets (``inf`` if none)."""
    if initial_threshold is None:
        return math.inf
    cap = float(initial_threshold)
    if cap != cap or cap < 0:  # NaN-safe: NaN != NaN
        raise ValueError(
            f"initial_threshold must be a non-negative number, "
            f"got {initial_threshold!r}"
        )
    return cap


class KnnHeap:
    """A bounded max-heap of the k best neighbours found so far.

    Candidates are ordered by the canonical ``(distance, tid)`` pair, so
    the retained set is the total-order top-k of everything offered — it
    does not depend on the order candidates arrive.  This is what lets
    the batched engine, which visits nodes in a different order than the
    single-query traversals, return bit-identical results (ids and
    distances, ties included).

    The heap can start *pre-tightened*: ``initial_threshold`` caps the
    pruning threshold before the first candidate arrives (a sharded
    coordinator's pilot seed).  Candidates strictly above the cap are
    rejected — ties at the cap are admitted, mirroring the strict
    pruning rule — so a seeded search returns exactly the candidates of
    the unseeded top-k whose distance is ``<= cap``: a prefix filter,
    never a reordering.
    A cap that is at least the true global k-th distance therefore
    never changes a merged multi-shard top-k.
    """

    def __init__(self, k: int, initial_threshold: "float | None" = None):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._heap: list[tuple[float, int]] = []  # (-distance, -tid); root = worst
        self._cap = _seed_cap(initial_threshold)

    @property
    def threshold(self) -> float:
        """Distance of the current k-th neighbour, capped externally.

        ``inf`` while not full and uncapped.  A subtree whose lower
        bound *exceeds* this cannot contribute; one whose bound equals
        it may still hold an equal-distance, smaller-tid neighbour, so
        pruning must stay strict.
        """
        if len(self._heap) < self.k:
            return self._cap
        kth = -self._heap[0][0]
        return kth if kth < self._cap else self._cap

    @property
    def provenance(self) -> str:
        """Which bound is pruning right now: the local k-th distance or
        the pilot seed."""
        if self._cap == float("inf") or (
            len(self._heap) >= self.k and -self._heap[0][0] <= self._cap
        ):
            return "local"
        return "pilot"

    def _worst(self) -> tuple[float, int]:
        """The current k-th ``(distance, tid)`` pair (heap must be full)."""
        neg_distance, neg_tid = self._heap[0]
        return (-neg_distance, -neg_tid)

    def offer(self, distance: float, tid: int) -> None:
        if distance > self._cap:
            return
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-distance, -tid))
        elif (distance, tid) < self._worst():
            heapq.heapreplace(self._heap, (-distance, -tid))

    def offer_many(self, distances: np.ndarray, refs: "list[int] | np.ndarray") -> None:
        """Offer a whole leaf at once.

        Candidates are inserted in ascending ``(distance, tid)`` order
        and the heap threshold is re-read before every insertion, so an
        entry that a just-inserted better candidate displaces from the
        top-k is never admitted.  The scan stops at the first candidate
        the current threshold rejects — every later candidate is worse
        still.
        """
        refs = np.asarray(refs, dtype=np.int64)
        for i in np.lexsort((refs, distances)):
            distance = float(distances[i])
            if distance > self.threshold:
                break
            self.offer(distance, int(refs[i]))

    def results(self) -> list[Neighbor]:
        ordered = sorted((-d, -neg_tid) for d, neg_tid in self._heap)
        return [Neighbor(distance, tid) for distance, tid in ordered]


def knn_depth_first(
    store: NodeStore,
    root_id: PageId,
    query: Signature,
    k: int,
    metric: Metric,
    stats: SearchStats | None = None,
    tracer=None,
    deadline: "Deadline | None" = None,
    initial_threshold: "float | None" = None,
) -> list[Neighbor]:
    """Figure 4: depth-first branch-and-bound k-NN.

    With a :class:`~repro.telemetry.tracing.Tracer`, every node access
    becomes a visit span recording each entry's lower bound and the
    pruned/descended decision at the threshold in force at that moment;
    results are identical either way (the tracer only observes).

    ``initial_threshold`` pre-tightens the heap (see :class:`KnnHeap`):
    the result is the unseeded top-k filtered to ``distance <= seed``.
    """
    with _StatsScope(store, stats) as active:
        best = KnnHeap(k, initial_threshold=initial_threshold)

        def visit(page_id: PageId, parent=None) -> None:
            if deadline is not None:
                deadline.check()
            if tracer is None:
                span, node = None, store.read(page_id)
            else:
                span, node = tracer.visit(store, page_id, parent, best.threshold)
            n_entries = len(node)
            if not n_entries:
                return
            matrix = node.signature_matrix()
            refs = node.entry_refs()
            if node.is_leaf:
                active.leaf_entries += n_entries
                distances = metric.distance_many(query, matrix)
                best.offer_many(distances, refs)
                if span is not None:
                    threshold = best.threshold
                    tracer.leaf(
                        span, n_entries,
                        int((distances <= threshold).sum()),
                    )
                    tracer.finish(span, threshold)
            else:
                bounds, order = _entry_order(metric, query, node)
                if span is None:
                    for i in order:
                        if bounds[i] > best.threshold:
                            break  # no later entry in the order can do better
                        visit(int(refs[i]))
                else:
                    pruning = False
                    for i in order:
                        threshold = best.threshold
                        if not pruning and bounds[i] > threshold:
                            pruning = True  # every later entry is worse
                        ref = int(refs[i])
                        if pruning:
                            tracer.decide(span, ref, bounds[i], "pruned", threshold)
                        else:
                            tracer.decide(span, ref, bounds[i],
                                          "descended", threshold)
                            visit(ref, span)
                    tracer.finish(span, best.threshold)

        visit(root_id)
        if (stats is not None and stats.bound_provenance is None
                and best.provenance == "pilot"):
            stats.bound_provenance = "pilot"  # the seed bound the search
        return best.results()


def knn_best_first(
    store: NodeStore,
    root_id: PageId,
    query: Signature,
    k: int,
    metric: Metric,
    stats: SearchStats | None = None,
    deadline: "Deadline | None" = None,
    initial_threshold: "float | None" = None,
) -> list[Neighbor]:
    """Best-first k-NN (I/O-optimal): the first ``k`` items of :func:`browse`.

    A transaction popped from the global priority queue is final because
    its exact distance is its priority, so the browse stream's prefix is
    the k-NN answer and the queue expands no node the prefix does not
    need.  ``initial_threshold`` behaves as in :func:`knn_depth_first`:
    the stream ends at the seed, so the result is the unseeded top-k
    filtered to ``distance <= seed``; it is short of ``k`` exactly when
    the seed, not the query's own k-th distance, bound the search.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cap = _seed_cap(initial_threshold)
    results = list(itertools.islice(
        browse(store, root_id, query, metric, stats=stats, deadline=deadline,
               initial_threshold=initial_threshold),
        k,
    ))
    if (stats is not None and stats.bound_provenance is None
            and len(results) < k and cap < math.inf):
        stats.bound_provenance = "pilot"
    return results


#: Most queries :func:`batch_knn` walks in one shared frontier.  Every
#: drain's ``fold()`` re-sorts the whole pool, k rows per query, so one
#: frontier over Q queries costs O(Q²) in folds; a larger batch runs as
#: consecutive blocks of this many queries instead.
_KNN_BLOCK = 64


def batch_knn(
    store: NodeStore,
    root_id: PageId,
    queries: "list[Signature]",
    k: int,
    metric: Metric,
    stats: SearchStats | None = None,
    deadline: "Deadline | None" = None,
    initial_thresholds: "float | np.ndarray | list[float] | None" = None,
) -> list[list[Neighbor]]:
    """Shared-frontier k-NN for a whole query batch.

    One traversal serves every query: each frontier item is a subtree
    plus the subset of queries for which it is still admissible (and
    their lower bounds at push time).  A popped node is fetched and
    decoded **once**; distances or directory bounds for all still-active
    queries are then a single matrix×matrix kernel call
    (:meth:`~repro.core.distance.Metric.distance_matrix_from_counts` /
    :meth:`~repro.core.distance.Metric.lower_bound_matrix`).  A query is
    masked out of a subtree as soon as its k-NN threshold beats its
    bound — the exact per-query admissible pruning of the single-query
    engine — so results are identical (ids, distances and ties) to
    running :func:`knn_depth_first` once per query, while a node shared
    by many queries' frontiers costs one node access instead of Q.

    More than :data:`_KNN_BLOCK` queries run as consecutive blocks of
    that many, each its own frontier; every block checks the one
    ``deadline``, and ``stats``, when given, accumulates the whole
    batch's traffic.

    ``initial_thresholds`` (a scalar or one value per query) seeds the
    per-query pruning thresholds, with the same prefix-filter contract
    as :class:`KnnHeap`: each query's result is its unseeded top-k
    filtered to ``distance <= seed``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_queries = len(queries)
    seeds = None
    if initial_thresholds is not None:
        seeds = np.asarray(initial_thresholds, dtype=np.float64)
        if seeds.ndim == 0:
            seeds = np.full(n_queries, float(seeds))
        elif seeds.shape != (n_queries,):
            raise ValueError(
                f"initial_thresholds must be a scalar or one value per "
                f"query; got shape {seeds.shape} for {n_queries} queries"
            )
        if np.any(np.isnan(seeds)) or np.any(seeds < 0):
            raise ValueError(
                "initial_thresholds must be non-negative and not NaN"
            )
    if n_queries == 0:
        return []
    if n_queries > _KNN_BLOCK:
        answers: list[list[Neighbor]] = []
        for start in range(0, n_queries, _KNN_BLOCK):
            stop = start + _KNN_BLOCK
            answers.extend(batch_knn(
                store, root_id, queries[start:stop], k, metric, stats=stats,
                deadline=deadline,
                initial_thresholds=None if seeds is None else seeds[start:stop],
            ))
        return answers
    ctx = _BatchContext(queries, metric)
    with _StatsScope(store, stats) as active:
        # Running top-k pool, shared by all queries: parallel arrays
        # sorted by (query, distance, tid), at most k rows per query.
        # ``thresholds[q]`` is the pool's k-th distance for q (inf while
        # q has fewer than k candidates) — the same monotonically
        # tightening bound KnnHeap.threshold exposes, just refreshed per
        # *fold* instead of per candidate.  Deferring the refresh only
        # loosens the candidate filter (a stale threshold is an upper
        # bound on the final one), so the pool can only gain extra
        # members that the final rank cut removes again: the surviving
        # top-k per query is the canonical (distance, tid) total-order
        # top-k — identical to the sequential engines', ties included.
        thresholds = np.full(n_queries, np.inf)
        if seeds is not None:
            np.minimum(thresholds, seeds, out=thresholds)
        ctx.bind_thresholds(thresholds)
        pool_q = np.empty(0, dtype=np.int64)
        pool_d = np.empty(0, dtype=np.float64)
        pool_t = np.empty(0, dtype=np.int64)

        tver = 0  # bumped whenever fold() strictly tightens a threshold

        def fold(q: np.ndarray, d: np.ndarray, t: np.ndarray) -> None:
            """Fold fresh candidates into the pool; tighten thresholds.

            No pre-filter is needed: candidates were swept against the
            *current* thresholds moments ago (only fold itself moves
            them), and a stray above a full query's threshold would be
            removed by the rank cut anyway.
            """
            nonlocal pool_q, pool_d, pool_t, tver
            q = np.concatenate((pool_q, q))
            d = np.concatenate((pool_d, d))
            t = np.concatenate((pool_t, t))
            order = np.lexsort((t, d, q))
            q, d, t = q[order], d[order], t[order]
            # Rank within each query group, then cut to the k best.
            fresh = np.empty(q.size, dtype=bool)
            fresh[0] = True
            np.not_equal(q[1:], q[:-1], out=fresh[1:])
            starts = np.flatnonzero(fresh)
            sizes = np.diff(starts, append=q.size)
            ranks = np.arange(q.size) - np.repeat(starts, sizes)
            keep = ranks < k
            pool_q, pool_d, pool_t = q[keep], d[keep], t[keep]
            full = sizes >= k
            kth = d[starts[full] + k - 1]
            kq = q[starts[full]]
            if np.any(kth < thresholds[kq]):
                tver += 1
            # min() keeps the tightening monotone under external seeds;
            # every pool candidate was admitted at or below the current
            # threshold, so this equals plain assignment in practice.
            thresholds[kq] = np.minimum(thresholds[kq], kth)

        # Consecutive leaf pops accumulate into a run swept by one fused
        # kernel call; the run drains (sweep + fold) before any directory
        # expansion, at a size cap, and at the end.  Deferring the sweep
        # never changes results — only how stale the thresholds are.
        run: "list[tuple[np.ndarray, object]]" = []
        run_need = 0

        def drain() -> None:
            nonlocal run_need
            if not run:
                return
            q, t, d = ctx.sweep_many(metric, run)
            run.clear()
            run_need = 0
            if q.size:
                fold(q, d, t)

        counter = itertools.count()  # tie-break to keep tuples comparable
        # (min bound, entry area, seq, page id, query indexes,
        #  per-query bounds, threshold version at push time)
        frontier: list[tuple[float, int, int, int, np.ndarray, np.ndarray, int]] = []
        heapq.heappush(
            frontier,
            (0.0, 0, next(counter), root_id,
             np.arange(n_queries), np.zeros(n_queries), tver),
        )
        while frontier:
            _bound, _area, _seq, ref, qidx, qbounds, ver = heapq.heappop(frontier)
            # Re-check each query's threshold: it may have tightened past
            # this subtree's bound since the push.  The push-time admit
            # mask already enforced ``qbounds <= thresholds``, so if no
            # threshold tightened since (same version) the re-check is a
            # provable no-op and is skipped.
            if ver != tver:
                qidx = qidx[qbounds <= thresholds[qidx]]
                if not qidx.size:
                    continue  # pruned for every query — not even fetched
            if deadline is not None:
                deadline.check()
            node = store.read(ref)
            n_entries = len(node)
            if not n_entries:
                continue
            if node.is_leaf:
                active.leaf_entries += n_entries * qidx.size
                run.append((qidx, node))
                run_need += n_entries * qidx.size
                # Small runs while thresholds are still infinite (every
                # swept pair is emitted and sorted); long runs once the
                # first fold tightened them and sweeps emit few pairs.
                if run_need >= (2048 if tver == 0 else 24576):
                    drain()
            else:
                # Directory admit masks want reasonably tight thresholds,
                # but folding a near-empty run costs more than the few
                # extra (pop-time re-checked) children a slightly stale
                # mask admits — only drain when the run is substantial.
                if run_need >= 2048:
                    drain()
                bounds = ctx.directory_bounds(metric, node, qidx)
                admit = bounds <= thresholds[qidx][:, None]
                areas = node.entry_areas()
                refs = node.entry_refs()
                for j in np.flatnonzero(admit.any(axis=0)):
                    mask = admit[:, j]
                    child_bounds = bounds[mask, j]
                    heapq.heappush(
                        frontier,
                        (float(child_bounds.min()), int(areas[j]), next(counter),
                         int(refs[j]), qidx[mask], child_bounds, tver),
                    )
        drain()
        results: list[list[Neighbor]] = [[] for _ in range(n_queries)]
        for q, d, t in zip(pool_q.tolist(), pool_d.tolist(), pool_t.tolist()):
            results[q].append(Neighbor(d, t))
        return results


def batch_range(
    store: NodeStore,
    root_id: PageId,
    queries: "list[Signature]",
    epsilon: "float | np.ndarray | list[float]",
    metric: Metric,
    stats: SearchStats | None = None,
    deadline: "Deadline | None" = None,
    tracer=None,
) -> list[list[Neighbor]]:
    """Range search — every transaction within ``epsilon`` — for a batch.

    The one range engine: a single query is a batch of one.  Directory
    entries whose lower bound exceeds the radius are pruned, "filtering
    out large parts of the data early".  ``epsilon`` is a scalar (one
    radius for the batch) or a per-query sequence.  An entry is followed
    for exactly the queries whose bound admits it, so each query's
    sorted result list is the same as searching it alone; a node shared
    by several queries' frontiers is fetched once.

    A :class:`~repro.telemetry.tracing.Tracer` records a visit span per
    node access, with the radius as the fixed threshold; a trace
    describes one query, so tracing requires a batch of exactly one.
    """
    n_queries = len(queries)
    eps = np.asarray(epsilon, dtype=np.float64)
    if eps.ndim == 0:
        eps = np.full(n_queries, float(eps))
    elif eps.shape != (n_queries,):
        raise ValueError(
            f"epsilon must be a scalar or one value per query; "
            f"got shape {eps.shape} for {n_queries} queries"
        )
    else:
        eps = np.ascontiguousarray(eps)
    if np.any(eps < 0):
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if tracer is not None and n_queries != 1:
        raise ValueError(
            f"a traced range search takes exactly one query, got {n_queries}"
        )
    if n_queries == 0:
        return []
    ctx = _BatchContext(queries, metric)
    ctx.bind_thresholds(eps)
    radius = float(eps[0])  # the traced query's threshold
    with _StatsScope(store, stats) as active:
        results: list[list[Neighbor]] = [[] for _ in range(n_queries)]
        # (page id, admitted query indexes, parent span when traced)
        stack: list[tuple[int, np.ndarray, object]] = [
            (root_id, np.arange(n_queries), None)
        ]
        while stack:
            ref, qidx, parent = stack.pop()
            if deadline is not None:
                deadline.check()
            if tracer is None:
                span, node = None, store.read(ref)
            else:
                span, node = tracer.visit(store, ref, parent, radius)
            n_entries = len(node)
            if not n_entries:
                continue
            refs = node.entry_refs()
            if node.is_leaf:
                active.leaf_entries += n_entries * qidx.size
                rows, cols, cand_d = ctx.leaf_candidates(metric, node, qidx)
                if span is not None:
                    tracer.leaf(span, n_entries, rows.size)
                    tracer.finish(span, radius)
                qidx_l = qidx.tolist()
                refs_l = refs.tolist()
                for row, col, distance in zip(
                    rows.tolist(), cols.tolist(), cand_d.tolist()
                ):
                    results[qidx_l[row]].append(
                        Neighbor(distance, refs_l[col])
                    )
            else:
                bounds = ctx.directory_bounds(metric, node, qidx)
                admit = bounds <= eps[qidx][:, None]
                if span is not None:
                    for j in range(n_entries):
                        action = "descended" if admit[0, j] else "pruned"
                        tracer.decide(span, int(refs[j]), bounds[0, j],
                                      action, radius)
                    tracer.finish(span, radius)
                for j in np.flatnonzero(admit.any(axis=0)):
                    stack.append((int(refs[j]), qidx[admit[:, j]], span))
        return [sorted(result) for result in results]


def browse(
    store: NodeStore,
    root_id: PageId,
    query: Signature,
    metric: Metric,
    stats: SearchStats | None = None,
    deadline: "Deadline | None" = None,
    initial_threshold: "float | None" = None,
):
    """Distance browsing: yield neighbours in increasing distance, lazily.

    The incremental ranking of Hjaltason & Samet (cited by the paper for
    the optimal NN algorithm): a generator over the best-first priority
    queue of ``(bound, area, seq, is_node, ref)`` items, expanding only
    as many nodes as the consumed prefix requires.  Taking ``k`` items
    is the best-first k-NN query (:func:`knn_best_first`), but ``k``
    need not be known in advance — the caller can keep pulling until an
    application-level condition holds.

    ``deadline`` is checked before every node read.  With
    ``initial_threshold`` the stream ends at the first queue item whose
    bound strictly exceeds the seed: everything still queued is at least
    as far.  ``stats`` is brought up to date at every yield, at the end,
    and when the traversal raises.
    """
    cap = _seed_cap(initial_threshold)
    active = stats if stats is not None else SearchStats()
    before = store.counters.snapshot()

    def flush_stats() -> None:
        after = store.counters
        active.node_accesses += after.node_accesses - before.node_accesses
        active.random_ios += after.random_ios - before.random_ios
        before.node_accesses = after.node_accesses
        before.random_ios = after.random_ios

    counter = itertools.count()  # tie-break to keep tuples comparable
    queue: list[tuple[float, int, int, bool, int]] = [
        (0.0, 0, next(counter), True, root_id)
    ]
    try:
        while queue:
            bound, _area, _seq, is_node, ref = heapq.heappop(queue)
            if bound > cap:
                break
            if not is_node:
                flush_stats()
                yield Neighbor(bound, ref)
                continue
            if deadline is not None:
                deadline.check()
            node = store.read(ref)
            n_entries = len(node)
            if not n_entries:
                continue
            refs = node.entry_refs().tolist()
            if node.is_leaf:
                active.leaf_entries += n_entries
                distances = metric.distance_many(query, node.signature_matrix())
                for distance, ref in zip(distances.tolist(), refs):
                    heapq.heappush(queue, (distance, 0, next(counter), False, ref))
            else:
                bounds = _directory_bounds(metric, query, node).tolist()
                areas = node.entry_areas().tolist()
                for bound, area, ref in zip(bounds, areas, refs):
                    heapq.heappush(queue, (bound, area, next(counter), True, ref))
    except Exception:
        # Not GeneratorExit: a consumer closing the stream early has
        # been flushed at the last yield already.
        flush_stats()
        raise
    flush_stats()


def _hamming_upper_bounds(query: Signature, node) -> np.ndarray | None:
    """Per-entry *upper* Hamming bounds from coverage + area statistics.

    For any transaction ``t`` under an entry with signature ``s`` and
    area range ``[lo, hi]``: at most ``|s \\ q|`` of its items can fall
    outside the query, so ``|q ∩ t| ≥ max(0, lo − |s \\ q|)`` and

        ham(q, t) = |q| + |t| − 2|q ∩ t|
                  ≤ |q| + hi − 2·max(0, lo − |s \\ q|).

    Returns ``None`` when any entry lacks statistics.
    """
    ranges = node.area_ranges()
    if ranges is None:
        return None
    mins, maxs = ranges
    matrix = node.signature_matrix()
    outside = np.bitwise_count(
        np.bitwise_and(matrix, np.bitwise_not(query.words))
    ).sum(axis=-1, dtype=np.int64)
    floor_common = np.maximum(0, mins - outside)
    return (query.area + maxs - 2 * floor_common).astype(np.float64)


def range_count(
    store: NodeStore,
    root_id: PageId,
    query: Signature,
    epsilon: float,
    metric: Metric,
    stats: SearchStats | None = None,
) -> int:
    """Exact count of transactions within ``epsilon`` — aggregate search.

    Uses the per-entry subtree counts as an aggregate index: a directory
    entry whose *upper* distance bound is within ``epsilon`` contributes
    its whole subtree count without being visited, so counting can be far
    cheaper than retrieval (upper bounds are available for the Hamming
    metric; other metrics fall back to full qualifying-subtree visits).
    It is :func:`range_count_bounds` with no node budget, whose interval
    then collapses to the exact count.
    """
    low, _high = range_count_bounds(
        store, root_id, query, epsilon, metric, node_budget=math.inf,
        database_size=0, stats=stats,
    )
    return low


def range_count_bounds(
    store: NodeStore,
    root_id: PageId,
    query: Signature,
    epsilon: float,
    metric: Metric,
    node_budget: "int | float",
    database_size: int,
    stats: SearchStats | None = None,
) -> tuple[int, int]:
    """A ``[low, high]`` interval on the range-count under a node budget.

    Traverses at most ``node_budget`` nodes; entries left unresolved when
    the budget runs out contribute 0 to the lower bound and their subtree
    count (or ``database_size`` if unknown) to the upper bound.  With a
    large enough budget the interval collapses to the exact count.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    with _StatsScope(store, stats) as active:
        low = 0
        high = 0
        use_shortcut = metric.name == "hamming" and getattr(metric, "fixed_area", None) is None
        stack: list[tuple[int, int | None]] = [(root_id, None)]
        visited = 0
        while stack:
            page_id, pending_count = stack.pop()
            if visited >= node_budget:
                # Budget exhausted: the whole unresolved subtree may or
                # may not qualify.
                high += pending_count if pending_count is not None else database_size
                continue
            visited += 1
            node = store.read(page_id)
            n_entries = len(node)
            if not n_entries:
                continue
            if node.is_leaf:
                active.leaf_entries += n_entries
                distances = metric.distance_many(query, node.signature_matrix())
                qualifying = int((distances <= epsilon).sum())
                low += qualifying
                high += qualifying
                continue
            lows = _directory_bounds(metric, query, node)
            ups = _hamming_upper_bounds(query, node) if use_shortcut else None
            refs = node.entry_refs()
            counts = node.entry_counts()
            for i in range(n_entries):
                if lows[i] > epsilon:
                    continue  # provably zero
                if ups is not None and counts is not None and ups[i] <= epsilon:
                    low += int(counts[i])
                    high += int(counts[i])
                else:
                    stack.append(
                        (int(refs[i]),
                         int(counts[i]) if counts is not None else None)
                    )
        return low, high


def constrained_nearest(
    store: NodeStore,
    root_id: PageId,
    query: Signature,
    required: Signature,
    k: int,
    metric: Metric,
    stats: SearchStats | None = None,
) -> list[Neighbor]:
    """k-NN restricted to transactions containing every ``required`` item.

    Combines the containment traversal with Figure-4 branch-and-bound:
    only entries whose signature covers ``required`` can hold qualifying
    transactions, so both filters prune simultaneously.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    with _StatsScope(store, stats) as active:
        best = KnnHeap(k)
        required_words = required.words

        def visit(page_id: PageId) -> None:
            node = store.read(page_id)
            if not len(node):
                return
            matrix = node.signature_matrix()
            refs = node.entry_refs()
            covered = np.atleast_1d(bitops.contains(matrix, required_words))
            if node.is_leaf:
                active.leaf_entries += len(node)
                hits = np.flatnonzero(covered)
                if hits.size:
                    distances = metric.distance_many(query, matrix[hits])
                    best.offer_many(distances, refs[hits])
            else:
                bounds, order = _entry_order(metric, query, node)
                for i in order:
                    if bounds[i] > best.threshold:
                        break
                    if covered[i]:
                        visit(int(refs[i]))

        visit(root_id)
        return best.results()


def _set_walk(
    store: NodeStore,
    root_id: PageId,
    descend,
    keep,
    stats: SearchStats | None = None,
    tracer=None,
    deadline: "Deadline | None" = None,
) -> list[int]:
    """The one stack walk behind every set-predicate query.

    ``descend`` and ``keep`` map a node's signature matrix to a boolean
    mask over its entries: a directory entry is followed where
    ``descend`` holds, and a leaf entry's tid is kept where ``keep``
    holds.  Trace spans encode the descend mask as a 0/1 bound against a
    fixed threshold of 0: followed entries (bound 0) are descended, the
    rest (bound 1) pruned.
    """
    with _StatsScope(store, stats) as active:
        results: list[int] = []
        stack = [(root_id, None)]  # (page id, parent span when traced)
        while stack:
            page_id, parent = stack.pop()
            if deadline is not None:
                deadline.check()
            if tracer is None:
                span, node = None, store.read(page_id)
            else:
                span, node = tracer.visit(store, page_id, parent, 0.0)
            n_entries = len(node)
            if not n_entries:
                continue
            refs = node.entry_refs()
            if node.is_leaf:
                active.leaf_entries += n_entries
                hits = keep(node.signature_matrix())
                results.extend(refs[hits].tolist())
                if span is not None:
                    tracer.leaf(span, n_entries, int(hits.sum()))
                    tracer.finish(span, 0.0)
                continue
            follow = descend(node.signature_matrix())
            if span is None:
                stack.extend((ref, None) for ref in refs[follow].tolist())
                continue
            for i in range(n_entries):
                ref = int(refs[i])
                if follow[i]:
                    tracer.decide(span, ref, 0.0, "descended", 0.0)
                    stack.append((ref, span))
                else:
                    tracer.decide(span, ref, 1.0, "pruned", 0.0)
            tracer.finish(span, 0.0)
        return sorted(results)


def _covering(query: Signature):
    """Mask of the rows whose signature contains every query item."""
    words = query.words
    return lambda matrix: np.atleast_1d(bitops.contains(matrix, words))


def containment_search(
    store: NodeStore,
    root_id: PageId,
    query: Signature,
    stats: SearchStats | None = None,
    tracer=None,
    deadline: "Deadline | None" = None,
) -> list[int]:
    """Transactions containing every item of ``query`` (Section 3).

    Follows exactly the entries whose signature contains the query
    signature: "if the signature of an entry does not contain sig(q), no
    transaction indexed in the subtree below it can participate in the
    result".
    """
    covering = _covering(query)
    return _set_walk(store, root_id, covering, covering, stats=stats,
                     tracer=tracer, deadline=deadline)


def subset_search(
    store: NodeStore,
    root_id: PageId,
    query: Signature,
    stats: SearchStats | None = None,
) -> list[int]:
    """Transactions that are subsets of ``query``.

    Signature trees cannot prune subset queries through the coverage
    property (any subtree may hide a small subset of the query), which is
    the paper's Section-2 point that inverted/hash indexes are preferable
    for them; the walk therefore descends every entry and filters at the
    leaves.
    """
    words = query.words
    return _set_walk(
        store, root_id,
        lambda matrix: np.ones(len(matrix), dtype=bool),
        lambda matrix: np.atleast_1d(bitops.contains(words, matrix)),
        stats=stats,
    )


def equality_search(
    store: NodeStore,
    root_id: PageId,
    query: Signature,
    stats: SearchStats | None = None,
) -> list[int]:
    """Transactions whose signature equals ``query`` exactly.

    Descends containment-wise (an equal signature is in particular
    covered) and compares bit-exactly at the leaves.
    """
    words = query.words
    return _set_walk(
        store, root_id, _covering(query),
        lambda matrix: np.atleast_1d(bitops.equal(matrix, words)),
        stats=stats,
    )
