"""Set-theoretic distance/similarity metrics and their search bounds.

The paper's evaluation uses the **Hamming distance** between signatures.
Section 6 sketches how the SG-tree generalises to other set-theoretic
metrics (the Jaccard coefficient is worked out) and how the coverage
property of directory entries yields *admissible* bounds:

* a **lower bound** on the distance between a query ``q`` and any
  transaction in the subtree under a directory entry with signature ``s``
  (every transaction ``t`` under the entry satisfies ``t ⊆ s``), and
* for similarity coefficients, an **upper bound** on the similarity.

Each metric is a small strategy object so the tree, the table and the
baselines share one definition.  Vectorised forms (one query against a
signature matrix) are provided for the hot paths.  Every division clamps
its denominator away from zero (to 1, or 1e-12 for cosine), so no form
divides by zero and none needs a floating-point error-state guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitops
from .signature import Signature

__all__ = [
    "Metric",
    "HammingMetric",
    "JaccardMetric",
    "DiceMetric",
    "OverlapMetric",
    "CosineMetric",
    "HAMMING",
    "JACCARD",
    "DICE",
    "OVERLAP",
    "COSINE",
    "resolve_metric",
]


class Metric:
    """Base class for set distance metrics over signatures.

    Subclasses implement the scalar and vectorised forms of the distance
    and of the directory-entry lower bound.  Distances must be
    non-negative, and ``lower_bound`` must never exceed the distance to any
    transaction covered by the entry (admissibility — property-tested).
    """

    name: str = "abstract"

    def distance(self, query: Signature, other: Signature) -> float:
        """Distance between two transaction signatures."""
        raise NotImplementedError

    def distance_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        """Distance from ``query`` to each row of a signature matrix."""
        raise NotImplementedError

    def lower_bound(self, query: Signature, entry_sig: Signature) -> float:
        """Optimistic distance to any transaction covered by ``entry_sig``."""
        raise NotImplementedError

    def lower_bound_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`lower_bound` over a directory-entry matrix."""
        raise NotImplementedError

    def distance_matrix(
        self, queries: np.ndarray, query_areas: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        """``(Q, E)`` distances between a query matrix and a node matrix.

        ``queries`` is a ``(Q, n_words)`` stack of query signatures,
        ``query_areas`` the matching ``(Q,)`` popcounts, and ``matrix`` a
        ``(E, n_words)`` node matrix.  Row ``q`` equals
        ``distance_many(queries[q], matrix)`` bit-for-bit: the matrix form
        performs the same integer popcounts and the same float64
        operations elementwise, so batched search returns distances
        identical to the single-query engine.
        """
        raise NotImplementedError

    def lower_bound_matrix(
        self, queries: np.ndarray, query_areas: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        """``(Q, E)`` directory lower bounds, one row per query.

        Row ``q`` equals ``lower_bound_many(queries[q], matrix)`` exactly
        (same admissibility, same float values) — see
        :meth:`distance_matrix`.
        """
        raise NotImplementedError

    def distance_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        """:meth:`distance_matrix` from precomputed integer counts.

        ``inter`` is the ``(Q, E)`` intersection-count matrix,
        ``query_areas``/``entry_areas`` the exact ``(Q,)``/``(E,)``
        popcounts.  Every set-theoretic metric here is a function of
        ``(|q ∩ t|, |q|, |t|)`` alone — ``|q ∪ t| = |q| + |t| - |q ∩ t|``
        and ``|q Δ t| = |q| + |t| - 2|q ∩ t|`` are exact in int64 — so
        this form returns floats bit-identical to :meth:`distance_matrix`
        regardless of which kernel produced the counts.  The matrix forms
        delegate here, keeping one definition per metric.
        """
        raise NotImplementedError

    def lower_bound_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        """:meth:`lower_bound_matrix` from precomputed integer counts."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True, repr=False)
class HammingMetric(Metric):
    """Hamming distance ``|q Δ t|`` — the paper's primary metric.

    The directory bound is the paper's ``|q \\ s|``: items of the query
    that no transaction under the entry can possibly have.  When
    ``fixed_area`` is set (categorical data of fixed dimensionality ``d``,
    Section 6), the stricter bound
    ``|q| + d − 2·min(|q ∩ s|, d)`` is used instead.
    """

    fixed_area: int | None = None
    name = "hamming"

    def distance(self, query: Signature, other: Signature) -> float:
        return float(query.hamming(other))

    def distance_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        return np.asarray(bitops.hamming(matrix, query.words), dtype=np.float64)

    def lower_bound(self, query: Signature, entry_sig: Signature) -> float:
        missing = bitops.difference_count(query.words, entry_sig.words)
        if self.fixed_area is None:
            return float(missing)
        common = query.area - missing
        best_common = min(common, self.fixed_area, query.area)
        return float(query.area + self.fixed_area - 2 * best_common)

    def lower_bound_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        # |q \ sig| per row: one AND-NOT, one popcount-reduce.
        missing = np.bitwise_count(
            np.bitwise_and(query.words, np.bitwise_not(matrix))
        ).sum(axis=-1, dtype=np.int64).astype(np.float64)
        if self.fixed_area is None:
            return missing
        common = query.area - missing
        capped = np.minimum(common, min(self.fixed_area, query.area))
        return query.area + self.fixed_area - 2.0 * capped

    def distance_matrix(
        self, queries: np.ndarray, query_areas: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        return bitops.cross_hamming(queries, matrix).astype(np.float64)

    def lower_bound_matrix(
        self, queries: np.ndarray, query_areas: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        inter = bitops.cross_intersect_count(queries, matrix)
        return self.lower_bound_matrix_from_counts(
            inter, query_areas, np.empty(0, dtype=np.int64)
        )

    def distance_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        # |q Δ t| = |q| + |t| − 2|q ∩ t|, exact in int64.
        return (
            query_areas[:, None] + entry_areas[None, :] - 2 * inter
        ).astype(np.float64)

    def lower_bound_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        # |q \ s| = |q| − |q ∩ s|, exact in int64.
        missing = (query_areas[:, None] - inter).astype(np.float64)
        if self.fixed_area is None:
            return missing
        areas = query_areas.astype(np.float64)[:, None]
        common = areas - missing
        capped = np.minimum(common, np.minimum(float(self.fixed_area), areas))
        return areas + self.fixed_area - 2.0 * capped


def _jaccard_distance(inter: np.ndarray, union: np.ndarray) -> np.ndarray:
    """1 − |∩|/|∪| with the empty-vs-empty case defined as distance 0."""
    sim = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    return 1.0 - sim


@dataclass(frozen=True, repr=False)
class JaccardMetric(Metric):
    """Jaccard distance ``1 − |q ∩ t| / |q ∪ t|`` (Section 6 extension).

    For a directory entry ``s`` covering every ``t`` below it,
    ``|q ∩ t| ≤ |q ∩ s|`` and ``|q ∪ t| ≥ |q|``, so the similarity is at
    most ``|q ∩ s| / |q|`` and the distance at least one minus that.
    """

    name = "jaccard"

    def distance(self, query: Signature, other: Signature) -> float:
        inter = query.intersect_count(other)
        union = query.union_count(other)
        if union == 0:
            return 0.0
        return 1.0 - inter / union

    def distance_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        inter = np.asarray(bitops.intersect_count(matrix, query.words), dtype=np.float64)
        union = np.asarray(bitops.union_count(matrix, query.words), dtype=np.float64)
        return _jaccard_distance(inter, union)

    def lower_bound(self, query: Signature, entry_sig: Signature) -> float:
        if query.area == 0:
            return 0.0
        covered = query.intersect_count(entry_sig)
        return 1.0 - covered / query.area

    def lower_bound_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        if query.area == 0:
            return np.zeros(matrix.shape[0], dtype=np.float64)
        covered = np.asarray(bitops.intersect_count(matrix, query.words), dtype=np.float64)
        return 1.0 - covered / query.area

    def distance_matrix(
        self, queries: np.ndarray, query_areas: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        inter = bitops.cross_intersect_count(queries, matrix)
        entry_areas = np.asarray(bitops.popcount(matrix), dtype=np.int64)
        return self.distance_matrix_from_counts(inter, query_areas, entry_areas)

    def lower_bound_matrix(
        self, queries: np.ndarray, query_areas: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        covered = bitops.cross_intersect_count(queries, matrix)
        return self.lower_bound_matrix_from_counts(
            covered, query_areas, np.empty(0, dtype=np.int64)
        )

    def distance_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        # |q ∪ t| = |q| + |t| − |q ∩ t|, exact in int64.
        union = (
            query_areas[:, None] + entry_areas[None, :] - inter
        ).astype(np.float64)
        return _jaccard_distance(inter.astype(np.float64), union)

    def lower_bound_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        areas = query_areas.astype(np.float64)[:, None]
        covered = inter.astype(np.float64)
        return np.where(areas > 0, 1.0 - covered / np.maximum(areas, 1.0), 0.0)


@dataclass(frozen=True, repr=False)
class DiceMetric(Metric):
    """Dice distance ``1 − 2|q ∩ t| / (|q| + |t|)``.

    Bound: ``|q ∩ t| ≤ |q ∩ s|`` and ``|q| + |t| ≥ |q|`` give
    ``sim ≤ 2|q ∩ s| / |q|`` (clamped to 1).
    """

    name = "dice"

    def distance(self, query: Signature, other: Signature) -> float:
        total = query.area + other.area
        if total == 0:
            return 0.0
        return 1.0 - 2.0 * query.intersect_count(other) / total

    def distance_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        inter = np.asarray(bitops.intersect_count(matrix, query.words), dtype=np.float64)
        areas = np.asarray(bitops.popcount(matrix), dtype=np.float64)
        total = areas + query.area
        sim = np.where(total > 0, 2.0 * inter / np.maximum(total, 1), 1.0)
        return 1.0 - sim

    def lower_bound(self, query: Signature, entry_sig: Signature) -> float:
        if query.area == 0:
            return 0.0
        covered = query.intersect_count(entry_sig)
        return max(0.0, 1.0 - min(1.0, 2.0 * covered / query.area))

    def lower_bound_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        if query.area == 0:
            return np.zeros(matrix.shape[0], dtype=np.float64)
        covered = np.asarray(bitops.intersect_count(matrix, query.words), dtype=np.float64)
        return np.maximum(0.0, 1.0 - np.minimum(1.0, 2.0 * covered / query.area))

    def distance_matrix(
        self, queries: np.ndarray, query_areas: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        inter = bitops.cross_intersect_count(queries, matrix)
        entry_areas = np.asarray(bitops.popcount(matrix), dtype=np.int64)
        return self.distance_matrix_from_counts(inter, query_areas, entry_areas)

    def lower_bound_matrix(
        self, queries: np.ndarray, query_areas: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        covered = bitops.cross_intersect_count(queries, matrix)
        return self.lower_bound_matrix_from_counts(
            covered, query_areas, np.empty(0, dtype=np.int64)
        )

    def distance_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        inter = inter.astype(np.float64)
        areas = entry_areas.astype(np.float64)
        total = areas[None, :] + query_areas.astype(np.float64)[:, None]
        sim = np.where(total > 0, 2.0 * inter / np.maximum(total, 1), 1.0)
        return 1.0 - sim

    def lower_bound_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        q_areas = query_areas.astype(np.float64)[:, None]
        covered = inter.astype(np.float64)
        bound = np.maximum(
            0.0, 1.0 - np.minimum(1.0, 2.0 * covered / np.maximum(q_areas, 1.0))
        )
        return np.where(q_areas > 0, bound, 0.0)


@dataclass(frozen=True, repr=False)
class OverlapMetric(Metric):
    """Overlap distance ``1 − |q ∩ t| / min(|q|, |t|)``.

    Bound: since min(|q|,|t|) ≤ |q| and any transaction could in the worst
    case be a single item inside ``q ∩ s``, the only safe bound without
    per-transaction areas is 0 unless the entry shares nothing with the
    query, in which case the distance is exactly 1.
    """

    name = "overlap"

    def distance(self, query: Signature, other: Signature) -> float:
        denom = min(query.area, other.area)
        if denom == 0:
            # Convention: two empty sets coincide (distance 0); an empty
            # set against a non-empty one shares nothing (distance 1).
            return 0.0 if query.area == other.area else 1.0
        return 1.0 - query.intersect_count(other) / denom

    def distance_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        inter = np.asarray(bitops.intersect_count(matrix, query.words), dtype=np.float64)
        areas = np.asarray(bitops.popcount(matrix), dtype=np.float64)
        denom = np.minimum(areas, query.area)
        sim = np.where(
            denom > 0,
            inter / np.maximum(denom, 1),
            np.where(areas == query.area, 1.0, 0.0),
        )
        return 1.0 - sim

    def lower_bound(self, query: Signature, entry_sig: Signature) -> float:
        if query.area == 0:
            return 0.0
        if query.intersect_count(entry_sig) == 0:
            return 1.0
        return 0.0

    def lower_bound_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        if query.area == 0:
            return np.zeros(matrix.shape[0], dtype=np.float64)
        covered = np.asarray(bitops.intersect_count(matrix, query.words), dtype=np.float64)
        return np.where(covered == 0, 1.0, 0.0)

    def distance_matrix(
        self, queries: np.ndarray, query_areas: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        inter = bitops.cross_intersect_count(queries, matrix)
        entry_areas = np.asarray(bitops.popcount(matrix), dtype=np.int64)
        return self.distance_matrix_from_counts(inter, query_areas, entry_areas)

    def lower_bound_matrix(
        self, queries: np.ndarray, query_areas: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        covered = bitops.cross_intersect_count(queries, matrix)
        return self.lower_bound_matrix_from_counts(
            covered, query_areas, np.empty(0, dtype=np.int64)
        )

    def distance_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        inter = inter.astype(np.float64)
        areas = entry_areas.astype(np.float64)[None, :]
        q_areas = query_areas.astype(np.float64)[:, None]
        denom = np.minimum(areas, q_areas)
        sim = np.where(
            denom > 0,
            inter / np.maximum(denom, 1),
            np.where(areas == q_areas, 1.0, 0.0),
        )
        return 1.0 - sim

    def lower_bound_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        q_areas = query_areas.astype(np.float64)[:, None]
        covered = inter.astype(np.float64)
        return np.where(q_areas > 0, np.where(covered == 0, 1.0, 0.0), 0.0)


@dataclass(frozen=True, repr=False)
class CosineMetric(Metric):
    """Binary cosine distance ``1 − |q ∩ t| / sqrt(|q| · |t|)``.

    Bound: write ``c = |q ∩ t|``.  Coverage gives ``c ≤ |q ∩ s|`` and any
    member satisfies ``|t| ≥ c``, so
    ``sim ≤ c / sqrt(|q| · c) = sqrt(c / |q|) ≤ sqrt(|q ∩ s| / |q|)``.
    """

    name = "cosine"

    def distance(self, query: Signature, other: Signature) -> float:
        denom = (query.area * other.area) ** 0.5
        if denom == 0:
            return 0.0 if query.area == other.area else 1.0
        return 1.0 - query.intersect_count(other) / denom

    def distance_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        inter = np.asarray(bitops.intersect_count(matrix, query.words), dtype=np.float64)
        areas = np.asarray(bitops.popcount(matrix), dtype=np.float64)
        denom = np.sqrt(areas * query.area)
        sim = np.where(
            denom > 0,
            inter / np.maximum(denom, 1e-12),
            np.where(areas == query.area, 1.0, 0.0),
        )
        return 1.0 - sim

    def lower_bound(self, query: Signature, entry_sig: Signature) -> float:
        if query.area == 0:
            return 0.0
        covered = query.intersect_count(entry_sig)
        return 1.0 - (covered / query.area) ** 0.5

    def lower_bound_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        if query.area == 0:
            return np.zeros(matrix.shape[0], dtype=np.float64)
        covered = np.asarray(bitops.intersect_count(matrix, query.words), dtype=np.float64)
        return 1.0 - np.sqrt(covered / query.area)

    def distance_matrix(
        self, queries: np.ndarray, query_areas: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        inter = bitops.cross_intersect_count(queries, matrix)
        entry_areas = np.asarray(bitops.popcount(matrix), dtype=np.int64)
        return self.distance_matrix_from_counts(inter, query_areas, entry_areas)

    def lower_bound_matrix(
        self, queries: np.ndarray, query_areas: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        covered = bitops.cross_intersect_count(queries, matrix)
        return self.lower_bound_matrix_from_counts(
            covered, query_areas, np.empty(0, dtype=np.int64)
        )

    def distance_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        inter = inter.astype(np.float64)
        areas = entry_areas.astype(np.float64)[None, :]
        q_areas = query_areas.astype(np.float64)[:, None]
        denom = np.sqrt(areas * q_areas)
        sim = np.where(
            denom > 0,
            inter / np.maximum(denom, 1e-12),
            np.where(areas == q_areas, 1.0, 0.0),
        )
        return 1.0 - sim

    def lower_bound_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        q_areas = query_areas.astype(np.float64)[:, None]
        covered = inter.astype(np.float64)
        return np.where(
            q_areas > 0, 1.0 - np.sqrt(covered / np.maximum(q_areas, 1.0)), 0.0
        )


HAMMING = HammingMetric()
JACCARD = JaccardMetric()
DICE = DiceMetric()
OVERLAP = OverlapMetric()
COSINE = CosineMetric()

_BY_NAME = {
    "hamming": HAMMING,
    "jaccard": JACCARD,
    "dice": DICE,
    "overlap": OVERLAP,
    "cosine": COSINE,
}


def resolve_metric(metric: "Metric | str") -> Metric:
    """Accept a :class:`Metric` instance or one of the registered names."""
    if isinstance(metric, Metric):
        return metric
    try:
        return _BY_NAME[metric]
    except KeyError:
        raise ValueError(
            f"unknown metric {metric!r}; choose from {sorted(_BY_NAME)}"
        ) from None
