"""Set-theoretic distance/similarity metrics and their search bounds.

The paper's evaluation uses the **Hamming distance** between signatures.
Section 6 sketches how the SG-tree generalises to other set-theoretic
metrics (the Jaccard coefficient is worked out) and how the coverage
property of directory entries yields *admissible* bounds:

* a **lower bound** on the distance between a query ``q`` and any
  transaction in the subtree under a directory entry with signature ``s``
  (every transaction ``t`` under the entry satisfies ``t ⊆ s``), and
* for similarity coefficients, an **upper bound** on the similarity.

Every metric here is a function of the counts ``(|q ∩ t|, |q|, |t|)``
and every bound of ``(|q ∩ s|, |q|)``, so a metric is exactly two
methods: :meth:`Metric.distance_matrix_from_counts` and
:meth:`Metric.lower_bound_matrix_from_counts`.  :class:`Metric` derives
the scalar, one-vs-many and matrix forms from them and the
:mod:`~repro.core.bitops` intersect and popcount kernels, so every form
runs the same float operations on the same exact integer counts and
returns bit-identical values.  Only :class:`HammingMetric` adds its own
one-vs-many XOR and AND-NOT kernels, which need no entry areas.

The counts broadcast: one query passes its area as a scalar, a batch as
a ``(Q, 1)`` column against ``(Q, E)`` counts.  Every denominator is a
count or the square root of one, so clamping it to at least 1 changes
only the empty case, and no form divides by zero or needs a
floating-point error-state guard.  A ratio distance is written
``(n > 0) - sim``: ``1 − sim`` whenever the pair's size ``n`` is
positive, and ``0`` for an empty pair (whose ``sim`` is 0).
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

    A subclass defines :meth:`distance_matrix_from_counts` and
    :meth:`lower_bound_matrix_from_counts`; every other form is derived
    here from those two.  Distances must be non-negative, and a lower
    bound must never exceed the distance to any transaction covered by
    the entry (admissibility — property-tested).
    """

    name: str = "abstract"

    def distance_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        """Distances from exact integer counts — the metric's definition.

        ``inter`` holds ``|q ∩ t|``, ``query_areas`` ``|q|`` and
        ``entry_areas`` ``|t|``, broadcasting as described in the module
        docstring: scalars for one pair, ``(E,)`` counts with a scalar
        query area for one query, or ``(Q, E)`` counts with a ``(Q, 1)``
        area column for a batch.  ``|q ∪ t| = |q| + |t| − |q ∩ t|`` and
        ``|q Δ t| = |q| + |t| − 2|q ∩ t|`` are exact in int64, so the
        result does not depend on which kernel produced the counts.
        """
        raise NotImplementedError

    def lower_bound_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray
    ) -> np.ndarray:
        """Directory lower bounds from ``|q ∩ s|`` and ``|q|``.

        Optimistic distance to any transaction covered by the entry
        signature ``s``; broadcasts like
        :meth:`distance_matrix_from_counts`.
        """
        raise NotImplementedError

    def distance(self, query: Signature, other: Signature) -> float:
        """Distance between two transaction signatures."""
        return float(self.distance_matrix_from_counts(
            query.intersect_count(other), query.area, other.area
        ))

    def distance_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        """Distance from ``query`` to each row of a signature matrix."""
        return self.distance_matrix_from_counts(
            bitops.intersect_count(matrix, query.words), query.area,
            bitops.popcount(matrix),
        )

    def lower_bound(self, query: Signature, entry_sig: Signature) -> float:
        """Optimistic distance to any transaction covered by ``entry_sig``."""
        return float(self.lower_bound_matrix_from_counts(
            query.intersect_count(entry_sig), query.area
        ))

    def lower_bound_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`lower_bound` over a directory-entry matrix."""
        return self.lower_bound_matrix_from_counts(
            bitops.intersect_count(matrix, query.words), query.area
        )

    def distance_matrix(
        self, queries: np.ndarray, query_areas: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        """``(Q, E)`` distances between a query matrix and a node matrix.

        ``queries`` is a ``(Q, n_words)`` stack of query signatures,
        ``query_areas`` the matching ``(Q,)`` popcounts, and ``matrix`` a
        ``(E, n_words)`` node matrix.  Row ``q`` equals
        ``distance_many(queries[q], matrix)`` bit-for-bit.
        """
        return self.distance_matrix_from_counts(
            bitops.cross_intersect_count(queries, matrix), query_areas[:, None],
            bitops.popcount(matrix),
        )

    def lower_bound_matrix(
        self, queries: np.ndarray, query_areas: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        """``(Q, E)`` directory lower bounds, one row per query.

        Row ``q`` equals ``lower_bound_many(queries[q], matrix)`` exactly.
        """
        return self.lower_bound_matrix_from_counts(
            bitops.cross_intersect_count(queries, matrix), query_areas[:, None]
        )

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

    Its one-vs-many forms are the XOR and AND-NOT popcounts, which read
    no entry areas; every value is an exact small integer, so they agree
    with the counts forms bit for bit.
    """

    fixed_area: int | None = None
    name = "hamming"

    def distance_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        return np.asarray(bitops.hamming(matrix, query.words), dtype=np.float64)

    def lower_bound_many(self, query: Signature, matrix: np.ndarray) -> np.ndarray:
        # |q \ sig| per row: one AND-NOT, one popcount-reduce.
        missing = np.bitwise_count(
            np.bitwise_and(query.words, np.bitwise_not(matrix))
        ).sum(axis=-1, dtype=np.int64)
        if self.fixed_area is None:
            return missing.astype(np.float64)
        return self.lower_bound_matrix_from_counts(query.area - missing, query.area)

    def distance_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        # |q Δ t| = |q| + |t| − 2|q ∩ t|
        return query_areas + entry_areas - 2.0 * inter

    def lower_bound_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray
    ) -> np.ndarray:
        if self.fixed_area is None:
            # |q \ s| = |q| − |q ∩ s|
            return np.subtract(query_areas, inter, dtype=np.float64)
        capped = np.minimum(inter, np.minimum(query_areas, self.fixed_area))
        return query_areas + self.fixed_area - 2.0 * capped


@dataclass(frozen=True, repr=False)
class JaccardMetric(Metric):
    """Jaccard distance ``1 − |q ∩ t| / |q ∪ t|`` (Section 6 extension).

    For a directory entry ``s`` covering every ``t`` below it,
    ``|q ∩ t| ≤ |q ∩ s|`` and ``|q ∪ t| ≥ |q|``, so the similarity is at
    most ``|q ∩ s| / |q|`` and the distance at least one minus that.
    Two empty sets are at distance 0.
    """

    name = "jaccard"

    def distance_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        union = query_areas + entry_areas - inter
        return (union > 0) - inter / np.maximum(union, 1)

    def lower_bound_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray
    ) -> np.ndarray:
        return (query_areas > 0) - inter / np.maximum(query_areas, 1)


@dataclass(frozen=True, repr=False)
class DiceMetric(Metric):
    """Dice distance ``1 − 2|q ∩ t| / (|q| + |t|)``.

    Bound: ``|q ∩ t| ≤ |q ∩ s|`` and ``|q| + |t| ≥ |q|`` give
    ``sim ≤ 2|q ∩ s| / |q|`` (clamped to 1).
    """

    name = "dice"

    def distance_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        total = query_areas + entry_areas
        return (total > 0) - 2.0 * inter / np.maximum(total, 1)

    def lower_bound_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray
    ) -> np.ndarray:
        sim = np.minimum(1.0, 2.0 * inter / np.maximum(query_areas, 1))
        return (query_areas > 0) - sim


@dataclass(frozen=True, repr=False)
class OverlapMetric(Metric):
    """Overlap distance ``1 − |q ∩ t| / min(|q|, |t|)``.

    Two empty sets coincide (distance 0); an empty set against a
    non-empty one shares nothing (distance 1).

    Bound: since min(|q|,|t|) ≤ |q| and any transaction could in the worst
    case be a single item inside ``q ∩ s``, the only safe bound without
    per-transaction areas is 0 unless the entry shares nothing with the
    query, in which case the distance is exactly 1.
    """

    name = "overlap"

    def distance_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        denom = np.minimum(query_areas, entry_areas)
        return (query_areas + entry_areas > 0) - inter / np.maximum(denom, 1)

    def lower_bound_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray
    ) -> np.ndarray:
        return np.where((inter == 0) & (query_areas > 0), 1.0, 0.0)


@dataclass(frozen=True, repr=False)
class CosineMetric(Metric):
    """Binary cosine distance ``1 − |q ∩ t| / sqrt(|q| · |t|)``.

    Empty sets follow :class:`OverlapMetric`'s convention.

    Bound: write ``c = |q ∩ t|``.  Coverage gives ``c ≤ |q ∩ s|`` and any
    member satisfies ``|t| ≥ c``, so
    ``sim ≤ c / sqrt(|q| · c) = sqrt(c / |q|) ≤ sqrt(|q ∩ s| / |q|)``.
    """

    name = "cosine"

    def distance_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray, entry_areas: np.ndarray
    ) -> np.ndarray:
        denom = np.sqrt(query_areas * entry_areas)
        return (query_areas + entry_areas > 0) - inter / np.maximum(denom, 1.0)

    def lower_bound_matrix_from_counts(
        self, inter: np.ndarray, query_areas: np.ndarray
    ) -> np.ndarray:
        return (query_areas > 0) - np.sqrt(inter / np.maximum(query_areas, 1))


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
