"""The SG-table (Section 2.2.1) — the paper's baseline competitor.

A hash-based index from Aggarwal, Wolf & Yu (SIGMOD 1999): items are
clustered into K *vertical signatures*; a transaction **activates**
vertical signature ``S_i`` when it shares at least ``theta`` items with it
(the *activation threshold*), and the K-bit activation pattern hashes the
transaction into one of the ``2^K`` table entries.  The small table lives
in memory; each entry's transactions (its *bucket*) live on disk pages.

Similarity search (the paper's summary): the query is compared to each
vertical signature, per-entry optimistic lower bounds on the distance to
the bucket's transactions are accumulated, entries are visited in
ascending bound order, and the scan stops when the bound of the next
entry exceeds the distance of the k-th nearest neighbour found so far.

Per-group bound derivation (Hamming): with ``q_i = |q ∩ S_i|`` and
``t_i = |t ∩ S_i|``, the distance restricted to group ``S_i`` is at least
``|q_i − t_i|``.  An entry whose i-th bit is 1 guarantees
``t_i ≥ theta``, giving the contribution ``max(0, theta − q_i)``; a 0 bit
guarantees ``t_i ≤ theta − 1``, giving ``max(0, q_i − theta + 1)``.  The
vertical signatures partition the item universe, so the per-group
contributions add up to an admissible whole-query bound.

The table matches the drawbacks the paper attributes to it: it is tuned
by hard-wired constants (K, theta, critical mass), is built from a static
snapshot, and :meth:`SGTable.insert` hashes new data with the *original*
vertical signatures — the staleness that the Figure-17 experiment
measures.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core import bitops
from ..core.distance import HAMMING, Metric, resolve_metric
from ..core.signature import Signature
from ..core.transaction import Transaction
from ..sgtree.search import KnnHeap, Neighbor, SearchStats
from ..storage.page import DEFAULT_PAGE_SIZE
from .itemclust import cluster_items

__all__ = ["SGTable"]


@dataclass
class _Bucket:
    """One table entry's transactions plus its cached signature matrix.

    Bucket pages hold raw signature bitmaps — the Section-3.2 compression
    is an SG-tree feature; the SG-table of [1] stores signatures verbatim.
    """

    tids: list[int]
    signatures: list[Signature]
    matrix: np.ndarray | None = None
    bytes_used: int = 0

    def add(self, tid: int, signature: Signature) -> None:
        self.tids.append(tid)
        self.signatures.append(signature)
        self.matrix = None
        self.bytes_used += bitops.n_words(signature.n_bits) * 8 + 8  # sig + tid

    def signature_matrix(self) -> np.ndarray:
        if self.matrix is None:
            self.matrix = np.stack([sig.words for sig in self.signatures])
        return self.matrix

    def pages(self, page_size: int) -> int:
        """Disk pages the bucket occupies (its random-I/O cost)."""
        if not self.tids:
            return 0
        return max(1, math.ceil(self.bytes_used / page_size))


class SGTable:
    """A signature table over a static transaction collection.

    Parameters
    ----------
    transactions:
        The collection to index (the build is offline).
    n_bits:
        Signature length.
    n_groups:
        Number of vertical signatures K (table size is ``2^K``).
    activation_threshold:
        Minimum shared items for a transaction to activate a group.
    critical_mass:
        Item-clustering mass limit (see
        :func:`~repro.sgtable.itemclust.cluster_items`).
    metric:
        Default similarity metric for searches.
    page_size:
        Disk page size used to charge bucket reads.
    sample_size, seed:
        Item-clustering statistics sampling.
    vertical_signatures:
        Explicit item groups, bypassing the clustering step (used to
        reproduce hand-constructed examples like the paper's Figure 1).
        Must partition the item universe.
    """

    def __init__(
        self,
        transactions: Sequence[Transaction],
        n_bits: int,
        n_groups: int = 8,
        activation_threshold: int = 2,
        critical_mass: float = 0.2,
        metric: Metric | str = HAMMING,
        page_size: int = DEFAULT_PAGE_SIZE,
        sample_size: int | None = 5000,
        seed: int = 0,
        vertical_signatures: "Sequence[Signature] | None" = None,
    ):
        if activation_threshold < 1:
            raise ValueError(
                f"activation_threshold must be >= 1, got {activation_threshold}"
            )
        self.n_bits = n_bits
        if vertical_signatures is not None:
            signatures = list(vertical_signatures)
            total = sum(sig.area for sig in signatures)
            union = Signature.union_of(signatures)
            if total != n_bits or union.area != n_bits:
                raise ValueError(
                    "explicit vertical signatures must partition the "
                    f"{n_bits}-item universe (got {total} items over "
                    f"{union.area} distinct)"
                )
            n_groups = len(signatures)
        if n_groups < 1 or n_groups > 24:
            raise ValueError(
                f"n_groups must be in [1, 24] (table has 2^K entries), got {n_groups}"
            )
        self.n_groups = n_groups
        self.activation_threshold = activation_threshold
        self.metric = resolve_metric(metric)
        self.page_size = page_size
        if vertical_signatures is not None:
            self.vertical_signatures = signatures
        else:
            self.vertical_signatures = cluster_items(
                transactions,
                n_bits,
                n_groups,
                critical_mass=critical_mass,
                sample_size=sample_size,
                seed=seed,
            )
        self._group_matrix = np.stack([sig.words for sig in self.vertical_signatures])
        self._codes_cache: tuple[list[int], np.ndarray] | None = None
        self._buckets: dict[int, _Bucket] = {}
        self._size = 0
        self.stats = SearchStats()  # cumulative; searches also take per-query stats
        for transaction in transactions:
            self.insert(transaction)

    # -- construction --------------------------------------------------------

    def activation_code(self, signature: Signature) -> int:
        """The K-bit table entry a signature hashes to."""
        shared = np.asarray(
            bitops.intersect_count(self._group_matrix, signature.words), dtype=np.int64
        )
        active = shared >= self.activation_threshold
        code = 0
        for i in range(self.n_groups):
            if active[i]:
                code |= 1 << i
        return code

    def insert(self, transaction: Transaction) -> None:
        """Hash one transaction into its bucket.

        Vertical signatures are *not* re-derived — the table is optimised
        for the data it was built from (the paper's staleness drawback).
        """
        code = self.activation_code(transaction.signature)
        bucket = self._buckets.get(code)
        if bucket is None:
            bucket = _Bucket(tids=[], signatures=[])
            self._buckets[code] = bucket
        bucket.add(transaction.tid, transaction.signature)
        self._size += 1

    def __len__(self) -> int:
        return self._size

    @property
    def n_buckets(self) -> int:
        """Number of non-empty table entries."""
        return len(self._buckets)

    def __repr__(self) -> str:
        return (
            f"SGTable(n_bits={self.n_bits}, K={self.n_groups}, "
            f"theta={self.activation_threshold}, size={self._size}, "
            f"buckets={self.n_buckets})"
        )

    # -- bounds --------------------------------------------------------------

    def _code_bit_matrix(self) -> tuple[list[int], np.ndarray]:
        """Bucket codes and their K-bit activation patterns as a matrix."""
        codes = sorted(self._buckets)
        if self._codes_cache is not None and self._codes_cache[0] == codes:
            return self._codes_cache
        bits = np.zeros((len(codes), self.n_groups), dtype=np.float64)
        for row, code in enumerate(codes):
            for i in range(self.n_groups):
                bits[row, i] = code >> i & 1
        self._codes_cache = (codes, bits)
        return self._codes_cache

    def entry_lower_bounds(self, query: Signature) -> dict[int, float]:
        """Optimistic Hamming bound for every non-empty table entry.

        One matrix product over the (buckets x groups) activation-bit
        matrix: bit=1 entries contribute ``max(0, theta - q_i)``, bit=0
        entries ``max(0, q_i - theta + 1)``.
        """
        shared = np.asarray(
            bitops.intersect_count(self._group_matrix, query.words), dtype=np.float64
        )
        theta = self.activation_threshold
        on_contribution = np.maximum(0.0, theta - shared)
        off_contribution = np.maximum(0.0, shared - (theta - 1))
        codes, bits = self._code_bit_matrix()
        totals = bits @ on_contribution + (1.0 - bits) @ off_contribution
        return {code: float(totals[row]) for row, code in enumerate(codes)}

    # -- search ----------------------------------------------------------------

    def nearest(
        self,
        query: Signature,
        k: int = 1,
        metric: Metric | str | None = None,
        stats: SearchStats | None = None,
    ) -> list[Neighbor]:
        """The k nearest transactions to ``query``.

        Buckets are visited in ascending lower-bound order; the scan stops
        as soon as the next bucket's bound exceeds the current k-th
        distance ("none of the remaining entries may point to a closer
        transaction in the worst case").

        Note the per-entry bound is derived for Hamming distance; with
        other metrics the bucket ordering falls back to exhaustive
        scanning (bounds of zero), which stays correct but prunes nothing.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        metric = self.metric if metric is None else resolve_metric(metric)
        local = SearchStats()
        hamming_bounds = metric.name == "hamming"
        bounds = (
            self.entry_lower_bounds(query)
            if hamming_bounds
            else {code: 0.0 for code in self._buckets}
        )
        order = sorted(bounds, key=lambda code: bounds[code])
        best = KnnHeap(k)
        for code in order:
            if bounds[code] > best.threshold:
                break
            bucket = self._buckets[code]
            local.node_accesses += 1
            local.random_ios += bucket.pages(self.page_size)
            local.leaf_entries += len(bucket.tids)
            best.offer_many(
                metric.distance_many(query, bucket.signature_matrix()), bucket.tids
            )
        self._accumulate(local, stats)
        return best.results()

    def range_query(
        self,
        query: Signature,
        epsilon: float,
        metric: Metric | str | None = None,
        stats: SearchStats | None = None,
    ) -> list[Neighbor]:
        """All transactions within distance ``epsilon`` of the query."""
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        metric = self.metric if metric is None else resolve_metric(metric)
        local = SearchStats()
        hamming_bounds = metric.name == "hamming"
        bounds = (
            self.entry_lower_bounds(query)
            if hamming_bounds
            else {code: 0.0 for code in self._buckets}
        )
        results: list[Neighbor] = []
        for code, bucket in self._buckets.items():
            if bounds[code] > epsilon:
                continue
            local.node_accesses += 1
            local.random_ios += bucket.pages(self.page_size)
            local.leaf_entries += len(bucket.tids)
            distances = metric.distance_many(query, bucket.signature_matrix())
            for i in np.flatnonzero(distances <= epsilon):
                results.append(Neighbor(float(distances[i]), bucket.tids[i]))
        self._accumulate(local, stats)
        return sorted(results)

    # -- internals ---------------------------------------------------------------

    def _accumulate(self, local: SearchStats, stats: SearchStats | None) -> None:
        for target in (self.stats, stats):
            if target is None:
                continue
            target.node_accesses += local.node_accesses
            target.random_ios += local.random_ios
            target.leaf_entries += local.leaf_entries
