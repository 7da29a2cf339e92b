"""Seeded (pre-tightened) kNN engines: the prefix-filter contract.

A heap seeded with ``initial_threshold = c`` must return exactly the
unseeded top-k filtered to ``distance <= c`` — a prefix filter, never a
reordering — for every metric and both traversal algorithms.  This is
the property the cooperative sharded coordinator leans on: any cap that
is at least the true global k-th distance cannot change a merged
multi-shard top-k (see DESIGN.md §13).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import (
    COSINE,
    DICE,
    HAMMING,
    JACCARD,
    OVERLAP,
    HammingMetric,
    SGTree,
)
from repro.sgtree import SearchStats
from repro.sgtree.search import KnnHeap
from support import random_signature, random_transactions

N_BITS = 160
#: The general metrics: admissible directory bounds on any data.
ALL_METRICS = [HAMMING, JACCARD, DICE, OVERLAP, COSINE]
METRIC_IDS = [m.name for m in ALL_METRICS]
#: The §6 fixed-dimensionality bound is admissible only when every
#: transaction really has ``fixed_area`` items, so it gets its own
#: fixed-size dataset (see TestSeededFixedAreaHamming).
FIXED_AREA = 8
K = 8


@pytest.fixture(scope="module")
def tree():
    transactions = random_transactions(seed=77, count=350, n_bits=N_BITS)
    tree = SGTree(N_BITS, max_entries=10)
    tree.insert_many(transactions)
    return tree


@pytest.fixture(scope="module")
def fixed_area_tree():
    transactions = random_transactions(
        seed=79, count=350, n_bits=N_BITS,
        min_items=FIXED_AREA, max_items=FIXED_AREA,
    )
    tree = SGTree(N_BITS, max_entries=10)
    tree.insert_many(transactions)
    return tree


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(78)
    return [random_signature(rng, N_BITS, max_items=12) for _ in range(12)]


class TestKnnHeapSeeding:
    def test_rejects_negative_and_nan_seeds(self):
        for bad in (-1.0, -0.001, float("nan")):
            with pytest.raises(ValueError, match="initial_threshold"):
                KnnHeap(3, initial_threshold=bad)

    def test_unseeded_threshold_is_inf_and_provenance_local(self):
        heap = KnnHeap(3)
        assert heap.threshold == math.inf
        assert heap.provenance == "local"

    def test_seed_caps_the_threshold_with_pilot_provenance(self):
        heap = KnnHeap(3, initial_threshold=0.5)
        assert heap.threshold == 0.5
        assert heap.provenance == "pilot"
        # An infinite seed is a no-op, not a pilot bound.
        assert KnnHeap(3, initial_threshold=math.inf).provenance == "local"

    def test_offers_above_the_cap_are_rejected_ties_admitted(self):
        heap = KnnHeap(3, initial_threshold=0.5)
        heap.offer(0.6, 1)   # above the cap: rejected
        heap.offer(0.5, 2)   # tie at the cap: admitted
        heap.offer(0.1, 3)
        assert heap.results() == [(0.1, 3), (0.5, 2)]

    def test_local_kth_overtakes_an_external_cap(self):
        heap = KnnHeap(2, initial_threshold=0.9)
        heap.offer(0.2, 1)
        heap.offer(0.3, 2)
        # The heap's own k-th (0.3) is now tighter than the 0.9 cap.
        assert heap.threshold == 0.3
        assert heap.provenance == "local"

    def test_pairs_round_trips_distance_and_tid(self):
        heap = KnnHeap(4)
        offered = [(0.25, 7), (0.5, 3), (0.125, 11)]
        for distance, tid in offered:
            heap.offer(distance, tid)
        assert heap.results() == sorted(offered)


@pytest.mark.parametrize("metric", ALL_METRICS, ids=METRIC_IDS)
@pytest.mark.parametrize("algorithm", ["depth-first", "best-first"])
class TestSeededEnginePrefixFilter:
    def test_seed_at_kth_distance_is_bit_identical(
        self, tree, queries, metric, algorithm
    ):
        for query in queries:
            unseeded = tree.nearest(query, k=K, metric=metric,
                                    algorithm=algorithm)
            kth = unseeded[-1].distance
            seeded = tree.nearest(
                query, k=K, metric=metric, algorithm=algorithm,
                initial_threshold=kth,
            )
            assert seeded == unseeded

    def test_tight_seed_is_an_exact_prefix_filter(
        self, tree, queries, metric, algorithm
    ):
        for query in queries:
            unseeded = tree.nearest(query, k=K, metric=metric,
                                    algorithm=algorithm)
            cap = unseeded[K // 2].distance  # strictly below the k-th
            seeded = tree.nearest(
                query, k=K, metric=metric, algorithm=algorithm,
                initial_threshold=cap,
            )
            assert seeded == [n for n in unseeded if n.distance <= cap]

    def test_seeding_never_increases_node_accesses(
        self, tree, queries, metric, algorithm
    ):
        query = queries[0]
        plain, seeded = SearchStats(), SearchStats()
        baseline = tree.nearest(query, k=K, metric=metric,
                                algorithm=algorithm, stats=plain)
        tree.nearest(
            query, k=K, metric=metric, algorithm=algorithm, stats=seeded,
            initial_threshold=baseline[-1].distance,
        )
        assert seeded.node_accesses <= plain.node_accesses


@pytest.mark.parametrize("algorithm", ["depth-first", "best-first"])
def test_engines_reject_bad_k_and_seeds(tree, queries, algorithm):
    with pytest.raises(ValueError, match="k must be >= 1"):
        tree.nearest(queries[0], k=0, algorithm=algorithm)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="non-negative"):
            tree.nearest(queries[0], k=K, algorithm=algorithm,
                         initial_threshold=bad)


class TestSeededFixedAreaHamming:
    """The §6 fixed-dimensionality bound honours the same contract on
    data that actually has the fixed dimensionality."""

    @pytest.mark.parametrize("algorithm", ["depth-first", "best-first"])
    def test_prefix_filter_holds_on_fixed_size_data(
        self, fixed_area_tree, queries, algorithm
    ):
        metric = HammingMetric(fixed_area=FIXED_AREA)
        for query in queries:
            unseeded = fixed_area_tree.nearest(
                query, k=K, metric=metric, algorithm=algorithm
            )
            for cap in (unseeded[-1].distance, unseeded[K // 2].distance):
                seeded = fixed_area_tree.nearest(
                    query, k=K, metric=metric, algorithm=algorithm,
                    initial_threshold=cap,
                )
                assert seeded == [n for n in unseeded if n.distance <= cap]


class TestBatchSeeding:
    def test_scalar_seed_matches_per_query_seeding(self, tree, queries):
        unseeded = tree.batch_nearest(queries, k=K)
        cap = max(rows[-1].distance for rows in unseeded)
        batched = tree.batch_nearest(queries, k=K, initial_thresholds=cap)
        singles = [
            tree.nearest(q, k=K, initial_threshold=cap) for q in queries
        ]
        assert batched == singles

    def test_per_query_seeds_apply_row_by_row(self, tree, queries):
        unseeded = tree.batch_nearest(queries, k=K)
        seeds = [rows[-1].distance for rows in unseeded]
        seeds[0] = unseeded[0][K // 2].distance  # one deliberately tight
        batched = tree.batch_nearest(queries, k=K, initial_thresholds=seeds)
        assert batched[0] == [
            n for n in unseeded[0] if n.distance <= seeds[0]
        ]
        assert batched[1:] == unseeded[1:]

    def test_seed_shape_mismatch_is_a_value_error(self, tree, queries):
        with pytest.raises(ValueError, match="one value per query"):
            tree.batch_nearest(queries, k=K, initial_thresholds=[0.5, 0.5])

    def test_negative_batch_seed_is_rejected(self, tree, queries):
        with pytest.raises(ValueError, match="non-negative"):
            tree.batch_nearest(queries, k=K, initial_thresholds=-0.25)


class TestSeededStatsAndExplain:
    def test_binding_seed_reports_pilot_provenance(self, tree, queries):
        # Pick a query whose best distance is strictly below its k-th:
        # capping at the best then leaves the heap short of k, so the
        # pilot seed is the bound in force when the search ends.
        for query in queries:
            unseeded = tree.nearest(query, k=K)
            if unseeded[0].distance < unseeded[-1].distance:
                break
        else:
            pytest.skip("every query's top-k fully tied")
        stats = SearchStats()
        tree.nearest(
            query, k=K, stats=stats,
            initial_threshold=unseeded[0].distance,
        )
        assert stats.bound_provenance == "pilot"

    def test_unseeded_provenance_is_none(self, tree, queries):
        stats = SearchStats()
        tree.nearest(queries[0], k=K, stats=stats)
        assert stats.bound_provenance is None

    def test_explain_records_the_seed_and_rejects_non_knn(self, tree, queries):
        report = tree.explain(queries[0], kind="knn", k=3,
                              initial_threshold=0.75)
        assert report.params["initial_threshold"] == 0.75
        rendered = report.render()
        assert "pruning bound" in rendered
        with pytest.raises(ValueError, match="knn"):
            tree.explain(queries[0], kind="range", epsilon=0.5,
                         initial_threshold=0.75)
