"""Batched traversals must return exactly the sequential results.

The contract of ``batch_knn`` / ``batch_range`` is not "equally good"
results but *identical* ones — same ids, same distances, same tie
resolution — for every metric, so callers can switch engines freely.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    COSINE,
    DICE,
    HAMMING,
    JACCARD,
    OVERLAP,
    HammingMetric,
    SGTree,
    Signature,
)
from repro.core import bitops
from repro.errors import QueryTimeout
from repro.sgtree import Deadline, SearchStats
from repro.sgtree.search import (
    KnnHeap,
    _BatchContext,
    _directory_bounds,
    batch_knn,
    batch_range,
)
from repro.telemetry.tracing import Tracer
from support import random_signature, random_transactions

N_BITS = 160
ALL_METRICS = [
    HAMMING,
    JACCARD,
    DICE,
    OVERLAP,
    COSINE,
    HammingMetric(fixed_area=8),
]
METRIC_IDS = [m.name for m in ALL_METRICS[:-1]] + ["hamming-fixed-area"]


@pytest.fixture(scope="module")
def tree():
    transactions = random_transactions(seed=33, count=400, n_bits=N_BITS)
    tree = SGTree(N_BITS, max_entries=10)
    for t in transactions:
        tree.insert(t)
    return tree


@pytest.fixture(scope="module")
def fixed_area_tree():
    # The fixed-area Hamming bound is only admissible when every indexed
    # transaction really has `fixed_area` items (the paper's categorical
    # setting) — on variable-area data the two engines may legitimately
    # prune differently.
    transactions = random_transactions(
        seed=34, count=400, n_bits=N_BITS, min_items=8, max_items=8
    )
    tree = SGTree(N_BITS, max_entries=10)
    for t in transactions:
        tree.insert(t)
    return tree


def tree_for(metric, tree, fixed_area_tree):
    if getattr(metric, "fixed_area", None) is not None:
        return fixed_area_tree
    return tree


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(91)
    return [random_signature(rng, N_BITS, max_items=14) for _ in range(25)]


class TestBatchKnn:
    @pytest.mark.parametrize("metric", ALL_METRICS, ids=METRIC_IDS)
    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_identical_to_sequential(
        self, tree, fixed_area_tree, queries, metric, k
    ):
        index = tree_for(metric, tree, fixed_area_tree)
        sequential = [index.nearest(q, k=k, metric=metric) for q in queries]
        batched = index.batch_nearest(queries, k=k, metric=metric)
        # exact equality: ids, distances and tie resolution
        assert batched == sequential

    def test_duplicate_queries_get_duplicate_results(self, tree, queries):
        batch = [queries[0], queries[1], queries[0]]
        out = tree.batch_nearest(batch, k=4)
        assert out[0] == out[2] == tree.nearest(queries[0], k=4)

    def test_k_larger_than_database(self, tree, queries):
        batched = tree.batch_nearest(queries[:3], k=10_000)
        for query, result in zip(queries[:3], batched):
            assert result == tree.nearest(query, k=10_000)
            assert len(result) == len(tree)

    def test_single_query_batch(self, tree, queries):
        assert tree.batch_nearest(queries[:1], k=5) == [
            tree.nearest(queries[0], k=5)
        ]

    def test_empty_batch(self, tree):
        assert tree.batch_nearest([], k=3) == []

    def test_invalid_k(self, tree, queries):
        with pytest.raises(ValueError, match="k must be >= 1"):
            tree.batch_nearest(queries, k=0)

    def test_empty_tree(self):
        empty = SGTree(N_BITS, max_entries=8)
        out = empty.batch_nearest([Signature.empty(N_BITS)], k=3)
        assert out == [[]]

    def test_batch_never_fetches_more_nodes_than_sequential(
        self, tree, queries
    ):
        sequential = SearchStats()
        for query in queries:
            tree.nearest(query, k=5, stats=sequential)
        batched = SearchStats()
        tree.batch_nearest(queries, k=5, stats=batched)
        assert batched.node_accesses <= sequential.node_accesses
        assert batched.node_accesses > 0

    def test_stats_hit_ratio(self, tree, queries):
        stats = SearchStats()
        tree.batch_nearest(queries, k=5, stats=stats)
        assert 0.0 <= stats.hit_ratio <= 1.0
        assert stats.buffer_hits == stats.node_accesses - stats.random_ios

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @example(177814405)  # cosine: five rows tie at 1 − 1/sqrt(3)
    @settings(max_examples=10, deadline=None)
    def test_property_random_batches(self, seed):
        """Fresh tree + fresh queries per example, all metrics at once."""
        transactions = random_transactions(seed=seed, count=120, n_bits=64)
        tree = SGTree(64, max_entries=6)
        for t in transactions:
            tree.insert(t)
        fixed = random_transactions(
            seed=seed, count=120, n_bits=64, min_items=8, max_items=8
        )
        fixed_tree = SGTree(64, max_entries=6)
        for t in fixed:
            fixed_tree.insert(t)
        rng = np.random.default_rng(seed + 1)
        batch = [random_signature(rng, 64, max_items=10) for _ in range(9)]
        for metric in ALL_METRICS:
            index = tree_for(metric, tree, fixed_tree)
            assert index.batch_nearest(batch, k=4, metric=metric) == [
                index.nearest(q, k=4, metric=metric) for q in batch
            ]


class TestBatchKnnBlocks:
    """More than 64 queries run as consecutive 64-query blocks."""

    N_QUERIES = 130  # blocks of 64, 64 and 2

    @pytest.fixture(scope="class")
    def batch(self):
        rng = np.random.default_rng(92)
        return [
            random_signature(rng, N_BITS, max_items=14)
            for _ in range(self.N_QUERIES)
        ]

    @pytest.fixture(scope="class")
    def seeds(self):
        # a different seed regime in each block, varying within blocks too
        index = np.arange(self.N_QUERIES)
        return np.array([1000.0, 9.0, 6.0])[index // 64] + index % 3

    def test_blocks_match_sequential_query_by_query(self, tree, batch, seeds):
        stats = SearchStats()
        got = batch_knn(tree.store, tree.root_id, batch, 4, HAMMING,
                        stats=stats, initial_thresholds=seeds)
        assert len(got) == self.N_QUERIES
        for query, seed, row in zip(batch, seeds, got):
            assert row == tree.nearest(query, k=4,
                                       initial_threshold=float(seed))
        per_block = 0
        for start in (0, 64, 128):
            block = SearchStats()
            batch_knn(tree.store, tree.root_id, batch[start:start + 64], 4,
                      HAMMING, stats=block,
                      initial_thresholds=seeds[start:start + 64])
            per_block += block.node_accesses
        assert stats.node_accesses == per_block

    def test_expired_deadline_raises_before_any_node_read(self, tree, batch):
        before = tree.store.counters.node_accesses
        with pytest.raises(QueryTimeout):
            batch_knn(tree.store, tree.root_id, batch, 4, HAMMING,
                      deadline=Deadline.after(0.0))
        assert tree.store.counters.node_accesses == before


class TestDirectoryBounds:
    """The bounds both engines prune with never exceed the distance
    they compute to any transaction under the entry, for every metric —
    exactly, with no tolerance: a bound one ulp above a tied distance
    drops that tie."""

    N_ITEMS = 12  # a small universe: members inside the query are common

    @staticmethod
    def _members(tree, signatures, page_id):
        """Signature matrix of every transaction under ``page_id``."""
        node = tree.store.read(page_id)
        if node.is_leaf:
            return [signatures[tid] for tid in node.entry_refs().tolist()]
        return [
            row
            for child in node.entry_refs().tolist()
            for row in TestDirectoryBounds._members(tree, signatures, child)
        ]

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @example(177814405)
    @settings(max_examples=15, deadline=None)
    def test_property_bound_never_exceeds_member_distance(self, seed):
        n_bits = self.N_ITEMS
        trees = {}
        for fixed in (False, True):
            rows = random_transactions(
                seed=seed, count=60, n_bits=n_bits,
                min_items=8 if fixed else 1, max_items=8 if fixed else 6,
            )
            tree = SGTree(n_bits, max_entries=4)
            tree.insert_many(rows)
            trees[fixed] = tree, {t.tid: t.signature.words for t in rows}
        rng = np.random.default_rng(seed + 1)
        queries = [random_signature(rng, n_bits, max_items=8) for _ in range(6)]
        for metric in ALL_METRICS:
            tree, signatures = trees[getattr(metric, "fixed_area", None) is not None]
            ctx = _BatchContext(queries, metric)
            everyone = np.arange(len(queries))
            pending = [tree.root_id]
            while pending:
                node = tree.store.read(pending.pop())
                if node.is_leaf:
                    continue
                refs = node.entry_refs().tolist()
                pending.extend(refs)
                batched = ctx.directory_bounds(metric, node, everyone)
                single = [_directory_bounds(metric, q, node) for q in queries]
                for e, child in enumerate(refs):
                    members = np.stack(self._members(tree, signatures, child))
                    areas = np.asarray(bitops.popcount(members), dtype=np.int64)
                    swept = metric.distance_matrix_from_counts(
                        bitops.cross_intersect_count(ctx.qmatrix, members),
                        ctx.qareas, areas,
                    )
                    for q, query in enumerate(queries):
                        nearest = min(
                            metric.distance_many(query, members).min(),
                            swept[q].min(),
                        )
                        assert single[q][e] <= nearest, (metric.name, q, child)
                        assert batched[q, e] <= nearest, (metric.name, q, child)


class TestBatchRange:
    @pytest.mark.parametrize("metric", ALL_METRICS, ids=METRIC_IDS)
    def test_identical_to_sequential(
        self, tree, fixed_area_tree, queries, metric
    ):
        index = tree_for(metric, tree, fixed_area_tree)
        epsilon = 6.0 if "hamming" in metric.name else 0.7
        sequential = [
            index.range_query(q, epsilon, metric=metric) for q in queries
        ]
        batched = index.batch_range_query(queries, epsilon, metric=metric)
        assert batched == sequential

    def test_per_query_epsilon(self, tree, queries):
        eps = np.linspace(0.0, 10.0, num=len(queries))
        batched = tree.batch_range_query(queries, eps)
        for query, epsilon, result in zip(queries, eps, batched):
            assert result == tree.range_query(query, float(epsilon))

    def test_epsilon_shape_mismatch(self, tree, queries):
        with pytest.raises(ValueError, match="one value per query"):
            tree.batch_range_query(queries, [1.0, 2.0])

    def test_negative_epsilon(self, tree, queries):
        with pytest.raises(ValueError, match="non-negative"):
            tree.batch_range_query(queries, -1.0)

    def test_empty_batch(self, tree):
        assert tree.batch_range_query([], 3.0) == []

    def test_tracer_takes_exactly_one_query(self, tree, queries):
        with pytest.raises(ValueError, match="exactly one query"):
            batch_range(tree.store, tree.root_id, queries[:2], 3.0, HAMMING,
                        tracer=Tracer())

    def test_zero_epsilon_finds_exact_copies(self, tree, queries):
        batched = tree.batch_range_query(queries, 0.0)
        for query, result in zip(queries, batched):
            assert result == tree.range_query(query, 0.0)


class TestKnnHeapOfferMany:
    """Regression: the threshold must be re-read during a batch insert."""

    def test_later_candidate_displaced_by_earlier_is_rejected(self):
        heap = KnnHeap(2)
        heap.offer(5.0, 100)
        heap.offer(5.0, 101)  # full: threshold 5.0
        # 1.0 and 2.0 both beat the *initial* threshold, and together
        # they push it down to 2.0 — 4.0 must not slip in on the stale
        # threshold.
        heap.offer_many(np.array([4.0, 2.0, 1.0]), [7, 8, 9])
        assert [(n.distance, n.tid) for n in heap.results()] == [
            (1.0, 9),
            (2.0, 8),
        ]

    def test_ties_resolved_by_tid(self):
        heap = KnnHeap(2)
        heap.offer_many(np.array([1.0, 1.0, 1.0]), [42, 7, 19])
        assert [(n.distance, n.tid) for n in heap.results()] == [
            (1.0, 7),
            (1.0, 19),
        ]

    def test_equal_distance_smaller_tid_still_enters_full_heap(self):
        heap = KnnHeap(1)
        heap.offer(3.0, 50)
        heap.offer_many(np.array([3.0]), [10])
        assert [(n.distance, n.tid) for n in heap.results()] == [(3.0, 10)]

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=50, allow_nan=False),
                st.integers(min_value=0, max_value=1000),
            ),
            min_size=1,
            max_size=40,
            unique_by=lambda candidate: candidate[1],
        ),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60)
    def test_content_is_canonical_top_k(self, candidates, k):
        """Whatever the arrival chunking, the heap keeps the total-order
        smallest (distance, tid) pairs."""
        heap = KnnHeap(k)
        # feed in two chunks to exercise the batch path against state
        half = len(candidates) // 2
        for chunk in (candidates[:half], candidates[half:]):
            if chunk:
                heap.offer_many(
                    np.array([d for d, _ in chunk]), [t for _, t in chunk]
                )
        expected = sorted(candidates)[:k]
        got = [(n.distance, n.tid) for n in heap.results()]
        assert got == sorted(set(got))
        assert got == expected

class TestMidWorkloadMutation:
    """Satellite regression: mutations between (and interleaved with)
    queries must never be masked by a node's cached view.  Every
    mutation path funnels through ``Node.invalidate()``, which drops the
    view in the same breath — so warm views serve exactly the
    post-mutation state."""

    def _tree(self, seed=51, count=220):
        tree = SGTree(N_BITS, max_entries=8)
        transactions = random_transactions(seed=seed, count=count, n_bits=N_BITS)
        for t in transactions:
            tree.insert(t)
        return tree, transactions

    def test_insert_between_warm_batches_is_visible(self):
        tree, _ = self._tree()
        rng = np.random.default_rng(12)
        queries = [random_signature(rng, N_BITS, max_items=10) for _ in range(10)]
        tree.batch_nearest(queries, k=3)  # views are now hot

        probe = queries[0]
        tree.insert(9001, probe)  # exact match: distance 0 under hamming
        batched = tree.batch_nearest(queries, k=3)
        sequential = [tree.nearest(q, k=3) for q in queries]
        assert batched == sequential
        assert batched[0][0].tid == 9001 and batched[0][0].distance == 0.0

    def test_delete_between_warm_batches_is_visible(self):
        tree, transactions = self._tree(seed=52)
        rng = np.random.default_rng(13)
        queries = [random_signature(rng, N_BITS, max_items=10) for _ in range(8)]
        warm = tree.batch_nearest(queries, k=5)
        victims = {n.tid for n in warm[0]}
        for victim in sorted(victims):
            assert tree.delete(transactions[victim])
        cold = [tree.nearest(q, k=5) for q in queries]
        hot = tree.batch_nearest(queries, k=5)
        assert hot == cold
        assert not victims & {n.tid for n in hot[0]}

    def test_interleaved_mutations_and_batches_stay_exact(self):
        tree, transactions = self._tree(seed=53, count=150)
        rng = np.random.default_rng(14)
        queries = [random_signature(rng, N_BITS, max_items=10) for _ in range(6)]
        extra = random_transactions(seed=54, count=60, n_bits=N_BITS)
        for round_no, t in enumerate(extra):
            tree.insert(2000 + round_no, t.signature)
            if round_no % 5 == 0:
                batched = tree.batch_nearest(queries, k=4)
                sequential = [tree.nearest(q, k=4) for q in queries]
                assert batched == sequential
