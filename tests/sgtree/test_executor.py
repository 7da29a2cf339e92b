"""Batches through ConcurrentSGTree: parity, stats, failures, writers.

Every batch is one ``batch_nearest`` / ``batch_range_query`` call on one
pinned snapshot, and ``batch_knn`` walks more than 64 queries as
consecutive 64-query blocks.  These tests pin that path end to end: exact
parity with sequential queries across block boundaries, whole-batch
stats, failure mid-batch, and reads racing snapshot-publishing writers.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import SGTree
from repro.sgtree import SearchStats, search, validate_tree
from repro.sgtree.concurrent import ConcurrentSGTree
from support import random_signature, random_transactions

N_BITS = 120


@pytest.fixture(scope="module")
def tree():
    transactions = random_transactions(seed=5, count=300, n_bits=N_BITS)
    tree = SGTree(N_BITS, max_entries=8)
    for t in transactions:
        tree.insert(t)
    return tree


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(17)
    return [random_signature(rng, N_BITS, max_items=12) for _ in range(23)]


def fresh_queries(count: int, seed: int = 41) -> list:
    rng = np.random.default_rng(seed)
    return [random_signature(rng, N_BITS, max_items=12) for _ in range(count)]


def fail_on_block(monkeypatch, block: int, after: bool = False) -> list:
    """Make the ``block``-th 64-query kNN block raise ``RuntimeError``.

    ``batch_knn`` runs each block through the module-level name, so the
    wrapper sees the whole-batch call first and then one call per block.
    With ``after`` the failing block finishes its traversal first.
    """
    original = search.batch_knn
    calls: list[int] = []

    def flaky(store, root_id, queries, *args, **kwargs):
        calls.append(len(queries))
        if len(calls) == block + 1 and not after:
            raise RuntimeError("block exploded")
        result = original(store, root_id, queries, *args, **kwargs)
        if len(calls) == block + 1:
            raise RuntimeError("late failure")
        return result

    monkeypatch.setattr(search, "batch_knn", flaky)
    return calls


class TestExecutorParity:
    @pytest.mark.parametrize(
        "k,n_queries", [(1, 64), (1, 4), (4, 4), (3, 7), (5, 130)]
    )
    def test_knn_matches_sequential(self, tree, k, n_queries):
        batch = fresh_queries(n_queries)
        expected = [tree.nearest(q, k=k) for q in batch]
        assert ConcurrentSGTree(tree).batch_nearest(batch, k=k) == expected

    @pytest.mark.parametrize("epsilon", [1, 4])
    def test_range_matches_sequential(self, tree, queries, epsilon):
        expected = [tree.range_query(q, epsilon) for q in queries]
        concurrent = ConcurrentSGTree(tree)
        assert concurrent.batch_range_query(queries, epsilon) == expected

    def test_per_query_epsilon_sharded(self, tree):
        batch = fresh_queries(70)
        eps = np.arange(len(batch), dtype=np.float64) / 8.0
        expected = [tree.range_query(q, float(e)) for q, e in zip(batch, eps)]
        assert ConcurrentSGTree(tree).batch_range_query(batch, eps) == expected

    def test_jaccard_metric_passthrough(self, tree, queries):
        expected = [tree.nearest(q, k=3, metric="jaccard") for q in queries]
        concurrent = ConcurrentSGTree(tree)
        assert concurrent.batch_nearest(queries, k=3, metric="jaccard") == expected

    def test_empty_batch(self, tree):
        concurrent = ConcurrentSGTree(tree)
        assert concurrent.batch_nearest([], k=3) == []
        assert concurrent.batch_range_query([], 1.0) == []

    def test_accepts_concurrent_tree(self, tree, queries):
        """The facade's batch answers the plain tree's, query by query."""
        concurrent = ConcurrentSGTree(tree)
        assert concurrent.batch_nearest(queries[:5], k=2) == \
            tree.batch_nearest(queries[:5], k=2) == \
            [tree.nearest(q, k=2) for q in queries[:5]]


class TestExecutorStats:
    def test_batch_stats_aggregated(self, tree):
        stats = SearchStats()
        ConcurrentSGTree(tree).batch_nearest(fresh_queries(130), k=5, stats=stats)
        assert stats.node_accesses > 0
        assert 0 <= stats.random_ios <= stats.node_accesses
        assert stats.leaf_entries > 0
        assert 0.0 <= stats.hit_ratio <= 1.0

    def test_stats_accumulate_across_calls(self, tree, queries):
        concurrent = ConcurrentSGTree(tree)
        stats = SearchStats()
        concurrent.batch_nearest(queries[:4], k=2, stats=stats)
        first = stats.node_accesses
        concurrent.batch_nearest(queries[:4], k=2, stats=stats)
        assert stats.node_accesses == 2 * first

    def test_inline_stats_match_single_shard_traversal(self, tree, queries):
        direct = SearchStats()
        tree.batch_nearest(queries, k=4, stats=direct)
        pinned = SearchStats()
        ConcurrentSGTree(tree).batch_nearest(queries, k=4, stats=pinned)
        assert pinned.leaf_entries == direct.leaf_entries
        assert pinned.node_accesses == direct.node_accesses


class TestExecutorValidation:
    def test_epsilon_shape_mismatch(self, tree, queries):
        concurrent = ConcurrentSGTree(tree)
        with pytest.raises(ValueError, match="one value per query"):
            concurrent.batch_range_query(queries, [1.0, 2.0])
        with pytest.raises(ValueError, match="one value per query"):
            concurrent.batch_nearest(queries, k=2, initial_thresholds=[1.0, 2.0])


class TestExecutorPartialFailure:
    """A block blowing up mid-batch must not corrupt accounting or pins."""

    def test_worker_exception_propagates(self, tree, monkeypatch):
        calls = fail_on_block(monkeypatch, block=2)
        with pytest.raises(RuntimeError, match="block exploded"):
            ConcurrentSGTree(tree).batch_nearest(fresh_queries(130), k=3)
        assert calls == [130, 64, 64]  # the third block never ran

    def test_stats_flushed_after_partial_failure(self, tree, monkeypatch):
        """Finished blocks' traffic is accounted even when one fails."""
        batch = fresh_queries(130)
        expected = SearchStats()
        tree.batch_nearest(batch[:128], k=3, stats=expected)
        fail_on_block(monkeypatch, block=2, after=True)
        stats = SearchStats()
        with pytest.raises(RuntimeError, match="late failure"):
            ConcurrentSGTree(tree).batch_nearest(batch, k=3, stats=stats)
        assert stats.node_accesses == expected.node_accesses
        assert stats.leaf_entries == expected.leaf_entries

    def test_no_shard_left_running_after_failure(self, tree, monkeypatch):
        """The batch's one snapshot pin is released on the way out."""
        concurrent = ConcurrentSGTree(tree)
        fail_on_block(monkeypatch, block=1)
        with pytest.raises(RuntimeError, match="block exploded"):
            concurrent.batch_nearest(fresh_queries(130), k=2)
        assert concurrent.active_pins == 0


class TestExecutorThreadSafety:
    def test_queries_concurrent_with_inserts(self):
        """Batches racing writer inserts across snapshot publishes."""
        transactions = random_transactions(seed=99, count=200, n_bits=N_BITS)
        extra = random_transactions(seed=100, count=150, n_bits=N_BITS)
        for i, t in enumerate(extra):
            extra[i] = type(t)(tid=1000 + t.tid, signature=t.signature)
        concurrent = ConcurrentSGTree(SGTree(N_BITS, max_entries=8))
        for t in transactions:
            concurrent.insert(t)

        batch = fresh_queries(70, seed=7)  # two kNN blocks per batch
        errors: list[BaseException] = []
        done = threading.Event()

        def writer():
            try:
                for t in extra:
                    concurrent.insert(t)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set():
                    results = concurrent.batch_nearest(batch, k=3)
                    assert len(results) == len(batch)
                    for hits in results:
                        distances = [n.distance for n in hits]
                        assert distances == sorted(distances)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(concurrent) == 350
        validate_tree(concurrent.tree)  # raises on any violated invariant
        # after the dust settles the batch answers exactly
        assert concurrent.batch_nearest(batch, k=3) == [
            concurrent.tree.nearest(q, k=3) for q in batch
        ]
