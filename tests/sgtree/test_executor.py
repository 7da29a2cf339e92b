"""The QueryExecutor: sharded parity, stats aggregation, thread safety."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import SGTree, Signature
from repro.sgtree import QueryExecutor, SearchStats, validate_tree
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


class TestExecutorParity:
    @pytest.mark.parametrize("workers,batch_size", [(1, 64), (1, 4), (4, 4), (3, 7)])
    def test_knn_matches_sequential(self, tree, queries, workers, batch_size):
        expected = [tree.nearest(q, k=5) for q in queries]
        with QueryExecutor(tree, workers=workers, batch_size=batch_size) as ex:
            assert ex.knn(queries, k=5) == expected

    @pytest.mark.parametrize("workers", [1, 4])
    def test_range_matches_sequential(self, tree, queries, workers):
        expected = [tree.range_query(q, 5.0) for q in queries]
        with QueryExecutor(tree, workers=workers, batch_size=6) as ex:
            assert ex.range_query(queries, 5.0) == expected

    def test_per_query_epsilon_sharded(self, tree, queries):
        eps = np.arange(len(queries), dtype=np.float64) / 2.0
        expected = [
            tree.range_query(q, float(e)) for q, e in zip(queries, eps)
        ]
        # batch_size 5 forces epsilon to be sliced across shards
        with QueryExecutor(tree, workers=2, batch_size=5) as ex:
            assert ex.range_query(queries, eps) == expected

    def test_jaccard_metric_passthrough(self, tree, queries):
        expected = [tree.nearest(q, k=3, metric="jaccard") for q in queries]
        with QueryExecutor(tree, workers=2, batch_size=8) as ex:
            assert ex.knn(queries, k=3, metric="jaccard") == expected

    def test_empty_batch(self, tree):
        with QueryExecutor(tree) as ex:
            assert ex.knn([], k=3) == []
            assert ex.range_query([], 1.0) == []

    def test_accepts_concurrent_tree(self, tree, queries):
        concurrent = ConcurrentSGTree(tree)
        with QueryExecutor(concurrent, workers=2, batch_size=8) as ex:
            assert ex.tree is concurrent
            assert ex.knn(queries[:5], k=2) == [
                tree.nearest(q, k=2) for q in queries[:5]
            ]


class TestExecutorStats:
    def test_batch_stats_aggregated(self, tree, queries):
        stats = SearchStats()
        with QueryExecutor(tree, workers=2, batch_size=6) as ex:
            ex.knn(queries, k=5, stats=stats)
        assert stats.node_accesses > 0
        assert 0 <= stats.random_ios <= stats.node_accesses
        assert stats.leaf_entries > 0
        assert 0.0 <= stats.hit_ratio <= 1.0

    def test_stats_accumulate_across_calls(self, tree, queries):
        stats = SearchStats()
        with QueryExecutor(tree, workers=1) as ex:
            ex.knn(queries[:4], k=2, stats=stats)
            first = stats.node_accesses
            ex.knn(queries[:4], k=2, stats=stats)
        assert stats.node_accesses >= first

    def test_inline_stats_match_single_shard_traversal(self, tree, queries):
        direct = SearchStats()
        tree.batch_nearest(queries, k=4, stats=direct)
        through_executor = SearchStats()
        with QueryExecutor(tree, workers=1, batch_size=len(queries)) as ex:
            ex.knn(queries, k=4, stats=through_executor)
        assert through_executor.leaf_entries == direct.leaf_entries
        assert through_executor.node_accesses == direct.node_accesses


class TestExecutorValidation:
    def test_workers_must_be_positive(self, tree):
        with pytest.raises(ValueError, match="workers"):
            QueryExecutor(tree, workers=0)

    def test_batch_size_must_be_positive(self, tree):
        with pytest.raises(ValueError, match="batch_size"):
            QueryExecutor(tree, batch_size=0)

    def test_epsilon_shape_mismatch(self, tree, queries):
        with QueryExecutor(tree) as ex:
            with pytest.raises(ValueError, match="one value per query"):
                ex.range_query(queries, [1.0, 2.0])

    def test_close_is_idempotent(self, tree):
        ex = QueryExecutor(tree, workers=2)
        ex.close()
        ex.close()


class TestExecutorPartialFailure:
    """A shard blowing up mid-batch must not corrupt accounting."""

    def test_worker_exception_propagates(self, tree, queries, monkeypatch):
        concurrent = ConcurrentSGTree(tree)
        calls = []
        original = SGTree.batch_nearest

        def flaky(self, shard, **kwargs):
            calls.append(len(shard))
            if len(calls) == 2:  # the second shard dies mid-batch
                raise RuntimeError("shard exploded")
            return original(self, shard, **kwargs)

        monkeypatch.setattr(SGTree, "batch_nearest", flaky)
        with QueryExecutor(concurrent, workers=2, batch_size=6) as ex:
            with pytest.raises(RuntimeError, match="shard exploded"):
                ex.knn(queries, k=3)

    def test_stats_flushed_after_partial_failure(self, tree, queries, monkeypatch):
        """Completed shards' traffic is accounted even when one fails."""
        concurrent = ConcurrentSGTree(tree)
        original = SGTree.batch_nearest
        seen = []

        def flaky(self, shard, **kwargs):
            result = original(self, shard, **kwargs)
            seen.append(len(shard))
            if len(seen) == 1:  # fail after the first shard did real work
                raise RuntimeError("late failure")
            return result

        monkeypatch.setattr(SGTree, "batch_nearest", flaky)
        stats = SearchStats()
        with QueryExecutor(concurrent, workers=1, batch_size=6) as ex:
            with pytest.raises(RuntimeError, match="late failure"):
                ex.knn(queries, k=3, stats=stats)
        assert stats.node_accesses > 0  # first shard's traffic flushed

    def test_no_shard_left_running_after_failure(self, tree, queries, monkeypatch):
        """_run drains the pool before re-raising; nothing traverses after."""
        concurrent = ConcurrentSGTree(tree)
        original = SGTree.batch_nearest
        lock = threading.Lock()
        state = {"calls": 0, "live": 0}

        def flaky(self, shard, **kwargs):
            with lock:
                state["calls"] += 1
                state["live"] += 1
                mine = state["calls"]
            try:
                if mine == 1:
                    raise RuntimeError("first shard fails fast")
                return original(self, shard, **kwargs)
            finally:
                with lock:
                    state["live"] -= 1

        monkeypatch.setattr(SGTree, "batch_nearest", flaky)
        with QueryExecutor(concurrent, workers=3, batch_size=3) as ex:
            with pytest.raises(RuntimeError, match="fails fast"):
                ex.knn(queries, k=2)
            # _run drained every submitted shard before re-raising, so the
            # instant the caller sees the error no shard is still running.
            assert state["live"] == 0


class TestExecutorThreadSafety:
    def test_queries_concurrent_with_inserts(self):
        """Executor queries racing writer inserts across snapshot publishes."""
        transactions = random_transactions(seed=99, count=200, n_bits=N_BITS)
        extra = random_transactions(seed=100, count=150, n_bits=N_BITS)
        for i, t in enumerate(extra):
            extra[i] = type(t)(tid=1000 + t.tid, signature=t.signature)
        concurrent = ConcurrentSGTree(SGTree(N_BITS, max_entries=8))
        for t in transactions:
            concurrent.insert(t)

        rng = np.random.default_rng(7)
        batch = [random_signature(rng, N_BITS, max_items=12) for _ in range(16)]
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

        def reader(executor: QueryExecutor):
            try:
                while not done.is_set():
                    results = executor.knn(batch, k=3)
                    assert len(results) == len(batch)
                    for hits in results:
                        distances = [n.distance for n in hits]
                        assert distances == sorted(distances)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        with QueryExecutor(concurrent, workers=3, batch_size=4) as executor:
            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader, args=(executor,))
                for _ in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not errors
        assert len(concurrent) == 350
        validate_tree(concurrent.tree)  # raises on any violated invariant
        # after the dust settles the executor answers exactly
        with QueryExecutor(concurrent, workers=2, batch_size=4) as executor:
            assert executor.knn(batch, k=3) == [
                concurrent.tree.nearest(q, k=3) for q in batch
            ]
