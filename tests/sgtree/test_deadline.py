"""Cooperative cancellation: Deadline checkpoints in every traversal."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import SGTree, SearchStats
from repro.errors import QueryTimeout, ReproError
from repro.sgtree import Deadline
from repro.sgtree.concurrent import ConcurrentSGTree
from support import random_signature, random_transactions

N_BITS = 120


@pytest.fixture(scope="module")
def tree():
    transactions = random_transactions(seed=5, count=400, n_bits=N_BITS)
    tree = SGTree(N_BITS, max_entries=8)
    for t in transactions:
        tree.insert(t)
    return tree


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(31)
    return [random_signature(rng, N_BITS, max_items=12) for _ in range(12)]


class TestDeadline:
    def test_after_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            Deadline.after(-0.1)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_after_non_finite_budget_rejected(self, budget):
        # A NaN budget would otherwise never expire (every comparison
        # with it is false), escaping the server's default deadline.
        with pytest.raises(ValueError, match="finite"):
            Deadline.after(budget)

    def test_expired_and_remaining(self):
        generous = Deadline.after(60.0)
        assert not generous.expired()
        assert 0.0 < generous.remaining() <= 60.0
        generous.check()  # no raise
        expired = Deadline.after(0.0)
        assert expired.expired()
        assert expired.remaining() == 0.0

    def test_check_raises_typed_timeout(self):
        expired = Deadline(time.monotonic() - 1.0, budget=0.5)
        with pytest.raises(QueryTimeout) as excinfo:
            expired.check()
        exc = excinfo.value
        assert isinstance(exc, TimeoutError)
        assert isinstance(exc, ReproError)
        assert exc.budget == 0.5
        assert exc.elapsed >= exc.budget
        assert "deadline exceeded" in str(exc)


class TestTraversalCancellation:
    """An already-expired deadline stops every engine at the first node."""

    def test_generous_deadline_changes_nothing(self, tree, queries):
        deadline = Deadline.after(60.0)
        for q in queries:
            assert tree.nearest(q, k=3, deadline=deadline) == tree.nearest(q, k=3)
        assert tree.range_query(queries[0], 4.0, deadline=deadline) == \
            tree.range_query(queries[0], 4.0)

    @pytest.mark.parametrize("algorithm", ["depth-first", "best-first"])
    def test_knn_aborts(self, tree, queries, algorithm):
        with pytest.raises(QueryTimeout):
            tree.nearest(queries[0], k=3, algorithm=algorithm,
                         deadline=Deadline.after(0.0))

    def test_range_aborts(self, tree, queries):
        with pytest.raises(QueryTimeout):
            tree.range_query(queries[0], 4.0, deadline=Deadline.after(0.0))

    def test_containment_aborts(self, tree, queries):
        with pytest.raises(QueryTimeout):
            tree.containment_query(queries[0], deadline=Deadline.after(0.0))

    def test_batch_knn_aborts(self, tree, queries):
        with pytest.raises(QueryTimeout):
            tree.batch_nearest(queries, k=3, deadline=Deadline.after(0.0))

    def test_batch_range_aborts(self, tree, queries):
        with pytest.raises(QueryTimeout):
            tree.batch_range_query(queries, 4.0, deadline=Deadline.after(0.0))

    def test_expired_run_visits_strictly_fewer_nodes(self, tree, queries):
        """The acceptance criterion: cancellation saves real traversal work."""
        full = SearchStats()
        for q in queries:
            tree.nearest(q, k=5, stats=full)
        aborted = SearchStats()
        for q in queries:
            with pytest.raises(QueryTimeout):
                tree.nearest(q, k=5, stats=aborted,
                             deadline=Deadline.after(0.0))
        assert aborted.node_accesses < full.node_accesses
        # Partial traffic is still flushed by the stats scope on the way out.
        assert aborted.node_accesses >= 0

    def test_concurrent_tree_forwards_deadline(self, tree, queries):
        concurrent = ConcurrentSGTree(tree)
        with pytest.raises(QueryTimeout):
            concurrent.nearest(queries[0], k=2, deadline=Deadline.after(0.0))
        with pytest.raises(QueryTimeout):
            concurrent.containment_query(queries[0], deadline=Deadline.after(0.0))

    def test_executor_forwards_deadline(self, tree, queries):
        """Batches through the concurrent facade honour the one deadline."""
        concurrent = ConcurrentSGTree(tree)
        stats = SearchStats()
        with pytest.raises(QueryTimeout):
            concurrent.batch_nearest(queries, k=3, stats=stats,
                                     deadline=Deadline.after(0.0))
        with pytest.raises(QueryTimeout):
            concurrent.batch_range_query(queries, 4.0,
                                         deadline=Deadline.after(0.0))
        # the stats scope flushes on the way out of the failed traversal
        assert stats.node_accesses >= 0

    def test_executor_zero_budget_rejects_before_dispatch(self, tree, queries):
        """An already-expired budget fails before the first node read,
        even for a kNN batch that spans several 64-query blocks, so the
        tree sees no traffic at all."""
        concurrent = ConcurrentSGTree(tree)
        many = queries * 11  # 132 queries: three kNN blocks
        before = tree.store.counters.node_accesses
        with pytest.raises(QueryTimeout):
            concurrent.batch_nearest(many, k=3, deadline=Deadline.after(0.0))
        with pytest.raises(QueryTimeout):
            concurrent.batch_range_query(many, 4.0,
                                         deadline=Deadline.after(0.0))
        assert tree.store.counters.node_accesses == before


class TestDeadlineDuringBackoff:
    """Expiry while sleeping in a retry backoff aborts the retry loop."""

    def test_expiry_during_backoff_sleep_raises_timeout(self):
        from repro.errors import ShardUnavailable
        from repro.server import Backoff, RetryPolicy

        policy = RetryPolicy(
            max_attempts=5,
            backoff=Backoff(initial=10.0, jitter=False, max_delay=10.0),
        )
        attempts = []

        def failing():
            attempts.append(time.monotonic())
            raise ShardUnavailable("down", shard_id=0)

        deadline = Deadline.after(0.05)
        started = time.monotonic()
        with pytest.raises(QueryTimeout):
            policy.run(failing, deadline=deadline)
        elapsed = time.monotonic() - started
        # The 10s backoff sleep was truncated to the deadline's budget;
        # expiry during the sleep aborted before the second attempt.
        assert elapsed < 1.0
        assert len(attempts) == 1

    def test_sleep_is_truncated_to_remaining_budget(self):
        from repro.errors import ShardUnavailable
        from repro.server import Backoff, RetryPolicy

        policy = RetryPolicy(
            max_attempts=2,
            backoff=Backoff(initial=30.0, jitter=False, max_delay=30.0),
        )

        def failing():
            raise ShardUnavailable("down", shard_id=1)

        started = time.monotonic()
        with pytest.raises(QueryTimeout):
            policy.run(failing, deadline=Deadline.after(0.05))
        assert time.monotonic() - started < 1.0
