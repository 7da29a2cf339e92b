"""Sharded serving: partitioning, workers, scatter-gather, coverage."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import SGTree, Signature
from repro.errors import CircuitOpen, ReproError, ShardUnavailable
from repro.server import (
    Coverage,
    Query,
    ShardedQueryService,
    ShardedTree,
    ShardHandle,
    ShardSupervisor,
    make_shard_handles,
    partition_transactions,
)
from repro.telemetry import EventLog, MemoryEventSink, MetricsRegistry, Telemetry
from support import random_signature, random_transactions

N_BITS = 120
N_TX = 240
N_SHARDS = 4


@pytest.fixture(scope="module")
def transactions():
    return random_transactions(seed=11, count=N_TX, n_bits=N_BITS)


@pytest.fixture(scope="module")
def reference(transactions):
    """The single-tree ground truth every merged answer must match."""
    tree = SGTree(N_BITS, max_entries=8)
    tree.insert_many(transactions)
    return tree


@pytest.fixture
def sharded(transactions):
    partitions = partition_transactions(transactions, N_SHARDS)
    handles = make_shard_handles(partitions, N_BITS)
    sharded = ShardedTree(handles, N_BITS)
    yield sharded
    sharded.close()


@pytest.fixture
def queries():
    rng = np.random.default_rng(23)
    return [random_signature(rng, N_BITS, max_items=10) for _ in range(8)]


class TestPartitioning:
    def test_every_transaction_lands_in_exactly_one_shard(self, transactions):
        partitions = partition_transactions(transactions, N_SHARDS)
        tids = [t.tid for p in partitions for t in p]
        assert sorted(tids) == sorted(t.tid for t in transactions)

    def test_sizes_are_near_equal(self, transactions):
        partitions = partition_transactions(transactions, 7)
        sizes = [len(p) for p in partitions]
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("method", ["gray", "minhash"])
    def test_methods_are_deterministic(self, transactions, method):
        a = partition_transactions(transactions, 3, method=method)
        b = partition_transactions(transactions, 3, method=method)
        assert [[t.tid for t in p] for p in a] == [[t.tid for t in p] for p in b]

    def test_single_shard_is_the_whole_collection(self, transactions):
        (only,) = partition_transactions(transactions, 1)
        assert len(only) == len(transactions)

    def test_more_shards_than_transactions(self):
        txs = random_transactions(seed=1, count=3, n_bits=N_BITS)
        partitions = partition_transactions(txs, 5)
        assert len(partitions) == 5
        assert sum(len(p) for p in partitions) == 3

    def test_rejects_bad_arguments(self, transactions):
        with pytest.raises(ValueError):
            partition_transactions(transactions, 0)
        with pytest.raises(ValueError):
            partition_transactions(transactions, 2, method="hash")


class TestScatterGatherCorrectness:
    """Merged sharded answers must equal the single-tree ground truth."""

    def test_knn_matches_reference(self, sharded, reference, queries):
        for q in queries:
            merged, coverage = sharded.query(Query("knn", q.items(), k=5))
            expected = reference.nearest(q, k=5)
            assert {(n.tid, n.distance) for n in merged} == \
                {(n.tid, n.distance) for n in expected}
            assert not coverage.partial
            assert coverage.answered == coverage.total == N_SHARDS

    def test_range_matches_reference(self, sharded, reference, queries):
        for q in queries:
            merged, coverage = sharded.query(
                Query("range", q.items(), epsilon=0.5)
            )
            expected = reference.range_query(q, 0.5)
            assert sorted(merged) == sorted(expected)
            assert not coverage.partial

    def test_containment_matches_reference(self, sharded, reference, queries):
        for q in queries:
            merged, coverage = sharded.query(Query("containment", q.items()))
            expected = reference.containment_query(q)
            assert sorted(merged) == sorted(expected)
            assert not coverage.partial

    def test_batch_knn_matches_reference(self, sharded, reference, queries):
        merged, coverage = sharded.query(
            Query("batch_knn", queries=[q.items() for q in queries], k=3)
        )
        assert not coverage.partial
        for q, row in zip(queries, merged):
            expected = reference.nearest(q, k=3)
            assert {(n.tid, n.distance) for n in row} == \
                {(n.tid, n.distance) for n in expected}

    def test_stats_aggregate_across_shards(self, sharded, queries):
        from repro import SearchStats

        stats = SearchStats()
        sharded.query(Query("knn", queries[0].items(), k=3), stats=stats)
        assert stats.node_accesses > 0


class TestGracefulDegradation:
    def test_killed_shard_degrades_to_partial(self, sharded, reference,
                                              queries):
        victim = sharded.handles[1]
        victim.worker.kill()
        merged, coverage = sharded.query(Query("knn", queries[0].items(), k=5))
        assert coverage.partial
        assert coverage.answered == N_SHARDS - 1
        assert victim.shard_id in coverage.errors
        # Partial kNN hits carry their true distances: every returned
        # neighbour appears in the full reference ranking exactly.
        full = {(n.tid, n.distance) for n in reference.nearest(queries[0],
                                                               k=N_TX)}
        assert all((n.tid, n.distance) in full for n in merged)

    def test_partial_range_is_subset_of_full(self, sharded, reference,
                                             queries):
        sharded.handles[0].worker.kill()
        for q in queries[:4]:
            merged, coverage = sharded.query(
                Query("range", q.items(), epsilon=0.5)
            )
            assert coverage.partial
            full = set(reference.range_query(q, 0.5))
            assert set(merged) <= full

    def test_breaker_open_shard_is_skipped_with_detail(self, sharded,
                                                       queries):
        sharded.handles[2].breaker.force_open()
        merged, coverage = sharded.query(
            Query("range", queries[0].items(), epsilon=0.4)
        )
        assert coverage.partial
        assert coverage.errors[2].startswith("CircuitOpen")

    def test_all_breakers_open_raises_circuit_open(self, sharded, queries):
        for handle in sharded.handles:
            handle.breaker.force_open()
        with pytest.raises(CircuitOpen) as excinfo:
            sharded.query(Query("knn", queries[0].items(), k=2))
        assert excinfo.value.retry_after >= 0.0

    def test_all_shards_dead_raises_unavailable(self, sharded, queries):
        for handle in sharded.handles:
            handle.worker.kill()
        with pytest.raises(ShardUnavailable):
            sharded.query(Query("containment", queries[0].items()))

    def test_coverage_dict_shape(self):
        coverage = Coverage(total=4, answered=3, errors={2: "boom"})
        doc = coverage.as_dict()
        assert doc == {
            "shards_total": 4,
            "shards_answered": 3,
            "partial": True,
            "errors": {"2": "boom"},
        }


class TestPartialSubsetProperty:
    """Property-style sweep: degraded results are subsets with accurate
    coverage, across random queries, epsilons, and failure patterns."""

    def test_partial_is_always_subset_with_accurate_coverage(
        self, transactions, reference
    ):
        rng = np.random.default_rng(77)
        for round_ in range(6):
            partitions = partition_transactions(transactions, N_SHARDS)
            handles = make_shard_handles(partitions, N_BITS)
            sharded = ShardedTree(handles, N_BITS)
            try:
                n_dead = int(rng.integers(0, N_SHARDS))  # leave >= 1 alive
                dead = rng.choice(N_SHARDS, size=n_dead, replace=False)
                for shard_id in dead:
                    handles[shard_id].worker.kill()
                q = random_signature(rng, N_BITS, max_items=12)
                epsilon = float(rng.uniform(0.1, 0.8))
                merged, coverage = sharded.query(
                    Query("range", q.items(), epsilon=epsilon)
                )
                assert coverage.total == N_SHARDS
                assert coverage.answered == N_SHARDS - n_dead
                assert coverage.partial == (n_dead > 0)
                assert sorted(coverage.errors) == sorted(
                    int(d) for d in dead
                )
                assert set(merged) <= set(reference.range_query(q, epsilon))
            finally:
                sharded.close()


class TestShardedQueryService:
    @pytest.fixture
    def service(self, transactions):
        partitions = partition_transactions(transactions, N_SHARDS)
        handles = make_shard_handles(partitions, N_BITS)
        service = ShardedQueryService(
            ShardedTree(handles, N_BITS), max_inflight=4, max_queue=8
        )
        yield service
        service.close()

    def test_served_query_carries_coverage(self, service, queries):
        served = service.query(Query("knn", queries[0].items(), k=3))
        assert served.coverage["shards_total"] == N_SHARDS
        assert served.partial is False

    def test_health_reports_shards_and_quorum(self, service):
        doc = service.health()
        assert doc["live"] and doc["ready"]
        assert doc["shards"]["total"] == N_SHARDS
        assert doc["shards"]["up"] == N_SHARDS
        assert doc["shards"]["quorum"] == N_SHARDS // 2 + 1
        row = doc["shards"]["detail"][0]
        assert {"shard", "state", "breaker", "restarts", "generation",
                "transactions"} <= set(row)
        assert doc["transactions"] == N_TX

    def test_readiness_drops_below_quorum(self, service):
        for handle in service.shards.handles[: N_SHARDS - 1]:
            handle.worker.kill()
        doc = service.health()
        assert doc["live"]          # the process still serves
        assert not doc["ready"]     # but should get no new traffic
        assert doc["shards"]["up"] < doc["shards"]["quorum"]

    def test_bad_request_is_a_client_error_scattered_once(
        self, service, queries, monkeypatch
    ):
        calls = []
        original = ShardHandle.call

        def counting(self, *args, **kwargs):
            calls.append(self.shard_id)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ShardHandle, "call", counting)
        items = list(queries[0].items())
        with pytest.raises(ValueError, match="unknown metric"):
            service.query(Query("knn", items, k=3, metric="nonsense"))
        with pytest.raises(ValueError, match="unknown metric"):
            service.query(
                Query("range", items, epsilon=0.5, metric="nonsense")
            )
        # Every shard was asked exactly once per request: no retry.
        assert sorted(calls) == sorted(2 * list(range(N_SHARDS)))
        assert service.health()["ready"]  # a client error trips no breaker

    def test_invalid_k_runs_the_coordinator_once(self, service, queries,
                                                 monkeypatch):
        calls = []
        original = ShardedTree.query

        def counting(self, query, *args, **kwargs):
            calls.append(query.k)
            return original(self, query, *args, **kwargs)

        monkeypatch.setattr(ShardedTree, "query", counting)
        with pytest.raises(ValueError, match="k must be"):
            service.query(Query("knn", queries[0].items(), k=0))
        assert calls == [0]

    def test_reload_is_rejected(self, service):
        with pytest.raises(ReproError, match="supervisor"):
            service.reload(index_path="whatever.idx")

    def test_quorum_validation(self, transactions):
        partitions = partition_transactions(transactions, 2)
        handles = make_shard_handles(partitions, N_BITS)
        sharded = ShardedTree(handles, N_BITS)
        try:
            with pytest.raises(ValueError, match="quorum"):
                ShardedQueryService(sharded, quorum=3)
        finally:
            sharded.close()

    def test_partial_telemetry_counter(self, transactions, queries):
        telemetry = Telemetry(registry=MetricsRegistry(), events=EventLog())
        partitions = partition_transactions(transactions, N_SHARDS)
        handles = make_shard_handles(partitions, N_BITS, telemetry=telemetry)
        service = ShardedQueryService(
            ShardedTree(handles, N_BITS, telemetry=telemetry),
            telemetry=telemetry,
        )
        try:
            handles[0].worker.kill()
            served = service.query(Query("knn", queries[0].items(), k=2))
            assert served.partial
            sample = telemetry.server_partial_total.labels(route="knn")
            assert sample.value == 1
        finally:
            service.close()


class TestProcessWorkers:
    """A killed worker process fails fast and restarts cleanly."""

    @pytest.fixture(scope="class")
    def process_sharded(self):
        txs = random_transactions(seed=3, count=90, n_bits=N_BITS)
        partitions = partition_transactions(txs, 2)
        handles = make_shard_handles(partitions, N_BITS)
        sharded = ShardedTree(handles, N_BITS)
        for handle in handles:
            assert handle.probe(timeout=10.0) is not None
        yield txs, sharded
        sharded.close()

    def test_roundtrip_matches_reference(self, process_sharded):
        txs, sharded = process_sharded
        reference = SGTree(N_BITS, max_entries=8)
        reference.insert_many(txs)
        q = txs[5].signature
        merged, coverage = sharded.query(Query("knn", q.items(), k=4))
        expected = reference.nearest(q, k=4)
        assert {(n.tid, n.distance) for n in merged} == \
            {(n.tid, n.distance) for n in expected}
        assert not coverage.partial

    def test_killed_process_fails_fast_then_recovers(self, process_sharded):
        txs, sharded = process_sharded
        victim = sharded.handles[0]
        victim.worker.kill()
        q = txs[0].signature
        started = time.monotonic()
        merged, coverage = sharded.query(Query("knn", q.items(), k=3))
        # Fails fast (receiver EOF / liveness poll), not via a long timeout.
        assert time.monotonic() - started < 5.0
        assert coverage.partial and victim.shard_id in coverage.errors
        victim.restart()
        assert victim.probe(timeout=10.0) is not None
        merged, coverage = sharded.query(Query("knn", q.items(), k=3))
        assert not coverage.partial
