"""Cooperative cross-shard pruning: equivalence and dead-pilot safety.

The sharded coordinator with pilot routing (the home shard answers
first; its k-th distance seeds every other shard's request) must return
*exactly* the single-tree engine's answer — ids, distances, and
``(distance, tid)`` tie order — for every metric.  A pilot that dies
mid-call seeds nothing: the rest run unseeded and the merged answer is
exact over the shards that answered (DESIGN.md §13).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import COSINE, DICE, HAMMING, JACCARD, OVERLAP, SGTree
from repro.errors import ShardUnavailable
from repro.server import (
    Query,
    ShardedTree,
    make_shard_handles,
    partition_routed,
)
from repro.sgtree import SearchStats
from support import random_signature, random_transactions

N_BITS = 120
N_TX = 240
N_SHARDS = 4
K = 6
ALL_METRICS = [HAMMING, JACCARD, DICE, OVERLAP, COSINE]
METRIC_IDS = [m.name for m in ALL_METRICS]


@pytest.fixture(scope="module")
def transactions():
    return random_transactions(seed=901, count=N_TX, n_bits=N_BITS)


@pytest.fixture(scope="module")
def reference(transactions):
    tree = SGTree(N_BITS, max_entries=8)
    tree.insert_many(transactions)
    return tree


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(902)
    return [random_signature(rng, N_BITS, max_items=12) for _ in range(15)]


class TestShardRouter:
    def test_gray_routing_sends_each_transaction_home(self, transactions):
        partitions, router = partition_routed(
            transactions, N_SHARDS, method="gray"
        )
        homes = {
            t.tid: shard
            for shard, part in enumerate(partitions) for t in part
        }
        misrouted = sum(
            1 for t in transactions
            if router.route(t.signature) != homes[t.tid]
        )
        # Gray ranks over 120-bit random signatures are essentially
        # collision-free, so every member routes to its own run.
        assert misrouted == 0

    def test_minhash_routing_is_valid_and_mostly_home(self, transactions):
        partitions, router = partition_routed(transactions, N_SHARDS)
        homes = {
            t.tid: shard
            for shard, part in enumerate(partitions) for t in part
        }
        home_hits = 0
        for t in transactions:
            route = router.route(t.signature)
            assert 0 <= route < N_SHARDS
            # Minhash keys collide across run boundaries; bisect then
            # lands on the first run of the tied range, never past it.
            assert route <= homes[t.tid]
            home_hits += route == homes[t.tid]
        assert home_hits / len(transactions) > 0.9

    def test_empty_signature_routes_without_crashing(self, transactions):
        _, router = partition_routed(transactions, N_SHARDS)
        from repro import Signature
        assert 0 <= router.route(Signature.from_items([], N_BITS)) < N_SHARDS

    def test_more_shards_than_transactions(self):
        txs = random_transactions(seed=3, count=2, n_bits=N_BITS)
        partitions, router = partition_routed(txs, 5)
        assert sum(len(p) for p in partitions) == 2
        for t in txs:
            assert 0 <= router.route(t.signature) < 5


@pytest.mark.parametrize("metric", ALL_METRICS, ids=METRIC_IDS)
class TestCooperativeEquivalence:
    """Sharded-with-pilot-routing ≡ single tree, exact tie order."""

    def test_thread_mode_bit_identical(
        self, transactions, reference, queries, metric
    ):
        """Process shards answer bit-identically for every metric."""
        partitions, router = partition_routed(transactions, N_SHARDS)
        handles = make_shard_handles(partitions, N_BITS)
        sharded = ShardedTree(handles, N_BITS, router=router)
        try:
            stats = SearchStats()
            for query in queries:
                expected = reference.nearest(query, k=K, metric=metric.name)
                merged, coverage = sharded.query(
                    Query("knn", query.items(), k=K, metric=metric.name),
                    stats=stats,
                )
                assert not coverage.partial
                assert merged == expected
        finally:
            sharded.close()


class TestCooperativeProcessMode:
    def test_process_mode_bit_identical_with_updates(
        self, transactions, reference, queries
    ):
        """The seed crosses the pipe as the wire request's
        ``initial_threshold`` and the merge ends at the same answer."""
        partitions, router = partition_routed(transactions, N_SHARDS)
        handles = make_shard_handles(partitions, N_BITS)
        sharded = ShardedTree(handles, N_BITS, router=router)
        seeds = []
        for handle in handles:
            submit = handle.worker.submit

            def recording(request, submit=submit):
                if request.get("op") == "knn":
                    seeds.append(request.get("initial_threshold"))
                return submit(request)

            handle.worker.submit = recording
        try:
            for query in queries:
                expected = reference.nearest(query, k=K)
                merged, coverage = sharded.query(
                    Query("knn", query.items(), k=K)
                )
                assert not coverage.partial
                assert merged == expected
            # One unseeded pilot request and N-1 seeded ones per query.
            assert seeds.count(None) == len(queries)
            assert len(seeds) == N_SHARDS * len(queries)
        finally:
            sharded.close()

    def test_best_first_algorithm_matches_distances(
        self, transactions, reference, queries
    ):
        """Best-first resolves equal-distance ties in traversal order
        (the single-tree engine already does — see test_search.py), so
        the cooperative guarantee there is the distance sequence plus
        true-pair membership, not tid-level tie order."""
        partitions, router = partition_routed(transactions, N_SHARDS)
        handles = make_shard_handles(partitions, N_BITS)
        sharded = ShardedTree(handles, N_BITS, router=router)
        try:
            for query in queries:
                expected = reference.nearest(
                    query, k=K, algorithm="best-first"
                )
                merged, coverage = sharded.query(
                    Query("knn", query.items(), k=K, algorithm="best-first")
                )
                assert not coverage.partial
                assert [n.distance for n in merged] == \
                    [n.distance for n in expected]
                full = {
                    (n.distance, n.tid)
                    for n in reference.nearest(query, k=N_TX)
                }
                assert all((n.distance, n.tid) in full for n in merged)
        finally:
            sharded.close()

    def test_bound_sharing_off_matches_too(
        self, transactions, reference, queries
    ):
        """No router: every shard runs unseeded, merged at the end."""
        partitions, _ = partition_routed(transactions, N_SHARDS)
        handles = make_shard_handles(partitions, N_BITS)
        sharded = ShardedTree(handles, N_BITS)
        try:
            for query in queries:
                expected = reference.nearest(query, k=K)
                merged, _ = sharded.query(Query("knn", query.items(), k=K))
                assert merged == expected
        finally:
            sharded.close()


class TestDeadShardSafety:
    """A pilot that dies mid-call seeds nothing: the other shards run
    unseeded, and the merged answer is exact over the survivors."""

    def test_dead_pilot_mid_call_leaves_the_rest_unseeded_and_exact(
        self, transactions, reference, queries
    ):
        partitions, router = partition_routed(transactions, N_SHARDS)
        handles = make_shard_handles(partitions, N_BITS)
        seeds = []
        for handle in handles:
            call = handle.call

            def dying_pilot(request, *args, call=call, handle=handle, **kw):
                # Whichever shard the router picks dies mid-call as
                # the pilot and answers normally as a scatter target.
                if kw.get("role") == "pilot":
                    raise ShardUnavailable(
                        "died mid-call", shard_id=handle.shard_id
                    )
                seeds.append(request.get("initial_threshold"))
                return call(request, *args, **kw)

            handle.call = dying_pilot
        sharded = ShardedTree(handles, N_BITS, router=router)
        try:
            for query in queries:
                pilot_id = router.route(query)
                del seeds[:]
                merged, coverage = sharded.query(
                    Query("knn", query.items(), k=K)
                )
                # Coverage is accurate: exactly the pilot errored.
                assert coverage.partial
                assert coverage.answered == N_SHARDS - 1
                assert set(coverage.errors) == {pilot_id}
                # Nothing seeded the rest ...
                assert seeds == [None] * (N_SHARDS - 1)
                # ... so the answer is the single tree's over their
                # union, tie order included.
                survivors = SGTree(N_BITS, max_entries=8)
                survivors.insert_many([
                    t for i, part in enumerate(partitions) if i != pilot_id
                    for t in part
                ])
                assert merged == survivors.nearest(query, k=K)
                full = {
                    (n.distance, n.tid)
                    for n in reference.nearest(query, k=N_TX)
                }
                assert all((n.distance, n.tid) in full for n in merged)
        finally:
            sharded.close()

    def test_dead_pilot_falls_through_to_the_scatter(
        self, transactions, queries
    ):
        """Killing the worker the router picks as pilot still yields
        the exact answer over the shards that remain."""
        partitions, router = partition_routed(transactions, N_SHARDS)
        handles = make_shard_handles(partitions, N_BITS)
        query = queries[0]
        pilot_id = router.route(query)
        handles[pilot_id].worker.kill()
        survivors = SGTree(N_BITS, max_entries=8)
        survivors.insert_many([
            t for i, part in enumerate(partitions) if i != pilot_id
            for t in part
        ])
        sharded = ShardedTree(handles, N_BITS, router=router)
        try:
            merged, coverage = sharded.query(Query("knn", query.items(), k=K))
            assert coverage.partial
            assert set(coverage.errors) == {pilot_id}
            assert merged == survivors.nearest(query, k=K)
        finally:
            sharded.close()


class TestCoordinatorStats:
    def test_provenance_and_updates_surface_in_stats(
        self, transactions, queries
    ):
        partitions, router = partition_routed(transactions, N_SHARDS)
        handles = make_shard_handles(partitions, N_BITS)
        sharded = ShardedTree(handles, N_BITS, router=router)
        try:
            stats = SearchStats()
            for query in queries:
                sharded.query(Query("knn", query.items(), k=K), stats=stats)
            # With a pilot seeding every scatter, the seed is the bound
            # in force at the end of some shard's traversal.
            assert stats.bound_provenance == "pilot"
            sharded.router = None
            unrouted = SearchStats()
            for query in queries:
                sharded.query(Query("knn", query.items(), k=K), stats=unrouted)
            assert unrouted.bound_provenance is None
        finally:
            sharded.close()
