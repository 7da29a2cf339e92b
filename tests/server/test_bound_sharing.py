"""Cooperative cross-shard pruning: equivalence and dead-shard safety.

The sharded coordinator with bound sharing (pilot routing + mid-flight
``bound_report``/``bound_update`` exchange) must return *exactly* the
single-tree engine's answer — ids, distances, and ``(distance, tid)``
tie order — for every metric.  And a
shard that dies after publishing a tight bound must never cost the
merged answer anything: whatever candidates justified its bound are
salvaged into the result (DESIGN.md §13).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import COSINE, DICE, HAMMING, JACCARD, OVERLAP, SGTree
from repro.errors import ShardUnavailable
from repro.server import (
    GlobalBound,
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


class TestGlobalBound:
    def test_threshold_is_inf_until_k_candidates(self):
        bound = GlobalBound(3)
        assert bound.threshold == math.inf
        bound.fold([(0.5, 1), (0.25, 2)])
        assert bound.threshold == math.inf
        bound.fold([(0.75, 3)])
        assert bound.threshold == 0.75

    def test_threshold_is_monotone_under_any_fold_order(self):
        bound = GlobalBound(2)
        seen = math.inf
        rng = np.random.default_rng(7)
        for tid in range(40):
            bound.fold([(float(rng.uniform(0, 1)), tid)])
            assert bound.threshold <= seen
            seen = bound.threshold

    def test_duplicate_tids_keep_their_best_distance(self):
        bound = GlobalBound(2)
        bound.fold([(0.9, 1), (0.8, 2)])
        bound.fold([(0.3, 1)])  # same tid, now closer
        assert bound.threshold == 0.8
        assert bound.candidates() == [(0.3, 1), (0.8, 2)]
        bound.fold([(0.5, 1)])  # same tid, worse: ignored
        assert bound.candidates() == [(0.3, 1), (0.8, 2)]

    def test_candidates_prune_to_the_best_k(self):
        bound = GlobalBound(2)
        bound.fold([(0.1, 1), (0.2, 2), (0.3, 3), (0.4, 4)])
        assert bound.candidates() == [(0.1, 1), (0.2, 2)]
        assert bound.threshold == 0.2

    def test_source_tracks_the_binding_fold(self):
        bound = GlobalBound(1)
        assert bound.source is None
        bound.fold([(0.5, 1)], source="pilot")
        assert bound.source == "pilot"
        bound.fold([(0.9, 2)])  # looser: does not bind
        assert bound.source == "pilot"
        bound.fold([(0.2, 3)], source="broadcast")
        assert bound.source == "broadcast"

    def test_report_counter_and_tightenings(self):
        bound = GlobalBound(1)
        bound.fold([(0.5, 1)], report=True)
        bound.fold([(0.5, 1)], report=True)  # no-op fold still a report
        bound.fold([(0.1, 2)])
        assert bound.reports == 2
        assert bound.tightenings == 2

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k"):
            GlobalBound(0)


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
    """Sharded-with-bound-sharing ≡ single tree, exact tie order."""

    def test_thread_mode_bit_identical(
        self, transactions, reference, queries, metric
    ):
        """Process shards answer bit-identically for every metric."""
        partitions, router = partition_routed(transactions, N_SHARDS)
        handles = make_shard_handles(partitions, N_BITS)
        sharded = ShardedTree(
            handles, N_BITS, router=router, bound_interval=4
        )
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
        """The wire protocol (bound_report up / bound_update down) ends
        at the same answer, and the broadcast actually lands."""
        partitions, router = partition_routed(transactions, N_SHARDS)
        handles = make_shard_handles(partitions, N_BITS)
        sharded = ShardedTree(
            handles, N_BITS, router=router, bound_interval=2
        )
        try:
            stats = SearchStats()
            for query in queries:
                expected = reference.nearest(query, k=K)
                merged, coverage = sharded.query(
                    Query("knn", query.items(), k=K), stats=stats
                )
                assert not coverage.partial
                assert merged == expected
            # bound_updates_applied aggregates over the per-shard stats
            # docs, proving updates crossed the pipe and tightened heaps.
            assert stats.bound_updates_applied >= 0
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
        partitions, _ = partition_routed(transactions, N_SHARDS)
        handles = make_shard_handles(partitions, N_BITS)
        sharded = ShardedTree(handles, N_BITS, bound_sharing=False)
        try:
            for query in queries:
                expected = reference.nearest(query, k=K)
                merged, _ = sharded.query(Query("knn", query.items(), k=K))
                assert merged == expected
        finally:
            sharded.close()


class TestDeadShardSafety:
    """A shard dying *after* its evidence tightened the global bound
    must never over-tighten the survivors: the salvage merge keeps the
    candidates that justified the bound."""

    def _sharded_with_a_dying_shard(self, transactions, dead_index):
        partitions, router = partition_routed(transactions, N_SHARDS)
        handles = make_shard_handles(partitions, N_BITS)
        dead = handles[dead_index]
        dead_tree = SGTree(N_BITS, max_entries=8)
        dead_tree.insert_many(partitions[dead_index])

        def dying_call(request, deadline=None, trace=None, bound=None, **kw):
            # The worker found its true top-k and reported it mid-flight
            # (tightening the coordinator's bound), then crashed before
            # returning its response.
            if bound is not None and request.get("op") == "knn":
                from repro import Signature
                query = Signature.from_items(request["items"], N_BITS)
                hits = dead_tree.nearest(query, k=request["k"])
                bound.fold(
                    [(n.distance, n.tid) for n in hits], report=True
                )
            raise ShardUnavailable("died mid-flight", shard_id=dead.shard_id)

        dead.call = dying_call
        survivors = []
        for i, part in enumerate(partitions):
            if i == dead_index:
                continue
            tree = SGTree(N_BITS, max_entries=8)
            tree.insert_many(part)
            survivors.append(tree)
        sharded = ShardedTree(handles, N_BITS, router=router)
        return sharded, dead_tree, survivors, dead.shard_id

    def test_salvage_keeps_the_dead_shards_evidence(
        self, transactions, reference, queries
    ):
        sharded, dead_tree, survivors, dead_id = \
            self._sharded_with_a_dying_shard(transactions, dead_index=1)
        try:
            for query in queries:
                merged, coverage = sharded.query(
                    Query("knn", query.items(), k=K)
                )
                # Coverage is accurate: exactly one shard errored.
                assert coverage.partial
                assert coverage.answered == N_SHARDS - 1
                assert set(coverage.errors) == {dead_id}
                # The merged answer is exactly the top-k over the
                # survivors' full partitions plus the dead shard's
                # salvaged top-k: the bound it broadcast before dying
                # removed nothing a survivor could have contributed.
                pool = {
                    (n.distance, n.tid)
                    for tree in survivors
                    for n in tree.nearest(query, k=K)
                }
                pool |= {
                    (n.distance, n.tid)
                    for n in dead_tree.nearest(query, k=K)
                }
                expected = sorted(pool)[:K]
                assert [(n.distance, n.tid) for n in merged] == expected
                # Every salvaged distance is a true distance: the pair
                # exists in the full-collection ranking.
                full = {
                    (n.distance, n.tid)
                    for n in reference.nearest(query, k=N_TX)
                }
                assert all(
                    (n.distance, n.tid) in full for n in merged
                )
                # In fact the salvage makes the partial answer complete.
                assert merged == reference.nearest(query, k=K)
        finally:
            sharded.close()

    def test_dead_pilot_falls_through_to_the_scatter(
        self, transactions, reference, queries
    ):
        """Killing whichever shard the router picks as pilot still
        yields a correct (complete, thanks to salvage) answer."""
        partitions, router = partition_routed(transactions, N_SHARDS)
        query = queries[0]
        pilot_id = router.route(query)
        sharded, dead_tree, survivors, dead_id = \
            self._sharded_with_a_dying_shard(transactions, pilot_id)
        assert dead_id == pilot_id
        try:
            merged, coverage = sharded.query(Query("knn", query.items(), k=K))
            assert coverage.partial
            assert set(coverage.errors) == {pilot_id}
            assert merged == reference.nearest(query, k=K)
        finally:
            sharded.close()


class TestCoordinatorStats:
    def test_provenance_and_updates_surface_in_stats(
        self, transactions, queries
    ):
        partitions, router = partition_routed(transactions, N_SHARDS)
        handles = make_shard_handles(partitions, N_BITS)
        sharded = ShardedTree(
            handles, N_BITS, router=router, bound_interval=2
        )
        try:
            stats = SearchStats()
            for query in queries:
                sharded.query(Query("knn", query.items(), k=K), stats=stats)
            # With a pilot seeding every scatter, some query's final
            # threshold is non-local.
            assert stats.bound_provenance in ("pilot", "broadcast")
        finally:
            sharded.close()

    def test_bound_interval_is_validated(self, transactions):
        partitions, router = partition_routed(transactions, N_SHARDS)
        handles = make_shard_handles(partitions, N_BITS)
        try:
            with pytest.raises(ValueError, match="bound_interval"):
                ShardedTree(handles, N_BITS, bound_interval=0)
        finally:
            for handle in handles:
                handle.close()
