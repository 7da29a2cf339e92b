"""SearchStats contract: idle-shard hit ratio, aggregation, exception safety."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SGTree, Signature
from repro.sgtree import SearchStats
from support import random_signature, random_transactions

N_BITS = 130


@pytest.fixture()
def tree() -> SGTree:
    tree = SGTree(N_BITS, max_entries=8)
    for t in random_transactions(seed=31, count=250, n_bits=N_BITS):
        tree.insert(t)
    return tree


class TestHitRatio:
    """Regression: an idle shard's ratio is *unknown*, not a perfect miss."""

    def test_zero_accesses_yields_none(self):
        assert SearchStats().hit_ratio is None

    def test_all_hits_is_one(self):
        stats = SearchStats(node_accesses=4, random_ios=0)
        assert stats.hit_ratio == 1.0

    def test_all_misses_is_zero(self):
        stats = SearchStats(node_accesses=4, random_ios=4)
        assert stats.hit_ratio == 0.0

    def test_real_query_still_produces_a_ratio(self, tree):
        stats = SearchStats()
        tree.nearest(Signature.from_items([1, 5, 9], N_BITS), k=3, stats=stats)
        assert stats.node_accesses > 0
        assert 0.0 <= stats.hit_ratio <= 1.0


class TestAggregate:
    def test_ratio_of_sums_not_average_of_ratios(self):
        hot = SearchStats(node_accesses=100, random_ios=0)   # ratio 1.0
        cold = SearchStats(node_accesses=100, random_ios=100)  # ratio 0.0
        total = SearchStats.aggregate([hot, cold])
        assert total.hit_ratio == 0.5

    def test_idle_shards_do_not_poison_the_total(self):
        busy = SearchStats(node_accesses=10, random_ios=5, leaf_entries=40)
        idle = SearchStats()  # hit_ratio is None, must be skipped not averaged
        total = SearchStats.aggregate([busy, idle, None])
        assert total.node_accesses == 10
        assert total.hit_ratio == 0.5
        assert total.leaf_entries == 40

    def test_all_idle_aggregates_to_idle(self):
        total = SearchStats.aggregate([SearchStats(), SearchStats()])
        assert total.node_accesses == 0
        assert total.hit_ratio is None

    def test_blocked_batch_ratio_is_defined(self, tree):
        # a kNN batch past one 64-query block: the last block is tiny but
        # every block's work lands in one summed, NaN-safe total
        rng = np.random.default_rng(8)
        queries = [random_signature(rng, N_BITS, max_items=10) for _ in range(65)]
        stats = SearchStats()
        tree.batch_nearest(queries, k=2, stats=stats)
        assert stats.node_accesses > 0
        assert 0.0 <= stats.hit_ratio <= 1.0


class TestBatchedAccountingParity:
    """Satellite: batched and sequential traversals follow the same
    accounting rules — one node access per visit, a random I/O exactly
    when the node is not resident in the buffer."""

    def _queries(self, n=12):
        rng = np.random.default_rng(99)
        return [random_signature(rng, N_BITS, max_items=10) for _ in range(n)]

    def test_warm_unbounded_buffer_reports_all_hits_on_both_paths(self, tree):
        # frames=None: everything stays resident, so a warmed tree must
        # report hit_ratio 1.0 from BOTH engines (the batched path once
        # reported 0.0 because its visits never scored the buffer).
        queries = self._queries()
        tree.batch_nearest(queries, k=3)  # warm the buffer and the node arrays
        seq = SearchStats()
        for query in queries:
            tree.nearest(query, k=3, stats=seq)
        bat = SearchStats()
        tree.batch_nearest(queries, k=3, stats=bat)
        assert seq.node_accesses > 0 and bat.node_accesses > 0
        assert seq.random_ios == 0
        assert bat.random_ios == 0
        assert seq.hit_ratio == 1.0
        assert bat.hit_ratio == 1.0

    def test_identical_results_while_accounting_differs(self, tree):
        # Accounting parity is about the *rules*, not the traffic: the
        # two engines visit nodes in different patterns, but answers
        # must be bit-identical regardless.
        queries = self._queries()
        seq = [tree.nearest(q, k=5) for q in queries]
        bat = tree.batch_nearest(queries, k=5)
        assert seq == bat

    def test_aggregate_mixes_sequential_and_batched_stats(self, tree):
        queries = self._queries()
        seq = SearchStats()
        for query in queries:
            tree.nearest(query, k=3, stats=seq)
        bat = SearchStats()
        tree.batch_nearest(queries, k=3, stats=bat)
        total = SearchStats.aggregate([seq, bat])
        assert total.node_accesses == seq.node_accesses + bat.node_accesses
        assert total.random_ios == seq.random_ios + bat.random_ios
        assert total.leaf_entries == seq.leaf_entries + bat.leaf_entries
        expected = (
            1.0 - total.random_ios / total.node_accesses
            if total.node_accesses else None
        )
        assert total.hit_ratio == expected


class TestExceptionSafety:
    """Satellite: `_StatsScope` must flush counter deltas even when the
    traversal dies mid-flight, so stats never silently under-report."""

    def test_stats_flushed_when_search_raises(self, tree):
        store = tree.store
        real_read = store.read
        calls = {"n": 0}

        def failing_read(page_id):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("injected mid-traversal failure")
            return real_read(page_id)

        store.read = failing_read
        try:
            stats = SearchStats()
            before = store.counters.snapshot()
            query = Signature.from_items([2, 7, 11], N_BITS)
            with pytest.raises(RuntimeError, match="injected"):
                tree.nearest(query, k=5, stats=stats)
            after = store.counters
            # exactly the accesses that happened before the crash
            assert stats.node_accesses == 3
            assert stats.node_accesses == (
                after.node_accesses - before.node_accesses
            )
            assert stats.random_ios == after.random_ios - before.random_ios
        finally:
            store.read = real_read

    def test_stats_flushed_on_every_engine(self, tree):
        query = Signature.from_items([2, 7, 11], N_BITS)
        engines = [
            lambda s: tree.range_query(query, 5.0, stats=s),
            lambda s: tree.containment_query(query, stats=s),
            lambda s: tree.nearest(query, k=2, algorithm="best-first", stats=s),
        ]
        for run in engines:
            store = tree.store
            real_read = store.read
            calls = {"n": 0}

            def failing_read(page_id, _real=real_read, _calls=calls):
                _calls["n"] += 1
                if _calls["n"] > 1:
                    raise RuntimeError("boom")
                return _real(page_id)

            store.read = failing_read
            try:
                stats = SearchStats()
                with pytest.raises(RuntimeError):
                    run(stats)
                assert stats.node_accesses == 1
            finally:
                store.read = real_read

    def test_scope_never_swallows_the_exception(self, tree):
        # the scope must re-raise, not return True from __exit__
        store = tree.store
        real_read = store.read
        store.read = lambda page_id: (_ for _ in ()).throw(KeyError(page_id))
        try:
            with pytest.raises(KeyError):
                tree.nearest(Signature.from_items([1], N_BITS), stats=SearchStats())
        finally:
            store.read = real_read

    def test_leaf_entries_accumulate_inside_the_scope(self, tree):
        # leaf comparisons recorded before a crash must also survive
        stats = SearchStats()
        tree.nearest(Signature.from_items([3, 4], N_BITS), k=2, stats=stats)
        assert stats.leaf_entries > 0


class TestSimDiskAccountingParity:
    """The node buffer alone decides random I/Os: the same tree and the
    same warm queries under a 4-frame buffer report the same traffic in
    ``sim`` mode (counted) and ``disk`` mode (paid)."""

    def _tree(self, mode):
        tree = SGTree(N_BITS, max_entries=8, frames=4, mode=mode)
        for t in random_transactions(seed=31, count=250, n_bits=N_BITS):
            tree.insert(t)
        return tree

    @pytest.mark.parametrize("engine", ["nearest", "batch_nearest"])
    def test_sim_and_disk_report_equal_traffic(self, engine):
        rng = np.random.default_rng(99)
        queries = [random_signature(rng, N_BITS, max_items=10) for _ in range(12)]

        def run(tree, stats):
            if engine == "nearest":
                return [tree.nearest(q, k=3, stats=stats) for q in queries]
            return tree.batch_nearest(queries, k=3, stats=stats)

        reports = {}
        for mode in ("sim", "disk"):
            tree = self._tree(mode)
            run(tree, SearchStats())  # warm
            stats = SearchStats()
            answers = run(tree, stats)
            reports[mode] = (answers, stats.node_accesses, stats.random_ios)
        assert reports["sim"] == reports["disk"]
        _, accesses, random_ios = reports["sim"]
        # more pages than frames: the warm pass still misses the buffer
        assert 0 < random_ios <= accesses
