"""Thread-safety of the copy-on-write snapshot-published ConcurrentSGTree."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import LinearScan, Signature
from repro.sgtree import SearchStats, validate_tree
from repro.sgtree.concurrent import ConcurrentSGTree, PinnedSnapshot
from support import random_signature, random_transactions

N_BITS = 120


class TestConcurrentSGTree:
    def test_parallel_queries_are_exact(self):
        transactions = random_transactions(seed=81, count=500, n_bits=N_BITS)
        index = ConcurrentSGTree(n_bits=N_BITS, max_entries=12)
        index.insert_many(transactions)
        scan = LinearScan(transactions)
        rng = np.random.default_rng(3)
        queries = [random_signature(rng, N_BITS) for _ in range(40)]
        expected = [
            [n.distance for n in scan.nearest(q, k=3)] for q in queries
        ]
        failures = []

        def worker(ids):
            for i in ids:
                got = [n.distance for n in index.nearest(queries[i], k=3)]
                if got != expected[i]:
                    failures.append(i)

        threads = [
            threading.Thread(target=worker, args=(range(i, 40, 4),)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert failures == []

    def test_interleaved_writers_and_readers(self):
        transactions = random_transactions(seed=82, count=600, n_bits=N_BITS)
        index = ConcurrentSGTree(n_bits=N_BITS, max_entries=10)
        index.insert_many(transactions[:200])
        errors = []

        def writer():
            try:
                for t in transactions[200:]:
                    index.insert(t)
                for t in transactions[:100]:
                    assert index.delete(t)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def reader():
            rng = np.random.default_rng(9)
            try:
                for _ in range(150):
                    query = random_signature(rng, N_BITS)
                    hits = index.nearest(query, k=2)
                    assert all(h.distance >= 0 for h in hits)
                    index.range_query(query, 5)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        validate_tree(index.tree)
        assert len(index) == 500
        # final state must be exactly the survivors
        survivors = {t.tid: t.signature for t in transactions[100:]}
        assert dict(index.tree.items()) == survivors
        # every superseded page is reclaimable once readers drained
        assert index.reclaim(timeout=10)
        assert index.pending_reclaim == 0

    def test_wraps_existing_tree(self):
        from repro import SGTree

        tree = SGTree(N_BITS, max_entries=8)
        index = ConcurrentSGTree(tree=tree)
        index.insert(1, Signature.from_items([1, 2], N_BITS))
        assert len(index) == 1
        assert index.containment_query(Signature.from_items([1], N_BITS)) == [1]
        assert index.equality_query(Signature.from_items([1, 2], N_BITS)) == [1]
        assert index.subset_query(Signature.from_items([1, 2, 3], N_BITS)) == [1]
        assert "ConcurrentSGTree" in repr(index)

    def test_disk_mode_forces_serial_reads(self):
        from repro import SGTree

        tree = SGTree(N_BITS, max_entries=8, mode="disk", frames=4)
        index = ConcurrentSGTree(tree=tree)
        assert index._serial_reads
        index.insert(1, Signature.from_items([3], N_BITS))
        assert index.nearest(Signature.from_items([3], N_BITS))[0].tid == 1


class TestSnapshotSemantics:
    """Readers pin one immutable version; writers publish beside them."""

    def test_each_mutation_publishes_a_new_generation(self):
        index = ConcurrentSGTree(n_bits=N_BITS, max_entries=8)
        assert index.generation == 0
        generations = []
        for t in random_transactions(seed=90, count=20, n_bits=N_BITS):
            index.insert(t)
            generations.append(index.generation)
        assert generations == sorted(generations)
        assert generations[-1] == 20 == index.publishes

    def test_pinned_snapshot_is_frozen_against_later_writes(self):
        transactions = random_transactions(seed=91, count=150, n_bits=N_BITS)
        index = ConcurrentSGTree(n_bits=N_BITS, max_entries=8)
        index.insert_many(transactions[:100])
        query = Signature.from_items([1, 2, 3], N_BITS)
        with index.snapshot() as snap:
            assert isinstance(snap, PinnedSnapshot)
            before = [(n.tid, n.distance) for n in snap.nearest(query, k=5)]
            pinned_generation = snap.generation
            for t in transactions[100:]:
                index.insert(t)
            # the live index moved on ...
            assert index.generation > pinned_generation
            assert len(index) == 150
            # ... but the pinned snapshot answers bit-identically
            assert len(snap) == 100
            after = [(n.tid, n.distance) for n in snap.nearest(query, k=5)]
            assert after == before

    def test_failed_mutation_leaves_published_tree_intact(self):
        index = ConcurrentSGTree(n_bits=N_BITS, max_entries=8)
        index.insert_many(random_transactions(seed=92, count=60, n_bits=N_BITS))
        generation = index.generation
        size = len(index)
        try:
            index.insert(10_000, Signature.from_items([1], N_BITS // 2))
        except ValueError:
            pass
        else:  # pragma: no cover - the mismatch must raise
            raise AssertionError("bit-width mismatch did not raise")
        assert index.generation == generation
        assert len(index) == size
        validate_tree(index.tree)

    def test_deletes_converge_and_reclaim(self):
        transactions = random_transactions(seed=93, count=120, n_bits=N_BITS)
        index = ConcurrentSGTree(n_bits=N_BITS, max_entries=8)
        index.insert_many(transactions)
        for t in transactions[:60]:
            assert index.delete(t)
        assert index.reclaim(timeout=10)
        assert index.reclaimed_pages > 0
        validate_tree(index.tree)
        survivors = {t.tid: t.signature for t in transactions[60:]}
        assert dict(index.tree.items()) == survivors


class TestSnapshotQuerySurface:
    """A pinned snapshot answers the seven read queries from its tree
    facade, with every option passed through, and offers nothing else."""

    QUERIES = ("nearest", "batch_nearest", "range_query",
               "batch_range_query", "containment_query", "subset_query",
               "equality_query")

    def _calls(self, query):
        from repro.sgtree import Deadline
        from repro.telemetry.tracing import Tracer

        return [
            ("nearest", (query,), dict(
                k=4, metric="jaccard", stats=SearchStats(),
                deadline=Deadline.after(30.0), tracer=Tracer(),
                initial_threshold=0.9)),
            ("nearest", (query,), dict(k=3, algorithm="best-first")),
            ("batch_nearest", ([query, query],), dict(
                k=2, metric="dice", stats=SearchStats(),
                deadline=Deadline.after(30.0), initial_thresholds=[0.8, 0.9])),
            ("range_query", (query, 0.6), dict(
                metric="jaccard", stats=SearchStats(), tracer=Tracer())),
            ("batch_range_query", ([query, query], [4, 5]), dict(
                stats=SearchStats(), deadline=Deadline.after(30.0))),
            ("containment_query", (Signature.from_items([1], N_BITS),), dict(
                stats=SearchStats(), tracer=Tracer())),
            ("subset_query", (query,), {}),
            ("equality_query", (query,), {}),
        ]

    def test_answers_match_the_tree_with_every_option(self):
        from repro import SGTree

        transactions = random_transactions(seed=95, count=120, n_bits=N_BITS)
        tree = SGTree(N_BITS, max_entries=8)
        tree.insert_many(transactions)
        index = ConcurrentSGTree(n_bits=N_BITS, max_entries=8)
        index.insert_many(transactions)
        query = transactions[3].signature | Signature.from_items([1], N_BITS)
        assert {name for name, _, _ in self._calls(query)} == set(self.QUERIES)
        # Fresh option objects (stats, tracers) for each of the three runs.
        for (name, args, kwargs), (_, _, again), (_, _, third) in zip(
            self._calls(query), self._calls(query), self._calls(query)
        ):
            expected = getattr(tree, name)(*args, **kwargs)
            with index.snapshot() as snap:
                assert getattr(snap, name)(*args, **again) == expected, name
            assert getattr(index, name)(*args, **third) == expected, name

    def test_pinned_snapshot_exposes_no_mutator(self):
        index = ConcurrentSGTree(n_bits=N_BITS, max_entries=8)
        index.insert(1, Signature.from_items([1, 2], N_BITS))
        with index.snapshot() as snap:
            with pytest.raises(AttributeError):
                snap.insert(2, Signature.from_items([3], N_BITS))
            for name in ("insert_many", "delete", "update", "commit",
                         "swap", "explain", "browse"):
                assert not hasattr(snap, name), name
            for name in self.QUERIES:
                assert callable(getattr(snap, name))
        assert len(index) == 1

    @staticmethod
    def _paused_reader_and_writer(index, query, extra, monkeypatch):
        """Run a snapshot kNN paused mid-call beside one insert; returns
        whether the insert finished while the query was paused, and the
        order in which the two completed."""
        from repro.sgtree import search

        in_query = threading.Event()
        resume = threading.Event()
        order = []
        original = search.knn_depth_first

        def paused_knn(*args, **kwargs):
            in_query.set()
            assert resume.wait(10)
            result = original(*args, **kwargs)
            order.append("query")
            return result

        monkeypatch.setattr(search, "knn_depth_first", paused_knn)

        def reader():
            with index.snapshot() as snap:
                snap.nearest(query, k=3)

        def writer():
            index.insert(extra)
            order.append("insert")

        reading = threading.Thread(target=reader)
        reading.start()
        assert in_query.wait(10)
        writing = threading.Thread(target=writer)
        writing.start()
        writing.join(timeout=0.3)
        insert_done_while_paused = not writing.is_alive()
        resume.set()
        reading.join(timeout=10)
        writing.join(timeout=10)
        assert not reading.is_alive() and not writing.is_alive()
        return insert_done_while_paused, order

    def test_disk_mode_query_holds_the_io_lock_for_the_whole_call(
        self, tmp_path, monkeypatch
    ):
        from repro import SGTree
        from repro.sgtree import NodeStore
        from repro.storage import FilePager

        store = NodeStore(
            N_BITS, page_size=4096, frames=4, mode="disk",
            pager=FilePager(tmp_path / "lock.pages", page_size=4096),
        )
        index = ConcurrentSGTree(tree=SGTree(N_BITS, max_entries=8,
                                             store=store))
        transactions = random_transactions(seed=96, count=61, n_bits=N_BITS)
        index.insert_many(transactions[:60])
        done_early, order = self._paused_reader_and_writer(
            index, transactions[0].signature, transactions[60], monkeypatch
        )
        assert not done_early  # the insert waited on the reader's lock
        assert order == ["query", "insert"]
        assert len(index) == 61
        store.pager.close()

    def test_sim_mode_query_takes_no_lock(self, monkeypatch):
        index = ConcurrentSGTree(n_bits=N_BITS, max_entries=8)
        transactions = random_transactions(seed=97, count=61, n_bits=N_BITS)
        index.insert_many(transactions[:60])
        done_early, order = self._paused_reader_and_writer(
            index, transactions[0].signature, transactions[60], monkeypatch
        )
        assert done_early
        assert order == ["insert", "query"]


class TestSwapRetiresTheOldTree:
    """Satellite: after a hot swap every new read answers from the new
    tree, while a straggler holding the old tree keeps its answers."""

    def _built(self, seed: int, count: int) -> ConcurrentSGTree:
        index = ConcurrentSGTree(n_bits=N_BITS, max_entries=8)
        index.insert_many(random_transactions(seed=seed, count=count, n_bits=N_BITS))
        return index

    def test_swap_returns_the_old_tree(self):
        from repro import SGTree

        index = self._built(seed=61, count=200)
        rng = np.random.default_rng(5)
        queries = [random_signature(rng, N_BITS, max_items=10) for _ in range(8)]
        before = index.batch_nearest(queries, k=3)  # warm the old views
        old_store = index.tree.store

        replacement = SGTree(N_BITS, max_entries=8)
        for t in random_transactions(seed=62, count=150, n_bits=N_BITS):
            replacement.insert(t)
        swapped_out = index.swap(replacement)

        assert swapped_out.store is old_store
        assert index.tree is replacement
        assert swapped_out.batch_nearest(queries, k=3) == before

    def test_reads_after_swap_answer_from_the_new_tree(self):
        from repro import SGTree

        index = self._built(seed=63, count=120)
        rng = np.random.default_rng(6)
        queries = [random_signature(rng, N_BITS, max_items=10) for _ in range(6)]
        index.batch_nearest(queries, k=2)

        replacement = SGTree(N_BITS, max_entries=8)
        replacement_transactions = random_transactions(
            seed=64, count=90, n_bits=N_BITS
        )
        for t in replacement_transactions:
            replacement.insert(t)
        index.swap(replacement)

        scan = LinearScan(replacement_transactions)
        for query in queries:
            got = index.nearest(query, k=2)
            expected = scan.nearest(query, k=2)
            assert [n.distance for n in got] == [n.distance for n in expected]
        # batched reads build views in the new store only
        index.batch_nearest(queries, k=2)
        assert index.tree.store.decode_cache.stats.misses > 0

    def test_old_tree_straggler_keeps_its_answers(self):
        from repro import SGTree

        index = self._built(seed=65, count=100)
        query = Signature.from_items([1, 2, 3], N_BITS)
        before = index.nearest(query, k=2)
        old_tree = index.swap(SGTree(N_BITS, max_entries=8))

        # a straggler still holding the old tree can keep querying it
        assert old_tree.nearest(query, k=2) == before
        assert index.nearest(query, k=2) == []

    def test_on_retire_fires_only_after_readers_drain(self):
        from repro import SGTree

        index = self._built(seed=66, count=80)
        retired = []
        pinned = index.snapshot()
        old = index.swap(
            SGTree(N_BITS, max_entries=8),
            on_retire=lambda tree: retired.append(tree),
        )
        # the straggler's pin holds the retirement hook back
        assert retired == []
        assert not index.reclaim(timeout=0.05)
        pinned.release()
        assert index.reclaim(timeout=10)
        assert retired == [old]
