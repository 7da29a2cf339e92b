"""A faulted page becomes arrays, not objects.

A disk-mode fault of a page, raw or compressed, keeps the decoded arrays as
the node's state; ``Node.entries`` builds the ``Entry``/``Signature``
objects only when a writer or an entry-level caller first asks.  These
tests pin the three halves of that contract:

* a cold read-only pass builds no ``Entry`` and no ``Signature`` at all,
  with unchanged answers and unchanged accounting;
* copy-on-write writers working on lazily faulted nodes lose nothing
  through a commit, a reopen and crash recovery;
* ``invalidate()`` on a node still in array form keeps every entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SGTree, Signature, recover_tree
from repro.core import bitops
from repro.sgtree import ConcurrentSGTree, validate_tree
from repro.sgtree.node import Entry
from repro.sgtree.persistence import load_tree, save_tree
from repro.storage.serialization import decode_node
from repro.telemetry.tracing import Tracer
from support import random_signature, random_transactions

N_BITS = 96
PAGE_SIZE = 1024


def _page_entries(page) -> list[tuple[Signature, int]]:
    """The ``(signature, ref)`` pairs a decoded page holds."""
    return [
        (Signature(row, N_BITS), ref)
        for row, ref in zip(page.matrix, page.refs.tolist())
    ]


@pytest.fixture
def built():
    """A sim-mode tree of height >= 3 and its transactions."""
    transactions = random_transactions(seed=23, count=400, n_bits=N_BITS)
    tree = SGTree(N_BITS, max_entries=8, page_size=PAGE_SIZE)
    for t in transactions:
        tree.insert(t)
    assert tree.height >= 3
    return tree, transactions


def _queries(count: int) -> list[Signature]:
    rng = np.random.default_rng(7)
    return [random_signature(rng, N_BITS, max_items=10) for _ in range(count)]


def constructions_of(run) -> tuple[object, dict]:
    """Call ``run()``; return its result and the ``Entry``/``Signature``
    objects built meanwhile."""
    mp = pytest.MonkeyPatch()
    counts = {"Entry": 0, "Signature": 0}
    try:
        for cls in (Entry, Signature):
            original = cls.__init__

            def counting(self, *args, _original=original, _name=cls.__name__, **kw):
                counts[_name] += 1
                _original(self, *args, **kw)

            mp.setattr(cls, "__init__", counting)
        result = run()
    finally:
        mp.undo()
    return result, counts


class TestColdReadsBuildNoObjects:
    @pytest.mark.parametrize("frames", [None, 6])
    def test_cold_pass_builds_no_entry_or_signature(
        self, built, tmp_path, frames
    ):
        tree, _ = built
        save_tree(tree, tmp_path / "lazy.sgt")
        disk = load_tree(tmp_path / "lazy.sgt", frames=frames)
        try:
            queries = _queries(16)
            sim_before = tree.store.counters.snapshot()
            expected_batch = tree.batch_nearest(queries, k=4)
            expected_seq = [tree.nearest(q, k=4) for q in queries]
            sim_accesses = tree.store.counters.node_accesses - sim_before.node_accesses
            store = disk.store
            store.clear_cache()
            before = store.counters.snapshot()
            # the query signatures exist already: only the pass is counted
            (batch, sequential), counts = constructions_of(lambda: (
                disk.batch_nearest(queries, k=4),
                [disk.nearest(q, k=4) for q in queries],
            ))
            after = store.counters
            assert batch == expected_batch
            assert sequential == expected_seq
            assert counts == {"Entry": 0, "Signature": 0}
            assert after.node_accesses - before.node_accesses == sim_accesses
            decodes = after.node_decodes - before.node_decodes
            assert decodes > 0
            assert decodes == after.random_ios - before.random_ios
        finally:
            disk.store.pager.close()


    @pytest.mark.parametrize("frames", [None, 6])
    def test_traced_cold_pass_takes_the_same_read_path(
        self, built, tmp_path, frames
    ):
        tree, _ = built
        save_tree(tree, tmp_path / "lazy.sgt")
        disk = load_tree(tmp_path / "lazy.sgt", frames=frames)
        try:
            queries = _queries(16)
            expected = [tree.nearest(q, k=4) for q in queries]
            store = disk.store
            store.clear_cache()
            before = store.counters.snapshot()
            cache = store.decode_cache.stats
            looked_up = cache.hits + cache.misses
            tracers = [Tracer() for _ in queries]
            answers, counts = constructions_of(lambda: [
                disk.nearest(q, k=4, tracer=tracer)
                for q, tracer in zip(queries, tracers)
            ])
            assert answers == expected
            assert counts == {"Entry": 0, "Signature": 0}
            accesses = store.counters.node_accesses - before.node_accesses
            assert accesses == sum(t.node_accesses for t in tracers)
            # every traced visit went through the read path's accounting
            assert cache.hits + cache.misses - looked_up == accesses
            assert store.counters.node_decodes > before.node_decodes
            for span in (span for t in tracers for span in t.spans):
                assert span.fanout == len(store.get(span.page_id))
        finally:
            disk.store.pager.close()


class TestEveryFaultBuildsArrays:
    @pytest.mark.parametrize("compress", [False, True])
    def test_fault_keeps_the_page_arrays(self, tmp_path, compress):
        """Raw and compressed pages alike fault into array-form nodes
        with no ``Entry``; a raw page's matrix and refs are views of the
        page bytes, so the compiled kernels get their base addresses."""
        tree = SGTree(N_BITS, max_entries=8, page_size=PAGE_SIZE, compress=compress)
        for t in random_transactions(seed=23, count=400, n_bits=N_BITS):
            tree.insert(t)
        save_tree(tree, tmp_path / "faults.sgt")
        disk = load_tree(tmp_path / "faults.sgt", frames=None)
        try:
            store = disk.store
            store.clear_cache()

            def fault_all():
                nodes, pending = [], [disk.root_id]
                while pending:
                    node = store.read(pending.pop())
                    nodes.append(node)
                    if not node.is_leaf:
                        pending.extend(int(ref) for ref in node.entry_refs())
                return nodes

            nodes, counts = constructions_of(fault_all)
            assert counts["Entry"] == 0
            assert len(nodes) == store.counters.node_decodes > 1
            for node in nodes:
                assert node._entries is None  # array form
                assert node.matrix_ptr is not None and node.refs_ptr is not None
                if not compress:
                    for array in (node.signature_matrix(), node.entry_refs()):
                        while isinstance(array, np.ndarray):
                            array = array.base
                        assert isinstance(array, bytes)
            validate_tree(disk)
            assert dict(disk.items()) == dict(tree.items())
        finally:
            disk.store.pager.close()


class TestLeafAreasOnDemand:
    """A fault counts no areas; ``entry_areas()`` counts them once."""

    @pytest.fixture
    def disk(self, built, tmp_path):
        tree, _ = built
        save_tree(tree, tmp_path / "areas.sgt")
        disk = load_tree(tmp_path / "areas.sgt", frames=None)
        yield disk
        disk.store.pager.close()

    @staticmethod
    def _a_leaf(disk) -> int:
        page_id = disk.root_id
        while not disk.store.read(page_id).is_leaf:
            page_id = int(disk.store.read(page_id).entry_refs()[0])
        return page_id

    def test_leaf_fault_builds_no_areas(self, disk, monkeypatch):
        page_id = self._a_leaf(disk)
        disk.store.clear_cache()
        counted = []
        popcount = bitops.popcount
        monkeypatch.setattr(
            bitops, "popcount", lambda words: counted.append(1) or popcount(words)
        )
        decodes = disk.store.counters.node_decodes
        node = disk.store.read(page_id)
        assert disk.store.counters.node_decodes == decodes + 1
        assert node.is_leaf and counted == []
        node.entry_areas()
        node.entry_areas()
        assert counted == [1]  # counted once, then kept

    def test_entry_areas_read_only_and_kept_through_clone_and_invalidate(
        self, disk
    ):
        node = disk.store.read(self._a_leaf(disk))
        expected = bitops.popcount(node.signature_matrix()).tolist()

        def check(areas):
            assert areas.tolist() == expected
            assert not areas.flags.writeable
            with pytest.raises(ValueError):
                areas[0] = 0

        check(node.entry_areas())
        check(node.clone(page_id=10_000).entry_areas())
        node.invalidate()
        check(node.entry_areas())


class TestWritersOnLazyNodes:
    def test_cow_insert_delete_commit_recover(self, built, tmp_path):
        tree, transactions = built
        pages = tmp_path / "cow.sgt"
        wal_path = tmp_path / "cow.wal"
        save_tree(tree, pages)
        disk = load_tree(pages, frames=8, wal_path=wal_path)
        index = ConcurrentSGTree(tree=disk)
        # fault every page lazily first: the writers below clone
        # nodes that are still in array form
        disk.batch_nearest(_queries(8), k=4)
        extra = random_transactions(seed=24, count=60, n_bits=N_BITS)
        for offset, t in enumerate(extra):
            moved = type(t)(10_000 + offset, t.signature)
            index.insert(moved)
            tree.insert(moved)
        for t in transactions[:40]:
            assert index.delete(t)
            assert tree.delete(t)
        index.reclaim(timeout=10)
        index.commit()
        assert dict(index.tree.items()) == dict(tree.items())
        index.tree.store.pager.close()
        index.tree.store.wal.close()

        recovered = recover_tree(pages, wal_path)
        try:
            validate_tree(recovered)
            assert dict(recovered.items()) == dict(tree.items())
            for query in _queries(6):
                assert recovered.nearest(query, k=3) == tree.nearest(query, k=3)
        finally:
            recovered.store.pager.close()
            recovered.store.wal.close()


class TestInvalidateKeepsEntries:
    def test_invalidate_builds_entries_before_dropping_arrays(
        self, built, tmp_path
    ):
        tree, _ = built
        save_tree(tree, tmp_path / "lazy.sgt")
        disk = load_tree(tmp_path / "lazy.sgt", frames=None)
        try:
            store = disk.store
            for page_id in (disk.root_id, *store.read(disk.root_id).entry_refs()):
                page_id = int(page_id)
                page = decode_node(store.pager.read(page_id).data, N_BITS)
                node = store.get(page_id)
                node.invalidate()
                assert [(e.signature, e.ref) for e in node.entries] == _page_entries(page)
                stats = [(e.min_area, e.max_area, e.count) for e in node.entries]
                assert page.mins is not None  # directory pages carry stats
                assert stats == list(zip(
                    page.mins.tolist(), page.maxs.tolist(), page.counts.tolist()
                ))
                # the arrays rebuilt from the entries agree with the page
                np.testing.assert_array_equal(node.entry_refs(), page.refs)
                assert len(node) == len(page.refs)
        finally:
            disk.store.pager.close()

    def test_invalidate_on_a_lazy_leaf(self, built, tmp_path):
        tree, _ = built
        save_tree(tree, tmp_path / "lazy.sgt")
        disk = load_tree(tmp_path / "lazy.sgt", frames=None)
        try:
            store = disk.store
            page_id = disk.root_id
            while not store.read(page_id).is_leaf:
                page_id = int(store.read(page_id).entry_refs()[0])
            page = decode_node(store.pager.read(page_id).data, N_BITS)
            node = store.get(page_id)
            assert node.area_ranges() is None and node.entry_counts() is None
            node.invalidate()
            assert [(e.signature, e.ref) for e in node.entries] == _page_entries(page)
            assert all(e.min_area is None and e.count is None for e in node.entries)
        finally:
            disk.store.pager.close()
