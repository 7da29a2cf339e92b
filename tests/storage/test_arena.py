"""Decoded-node views: zero copy, kept on their node, coherent.

Covers the two contracts the views must keep:

* :class:`DecodedNode` is a true zero-copy, read-only mirror of a node's
  read API;
* the store keeps views coherent — a read reuses the node's view until
  a mutation, ``mark_dirty`` or ``clear_cache`` clears it, a freed page
  is never served, and in disk mode a node evicted from the buffer is
  re-read from its page bytes.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro import Signature
from repro.sgtree.node import Entry, NodeStore
from repro.storage.arena import DecodedNode

N_BITS = 130


def make_view(page_id: int, entries: int = 4, width: int = 3) -> DecodedNode:
    matrix = np.arange(entries * width, dtype=np.uint64).reshape(entries, width)
    areas = np.arange(entries, dtype=np.int64)
    refs = np.arange(entries, dtype=np.int64)
    return DecodedNode(page_id, 0, 64 * width, matrix, areas, refs)


def make_leaf(store: NodeStore, items: list[int]):
    node = store.create_node(level=0)
    for item in items:
        node.add(Entry(Signature.from_items([item % N_BITS], N_BITS), item))
    store.mark_dirty(node)
    return node


class TestDecodedNode:
    def test_arrays_are_read_only(self):
        view = make_view(1)
        for array in (view.matrix, view.areas, view.refs):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_from_node_shares_arrays_zero_copy(self):
        store = NodeStore(N_BITS)
        node = make_leaf(store, [1, 5, 9])
        view = DecodedNode.from_node(node, N_BITS)
        assert view.matrix is node.signature_matrix()
        assert view.refs is node.entry_refs()
        assert view.areas is node.entry_areas()

    def test_mirrors_node_read_api(self):
        store = NodeStore(N_BITS)
        node = make_leaf(store, [2, 7, 11, 40])
        view = DecodedNode.from_node(node, N_BITS)
        assert len(view) == len(node) == 4
        assert view.is_leaf and view.page_id == node.page_id
        np.testing.assert_array_equal(view.signature_matrix(), node.signature_matrix())
        np.testing.assert_array_equal(view.entry_areas(), node.entry_areas())
        np.testing.assert_array_equal(view.entry_refs(), node.entry_refs())
        assert view.entry_counts() is None  # leaves carry no counts
        assert view.area_ranges() is None

    def test_empty_node_views_cleanly(self):
        store = NodeStore(N_BITS)
        node = store.create_node(level=0)
        view = DecodedNode.from_node(node, N_BITS)
        assert len(view) == 0
        with pytest.raises(ValueError):
            view.signature_matrix()

    def test_nbytes_sums_every_array(self):
        view = make_view(1, entries=4, width=3)
        assert view.nbytes == view.matrix.nbytes + view.areas.nbytes + view.refs.nbytes

    def test_kernel_pointers_cached_only_for_contiguous_layouts(self):
        view = make_view(1)
        assert view.matrix_ptr == view.matrix.ctypes.data
        assert view.refs_ptr == view.refs.ctypes.data
        strided = np.arange(24, dtype=np.uint64).reshape(4, 6)[:, ::2]
        oddball = DecodedNode(
            2, 0, 192, strided,
            np.arange(4, dtype=np.int64), np.arange(4, dtype=np.int32),
        )
        assert oddball.matrix_ptr is None  # not C-contiguous
        assert oddball.refs_ptr is None    # not int64


class TestStoreCoherence:
    """Sim-mode store: the view lives on its node, and every write path
    clears it."""

    def _store_and_node(self):
        store = NodeStore(N_BITS)
        return store, make_leaf(store, [1, 5, 9])

    def test_read_caches_and_reuses_the_view(self):
        store, node = self._store_and_node()
        first = store.read(node.page_id)
        second = store.read(node.page_id)
        assert first is second is node.view
        assert store.decode_cache.stats.misses == 1
        assert store.decode_cache.stats.hits == 1

    def test_mutation_invalidates_the_view_end_to_end(self):
        store, node = self._store_and_node()
        stale = store.read(node.page_id)
        assert len(stale) == 3
        node.add(Entry(Signature.from_items([77], N_BITS), 77))
        assert node.view is None
        fresh = store.read(node.page_id)
        assert fresh is not stale
        assert len(fresh) == 4
        assert 77 in fresh.entry_refs()

    def test_mark_dirty_drops_the_view(self):
        store, node = self._store_and_node()
        store.read(node.page_id)
        store.mark_dirty(node)
        assert node.view is None

    def test_free_drops_the_view(self):
        store, node = self._store_and_node()
        store.read(node.page_id)
        store.free(node.page_id)
        with pytest.raises(KeyError):
            store.read(node.page_id)
        reused = make_leaf(store, [2, 6])  # the pager recycles the id
        assert reused.page_id == node.page_id
        assert store.read(reused.page_id).entry_refs().tolist() == [2, 6]

    def test_clear_cache_drops_every_view(self):
        store, node = self._store_and_node()
        other = make_leaf(store, [2, 6])
        store.read(node.page_id)
        store.read(other.page_id)
        store.clear_cache()
        assert node.view is None and other.view is None
        misses = store.decode_cache.stats.misses
        store.read(node.page_id)
        assert store.decode_cache.stats.misses == misses + 1


class TestDiskModeAuthority:
    """Once the buffer frame is gone, the page bytes are the authority:
    reading a non-resident page pays the fault (counted as a random I/O)
    and decodes fresh, never serving the evicted node's view."""

    def _two_page_store(self):
        store = NodeStore(N_BITS, mode="disk", frames=1)
        pids = []
        for base in (0, 40):
            node = store.create_node(level=0)
            for i in range(4):
                node.add(
                    Entry(Signature.from_items([base + i], N_BITS), base + i)
                )
            store.mark_dirty(node)
            pids.append(node.page_id)
        store.flush()
        return store, pids

    def test_nonresident_read_rereads_the_page_bytes(self):
        store, (first, second) = self._two_page_store()
        gc.collect()  # drop builder references so faults hit the pager
        stale = store.read(first)
        store.read(second)  # frames=1: evicts `first`
        gc.collect()
        decodes = store.counters.node_decodes
        ios = store.counters.random_ios
        reads = store.pager.stats.reads
        fresh = store.read(first)
        assert fresh is not stale
        assert store.counters.random_ios == ios + 1
        assert store.counters.node_decodes == decodes + 1
        assert store.pager.stats.reads == reads + 1
        np.testing.assert_array_equal(fresh.matrix, stale.matrix)
        np.testing.assert_array_equal(fresh.entry_refs(), stale.entry_refs())

    def test_resident_view_reuse_is_free(self):
        store, (first, second) = self._two_page_store()
        store.read(second)  # second is now the one resident frame
        view = store.read(second)
        ios = store.counters.random_ios
        decodes = store.counters.node_decodes
        again = store.read(second)
        assert again is view
        assert store.counters.random_ios == ios
        assert store.counters.node_decodes == decodes
