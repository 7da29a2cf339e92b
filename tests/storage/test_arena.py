"""A node's read arrays: zero copy, kept on their node, coherent.

``NodeStore.read`` returns the :class:`~repro.sgtree.node.Node` itself
with its read arrays built.  Covers the two contracts those arrays keep:

* they are read-only, shared (never copied) by every reader, and agree
  with the node's entries, whether stacked from an entry list (sim mode)
  or decoded from a page (disk mode);
* the store keeps them coherent — a read reuses them until a mutation,
  ``mark_dirty`` or ``clear_cache`` drops them, a freed page is never
  served, and in disk mode a node evicted from the buffer is re-read
  from its page bytes.
"""

from __future__ import annotations

import gc
import sys
import threading

import numpy as np
import pytest

from repro import Signature
from repro.sgtree.node import Entry, Node, NodeStore

N_BITS = 130


def make_leaf(store: NodeStore, items: list[int]):
    node = store.create_node(level=0)
    for item in items:
        node.add(Entry(Signature.from_items([item % N_BITS], N_BITS), item))
    store.mark_dirty(node)
    return node


def two_page_disk_store() -> tuple[NodeStore, list[int]]:
    store = NodeStore(N_BITS, mode="disk", frames=1)
    pids = []
    for base in (0, 40):
        node = store.create_node(level=0)
        for i in range(4):
            node.add(Entry(Signature.from_items([base + i], N_BITS), base + i))
        store.mark_dirty(node)
        pids.append(node.page_id)
    store.flush()
    return store, pids


def read_arrays(node: Node) -> tuple:
    return (node.signature_matrix(), node.entry_areas(), node.entry_refs())


class TestDecodedNode:
    """The read arrays of one node."""

    def test_arrays_are_read_only(self):
        store = NodeStore(N_BITS)
        sim = store.read(make_leaf(store, [1, 5, 9]).page_id)
        disk_store, (page_id, _) = two_page_disk_store()
        gc.collect()  # drop the construction-time node references: the read decodes
        decodes = disk_store.counters.node_decodes
        disk = disk_store.read(page_id)
        assert disk_store.counters.node_decodes == decodes + 1
        for node in (sim, disk):
            for array in read_arrays(node):
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_from_node_shares_arrays_zero_copy(self):
        store = NodeStore(N_BITS)
        node = make_leaf(store, [1, 5, 9])
        read = store.read(node.page_id)
        assert read is node
        for first, again in zip(read_arrays(node), read_arrays(store.read(node.page_id))):
            assert first is again

    def test_mirrors_node_read_api(self):
        store = NodeStore(N_BITS)
        node = make_leaf(store, [2, 7, 11, 40])
        read = store.read(node.page_id)
        assert len(read) == len(node.entries) == 4
        assert read.is_leaf
        np.testing.assert_array_equal(
            read.signature_matrix(), np.stack([e.signature.words for e in node.entries])
        )
        assert read.entry_areas().tolist() == [e.area for e in node.entries]
        assert read.entry_refs().tolist() == [e.ref for e in node.entries]
        assert read.entry_counts() is None  # leaves carry no counts
        assert read.area_ranges() is None

    def test_empty_node_views_cleanly(self):
        store = NodeStore(N_BITS)
        node = store.create_node(level=0)
        read = store.read(node.page_id)
        assert len(read) == 0
        with pytest.raises(ValueError):
            read.signature_matrix()

    def test_kernel_pointers_cached_only_for_contiguous_layouts(self):
        store = NodeStore(N_BITS)
        node = store.read(make_leaf(store, [1, 5, 9]).page_id)
        assert node.matrix_ptr == node.signature_matrix().ctypes.data
        assert node.refs_ptr == node.entry_refs().ctypes.data
        strided = np.arange(24, dtype=np.uint64).reshape(4, 6)[:, ::2]
        oddball = Node.from_arrays(2, 0, 192, strided, np.arange(4, dtype=np.int32))
        assert oddball.matrix_ptr is None  # not C-contiguous
        assert oddball.refs_ptr is None    # not int64
        # a mutation drops the pointers with the arrays they address
        node.add(Entry(Signature.from_items([3], N_BITS), 3))
        assert node.matrix_ptr is None and node.refs_ptr is None
        store.read(node.page_id)
        assert node.matrix_ptr == node.signature_matrix().ctypes.data


class TestStoreCoherence:
    """Sim-mode store: the arrays live on their node, and every write
    path drops them."""

    def _store_and_node(self):
        store = NodeStore(N_BITS)
        return store, make_leaf(store, [1, 5, 9])

    def test_read_caches_and_reuses_the_view(self):
        store, node = self._store_and_node()
        first = store.read(node.page_id)
        arrays = read_arrays(first)
        second = store.read(node.page_id)
        assert first is second is node
        assert all(a is b for a, b in zip(arrays, read_arrays(second)))
        assert store.decode_cache.stats.misses == 1
        assert store.decode_cache.stats.hits == 1

    def test_mutation_invalidates_the_view_end_to_end(self):
        store, node = self._store_and_node()
        stale = store.read(node.page_id).entry_refs()
        assert len(stale) == 3
        node.add(Entry(Signature.from_items([77], N_BITS), 77))
        misses = store.decode_cache.stats.misses
        fresh = store.read(node.page_id)
        assert store.decode_cache.stats.misses == misses + 1
        assert fresh.entry_refs() is not stale
        assert len(fresh) == 4
        assert 77 in fresh.entry_refs()

    def test_mark_dirty_drops_the_view(self):
        store, node = self._store_and_node()
        stale = store.read(node.page_id).signature_matrix()
        store.mark_dirty(node)
        misses = store.decode_cache.stats.misses
        assert store.read(node.page_id).signature_matrix() is not stale
        assert store.decode_cache.stats.misses == misses + 1

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
        stale = [store.read(n.page_id).signature_matrix() for n in (node, other)]
        store.clear_cache()
        misses = store.decode_cache.stats.misses
        fresh = [store.read(n.page_id).signature_matrix() for n in (node, other)]
        assert store.decode_cache.stats.misses == misses + 2
        assert all(a is not b for a, b in zip(stale, fresh))

    def test_concurrent_first_reads_keep_kernel_pointers_coherent(self):
        # Readers share the node: several first reads racing to stack
        # its arrays must leave each pointer addressing the array the
        # node holds (a stale pointer would feed the C kernel freed
        # memory).  A tiny switch interval makes the interleaving likely.
        store, node = self._store_and_node()
        for item in range(10, 40):
            node.add(Entry(Signature.from_items([item], N_BITS), item))
        rounds, barrier, torn = 300, threading.Barrier(4), []

        def reader():
            for _ in range(rounds):
                barrier.wait()
                read = store.read(node.page_id)
                if (read.matrix_ptr != read.signature_matrix().ctypes.data
                        or read.refs_ptr != read.entry_refs().ctypes.data):
                    torn.append(read.page_id)
                barrier.wait()

        def invalidator():
            for _ in range(rounds):
                barrier.wait()
                barrier.wait()
                node.invalidate()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(3)]
            threads.append(threading.Thread(target=invalidator))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert torn == []


class TestDiskModeAuthority:
    """Once the buffer frame is gone, the page bytes are the authority:
    reading a non-resident page pays the fault (counted as a random I/O)
    and decodes fresh, never serving the evicted node's arrays."""

    def test_nonresident_read_rereads_the_page_bytes(self):
        store, (first, second) = two_page_disk_store()
        gc.collect()  # drop the construction-time node references: faults hit the pager
        stale_matrix, _, stale_refs = read_arrays(store.read(first))
        store.read(second)  # frames=1: evicts `first`
        gc.collect()
        decodes = store.counters.node_decodes
        ios = store.counters.random_ios
        reads = store.pager.stats.reads
        misses = store.decode_cache.stats.misses
        fresh = store.read(first)
        assert fresh.signature_matrix() is not stale_matrix
        assert store.counters.random_ios == ios + 1
        assert store.counters.node_decodes == decodes + 1
        assert store.pager.stats.reads == reads + 1
        assert store.decode_cache.stats.misses == misses + 1
        np.testing.assert_array_equal(fresh.signature_matrix(), stale_matrix)
        np.testing.assert_array_equal(fresh.entry_refs(), stale_refs)

    def test_resident_view_reuse_is_free(self):
        store, (first, second) = two_page_disk_store()
        store.read(second)  # second is now the one resident frame
        node = store.read(second)
        ios = store.counters.random_ios
        decodes = store.counters.node_decodes
        hits = store.decode_cache.stats.hits
        again = store.read(second)
        assert again is node
        assert store.counters.random_ios == ios
        assert store.counters.node_decodes == decodes
        assert store.decode_cache.stats.hits == hits + 1
