"""Buffer replacement policies, alone and behind the node store."""

from __future__ import annotations

import pytest

from repro import Signature
from repro.sgtree.node import Entry, NodeStore
from repro.storage import ClockPolicy, FIFOPolicy, LRUPolicy

N_BITS = 64


class TestReplacementPolicies:
    def test_lru_evicts_least_recent(self):
        policy = LRUPolicy()
        for pid in (1, 2, 3):
            policy.admit(pid)
        policy.record_access(1)  # 2 becomes the LRU
        assert policy.evict() == 2

    def test_fifo_ignores_access_order(self):
        policy = FIFOPolicy()
        for pid in (1, 2, 3):
            policy.admit(pid)
        policy.record_access(1)
        assert policy.evict() == 1

    def test_clock_second_chance(self):
        policy = ClockPolicy()
        for pid in (1, 2, 3):
            policy.admit(pid)
        # All referenced: the first eviction sweeps, clearing bits, and
        # evicts the first page it revisits unreferenced (page 1).
        assert policy.evict() == 1

    def test_clock_respects_reference_bit(self):
        policy = ClockPolicy()
        for pid in (1, 2):
            policy.admit(pid)
        policy.evict()  # evicts 1 after sweep
        policy.admit(3)
        policy.record_access(2)
        # 2 referenced, 3 referenced -> sweep clears both, evicts 2 (front)
        assert policy.evict() == 2

    def test_remove_forgotten(self):
        for policy in (LRUPolicy(), FIFOPolicy(), ClockPolicy()):
            policy.admit(1)
            policy.admit(2)
            policy.remove(1)
            assert policy.evict() == 2

    @pytest.mark.parametrize("name", ["lru", "fifo", "clock"])
    def test_pool_correct_under_any_policy(self, name):
        """Whatever the eviction order, reads return the latest write."""
        store = NodeStore(N_BITS, frames=2, policy=name, mode="disk")
        pids = []
        for i in range(6):
            node = store.create_node(level=0)
            node.add(Entry(Signature.from_items([i], N_BITS), i))
            store.mark_dirty(node)
            pids.append(node.page_id)
        for i, pid in enumerate(pids):
            node = store.get(pid)
            node.replace_entries([Entry(Signature.from_items([i + 10], N_BITS), i + 10)])
            store.mark_dirty(node)
        del node
        decodes = store.counters.node_decodes
        for i, pid in enumerate(pids):
            assert store.read(pid).entry_refs().tolist() == [i + 10]
        assert store.counters.node_decodes > decodes  # evicted pages re-read
