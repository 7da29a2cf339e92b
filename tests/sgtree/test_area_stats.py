"""Per-entry subtree area statistics (the §6 'statistics' optimisation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HAMMING, LinearScan, SGTree, Signature, bulk_load
from repro.sgtree import SearchStats, validate_tree
from repro.sgtree.node import Entry, Node
from repro.sgtree.search import strengthen_hamming_bounds
from support import random_signature, random_transactions

N_BITS = 140


def varied_transactions(seed: int, count: int):
    """Transactions with strongly varied areas (1..30 items) so the area
    statistics actually discriminate."""
    return random_transactions(
        seed=seed, count=count, n_bits=N_BITS, min_items=1, max_items=30
    )


class TestMaintenance:
    def test_stats_valid_after_inserts(self):
        tree = SGTree(N_BITS, max_entries=8)
        tree.insert_many(varied_transactions(1, 200))
        validate_tree(tree)  # validate_tree re-derives and compares stats
        root = tree.store.get(tree.root_id)
        assert all(e.min_area is not None for e in root.entries)

    def test_stats_valid_after_deletes(self):
        transactions = varied_transactions(2, 200)
        tree = SGTree(N_BITS, max_entries=8)
        tree.insert_many(transactions)
        for t in transactions[:120]:
            assert tree.delete(t)
        validate_tree(tree)

    def test_stats_valid_after_bulk_load(self):
        tree = bulk_load(varied_transactions(3, 300), N_BITS, max_entries=12)
        validate_tree(tree)

    def test_stats_survive_disk_round_trip(self, tmp_path):
        from repro import load_tree, save_tree

        tree = SGTree(N_BITS, max_entries=8)
        tree.insert_many(varied_transactions(4, 150))
        path = tmp_path / "stats.sgt"
        save_tree(tree, path)
        reopened = load_tree(path)
        validate_tree(reopened)
        root = reopened.store.get(reopened.root_id)
        assert all(e.min_area is not None for e in root.entries)
        reopened.store.pager.close()

    def test_validator_detects_stale_stats(self):
        tree = SGTree(N_BITS, max_entries=8)
        tree.insert_many(varied_transactions(5, 100))
        root = tree.store.get(tree.root_id)
        root.entries[0].min_area = 0
        root.entries[0].max_area = N_BITS
        with pytest.raises(AssertionError, match="stale area statistics"):
            validate_tree(tree)


class TestBoundCorrectness:
    @given(
        st.lists(
            st.sets(st.integers(0, N_BITS - 1), min_size=1, max_size=25),
            min_size=1,
            max_size=8,
        ),
        st.sets(st.integers(0, N_BITS - 1), max_size=25),
    )
    @settings(max_examples=60)
    def test_strengthened_bound_admissible(self, groups, q):
        """The stats-sharpened bound never exceeds the distance to any
        covered transaction."""
        members = [Signature.from_items(g, N_BITS) for g in groups]
        union = Signature.union_of(members)
        areas = [m.area for m in members]
        node = Node(page_id=0, level=1)
        node.add(Entry(union, 1, min_area=min(areas), max_area=max(areas)))
        query = Signature.from_items(q, N_BITS)
        base = HAMMING.lower_bound_many(query, node.signature_matrix())
        sharpened = strengthen_hamming_bounds(HAMMING, query.area, node, base)
        assert sharpened[0] >= base[0] - 1e-9  # never weaker
        for member in members:
            assert sharpened[0] <= HAMMING.distance(query, member) + 1e-9

    def test_no_stats_passthrough(self):
        node = Node(page_id=0, level=1)
        node.add(Entry(Signature.from_items([1, 2], N_BITS), 1))
        query = Signature.from_items([5], N_BITS)
        base = HAMMING.lower_bound_many(query, node.signature_matrix())
        assert strengthen_hamming_bounds(HAMMING, query.area, node, base) is base

    def test_other_metrics_passthrough(self):
        from repro import JACCARD

        node = Node(page_id=0, level=1)
        node.add(Entry(Signature.from_items([1], N_BITS), 1, min_area=1, max_area=1))
        query = Signature.from_items([5], N_BITS)
        base = JACCARD.lower_bound_many(query, node.signature_matrix())
        assert strengthen_hamming_bounds(JACCARD, query.area, node, base) is base


class TestSearchImpact:
    def test_answers_unchanged_everywhere(self):
        transactions = varied_transactions(6, 400)
        tree = SGTree(N_BITS, max_entries=10)
        tree.insert_many(transactions)
        scan = LinearScan(transactions)
        rng = np.random.default_rng(8)
        for _ in range(15):
            query = random_signature(rng, N_BITS, max_items=25)
            for algorithm in ("depth-first", "best-first"):
                got = tree.nearest(query, k=4, algorithm=algorithm)
                expected = scan.nearest(query, k=4)
                assert [n.distance for n in got] == [n.distance for n in expected]
            assert tree.range_query(query, 8) == scan.range_query(query, 8)

    def test_stats_prune_on_size_skewed_queries(self):
        """A tiny query against large transactions: the area-gap term
        max(0, lo − c) is what prunes; the generic bound barely does."""
        big = random_transactions(
            seed=7, count=300, n_bits=N_BITS, min_items=25, max_items=30
        )
        tree = SGTree(N_BITS, max_entries=10)
        tree.insert_many(big)
        # strip the statistics from a clone to measure the generic bound
        bare = SGTree(N_BITS, max_entries=10)
        bare.insert_many(big)
        for node in bare.nodes():
            for entry in node.entries:
                entry.min_area = None
                entry.max_area = None
            node.invalidate()
        rng = np.random.default_rng(1)
        with_stats = without_stats = 0
        for _ in range(15):
            query = random_signature(rng, N_BITS, max_items=3)
            s1, s2 = SearchStats(), SearchStats()
            a = tree.nearest(query, k=1, stats=s1)
            b = bare.nearest(query, k=1, stats=s2)
            assert a[0].distance == b[0].distance
            with_stats += s1.leaf_entries
            without_stats += s2.leaf_entries
        assert with_stats < without_stats
