"""SG-table: hashing, bound admissibility, search correctness, staleness."""

from __future__ import annotations

import numpy as np
import pytest

from repro import HAMMING, LinearScan, SGTable, Signature, Transaction
from repro.sgtree import SearchStats
from support import random_signature, random_transactions

N_BITS = 120


@pytest.fixture(scope="module")
def dataset():
    transactions = random_transactions(seed=31, count=400, n_bits=N_BITS)
    table = SGTable(transactions, N_BITS, n_groups=8, activation_threshold=2)
    return transactions, table, LinearScan(transactions)


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(17)
    return [random_signature(rng, N_BITS, max_items=12) for _ in range(25)]


class TestHashing:
    def test_every_transaction_in_exactly_one_bucket(self, dataset):
        transactions, table, _ = dataset
        total = sum(len(b.tids) for b in table._buckets.values())
        assert total == len(transactions)
        all_tids = sorted(tid for b in table._buckets.values() for tid in b.tids)
        assert all_tids == sorted(t.tid for t in transactions)

    def test_activation_code_definition(self, dataset):
        transactions, table, _ = dataset
        for t in transactions[:20]:
            code = table.activation_code(t.signature)
            for i, group in enumerate(table.vertical_signatures):
                activated = t.signature.intersect_count(group) >= table.activation_threshold
                assert bool(code >> i & 1) == activated

    def test_code_range(self, dataset):
        _, table, _ = dataset
        assert all(0 <= code < 2**table.n_groups for code in table._buckets)

    def test_len_and_repr(self, dataset):
        transactions, table, _ = dataset
        assert len(table) == len(transactions)
        assert "SGTable" in repr(table)


class TestBoundAdmissibility:
    def test_entry_bound_below_every_member_distance(self, dataset, queries):
        """The per-entry optimistic bound must lower-bound the Hamming
        distance to every transaction hashed into that entry."""
        transactions, table, _ = dataset
        by_tid = {t.tid: t.signature for t in transactions}
        for query in queries:
            bounds = table.entry_lower_bounds(query)
            for code, bucket in table._buckets.items():
                for tid in bucket.tids:
                    actual = HAMMING.distance(query, by_tid[tid])
                    assert bounds[code] <= actual + 1e-9


class TestSearch:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_nearest_matches_scan(self, dataset, queries, k):
        _, table, scan = dataset
        for query in queries:
            # exact (distance, tid) order, ties at the k-th distance included
            assert table.nearest(query, k=k) == scan.nearest(query, k=k)

    def test_results_sorted(self, dataset, queries):
        _, table, _ = dataset
        hits = table.nearest(queries[0], k=10)
        assert hits == sorted(hits)

    @pytest.mark.parametrize("epsilon", [0, 3, 8, 15])
    def test_range_matches_scan(self, dataset, queries, epsilon):
        _, table, scan = dataset
        for query in queries:
            assert table.range_query(query, epsilon) == scan.range_query(query, epsilon)

    def test_pruning_skips_buckets(self, dataset, queries):
        transactions, table, _ = dataset
        skipped_some = False
        for query in queries:
            stats = SearchStats()
            table.nearest(query, k=1, stats=stats)
            if stats.node_accesses < table.n_buckets:
                skipped_some = True
        assert skipped_some

    def test_jaccard_fallback_correct(self, dataset, queries):
        _, table, scan = dataset
        for query in queries[:5]:
            got = table.nearest(query, k=3, metric="jaccard")
            assert got == scan.nearest(query, k=3, metric="jaccard")

    def test_invalid_args(self, dataset):
        _, table, _ = dataset
        with pytest.raises(ValueError):
            table.nearest(Signature.empty(N_BITS), k=0)
        with pytest.raises(ValueError):
            table.range_query(Signature.empty(N_BITS), -1)

    def test_stats_accumulate(self, dataset, queries):
        _, table, _ = dataset
        before = table.stats.leaf_entries
        table.nearest(queries[0], k=1)
        assert table.stats.leaf_entries > before


class TestDynamicInsert:
    def test_insert_keeps_search_exact(self, dataset, queries):
        transactions, _, _ = dataset
        table = SGTable(transactions[:200], N_BITS, n_groups=8)
        for t in transactions[200:]:
            table.insert(t)
        scan = LinearScan(transactions)
        for query in queries[:10]:
            got = table.nearest(query, k=2)
            expected = scan.nearest(query, k=2)
            assert [n.distance for n in got] == [n.distance for n in expected]

    def test_vertical_signatures_frozen_after_build(self, dataset):
        transactions, _, _ = dataset
        table = SGTable(transactions[:100], N_BITS, n_groups=8)
        frozen = list(table.vertical_signatures)
        for t in transactions[100:150]:
            table.insert(t)
        assert table.vertical_signatures == frozen


class TestConfigValidation:
    def test_bad_group_count(self, dataset):
        transactions, _, _ = dataset
        with pytest.raises(ValueError):
            SGTable(transactions[:10], N_BITS, n_groups=0)
        with pytest.raises(ValueError):
            SGTable(transactions[:10], N_BITS, n_groups=25)

    def test_bad_threshold(self, dataset):
        transactions, _, _ = dataset
        with pytest.raises(ValueError):
            SGTable(transactions[:10], N_BITS, activation_threshold=0)
