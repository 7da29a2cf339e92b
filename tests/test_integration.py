"""Cross-module integration: full pipelines at moderate scale.

These tests run the same flows a user of the library would: generate ->
index (both structures, several storage configurations) -> query ->
update -> persist -> reopen, checking exactness and accounting along
the way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    HammingMetric,
    InvertedIndex,
    LinearScan,
    SGTable,
    SGTree,
    bulk_load,
    load_tree,
    save_tree,
    similarity_self_join,
)
from repro.bench import build_table, build_tree, run_nn_batch, run_range_batch
from repro.data import CensusConfig, CensusGenerator, QuestConfig, QuestGenerator
from repro.data.workload import Workload
from repro.sgtree import SearchStats, validate_tree


@pytest.fixture(scope="module")
def quest_data():
    generator = QuestGenerator(
        QuestConfig(
            n_transactions=3000,
            avg_transaction_size=10,
            avg_itemset_size=6,
            n_items=400,
            n_patterns=80,
        )
    )
    return generator.generate(), generator.queries(15), 400


class TestFourIndexAgreement:
    def test_all_structures_agree(self, quest_data):
        """SG-tree, bulk-loaded SG-tree, SG-table and LinearScan return
        identical answers on identical workloads."""
        transactions, queries, n_bits = quest_data
        tree = SGTree(n_bits)
        tree.insert_many(transactions)
        bulk = bulk_load(transactions, n_bits, method="gray")
        table = SGTable(transactions, n_bits, n_groups=8)
        scan = LinearScan(transactions)

        for query in queries:
            expected_knn = [n.distance for n in scan.nearest(query, k=7)]
            assert [n.distance for n in tree.nearest(query, k=7)] == expected_knn
            assert [n.distance for n in bulk.nearest(query, k=7)] == expected_knn
            assert [n.distance for n in table.nearest(query, k=7)] == expected_knn

            expected_range = scan.range_query(query, 5)
            assert tree.range_query(query, 5) == expected_range
            assert bulk.range_query(query, 5) == expected_range
            assert table.range_query(query, 5) == expected_range

    def test_exact_set_queries_agree_with_inverted(self, quest_data):
        transactions, _, n_bits = quest_data
        tree = SGTree(n_bits)
        tree.insert_many(transactions[:800])
        inverted = InvertedIndex(transactions[:800])
        for t in transactions[:20]:
            assert tree.containment_query(t.signature) == inverted.containment_query(
                t.signature
            )
            assert tree.equality_query(t.signature) == inverted.equality_query(
                t.signature
            )
            assert tree.subset_query(t.signature) == inverted.subset_query(t.signature)


class TestStorageConfigurations:
    @pytest.mark.parametrize("mode,compress,policy,frames", [
        ("sim", False, "lru", 16),
        ("disk", False, "fifo", 8),
        ("disk", True, "clock", 4),
        ("sim", False, "lru", None),
    ])
    def test_search_exact_under_any_storage(self, quest_data, mode, compress, policy, frames):
        transactions, queries, n_bits = quest_data
        subset = transactions[:1000]
        tree = SGTree(
            n_bits, max_entries=16, mode=mode, compress=compress,
            buffer_policy=policy, frames=frames,
        )
        tree.insert_many(subset)
        validate_tree(tree)
        scan = LinearScan(subset)
        for query in queries[:5]:
            got = tree.nearest(query, k=3)
            expected = scan.nearest(query, k=3)
            assert [n.distance for n in got] == [n.distance for n in expected]

    def test_smaller_buffer_more_misses_same_answers(self, quest_data):
        transactions, queries, n_bits = quest_data
        subset = transactions[:1000]
        results, misses = [], []
        for frames in (4, 256):
            tree = SGTree(n_bits, max_entries=16, frames=frames)
            tree.insert_many(subset)
            tree.store.clear_cache()
            tree.store.counters.reset()
            answers = [tuple(n.distance for n in tree.nearest(q, k=2)) for q in queries]
            results.append(answers)
            misses.append(tree.store.counters.random_ios)
        assert results[0] == results[1]
        assert misses[0] > misses[1]


class TestEndToEndLifecycle:
    def test_generate_index_persist_reopen_update(self, quest_data, tmp_path):
        transactions, queries, n_bits = quest_data
        tree = SGTree(n_bits, max_entries=24, compress=True)
        tree.insert_many(transactions[:2000])
        path = tmp_path / "lifecycle.sgt"
        save_tree(tree, path)

        reopened = load_tree(path, frames=32)
        for t in transactions[2000:]:
            reopened.insert(t)
        for t in transactions[:300]:
            assert reopened.delete(t)
        validate_tree(reopened)

        scan = LinearScan(transactions[300:])
        for query in queries[:5]:
            got = reopened.nearest(query, k=4)
            expected = scan.nearest(query, k=4)
            assert [n.distance for n in got] == [n.distance for n in expected]
        reopened.store.pager.close()

    def test_self_join_finds_near_duplicates(self, quest_data):
        transactions, _, n_bits = quest_data
        subset = transactions[:600]
        tree = SGTree(n_bits, max_entries=16)
        tree.insert_many(subset)
        pairs = similarity_self_join(tree, 1)
        # brute-force cross-check
        expected = set()
        for i, a in enumerate(subset):
            for b in subset[i + 1:]:
                if a.signature.hamming(b.signature) <= 1:
                    expected.add((a.tid, b.tid))
        assert {(p.tid_a, p.tid_b) for p in pairs} == expected


class TestHarnessOnCensus:
    def test_census_pipeline_with_fixed_area(self):
        generator = CensusGenerator(CensusConfig())
        transactions = generator.generate(1500)
        workload = Workload(
            name="census-int",
            n_bits=generator.n_bits,
            transactions=transactions,
            queries=generator.queries(8),
            fixed_area=36,
        )
        tree = build_tree(workload, use_fixed_area_bound=True).index
        assert isinstance(tree.metric, HammingMetric)
        assert tree.metric.fixed_area == 36
        table = build_table(workload).index
        tree_batch = run_nn_batch(tree, workload, k=2)
        table_batch = run_nn_batch(table, workload, k=2)
        assert tree_batch.per_query_distance == table_batch.per_query_distance
        range_batch = run_range_batch(tree, workload, epsilon=4)
        assert range_batch.n_queries == 8

    def test_stats_accounting_consistent(self, quest_data):
        """Per-query stats must sum to the store-counter deltas."""
        transactions, queries, n_bits = quest_data
        tree = SGTree(n_bits, max_entries=16)
        tree.insert_many(transactions[:1000])
        tree.store.counters.reset()
        total_accesses = 0
        for query in queries:
            stats = SearchStats()
            tree.nearest(query, k=1, stats=stats)
            total_accesses += stats.node_accesses
        assert total_accesses == tree.store.counters.node_accesses
