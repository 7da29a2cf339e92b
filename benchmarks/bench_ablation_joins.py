"""Extension bench — tree-to-tree join queries (the Section-4.2 family).

Not a paper figure (the paper defers the empirical study of its "other
related query types" to future work) but regenerates the comparison its
related-work section implies: branch-and-bound joins over two SG-trees
vs the quadratic nested scan.
"""

from __future__ import annotations

import time

import pytest

from bench_common import n_queries, report
from repro import SGTree
from repro.data import QuestConfig, QuestGenerator, scaled
from repro.sgtree import SearchStats
from repro.sgtree.join import closest_pairs, similarity_join

N_ITEMS = 400
SIZE = 1500


def make_tree(seed: int) -> tuple[SGTree, list]:
    generator = QuestGenerator(
        QuestConfig(
            n_transactions=scaled(SIZE * 10),
            avg_transaction_size=10,
            avg_itemset_size=6,
            n_items=N_ITEMS,
            n_patterns=80,
            pattern_seed=7,
            stream_seed=seed,
        )
    )
    transactions = generator.generate()
    tree = SGTree(N_ITEMS, max_entries=32)
    tree.insert_many(transactions)
    return tree, transactions


@pytest.fixture(scope="module")
def results():
    tree_a, data_a = make_tree(seed=1)
    tree_b, data_b = make_tree(seed=2)
    outcome = {}
    for epsilon in (1, 2, 4):
        stats = SearchStats()
        start = time.perf_counter()
        pairs = similarity_join(tree_a, tree_b, epsilon, stats=stats)
        join_seconds = time.perf_counter() - start

        start = time.perf_counter()
        brute = sum(
            1
            for a in data_a
            for b in data_b
            if a.signature.hamming(b.signature) <= epsilon
        )
        brute_seconds = time.perf_counter() - start
        assert len(pairs) == brute
        comparisons = stats.leaf_entries
        outcome[epsilon] = (len(pairs), join_seconds, brute_seconds, comparisons)
    lines = [f"Extension: similarity join, |A|=|B|={len(data_a)} (T10.I6)"]
    lines.append(
        f"{'epsilon':>8}{'pairs':>10}{'join s':>10}{'nested s':>10}{'pairs compared':>16}"
    )
    total_pairs = len(data_a) * len(data_b)
    for epsilon, (count, join_s, brute_s, comparisons) in outcome.items():
        lines.append(
            f"{epsilon:>8}{count:>10}{join_s:>10.2f}{brute_s:>10.2f}"
            f"{comparisons:>16} ({100 * comparisons / total_pairs:.1f}%)"
        )
    report("ablation_joins", "\n".join(lines))
    return outcome, tree_a, tree_b, len(data_a)


class TestJoinBench:
    def test_join_prunes_pair_space(self, results):
        outcome, _, _, size = results
        for epsilon, (_, _, _, comparisons) in outcome.items():
            assert comparisons < size * size

    def test_join_faster_than_nested_scan_at_tight_epsilon(self, results):
        outcome, _, _, _ = results
        count, join_seconds, brute_seconds, _ = outcome[1]
        assert join_seconds < brute_seconds


def test_benchmark_closest_pairs(results, benchmark):
    _, tree_a, tree_b, _ = results
    benchmark(lambda: closest_pairs(tree_a, tree_b, k=5))
