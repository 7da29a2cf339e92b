"""Search correctness: every query type checked against the linear scan."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    COSINE,
    DICE,
    HAMMING,
    JACCARD,
    OVERLAP,
    HammingMetric,
    LinearScan,
    SGTree,
    Signature,
)
from repro.sgtree import SearchStats
from support import random_signature, random_transactions

N_BITS = 160


@pytest.fixture(scope="module")
def dataset():
    transactions = random_transactions(seed=21, count=400, n_bits=N_BITS)
    tree = SGTree(N_BITS, max_entries=10)
    for t in transactions:
        tree.insert(t)
    return transactions, tree, LinearScan(transactions)


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(77)
    return [random_signature(rng, N_BITS, max_items=14) for _ in range(30)]


class TestKnn:
    @pytest.mark.parametrize("algorithm", ["depth-first", "best-first"])
    @pytest.mark.parametrize("k", [1, 3, 10, 50])
    def test_matches_linear_scan(self, dataset, queries, algorithm, k):
        _, tree, scan = dataset
        for query in queries:
            got = tree.nearest(query, k=k, algorithm=algorithm)
            expected = scan.nearest(query, k=k)
            assert [n.distance for n in got] == [n.distance for n in expected]

    def test_k_larger_than_database(self, dataset, queries):
        _, tree, scan = dataset
        got = tree.nearest(queries[0], k=10_000)
        assert len(got) == 400
        assert [n.distance for n in got] == [
            n.distance for n in scan.nearest(queries[0], k=10_000)
        ]

    def test_k_one_is_true_nearest(self, dataset, queries):
        transactions, tree, _ = dataset
        for query in queries[:5]:
            (hit,) = tree.nearest(query, k=1)
            brute = min(HAMMING.distance(query, t.signature) for t in transactions)
            assert hit.distance == brute

    def test_invalid_k(self, dataset):
        _, tree, _ = dataset
        with pytest.raises(ValueError):
            tree.nearest(Signature.empty(N_BITS), k=0)

    def test_unknown_algorithm(self, dataset):
        _, tree, _ = dataset
        with pytest.raises(ValueError, match="unknown k-NN algorithm"):
            tree.nearest(Signature.empty(N_BITS), k=1, algorithm="dfs")

    def test_empty_tree(self):
        tree = SGTree(N_BITS, max_entries=8)
        assert tree.nearest(Signature.empty(N_BITS), k=3) == []

    def test_jaccard_metric(self, dataset, queries):
        _, tree, scan = dataset
        for query in queries[:8]:
            got = tree.nearest(query, k=5, metric=JACCARD)
            expected = scan.nearest(query, k=5, metric=JACCARD)
            assert [n.distance for n in got] == pytest.approx(
                [n.distance for n in expected]
            )

    def test_results_sorted(self, dataset, queries):
        _, tree, _ = dataset
        hits = tree.nearest(queries[0], k=20)
        assert hits == sorted(hits)


class TestBestFirstOptimality:
    def test_best_first_never_reads_more_leaf_entries(self, dataset, queries):
        """Best-first is I/O-optimal; depth-first may visit more."""
        _, tree, _ = dataset
        for query in queries[:10]:
            df, bf = SearchStats(), SearchStats()
            tree.nearest(query, k=3, algorithm="depth-first", stats=df)
            tree.nearest(query, k=3, algorithm="best-first", stats=bf)
            assert bf.node_accesses <= df.node_accesses


class TestNearestAll:
    def test_returns_all_ties(self, dataset, queries):
        transactions, tree, _ = dataset
        for query in queries[:10]:
            # every transaction tied at the 1-NN distance, from the
            # surviving calls: the 1-NN, then a range query at its distance
            best_distance = tree.nearest(query, k=1)[0].distance
            ties = tree.range_query(query, best_distance)
            distances = sorted(
                HAMMING.distance(query, t.signature) for t in transactions
            )
            best = distances[0]
            assert all(n.distance == best for n in ties)
            assert len(ties) == distances.count(best)


class TestRange:
    @pytest.mark.parametrize("epsilon", [0, 2, 5, 10, 20])
    def test_matches_linear_scan(self, dataset, queries, epsilon):
        _, tree, scan = dataset
        for query in queries:
            assert tree.range_query(query, epsilon) == scan.range_query(query, epsilon)

    @pytest.mark.parametrize("metric", [JACCARD, DICE, OVERLAP, COSINE],
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("epsilon", [0.0, 0.4, 0.7])
    def test_ratio_metrics_match_linear_scan(self, dataset, queries, metric,
                                             epsilon):
        _, tree, scan = dataset
        for query in queries:
            assert tree.range_query(query, epsilon, metric=metric) == \
                scan.range_query(query, epsilon, metric=metric)

    def test_negative_epsilon(self, dataset):
        _, tree, _ = dataset
        with pytest.raises(ValueError):
            tree.range_query(Signature.empty(N_BITS), -1)

    def test_epsilon_zero_finds_exact_duplicates(self, dataset):
        transactions, tree, _ = dataset
        target = transactions[5]
        hits = tree.range_query(target.signature, 0)
        assert any(n.tid == target.tid and n.distance == 0 for n in hits)


class TestContainmentSubsetEquality:
    def test_containment_matches_scan(self, dataset):
        transactions, tree, scan = dataset
        for t in transactions[:15]:
            items = t.items()
            query = Signature.from_items(items[: max(1, len(items) // 2)], N_BITS)
            assert tree.containment_query(query) == scan.containment_query(query)

    def test_containment_empty_query_returns_everything(self, dataset):
        _, tree, _ = dataset
        assert len(tree.containment_query(Signature.empty(N_BITS))) == 400

    def test_subset_matches_scan(self, dataset, queries):
        _, tree, scan = dataset
        for query in queries:
            assert tree.subset_query(query) == scan.subset_query(query)

    def test_equality_matches_scan(self, dataset):
        transactions, tree, scan = dataset
        for t in transactions[:15]:
            assert tree.equality_query(t.signature) == scan.equality_query(t.signature)
        absent = Signature.from_items(list(range(30)), N_BITS)
        assert tree.equality_query(absent) == scan.equality_query(absent)


class TestSearchStats:
    def test_stats_filled(self, dataset, queries):
        _, tree, _ = dataset
        stats = SearchStats()
        tree.nearest(queries[0], k=1, stats=stats)
        assert stats.node_accesses > 0
        assert stats.leaf_entries > 0

    def test_pruning_beats_full_scan(self, dataset, queries):
        """On clustered access the tree must scan fewer leaf entries than
        the database size for most queries (the paper's core claim)."""
        transactions, tree, _ = dataset
        scanned = []
        for query in queries:
            stats = SearchStats()
            tree.nearest(query, k=1, stats=stats)
            scanned.append(stats.leaf_entries)
        assert np.median(scanned) < len(transactions)

    def test_data_fraction(self):
        stats = SearchStats(leaf_entries=50)
        assert stats.data_fraction(200) == 25.0
        assert stats.data_fraction(0) == 0.0

    def test_range_stats_monotone_in_epsilon(self, dataset, queries):
        _, tree, _ = dataset
        small, large = SearchStats(), SearchStats()
        tree.range_query(queries[0], 1, stats=small)
        tree.range_query(queries[0], 15, stats=large)
        assert small.leaf_entries <= large.leaf_entries


class TestFixedAreaBound:
    def test_fixed_dim_bound_prunes_at_least_as_well(self):
        """The Section-6 stricter bound must not lose correctness and
        should reduce leaf accesses on fixed-dimensionality data."""
        transactions = random_transactions(
            seed=3, count=300, n_bits=N_BITS, min_items=8, max_items=8
        )
        plain = SGTree(N_BITS, max_entries=10, metric=HAMMING)
        strict = SGTree(N_BITS, max_entries=10, metric=HammingMetric(fixed_area=8))
        for t in transactions:
            plain.insert(t)
            strict.insert(t)
        scan = LinearScan(transactions)
        rng = np.random.default_rng(11)
        total_plain = total_strict = 0
        for _ in range(20):
            items = rng.choice(N_BITS, size=8, replace=False)
            query = Signature.from_items(items.tolist(), N_BITS)
            sp, ss = SearchStats(), SearchStats()
            got_plain = plain.nearest(query, k=1, stats=sp)
            got_strict = strict.nearest(query, k=1, stats=ss)
            expected = scan.nearest(query, k=1)
            assert got_plain[0].distance == expected[0].distance
            assert got_strict[0].distance == expected[0].distance
            total_plain += sp.leaf_entries
            total_strict += ss.leaf_entries
        assert total_strict <= total_plain


class TestPropertyBased:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_knn_random_trees(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(5, 150))
        transactions = random_transactions(seed=seed, count=count, n_bits=N_BITS)
        tree = SGTree(N_BITS, max_entries=int(rng.integers(4, 16)))
        for t in transactions:
            tree.insert(t)
        scan = LinearScan(transactions)
        for _ in range(5):
            query = random_signature(rng, N_BITS)
            k = int(rng.integers(1, count + 1))
            got = tree.nearest(query, k=k)
            expected = scan.nearest(query, k=k)
            assert [n.distance for n in got] == [n.distance for n in expected]
            epsilon = float(rng.integers(0, 20))
            assert tree.range_query(query, epsilon) == scan.range_query(query, epsilon)
