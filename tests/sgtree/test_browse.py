"""Incremental distance browsing (lazy ranking)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import COSINE, DICE, HAMMING, JACCARD, OVERLAP, LinearScan, SGTree
from repro.sgtree import SearchStats, search
from support import random_signature, random_transactions

N_BITS = 130
ALL_METRICS = [HAMMING, JACCARD, DICE, OVERLAP, COSINE]


@pytest.fixture(scope="module")
def dataset():
    transactions = random_transactions(seed=91, count=350, n_bits=N_BITS)
    tree = SGTree(N_BITS, max_entries=10)
    tree.insert_many(transactions)
    return transactions, tree, LinearScan(transactions)


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(14)
    return [random_signature(rng, N_BITS) for _ in range(10)]


class TestBrowse:
    def test_full_stream_is_globally_sorted(self, dataset, queries):
        transactions, tree, _ = dataset
        for query in queries[:4]:
            stream = list(tree.browse(query))
            assert len(stream) == len(transactions)
            distances = [n.distance for n in stream]
            assert distances == sorted(distances)

    def test_prefix_equals_knn(self, dataset, queries):
        _, tree, scan = dataset
        for query in queries:
            prefix = list(itertools.islice(tree.browse(query), 7))
            expected = scan.nearest(query, k=7)
            assert [n.distance for n in prefix] == [n.distance for n in expected]

    def test_lazy_consumption_touches_less(self, dataset, queries):
        """Pulling one neighbour must expand far fewer nodes than
        draining the whole ranking."""
        _, tree, _ = dataset
        query = queries[0]
        one = SearchStats()
        next(iter(tree.browse(query, stats=one)))
        full = SearchStats()
        list(tree.browse(query, stats=full))
        assert one.node_accesses < full.node_accesses
        assert one.leaf_entries < full.leaf_entries

    def test_application_level_stop_condition(self, dataset, queries):
        """The canonical browsing use case: pull until a predicate holds
        (here: collect neighbours until total area exceeds a budget)."""
        transactions, tree, _ = dataset
        by_tid = {t.tid: t for t in transactions}
        collected = []
        for neighbor in tree.browse(queries[1]):
            collected.append(neighbor)
            if sum(by_tid[n.tid].area for n in collected) > 50:
                break
        assert 1 <= len(collected) < len(transactions)

    def test_browse_with_other_metric(self, dataset, queries):
        _, tree, scan = dataset
        query = queries[2]
        prefix = list(itertools.islice(tree.browse(query, metric=JACCARD), 5))
        expected = scan.nearest(query, k=5, metric=JACCARD)
        assert [n.distance for n in prefix] == pytest.approx(
            [n.distance for n in expected]
        )

    def test_empty_tree(self):
        tree = SGTree(N_BITS, max_entries=4)
        assert list(tree.browse(random_signature(np.random.default_rng(0), N_BITS))) == []

    def test_matches_brute_force_multiset(self, dataset, queries):
        """The full browse stream must be exactly the multiset of all
        distances."""
        transactions, tree, _ = dataset
        query = queries[3]
        stream = sorted(n.distance for n in tree.browse(query))
        brute = sorted(
            HAMMING.distance(query, t.signature) for t in transactions
        )
        assert stream == brute


def traffic(stats: SearchStats) -> tuple:
    return stats.node_accesses, stats.random_ios, stats.leaf_entries


class TestBestFirstIsBrowsePrefix:
    """Best-first k-NN is the first k items of the browse stream: the
    same answers and the same traffic, seeded or not."""

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", [None, "kth", "mid"])
    def test_answers_and_stats_match(self, dataset, queries, metric, seed):
        _, tree, _ = dataset
        k = 7
        for query in queries:
            unseeded = tree.nearest(query, k=k, metric=metric,
                                    algorithm="best-first")
            cap = {None: None, "kth": unseeded[-1].distance,
                   "mid": unseeded[k // 2].distance}[seed]
            knn_stats, browse_stats = SearchStats(), SearchStats()
            got = tree.nearest(query, k=k, metric=metric,
                               algorithm="best-first", stats=knn_stats,
                               initial_threshold=cap)
            prefix = list(itertools.islice(search.browse(
                tree.store, tree.root_id, query, metric, stats=browse_stats,
                initial_threshold=cap,
            ), k))
            assert got == prefix
            assert traffic(knn_stats) == traffic(browse_stats)
            # the seed binds exactly when it leaves the answer short of k,
            # which depth-first reports the same way
            depth_stats = SearchStats()
            tree.nearest(query, k=k, metric=metric, stats=depth_stats,
                         initial_threshold=cap)
            assert knn_stats.bound_provenance == depth_stats.bound_provenance

    def test_seeded_stream_is_a_prefix_filter(self, dataset, queries):
        _, tree, _ = dataset
        query = queries[4]
        full = list(tree.browse(query))
        cap = full[len(full) // 3].distance
        seeded = list(search.browse(tree.store, tree.root_id, query, HAMMING,
                                    initial_threshold=cap))
        assert seeded == [n for n in full if n.distance <= cap]
