"""The Query value: body validation, wire form, answering and merging."""

from __future__ import annotations

import pytest

from repro import SGTree, Signature
from repro.server import Query
from repro.sgtree.search import Neighbor
from support import random_transactions

N_BITS = 120


@pytest.fixture(scope="module")
def tree():
    tree = SGTree(N_BITS, max_entries=8)
    tree.insert_many(random_transactions(seed=7, count=150, n_bits=N_BITS))
    return tree


BODIES = [
    ("knn", {"items": [1, 7], "k": 3, "metric": "jaccard",
             "algorithm": "best-first"}),
    ("range", {"items": [1, 7], "epsilon": 2}),
    ("containment", {"items": [7]}),
    ("batch", {"queries": [[1, 2], [3]], "k": 2}),
    ("batch", {"queries": [[1, 2], [3]], "kind": "range", "epsilon": 3.0}),
]


class TestFromBody:
    def test_kinds_and_routes(self):
        kinds = [Query.from_body(route, body).kind for route, body in BODIES]
        assert kinds == ["knn", "range", "containment", "batch_knn",
                         "batch_range"]
        routes = [Query.from_body(route, body).route for route, body in BODIES]
        assert routes == ["knn", "range", "containment", "batch", "batch"]

    def test_fields_a_kind_does_not_read_are_left_default(self):
        query = Query.from_body(
            "containment", {"items": [7], "k": 2.5, "metric": "jaccard"}
        )
        assert query == Query("containment", (7,))
        ranged = Query.from_body("range", {"items": [1], "epsilon": 1})
        assert ranged.epsilon == 1.0 and isinstance(ranged.epsilon, float)

    @pytest.mark.parametrize("route, body, match", [
        ("knn", {"items": [1], "k": 10**30}, "k must"),
        ("knn", {"items": [-1]}, "item ids"),
        ("knn", {"items": "17"}, "item ids"),
        ("range", {"items": [1]}, "requires epsilon"),
        ("range", {"items": [1], "epsilon": float("inf")}, "epsilon"),
        ("range", {"items": [1], "epsilon": "0.5"}, "epsilon"),
        ("batch", {"queries": [[1]], "kind": "containment"}, "batch kind"),
        ("batch", {"queries": [1, 2]}, "item ids"),
        ("batch", {"queries": "[[1]]"}, "queries"),
        ("nearest", {"items": [1]}, "unknown query kind"),
    ])
    def test_rejects(self, route, body, match):
        with pytest.raises(ValueError, match=match):
            Query.from_body(route, body)


class TestWireAndRun:
    @pytest.mark.parametrize("route, body", BODIES)
    def test_wire_round_trip(self, route, body):
        query = Query.from_body(route, body)
        assert Query.from_wire(query.to_wire()) == query

    def test_run_calls_the_matching_tree_method(self, tree):
        sig = Signature.from_items([1, 7], N_BITS)
        knn, ranged, contained, batch_knn, batch_range = (
            Query.from_body(route, body) for route, body in BODIES
        )
        assert knn.run(tree) == tree.nearest(
            sig, k=3, metric="jaccard", algorithm="best-first"
        )
        assert ranged.run(tree) == tree.range_query(sig, 2.0)
        assert contained.run(tree) == tree.containment_query(
            Signature.from_items([7], N_BITS)
        )
        batch = [Signature.from_items(q, N_BITS) for q in ([1, 2], [3])]
        assert batch_knn.run(tree) == tree.batch_nearest(batch, k=2)
        assert batch_range.run(tree) == tree.batch_range_query(batch, 3.0)

    def test_unknown_kind_is_a_value_error(self, tree):
        with pytest.raises(ValueError, match="unknown query kind"):
            Query("nearest", (1,)).run(tree)

    def test_only_single_depth_first_queries_trace(self):
        assert Query("knn", (1,)).tracer(sampled=True) is not None
        assert Query("range", (1,)).tracer(sampled=True) is not None
        assert Query("knn", (1,)).tracer(sampled=False) is None
        assert Query("knn", (1,), algorithm="best-first").tracer(True) is None
        assert Query("batch_knn", queries=((1,),)).tracer(True) is None


class TestMerge:
    def test_knn_is_the_global_top_k_with_pairs_counted_once(self):
        query = Query("knn", (1,), k=3)
        merged = query.merge([
            [(0.5, 4), (0.7, 9)], [(0.5, 2), (0.9, 1)], [(0.5, 4)],
        ])
        assert merged == [Neighbor(0.5, 2), Neighbor(0.5, 4),
                          Neighbor(0.7, 9)]

    def test_range_and_containment_are_sorted_unions(self):
        ranged = Query("range", (1,), epsilon=1.0)
        assert ranged.merge([[(0.9, 3)], [(0.1, 8), (0.9, 1)]]) == [
            Neighbor(0.1, 8), Neighbor(0.9, 1), Neighbor(0.9, 3)
        ]
        assert Query("containment", (1,)).merge([[5, 9], [2]]) == [2, 5, 9]

    def test_batches_merge_per_query(self):
        query = Query("batch_knn", queries=((1,), (2,)), k=1)
        merged = query.merge([
            [[(0.4, 1)], [(0.2, 5)]],
            [[(0.3, 7)], [(0.6, 2)]],
        ])
        assert merged == [[Neighbor(0.3, 7)], [Neighbor(0.2, 5)]]
