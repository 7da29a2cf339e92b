"""The brute-force oracle, and that it catches planted wrong answers."""

import json
import random

import numpy as np
import pytest

from perfbench.common import items_of
from perfbench.oracle import Oracle, pack, same_knn, same_range
from perfbench.serve import Record, Window, check

N_BITS = 100


@pytest.fixture
def data():
    rng = random.Random(3)
    rows = [sorted(rng.sample(range(N_BITS), rng.randint(1, 8))) for _ in range(300)]
    tids = np.arange(1000, 1300)
    return rows, tids, Oracle(pack(rows, N_BITS), tids)


def _hamming(a, b):
    return len(set(a) ^ set(b))


def test_distances_match_set_difference(data):
    rows, _, oracle = data
    query = [1, 5, 64, 99]
    d = oracle.distances(pack([query], N_BITS)[0])
    assert d.tolist() == [_hamming(query, row) for row in rows]


def test_knn_is_exact_distance_then_tid_order(data):
    rows, tids, oracle = data
    query = [2, 3, 70]
    d = oracle.distances(pack([query], N_BITS)[0])
    expected = sorted((_hamming(query, row), int(t)) for row, t in zip(rows, tids))[:10]
    assert oracle.knn(d, 10) == [(t, dist) for dist, t in expected]


def test_knn_and_range_respect_alive_mask(data):
    rows, tids, oracle = data
    query = rows[0]
    d = oracle.distances(pack([query], N_BITS)[0])
    alive = np.ones(len(rows), dtype=bool)
    alive[0] = False
    assert oracle.knn(d, 1)[0] == (int(tids[0]), 0)
    assert oracle.knn(d, 1, alive)[0][0] != int(tids[0])
    assert (int(tids[0]), 0) not in oracle.range(d, 2, alive)


def test_planted_wrong_answers_are_caught(data):
    rows, _, oracle = data
    d = oracle.distances(pack([rows[7]], N_BITS)[0])
    truth = oracle.knn(d, 10)
    assert same_knn([(t, float(x)) for t, x in truth], truth)
    swapped = truth[:]
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    assert not same_knn(swapped, truth)                    # order matters
    assert not same_knn(truth[:-1], truth)                  # a missing hit
    assert not same_knn([(truth[0][0], truth[0][1] + 1)] + truth[1:], truth)  # bad distance
    hits = oracle.range(d, 3)
    answer = sorted(hits)
    assert same_range(answer[::-1], hits)                   # order does not matter
    assert not same_range(answer[1:], hits)
    assert not same_range(answer + answer[:1], hits)        # duplicates are wrong


def test_serve_check_flags_planted_response(data):
    rows, _, oracle = data
    query_rows = pack([rows[7]], N_BITS)
    truth = oracle.knn(oracle.distances(query_rows[0]), 10)

    def record(results, partial=False):
        body = json.dumps({"results": [{"tid": t, "distance": float(x)} for t, x in results],
                           "partial": partial, "seconds": 0.001, "stats": {}}).encode()
        return Record("knn", 0, 0.0, 0.002, 200, body)

    planted = truth[:-1] + [(truth[-1][0] + 10_000, truth[-1][1])]
    window = Window(records=[record(truth), record(planted), record(truth[:3], partial=True),
                             Record("knn", 0, 0.0, 0.002, 503, b"")])
    outcomes = check(window, oracle, query_rows)
    assert [(o.failed, o.wrong, o.partial) for o in outcomes] == [
        (False, False, False),
        (True, True, False),
        (True, False, True),
        (True, False, False),
    ]


def test_items_of_reads_repro_signatures():
    from repro.core.signature import Signature

    items = [0, 1, 63, 64, 65, 511, 999]
    assert items_of(Signature.from_items(items, 1000)) == items
