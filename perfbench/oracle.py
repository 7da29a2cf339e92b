"""Brute-force answers computed by the benchmark itself.

A plain numpy scan (xor + ``np.bitwise_count``) over a bit matrix the
benchmark packs from the generated item lists.  It shares no code with
``repro.core.bitops`` or the C kernels, so the kernels under test never
grade themselves.
"""

from __future__ import annotations

import numpy as np


def pack(item_lists: "list[list[int]]", n_bits: int) -> np.ndarray:
    """One row of ``ceil(n_bits / 64)`` uint64 words per item list."""
    words = (n_bits + 63) // 64
    matrix = np.zeros((len(item_lists), words), dtype=np.uint64)
    rows = np.repeat(np.arange(len(item_lists)), [len(items) for items in item_lists])
    items = np.fromiter(
        (item for items in item_lists for item in items), dtype=np.int64, count=len(rows)
    )
    np.bitwise_or.at(
        matrix, (rows, items // 64), np.left_shift(np.uint64(1), (items % 64).astype(np.uint64))
    )
    return matrix


class Oracle:
    """Hamming kNN and range answers over a packed database.

    ``tids[i]`` is the transaction id of row ``i``; ``alive`` (optional
    boolean mask) restricts a query to the rows present in one version
    of a changing database.
    """

    def __init__(self, matrix: np.ndarray, tids: np.ndarray):
        self.matrix = matrix
        self.tids = np.asarray(tids, dtype=np.int64)

    def distances(self, query_row: np.ndarray) -> np.ndarray:
        return np.bitwise_count(self.matrix ^ query_row).sum(axis=1, dtype=np.int64)

    def knn(self, distances: np.ndarray, k: int,
            alive: "np.ndarray | None" = None) -> "list[tuple[int, int]]":
        """The ``k`` nearest ``(tid, distance)`` in exact ``(distance, tid)`` order."""
        rows = np.arange(len(distances)) if alive is None else np.flatnonzero(alive)
        d = distances[rows]
        if len(d) > k:
            kth = np.partition(d, k - 1)[k - 1]
            keep = d <= kth
            rows, d = rows[keep], d[keep]
        order = np.lexsort((self.tids[rows], d))[:k]
        return [(int(self.tids[rows[i]]), int(d[i])) for i in order]

    def range(self, distances: np.ndarray, epsilon: float,
              alive: "np.ndarray | None" = None) -> "set[tuple[int, int]]":
        """Every ``(tid, distance)`` within ``epsilon``."""
        hit = distances <= epsilon
        if alive is not None:
            hit &= alive
        rows = np.flatnonzero(hit)
        return {(int(self.tids[i]), int(distances[i])) for i in rows}


def same_knn(answer: "list[tuple[int, float]]", expected: "list[tuple[int, int]]") -> bool:
    """kNN answers must match in exact order, tids and distances."""
    return len(answer) == len(expected) and all(
        tid == etid and float(dist) == float(edist)
        for (tid, dist), (etid, edist) in zip(answer, expected)
    )


def same_range(answer: "list[tuple[int, float]]", expected: "set[tuple[int, int]]") -> bool:
    """Range answers must match as sets (order is unspecified)."""
    got = {(tid, float(dist)) for tid, dist in answer}
    return len(got) == len(answer) and got == {(t, float(d)) for t, d in expected}
