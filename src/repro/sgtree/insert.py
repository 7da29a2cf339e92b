"""ChooseSubtree heuristics (Section 3.1).

When inserting a signature under a directory node, the paper considers
three cases:

1. exactly one entry *contains* the new signature → follow it;
2. several entries contain it → follow the one with minimum **area**
   ("this refines the structure, in analogy to choosing the smaller MBR
   that contains the new entry in R-trees");
3. no entry contains it → follow the entry needing the smallest **area
   enlargement** ``|sig(e ∪ q)| − |sig(e)|``; ties broken by minimum area.

The paper also evaluated a variant that picks the entry whose extension
causes the minimum **overlap increase** with its siblings, and found it
builds trees of the same quality at a much higher insertion cost; both are
implemented so the ablation benchmark can regenerate that comparison.
"""

from __future__ import annotations

import numpy as np

from ..core import bitops
from ..core.signature import Signature
from .node import Node

__all__ = ["choose_subtree", "CHOOSERS"]


def _containment_and_enlargement(
    node: Node, signature: Signature
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised per-entry (contains?, enlargement, area) for a node."""
    matrix = node.stack_signatures()
    query = signature.words
    missing = np.bitwise_and(query, np.bitwise_not(matrix))
    enlargement = np.bitwise_count(missing).sum(axis=-1, dtype=np.int64)
    areas = np.asarray(bitops.popcount(matrix), dtype=np.int64)
    return enlargement == 0, enlargement, areas


def choose_min_enlargement(node: Node, signature: Signature) -> int:
    """The paper's standard chooser (cases 1–3 above)."""
    contains, enlargement, areas = _containment_and_enlargement(node, signature)
    if contains.any():
        candidates = np.flatnonzero(contains)
        return int(candidates[np.argmin(areas[candidates])])
    order = np.lexsort((areas, enlargement))
    return int(order[0])


def choose_min_overlap(node: Node, signature: Signature) -> int:
    """Alternative chooser: minimum overlap increase with sibling entries.

    The overlap of entry ``i`` with its siblings is
    ``Σ_{j≠i} |sig_i ∩ sig_j|``; the chooser extends each candidate with
    the new signature and picks the entry whose extension increases that
    sum the least.  Containment cases short-circuit exactly as in the
    standard chooser (extension would be a no-op, so the increase is 0 for
    all of them and area must discriminate anyway).
    """
    contains, enlargement, areas = _containment_and_enlargement(node, signature)
    if contains.any():
        candidates = np.flatnonzero(contains)
        return int(candidates[np.argmin(areas[candidates])])
    matrix = node.stack_signatures()
    extended = np.bitwise_or(matrix, signature.words)
    n = matrix.shape[0]
    increases = np.zeros(n, dtype=np.int64)
    for i in range(n):
        others = np.delete(matrix, i, axis=0)
        before = np.bitwise_count(np.bitwise_and(matrix[i], others)).sum()
        after = np.bitwise_count(np.bitwise_and(extended[i], others)).sum()
        increases[i] = int(after) - int(before)
    order = np.lexsort((areas, enlargement, increases))
    return int(order[0])


CHOOSERS = {
    "enlargement": choose_min_enlargement,
    "overlap": choose_min_overlap,
}


def choose_subtree(node: Node, signature: Signature, heuristic: str = "enlargement") -> int:
    """Index of the entry of ``node`` to descend into for ``signature``."""
    try:
        chooser = CHOOSERS[heuristic]
    except KeyError:
        raise ValueError(
            f"unknown chooser {heuristic!r}; choose from {sorted(CHOOSERS)}"
        ) from None
    return chooser(node, signature)
