"""Zero-copy decoded-node views.

Profiling the batched engine showed the hot path had become *decode*
cost, not I/O: every node visit re-parsed page bytes (or re-walked
``Entry`` objects) into the matrices the vectorised kernels consume.
:class:`DecodedNode` makes a node access a slice view instead of a
parse: an immutable, array-backed view of one node — the
``(E, n_words)`` uint64 signature matrix plus parallel entry
areas/refs/statistics vectors, shared (not copied) with the node it
views.  It mirrors the read-side API of :class:`~repro.sgtree.node.Node`,
so search engines consume either interchangeably.

The view is kept on its node (``Node.view``) and dies with the node's
state: any mutation (``Node.invalidate()``), ``NodeStore.mark_dirty``
or ``NodeStore.clear_cache`` clears it.  There is no separate view
cache — the node buffer alone decides which nodes, and so which views,
stay resident.
"""

from __future__ import annotations

import numpy as np

from .buffer import BufferStats
from .page import PageId


class DecodedNode:
    """An immutable array view of one node, shared with its decoder.

    All arrays are marked read-only: a view may be served to any number
    of concurrent readers, and its signature rows may be wrapped into
    :class:`~repro.core.signature.Signature` objects without copying
    (the ``Signature`` constructor adopts non-writeable arrays as-is).

    ``mins``/``maxs``/``counts`` are the Section-6 per-entry statistics
    (``None`` when absent, e.g. leaves).
    """

    __slots__ = (
        "page_id", "level", "n_bits",
        "matrix", "areas", "refs", "mins", "maxs", "counts",
        "matrix_ptr", "refs_ptr",
    )

    def __init__(
        self,
        page_id: PageId,
        level: int,
        n_bits: int,
        matrix: np.ndarray,
        areas: np.ndarray,
        refs: np.ndarray,
        mins: np.ndarray | None = None,
        maxs: np.ndarray | None = None,
        counts: np.ndarray | None = None,
    ):
        self.page_id = page_id
        self.level = level
        self.n_bits = n_bits
        self.matrix = matrix
        self.areas = areas
        self.refs = refs
        self.mins = mins
        self.maxs = maxs
        self.counts = counts
        for array in (matrix, areas, refs, mins, maxs, counts):
            if array is not None:
                array.setflags(write=False)
        # Raw base addresses of the signature matrix and entry-ref
        # vector, cached because ndarray.ctypes is surprisingly
        # expensive and the compiled leaf filters want them on every
        # visit.  None for layouts the native kernels cannot consume.
        self.matrix_ptr = (
            matrix.ctypes.data if matrix.flags.c_contiguous else None
        )
        self.refs_ptr = (
            refs.ctypes.data
            if refs.flags.c_contiguous and refs.dtype == np.int64
            else None
        )

    @classmethod
    def from_node(cls, node, n_bits: int) -> "DecodedNode":
        """View an in-memory ``Node`` (shares its lazy caches, no copy)."""
        if len(node) == 0:
            return cls(
                node.page_id, node.level, n_bits,
                np.zeros((0, 0), dtype=np.uint64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
            )
        ranges = node.area_ranges()
        mins, maxs = ranges if ranges is not None else (None, None)
        return cls(
            node.page_id, node.level, n_bits,
            node.signature_matrix(), node.entry_areas(), node.entry_refs(),
            mins=mins, maxs=maxs, counts=node.entry_counts(),
        )

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return self.refs.shape[0]

    # -- Node read-API mirror (engines are polymorphic over both) ----------

    def signature_matrix(self) -> np.ndarray:
        if self.matrix.shape[0] == 0:
            raise ValueError(f"node {self.page_id} has no entries")
        return self.matrix

    def entry_areas(self) -> np.ndarray:
        return self.areas

    def entry_refs(self) -> np.ndarray:
        return self.refs

    def entry_counts(self) -> np.ndarray | None:
        return self.counts

    def area_ranges(self) -> "tuple[np.ndarray, np.ndarray] | None":
        if self.mins is None or self.maxs is None:
            return None
        return self.mins, self.maxs

    @property
    def nbytes(self) -> int:
        total = self.matrix.nbytes + self.areas.nbytes + self.refs.nbytes
        for array in (self.mins, self.maxs, self.counts):
            if array is not None:
                total += array.nbytes
        return total

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"dir(level={self.level})"
        return f"DecodedNode(page={self.page_id}, {kind}, entries={len(self)})"


class ViewCounters:
    """Reuse counters of the per-node views (the ``decode_cache_*`` series).

    The views themselves live on their nodes; ``stats`` only counts how
    often a read reused a node's view (``hits``) or built one
    (``misses``).
    """

    __slots__ = ("stats",)

    def __init__(self) -> None:
        self.stats = BufferStats()


__all__ = ["DecodedNode", "ViewCounters"]
