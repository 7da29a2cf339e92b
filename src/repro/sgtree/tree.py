"""The SG-tree: a dynamic, balanced, paginated signature index (Section 3).

The tree is a natural extension of the B+-tree and the R-tree: a
height-balanced tree of disk pages in which every directory entry's
signature is the bitwise OR of the signatures in the node it points to, so
an entry *covers* every transaction in its subtree.  Insertion descends by
the Section-3.1 ChooseSubtree heuristics and resolves overflows with a
pluggable split policy; deletion dissolves underflowing nodes and
re-inserts their entries (R-tree style), "which increases space
utilisation and the quality of the tree".

Example
-------
>>> from repro import SGTree, Signature
>>> tree = SGTree(n_bits=64, max_entries=8)
>>> tree.insert(0, Signature.from_items([1, 2, 3], 64))
>>> tree.insert(1, Signature.from_items([2, 3, 4], 64))
>>> tree.nearest(Signature.from_items([1, 2, 3, 9], 64), k=1)
[Neighbor(distance=1.0, tid=0)]
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import nullcontext

from ..core.distance import HAMMING, Metric, resolve_metric
from ..core.signature import Signature
from ..core.transaction import Transaction
from ..storage.page import DEFAULT_PAGE_SIZE, PageId
from ..storage.serialization import FORMAT_VERSION
from . import search as _search
from .insert import CHOOSERS, choose_subtree
from .node import Entry, Node, NodeStore
from .split import SPLITTERS, split_entries

__all__ = ["SGTree"]

_UNLOCKED = nullcontext()


class SGTree:
    """A signature tree over ``n_bits``-long transaction signatures.

    Parameters
    ----------
    n_bits:
        Signature length (the item-universe size).
    max_entries:
        Node fan-out ``M``.  Defaults to what fits the store's page size.
    min_fill_ratio:
        Minimum fill factor; ``m = max(2, round(M * ratio))`` with the
        R-tree constraint ``m <= M // 2``.
    split_policy:
        ``"gasplit"`` (paper default), ``"qsplit"``, ``"minsplit"`` or
        ``"linear"``.
    choose_policy:
        ``"enlargement"`` (paper default) or ``"overlap"``.
    metric:
        Default similarity metric for searches (a
        :class:`~repro.core.distance.Metric` or its name).
    store:
        An existing :class:`~repro.sgtree.node.NodeStore`; when ``None``
        one is created from the remaining storage keyword arguments.
    page_size, frames, buffer_policy, mode, compress:
        Forwarded to the implicit :class:`NodeStore` (see its docs).
    """

    #: Lock held around every query; set only on the snapshot facades of
    #: a disk-mode :class:`~repro.sgtree.concurrent.ConcurrentSGTree`.
    _io_lock = None

    def __init__(
        self,
        n_bits: int,
        max_entries: int | None = None,
        min_fill_ratio: float = 0.4,
        split_policy: str = "gasplit",
        choose_policy: str = "enlargement",
        metric: Metric | str = HAMMING,
        store: NodeStore | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        frames: int | None = None,
        buffer_policy: str = "lru",
        mode: str = "sim",
        compress: bool = False,
        telemetry=None,
    ):
        if n_bits <= 0:
            raise ValueError(f"n_bits must be positive, got {n_bits}")
        if split_policy not in SPLITTERS:
            raise ValueError(
                f"unknown split policy {split_policy!r}; choose from {sorted(SPLITTERS)}"
            )
        if choose_policy not in CHOOSERS:
            raise ValueError(
                f"unknown choose policy {choose_policy!r}; choose from {sorted(CHOOSERS)}"
            )
        self.n_bits = n_bits
        self._store = store if store is not None else NodeStore(
            n_bits,
            page_size=page_size,
            frames=frames,
            policy=buffer_policy,
            mode=mode,
            compress=compress,
        )
        if max_entries is None:
            max_entries = self._store.default_capacity()
        if max_entries < 2:
            raise ValueError(f"max_entries must be >= 2, got {max_entries}")
        if not 0.0 < min_fill_ratio <= 0.5:
            raise ValueError(
                f"min_fill_ratio must be in (0, 0.5], got {min_fill_ratio}"
            )
        self.max_entries = max_entries
        self.min_fill = min(max(2, round(max_entries * min_fill_ratio)), max_entries // 2)
        self.min_fill = max(self.min_fill, 1)
        self.split_policy = split_policy
        self.choose_policy = choose_policy
        self.metric = resolve_metric(metric)
        self.telemetry = None
        root = self._store.create_node(level=0)
        self._root_id: PageId = root.page_id
        self._height = 1
        self._size = 0
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    @classmethod
    def open(
        cls,
        path,
        frames: int | None = 256,
        buffer_policy: str = "lru",
        wal_path=None,
    ) -> "SGTree":
        """Reopen a persisted tree (convenience for
        :func:`repro.sgtree.persistence.load_tree`)."""
        from .persistence import load_tree

        return load_tree(
            path,
            frames=frames,
            buffer_policy=buffer_policy,
            wal_path=wal_path,
        )

    @classmethod
    def _attach(
        cls,
        store: NodeStore,
        root_id: PageId,
        height: int,
        size: int,
        max_entries: int,
        min_fill: int,
        split_policy: str,
        choose_policy: str,
        metric: Metric | str,
    ) -> "SGTree":
        """Rebind a tree around already-persisted storage (see
        :mod:`repro.sgtree.persistence`); skips creating a fresh root."""
        tree = cls.__new__(cls)
        tree.n_bits = store.n_bits
        tree._store = store
        tree.max_entries = max_entries
        tree.min_fill = min_fill
        tree.split_policy = split_policy
        tree.choose_policy = choose_policy
        tree.metric = resolve_metric(metric)
        tree.telemetry = getattr(store, "telemetry", None)
        tree._root_id = root_id
        tree._height = height
        tree._size = size
        return tree

    def attach_telemetry(self, telemetry, name: str = "default") -> "SGTree":
        """Wire the tree (and its store) into a telemetry bundle.

        Pull collectors (height, size, node count, store/pager/WAL
        counters) are registered labelled ``store=name``/``tree=name``;
        push instruments (query latency histograms, split counters,
        structural events) activate from then on.  With no telemetry
        attached every hook is a single ``is not None`` check — the
        null-sink fast path.
        """
        self.telemetry = telemetry
        self._store.attach_telemetry(telemetry, name=name)
        registry = telemetry.registry
        labelnames = ("tree",)
        labels = {"tree": name}
        registry.gauge(
            "sgtree_height", "Tree levels (1 = the root is a leaf)", labelnames
        ).labels(**labels).set_function(lambda: self._height)
        registry.gauge(
            "sgtree_transactions", "Indexed transactions", labelnames
        ).labels(**labels).set_function(lambda: self._size)
        registry.gauge(
            "sgtree_nodes", "Pages in the node store", labelnames
        ).labels(**labels).set_function(lambda: len(self._store))
        registry.gauge(
            "sgtree_max_entries", "Node fan-out M", labelnames
        ).labels(**labels).set_function(lambda: self.max_entries)
        return self

    def _timed(self, kind: str, stats, fn: "Callable"):
        """Run one query, pushing latency + traffic when telemetry is on.

        Every query method passes through here, so this is also where a
        disk-mode snapshot facade holds its owner's I/O lock
        (``_io_lock``) for the whole query.  The unlocked, telemetry-off
        path adds a no-op context and a ``None`` check per *query* (not
        per node) on top of the closure call — unmeasurable next to the
        traversal itself.
        """
        with self._io_lock or _UNLOCKED:
            telemetry = self.telemetry
            if telemetry is None:
                return fn(stats)
            active = stats if stats is not None else _search.SearchStats()
            accesses_before = active.node_accesses
            start = time.perf_counter()
            result = fn(active)
            telemetry.observe_query(
                kind,
                time.perf_counter() - start,
                active.node_accesses - accesses_before,
            )
            return result

    # -- basic accessors ---------------------------------------------------

    @property
    def store(self) -> NodeStore:
        """The underlying node store (counters, buffer control)."""
        return self._store

    @property
    def root_id(self) -> PageId:
        return self._root_id

    @property
    def height(self) -> int:
        """Number of levels (1 = root is a leaf)."""
        return self._height

    def __len__(self) -> int:
        """Number of indexed transactions."""
        return self._size

    def __repr__(self) -> str:
        return (
            f"SGTree(n_bits={self.n_bits}, size={self._size}, "
            f"height={self._height}, M={self.max_entries}, m={self.min_fill}, "
            f"split={self.split_policy!r})"
        )

    def catalogue(self) -> dict:
        """The tree's catalogue entry: everything needed to re-attach to
        its pages (used by persistence and write-ahead-log commits)."""
        return {
            "n_bits": self.n_bits,
            "root_id": self._root_id,
            "height": self._height,
            "size": self._size,
            "max_entries": self.max_entries,
            "min_fill": self.min_fill,
            "split_policy": self.split_policy,
            "choose_policy": self.choose_policy,
            "metric": self.metric.name,
            "metric_fixed_area": getattr(self.metric, "fixed_area", None),
            "page_size": self._store.page_size,
            "compress": self._store.compress,
            "multipage": self._store.multipage,
            "format_version": FORMAT_VERSION,
        }

    def commit(self) -> None:
        """Make the current state crash-recoverable (see
        :meth:`repro.sgtree.node.NodeStore.commit`); flush-only when the
        store has no write-ahead log."""
        self._store.commit(meta=self.catalogue())

    def scrub(self):
        """Verify every page checksum and tree invariant; returns a
        :class:`~repro.sgtree.scrub.ScrubReport`."""
        from .scrub import scrub_tree

        return scrub_tree(self)

    # -- construction / updates --------------------------------------------

    def insert(self, tid_or_transaction: "int | Transaction", signature: Signature | None = None) -> None:
        """Insert one transaction.

        Accepts either a :class:`Transaction` or an explicit
        ``(tid, signature)`` pair.
        """
        tid, signature = self._unpack(tid_or_transaction, signature)
        self._insert_entry(Entry(signature, tid), entry_level=0)
        self._size += 1

    def insert_many(self, transactions: Iterable["Transaction | tuple[int, Signature]"]) -> None:
        """Insert a batch of transactions one by one."""
        for item in transactions:
            if isinstance(item, Transaction):
                self.insert(item)
            else:
                tid, signature = item
                self.insert(tid, signature)

    def delete(self, tid_or_transaction: "int | Transaction", signature: Signature | None = None) -> bool:
        """Delete one transaction; returns whether it was found.

        Underflowing nodes along the path are dissolved and their entries
        re-inserted (Section 3.1).
        """
        tid, signature = self._unpack(tid_or_transaction, signature)
        path = self._find_leaf_path(signature, tid)
        if path is None:
            return False
        leaf, entry_index = path[-1]
        leaf.remove_at(entry_index)
        self._store.mark_dirty(leaf)
        self._condense(path)
        self._size -= 1
        return True

    def update(self, tid: int, old_signature: Signature, new_signature: Signature) -> bool:
        """Replace a transaction's signature (delete + re-insert)."""
        if not self.delete(tid, old_signature):
            return False
        self.insert(tid, new_signature)
        return True

    # -- queries (thin wrappers over repro.sgtree.search) -------------------

    def nearest(
        self,
        query: Signature,
        k: int = 1,
        metric: Metric | str | None = None,
        algorithm: str = "depth-first",
        stats: "_search.SearchStats | None" = None,
        deadline: "_search.Deadline | None" = None,
        tracer=None,
        initial_threshold: "float | None" = None,
    ) -> list["_search.Neighbor"]:
        """The ``k`` nearest transactions to ``query`` (Section 4.1).

        ``deadline`` bounds the traversal: past it, the next per-node
        cancellation checkpoint raises
        :class:`~repro.errors.QueryTimeout` (see
        :class:`~repro.sgtree.search.Deadline`).  A
        :class:`~repro.telemetry.tracing.Tracer` records per-node visit
        spans (depth-first only — the traced engine, as in
        :meth:`explain`); sampled serving requests ride this path.

        ``initial_threshold`` pre-tightens the k-NN pruning bound (the
        result is the unseeded top-k filtered to ``distance <= seed``;
        see :class:`~repro.sgtree.search.KnnHeap`) — how a sharded
        coordinator hands its pilot shard's k-th distance to this
        traversal.
        """
        metric = self.metric if metric is None else resolve_metric(metric)
        if tracer is not None and algorithm != "depth-first":
            raise ValueError(
                f"tracing supports the depth-first engine only, "
                f"got algorithm={algorithm!r}"
            )
        if algorithm == "depth-first":
            return self._timed("knn", stats, lambda s: _search.knn_depth_first(
                self._store, self._root_id, query, k, metric,
                stats=s, tracer=tracer, deadline=deadline,
                initial_threshold=initial_threshold,
            ))
        if algorithm == "best-first":
            return self._timed("knn", stats, lambda s: _search.knn_best_first(
                self._store, self._root_id, query, k, metric,
                stats=s, deadline=deadline,
                initial_threshold=initial_threshold,
            ))
        raise ValueError(
            f"unknown k-NN algorithm {algorithm!r}; "
            f"choose from ['best-first', 'depth-first']"
        )

    def batch_nearest(
        self,
        queries: "list[Signature]",
        k: int = 1,
        metric: Metric | str | None = None,
        stats: "_search.SearchStats | None" = None,
        deadline: "_search.Deadline | None" = None,
        initial_thresholds: "float | list[float] | None" = None,
    ) -> list[list["_search.Neighbor"]]:
        """k-NN for a whole query batch in one shared-frontier traversal.

        Returns one result list per query, in input order, each identical
        to ``nearest(query, k=k)``; a node needed by several queries is
        fetched and scored once (see :func:`repro.sgtree.search.batch_knn`).
        ``stats`` accumulates the batch's total traffic.  ``deadline``
        bounds the whole batch (one budget, not one per query).
        ``initial_thresholds`` (scalar or per-query) pre-tightens the
        per-query pruning bounds, with the prefix-filter contract of
        :class:`~repro.sgtree.search.KnnHeap`.
        """
        metric = self.metric if metric is None else resolve_metric(metric)
        return self._timed("batch_knn", stats, lambda s: _search.batch_knn(
            self._store, self._root_id, queries, k, metric, stats=s,
            deadline=deadline, initial_thresholds=initial_thresholds,
        ))

    def batch_range_query(
        self,
        queries: "list[Signature]",
        epsilon: "float | list[float]",
        metric: Metric | str | None = None,
        stats: "_search.SearchStats | None" = None,
        deadline: "_search.Deadline | None" = None,
    ) -> list[list["_search.Neighbor"]]:
        """Range search for a whole query batch in one shared traversal.

        ``epsilon`` is one radius for the batch or a per-query sequence;
        each result list is identical to ``range_query(query, epsilon)``.
        """
        metric = self.metric if metric is None else resolve_metric(metric)
        return self._timed("batch_range", stats, lambda s: _search.batch_range(
            self._store, self._root_id, queries, epsilon, metric, stats=s,
            deadline=deadline,
        ))

    def browse(
        self,
        query: Signature,
        metric: Metric | str | None = None,
        stats: "_search.SearchStats | None" = None,
    ) -> "Iterator[_search.Neighbor]":
        """Yield neighbours of ``query`` in increasing distance, lazily
        (incremental distance browsing; see
        :func:`repro.sgtree.search.browse`)."""
        metric = self.metric if metric is None else resolve_metric(metric)
        return _search.browse(self._store, self._root_id, query, metric, stats=stats)

    def range_query(
        self,
        query: Signature,
        epsilon: float,
        metric: Metric | str | None = None,
        stats: "_search.SearchStats | None" = None,
        deadline: "_search.Deadline | None" = None,
        tracer=None,
    ) -> list["_search.Neighbor"]:
        """All transactions within distance ``epsilon`` of ``query``: a
        batch of one through :func:`repro.sgtree.search.batch_range`."""
        metric = self.metric if metric is None else resolve_metric(metric)
        return self._timed("range", stats, lambda s: _search.batch_range(
            self._store, self._root_id, [query], epsilon, metric, stats=s,
            deadline=deadline, tracer=tracer,
        )[0])

    def range_count(
        self,
        query: Signature,
        epsilon: float,
        metric: Metric | str | None = None,
        stats: "_search.SearchStats | None" = None,
    ) -> int:
        """Exact count of transactions within ``epsilon`` of ``query``,
        using subtree counts to skip whole qualifying subtrees."""
        metric = self.metric if metric is None else resolve_metric(metric)
        return self._timed("range_count", stats, lambda s: _search.range_count(
            self._store, self._root_id, query, epsilon, metric, stats=s
        ))

    def range_count_bounds(
        self,
        query: Signature,
        epsilon: float,
        node_budget: int,
        metric: Metric | str | None = None,
        stats: "_search.SearchStats | None" = None,
    ) -> tuple[int, int]:
        """A ``[low, high]`` interval on the range count, visiting at
        most ``node_budget`` nodes (approximate selectivity probing)."""
        metric = self.metric if metric is None else resolve_metric(metric)
        return self._timed(
            "range_count_bounds", stats,
            lambda s: _search.range_count_bounds(
                self._store, self._root_id, query, epsilon, metric,
                node_budget=node_budget, database_size=self._size, stats=s,
            ),
        )

    def constrained_nearest(
        self,
        query: Signature,
        required: Signature,
        k: int = 1,
        metric: Metric | str | None = None,
        stats: "_search.SearchStats | None" = None,
    ) -> list["_search.Neighbor"]:
        """The ``k`` nearest transactions that contain every item of
        ``required`` (containment-constrained similarity search)."""
        metric = self.metric if metric is None else resolve_metric(metric)
        return self._timed(
            "constrained_knn", stats,
            lambda s: _search.constrained_nearest(
                self._store, self._root_id, query, required, k, metric, stats=s
            ),
        )

    def containment_query(
        self,
        query: Signature,
        stats: "_search.SearchStats | None" = None,
        deadline: "_search.Deadline | None" = None,
        tracer=None,
    ) -> list[int]:
        """Tids of transactions that contain every item of ``query``."""
        return self._timed(
            "containment", stats,
            lambda s: _search.containment_search(
                self._store, self._root_id, query, stats=s,
                deadline=deadline, tracer=tracer,
            ),
        )

    def subset_query(
        self, query: Signature, stats: "_search.SearchStats | None" = None
    ) -> list[int]:
        """Tids of transactions that are subsets of ``query``."""
        return self._timed(
            "subset", stats,
            lambda s: _search.subset_search(
                self._store, self._root_id, query, stats=s
            ),
        )

    def equality_query(
        self, query: Signature, stats: "_search.SearchStats | None" = None
    ) -> list[int]:
        """Tids of transactions whose signature equals ``query``."""
        return self._timed(
            "equality", stats,
            lambda s: _search.equality_search(
                self._store, self._root_id, query, stats=s
            ),
        )

    def explain(
        self,
        query: Signature,
        k: int = 1,
        epsilon: float | None = None,
        kind: str | None = None,
        metric: Metric | str | None = None,
        initial_threshold: "float | None" = None,
    ):
        """Run one traced query and return its EXPLAIN report.

        ``kind`` is ``"knn"`` (depth-first branch-and-bound; the
        traced engine), ``"range"`` or ``"containment"``; when ``None``
        it is inferred — ``"range"`` if ``epsilon`` is given, else
        ``"knn"``.  The returned
        :class:`~repro.telemetry.tracing.ExplainReport` carries the
        query's results, its :class:`~repro.sgtree.search.SearchStats`
        and a :class:`~repro.telemetry.tracing.Tracer` whose spans
        reconcile exactly with the stats (one span per node access, one
        ``descended`` decision per non-root span).
        """
        from ..telemetry.tracing import ExplainReport, Tracer

        metric = self.metric if metric is None else resolve_metric(metric)
        if kind is None:
            kind = "range" if epsilon is not None else "knn"
        if initial_threshold is not None and kind != "knn":
            raise ValueError(
                "initial_threshold applies to explain(kind='knn') only"
            )
        tracer = Tracer()
        stats = _search.SearchStats()
        if kind == "knn":
            results = _search.knn_depth_first(
                self._store, self._root_id, query, k, metric,
                stats=stats, tracer=tracer,
                initial_threshold=initial_threshold,
            )
            params = {"k": k, "metric": metric.name, "algorithm": "depth-first"}
            if initial_threshold is not None:
                params["initial_threshold"] = initial_threshold
        elif kind == "range":
            if epsilon is None:
                raise ValueError("explain(kind='range') requires epsilon")
            results = _search.batch_range(
                self._store, self._root_id, [query], epsilon, metric,
                stats=stats, tracer=tracer,
            )[0]
            params = {"epsilon": epsilon, "metric": metric.name}
        elif kind == "containment":
            results = _search.containment_search(
                self._store, self._root_id, query, stats=stats, tracer=tracer
            )
            params = {"items": query.area}
        else:
            raise ValueError(
                f"unknown explain kind {kind!r}; "
                f"choose from ['knn', 'range', 'containment']"
            )
        return ExplainReport(
            kind=kind, params=params, results=results, stats=stats,
            tracer=tracer,
        )

    def sample(self, n: int, seed: int | None = None) -> list[tuple[int, Signature]]:
        """A uniform random sample of ``n`` indexed transactions
        (with replacement), drawn in O(height) per sample.

        Uses the aggregate subtree counts for exact count-weighted
        descent — the classic aggregate-tree sampling primitive; useful
        for estimating dataset statistics without a scan.  Falls back to
        fan-out-weighted descent (approximately uniform) if a directory
        entry lacks its count statistic.
        """
        import numpy as np

        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if not self._size:
            return []
        rng = np.random.default_rng(seed)
        results: list[tuple[int, Signature]] = []
        for _ in range(n):
            node = self._store.get(self._root_id)
            while not node.is_leaf:
                counts = [entry.count for entry in node.entries]
                if any(count is None for count in counts):
                    index = int(rng.integers(len(node.entries)))
                else:
                    weights = np.asarray(counts, dtype=np.float64)
                    index = int(rng.choice(len(node.entries), p=weights / weights.sum()))
                node = self._store.get(node.entries[index].ref)
            entry = node.entries[int(rng.integers(len(node.entries)))]
            results.append((entry.ref, entry.signature))
        return results

    def dump(self, max_depth: int | None = None, max_entries: int = 4) -> str:
        """A human-readable sketch of the tree structure for debugging.

        One line per node showing level, entry count, coverage area and a
        truncated entry listing; ``max_depth`` limits how deep to render.
        """
        lines: list[str] = [repr(self)]

        def render(page_id: PageId, depth: int) -> None:
            node = self._store.get(page_id)
            indent = "  " * (depth + 1)
            area = node.union_signature().area if node.entries else 0
            kind = "leaf" if node.is_leaf else f"dir L{node.level}"
            lines.append(
                f"{indent}[{kind}] page={page_id} entries={len(node.entries)} "
                f"coverage_area={area}"
            )
            shown = node.entries[:max_entries]
            for entry in shown:
                if node.is_leaf:
                    lines.append(
                        f"{indent}  tid={entry.ref} area={entry.area}"
                    )
                else:
                    stats = ""
                    if entry.count is not None:
                        stats = (
                            f" count={entry.count} "
                            f"areas=[{entry.min_area},{entry.max_area}]"
                        )
                    lines.append(
                        f"{indent}  -> page={entry.ref} sig_area={entry.area}{stats}"
                    )
            if len(node.entries) > max_entries:
                lines.append(f"{indent}  ... {len(node.entries) - max_entries} more")
            if not node.is_leaf and (max_depth is None or depth + 1 < max_depth):
                for entry in shown:
                    render(entry.ref, depth + 1)

        render(self._root_id, 0)
        return "\n".join(lines)

    # -- traversal -----------------------------------------------------------

    def items(self) -> Iterator[tuple[int, Signature]]:
        """Yield every ``(tid, signature)`` pair (leaf order)."""
        yield from self._iter_leaves(self._root_id)

    def nodes(self) -> Iterator[Node]:
        """Yield every node, root first (pre-order)."""
        stack = [self._root_id]
        while stack:
            node = self._store.get(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(entry.ref for entry in node.entries)

    def _iter_leaves(self, page_id: PageId) -> Iterator[tuple[int, Signature]]:
        node = self._store.get(page_id)
        if node.is_leaf:
            for entry in node.entries:
                yield entry.ref, entry.signature
        else:
            for entry in node.entries:
                yield from self._iter_leaves(entry.ref)

    # -- insertion internals -------------------------------------------------

    def _directory_entry(self, node: Node) -> Entry:
        """A parent entry for ``node``: coverage signature + statistics."""
        lo, hi = node.subtree_area_range()
        return Entry(
            node.union_signature(),
            node.page_id,
            min_area=lo,
            max_area=hi,
            count=node.subtree_count(),
        )

    @staticmethod
    def _refresh_entry(entry: Entry, node: Node) -> None:
        """Re-derive a parent entry's signature and statistics from its
        (possibly mutated) child node."""
        entry.signature = node.union_signature()
        entry.min_area, entry.max_area = node.subtree_area_range()
        entry.count = node.subtree_count()

    def _unpack(
        self, tid_or_transaction: "int | Transaction", signature: Signature | None
    ) -> tuple[int, Signature]:
        if isinstance(tid_or_transaction, Transaction):
            transaction = tid_or_transaction
            if signature is not None:
                raise TypeError("pass either a Transaction or (tid, signature), not both")
            tid, signature = transaction.tid, transaction.signature
        else:
            tid = tid_or_transaction
            if signature is None:
                raise TypeError("signature required when tid is given")
        if signature.n_bits != self.n_bits:
            raise ValueError(
                f"signature has {signature.n_bits} bits, tree indexes {self.n_bits}"
            )
        return tid, signature

    def _insert_entry(self, entry: Entry, entry_level: int) -> None:
        """Insert an entry whose subtree sits at ``entry_level`` (0 = data)."""
        sibling = self._insert_rec(self._root_id, entry, entry_level)
        if sibling is not None:
            self._grow_root(sibling)

    def _insert_rec(self, page_id: PageId, entry: Entry, entry_level: int) -> Entry | None:
        """Recursive insertion (the paper's Figure 3).

        Returns the entry for a newly split-off sibling of this node, or
        ``None`` when no split propagated up.
        """
        node = self._store.get(page_id)
        if node.level == entry_level:
            node.add(entry)
            self._store.mark_dirty(node)
        else:
            index = choose_subtree(node, entry.signature, self.choose_policy)
            child_entry = node.entries[index]
            sibling = self._insert_rec(child_entry.ref, entry, entry_level)
            child_node = self._store.get(child_entry.ref)
            self._refresh_entry(child_entry, child_node)
            node.invalidate()
            self._store.mark_dirty(node)
            if sibling is not None:
                node.add(sibling)
        if len(node) > self.max_entries:
            return self._split_node(node)
        return None

    def _split_node(self, node: Node) -> Entry:
        """Split an overflowing node; returns the new sibling's entry."""
        group_a, group_b = split_entries(node.entries, self.min_fill, self.split_policy)
        node.replace_entries(group_a)
        self._store.mark_dirty(node)
        sibling = self._store.create_node(level=node.level)
        sibling.replace_entries(group_b)
        self._store.mark_dirty(sibling)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.node_splits_total.labels(level=node.level).inc()
            telemetry.emit(
                "node_split",
                page_id=node.page_id,
                new_page_id=sibling.page_id,
                level=node.level,
                n_entries_left=len(group_a),
                n_entries_right=len(group_b),
            )
        return self._directory_entry(sibling)

    def _grow_root(self, sibling: Entry) -> None:
        old_root = self._store.get(self._root_id)
        new_root = self._store.create_node(level=old_root.level + 1)
        new_root.add(self._directory_entry(old_root))
        new_root.add(sibling)
        self._store.mark_dirty(new_root)
        self._root_id = new_root.page_id
        self._height += 1
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.root_grows_total.inc()
            telemetry.emit(
                "root_grow",
                root_page_id=new_root.page_id,
                new_level=new_root.level,
            )

    # -- deletion internals ----------------------------------------------------

    def _find_leaf_path(
        self, signature: Signature, tid: int
    ) -> list[tuple[Node, int]] | None:
        """Path from root to the leaf entry of ``(tid, signature)``.

        Each element is ``(node, index)`` where ``index`` is the entry
        followed (for the leaf: the entry to delete).  Follows every
        branch whose signature contains the target (multiple paths may
        cover it; the first hit wins).
        """

        def descend(page_id: PageId) -> list[tuple[Node, int]] | None:
            node = self._store.get(page_id)
            if node.is_leaf:
                for i, entry in enumerate(node.entries):
                    if entry.ref == tid and entry.signature == signature:
                        return [(node, i)]
                return None
            for i, entry in enumerate(node.entries):
                if entry.signature.contains(signature):
                    tail = descend(entry.ref)
                    if tail is not None:
                        return [(node, i)] + tail
            return None

        return descend(self._root_id)

    def _condense(self, path: list[tuple[Node, int]]) -> None:
        """R-tree CondenseTree: dissolve underflowing nodes, re-insert.

        ``path[-1]`` is the leaf the deletion happened in; walk upwards,
        removing underflowing non-root nodes and tightening signatures.
        """
        orphans: list[Node] = []
        for depth in range(len(path) - 1, 0, -1):
            node, _ = path[depth]
            parent, parent_index = path[depth - 1]
            if len(node) < self.min_fill:
                parent.remove_at(parent_index)
                self._store.mark_dirty(parent)
                orphans.append(node)
            else:
                entry = parent.entries[parent_index]
                self._refresh_entry(entry, node)
                parent.invalidate()
                self._store.mark_dirty(parent)

        # Shrink the root before re-inserting, so re-insertions see the
        # final tree shape.
        self._shrink_root()

        # Re-insert orphaned entries, deepest (lowest level) first so
        # directory entries always find a level to land on.
        for node in sorted(orphans, key=lambda n: n.level):
            for entry in node.entries:
                if node.is_leaf:
                    self._insert_entry(entry, entry_level=0)
                else:
                    self._reinsert_subtree(entry)
            self._store.free(node.page_id)
            self._shrink_root()

    def _reinsert_subtree(self, entry: Entry) -> None:
        """Re-insert a directory entry at the level its subtree requires.

        If the tree has meanwhile become too short to host the subtree as
        a single entry, dissolve it one level and re-insert its children.
        """
        child = self._store.get(entry.ref)
        required_level = child.level + 1
        if required_level >= self._height:
            for sub_entry in child.entries:
                if child.is_leaf:
                    self._insert_entry(sub_entry, entry_level=0)
                else:
                    self._reinsert_subtree(sub_entry)
            self._store.free(child.page_id)
        else:
            self._insert_entry(entry, entry_level=required_level)

    def _shrink_root(self) -> None:
        while True:
            root = self._store.get(self._root_id)
            if root.is_leaf or len(root) != 1:
                return
            child_id = root.entries[0].ref
            self._store.free(root.page_id)
            self._root_id = child_id
            self._height -= 1
