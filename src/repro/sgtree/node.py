"""SG-tree nodes, entries, and the paginated node store.

A node corresponds to one disk page and contains entries
``<sig, ptr>`` (Section 3): in a leaf, ``sig`` is a transaction's
signature and ``ptr`` its transaction id; in a directory node, ``sig`` is
the OR of all signatures in the child node and ``ptr`` the child's page
id.

:class:`NodeStore` is the bridge to the storage substrate.  It hands out
nodes by page id, counts every *node access* and every *random I/O*
(an access to a node not resident in the configured buffer budget), and —
in ``disk`` mode — actually serialises evicted nodes through a pager and
deserialises them on fault, so the whole index runs out-of-core.  ``sim``
mode keeps all nodes in memory and only accounts the traffic; the paper's
comparative I/O metrics depend only on the counts, so the benchmarks use
``sim`` for speed while the test-suite exercises ``disk`` end-to-end.

Multipage nodes: Section 3 notes that "using multipage nodes is a
potential implementation" of the node = disk page mapping.  With
``multipage=True`` the disk-mode store chains a node that outgrows its
page across continuation pages — the primary page carries a small header
(total length, continuation count, continuation page ids) followed by
the first chunk — so the fan-out ``M`` may exceed what a single page
holds.  Reading a chained node costs ``1 + n_continuations`` random
I/Os, which the counters charge accordingly.
"""

from __future__ import annotations

import logging
import os
import struct
import threading
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ..core import bitops
from ..core.signature import Signature
from ..errors import NodeDecodeError, PageCorruptError
from ..storage.buffer import BufferStats, ClockPolicy, FIFOPolicy, LRUPolicy, ReplacementPolicy
from ..storage.page import DEFAULT_PAGE_SIZE, Page, PageId
from ..storage.page import PageNotFoundError
from ..storage.pager import MemoryPager, Pager
from ..storage.serialization import NodeArrays, capacity_for_page, decode_node, encode_node
from ..storage.wal import OP_COMMIT, OP_WRITE, LogScanner, RecoveryReport, WriteAheadLog

logger = logging.getLogger(__name__)

# Readers share nodes, so two first reads of one entry-list node may
# stack its arrays at once; interleaved stores could leave a kernel
# pointer addressing a matrix the node no longer holds.
_STACK_LOCK = threading.Lock()


@dataclass
class Entry:
    """One ``<sig, ptr>`` node entry.

    ``ref`` is a transaction id in leaf nodes and a child page id in
    directory nodes; the owning node's level disambiguates.

    Directory entries additionally carry the subtree's *area range*
    ``[min_area, max_area]`` — the smallest/largest transaction size
    below them — and its transaction ``count``.  These are the Section-6
    "statistics from the indexed data": the range strengthens Hamming
    lower bounds for variable-size data (see
    :func:`repro.sgtree.search.strengthen_hamming_bounds`), and the
    count turns the index into an aggregate tree that can answer range
    *counting* queries without visiting whole qualifying subtrees.  Leaf
    entries leave them ``None`` (the signature's own area is the
    statistic and the count is one).
    """

    signature: Signature
    ref: int
    min_area: int | None = None
    max_area: int | None = None
    count: int | None = None

    @property
    def area(self) -> int:
        return self.signature.area


class Node:
    """A tree node: a level, a page id and its entries.

    A node holds its entries in one of two forms.  A node built in
    memory keeps a list of :class:`Entry` objects.  A node faulted in
    from its page (:meth:`from_arrays`) keeps only the decoded arrays,
    and :attr:`entries` builds the ``Entry`` list on first access and
    keeps it, so only writers and entry-level callers pay for the
    objects.

    Search reads a node through its arrays: the ``(n_entries, n_words)``
    signature matrix, per-entry refs, and the Section-6 statistics
    vectors.  They are built at once (on the first accessor call or
    :meth:`NodeStore.read`), are read-only however they were built, and
    are dropped only by :meth:`invalidate`, which every mutation calls.
    Once built, each accessor returns its array with no check; an array
    not built yet is an unset slot.  Per-entry areas follow the same
    rules but are counted on the first :meth:`entry_areas` call, since
    a fault should cost no popcount that a Hamming leaf sweep never
    reads.

    Concurrent readers share one ``Node``.  That is safe because every
    concurrent writer mutates private clones inside a
    :class:`ShadowSession`: a node a published root reaches never
    mutates.
    """

    __slots__ = (
        "page_id", "level", "_entries", "_n_bits",
        "_matrix", "_areas", "_refs", "_area_ranges", "_counts",
        "matrix_ptr", "refs_ptr", "__weakref__",
    )

    def __init__(self, page_id: PageId, level: int, entries: list[Entry] | None = None):
        self.page_id = page_id
        self.level = level
        # None while the node is still in its decoded-array form
        self._entries: list[Entry] | None = entries if entries is not None else []
        self._n_bits = 0
        # Raw base addresses of the signature matrix and the ref vector
        # for the compiled leaf filters (ndarray.ctypes is too slow to
        # ask on every visit); None until the arrays exist, and for
        # layouts the native kernels cannot consume.
        self.matrix_ptr: int | None = None
        self.refs_ptr: int | None = None

    @classmethod
    def from_arrays(
        cls,
        page_id: PageId,
        level: int,
        n_bits: int,
        matrix: np.ndarray,
        refs: np.ndarray,
        mins: np.ndarray | None = None,
        maxs: np.ndarray | None = None,
        counts: np.ndarray | None = None,
    ) -> "Node":
        """A non-empty node whose state is its decoded page arrays.

        Entries built from them later wrap the matrix rows as
        :class:`Signature` objects without copying, and clones share
        them.  ``mins``/``maxs``/``counts`` are given together or not at
        all.
        """
        node = cls(page_id, level)
        node._entries = None
        node._n_bits = n_bits
        node._set_arrays(
            matrix, refs, (mins, maxs) if mins is not None else None, counts
        )
        return node

    def _set_arrays(
        self,
        matrix: np.ndarray,
        refs: np.ndarray,
        ranges: "tuple[np.ndarray, np.ndarray] | None",
        counts: np.ndarray | None,
    ) -> None:
        for array in (matrix, refs, counts, *(ranges or ())):
            if array is not None:
                array.setflags(write=False)
        self.matrix_ptr = matrix.ctypes.data if matrix.flags.c_contiguous else None
        self.refs_ptr = (
            refs.ctypes.data
            if refs.flags.c_contiguous and refs.dtype == np.int64
            else None
        )
        self._matrix = matrix
        self._area_ranges = ranges
        self._counts = counts
        self._refs = refs  # last: a set ``_refs`` means every array is set

    def _stack_arrays(self) -> None:
        """Build the read arrays from the entry list unless they exist."""
        with _STACK_LOCK:
            if hasattr(self, "_refs"):
                return
            if not self._entries:
                raise ValueError(f"node {self.page_id} has no entries")
            self._set_arrays(*self._entry_arrays())

    def _entry_arrays(self) -> tuple:
        """Matrix, refs, ``(mins, maxs)`` and counts stacked from the
        entry list (the statistics ``None`` where any entry lacks them)."""
        entries = self._entries
        matrix = np.stack([entry.signature.words for entry in entries])
        refs = np.fromiter(
            (e.ref for e in entries), dtype=np.int64, count=len(entries)
        )
        ranges = counts = None
        if all(e.min_area is not None and e.max_area is not None for e in entries):
            ranges = (
                np.fromiter((e.min_area for e in entries), dtype=np.int64),
                np.fromiter((e.max_area for e in entries), dtype=np.int64),
            )
        if not self.is_leaf and all(e.count is not None for e in entries):
            counts = np.fromiter((e.count for e in entries), dtype=np.int64)
        return matrix, refs, ranges, counts

    def page_arrays(self) -> NodeArrays:
        """What this node's page stores.

        The read arrays when built; otherwise arrays stacked from the
        entry list and kept nowhere, so writing a node back leaves its
        read state as it was.  Statistics go with a directory whose
        every entry has all three.
        """
        if not len(self):
            return NodeArrays(
                self.is_leaf, self.level, np.empty(0, dtype=np.int64),
                np.empty((0, 0), dtype=np.uint64),
            )
        try:
            refs = self._refs
            matrix, ranges, counts = self._matrix, self._area_ranges, self._counts
        except AttributeError:
            matrix, refs, ranges, counts = self._entry_arrays()
        if self.is_leaf or ranges is None or counts is None:
            return NodeArrays(self.is_leaf, self.level, refs, matrix)
        return NodeArrays(self.is_leaf, self.level, refs, matrix, *ranges, counts)

    @property
    def entries(self) -> list[Entry]:
        """The node's entries, built from its arrays on first access."""
        entries = self._entries
        if entries is None:
            entries = self._entries = self._build_entries()
        return entries

    def _build_entries(self) -> list[Entry]:
        n_bits = self._n_bits
        refs = self._refs.tolist()
        if self._area_ranges is None:
            return [
                Entry(Signature(row, n_bits), ref)
                for row, ref in zip(self._matrix, refs)
            ]
        mins, maxs = self._area_ranges
        return [
            Entry(Signature(row, n_bits), ref, lo, hi, count)
            for row, ref, lo, hi, count in zip(
                self._matrix, refs, mins.tolist(), maxs.tolist(),
                self._counts.tolist(),
            )
        ]

    def clone(self, page_id: PageId) -> "Node":
        """A private copy under another page id.

        A node still in array form shares its read-only arrays with the
        copy; otherwise every entry is copied, so mutating the copy's
        entries never reaches this node.
        """
        if self._entries is None:
            mins, maxs = self._area_ranges or (None, None)
            return Node.from_arrays(
                page_id, self.level, self._n_bits, self._matrix, self._refs,
                mins, maxs, self._counts,
            )
        return Node(page_id, self.level, [
            Entry(e.signature, e.ref, e.min_area, e.max_area, e.count)
            for e in self._entries
        ])

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        entries = self._entries
        return len(self._refs) if entries is None else len(entries)

    def signature_matrix(self) -> np.ndarray:
        """Stacked entry signatures, ``(n_entries, n_words)`` uint64."""
        try:
            return self._matrix
        except AttributeError:
            self._stack_arrays()
            return self._matrix

    def entry_areas(self) -> np.ndarray:
        """Per-entry signature popcounts, read-only.

        Directory visit orders, best-first priorities and the ratio
        metrics' leaf distances read them; a Hamming leaf sweep never
        does.  So they are counted on the first call, not when the
        arrays are built, and kept beside the matrix until
        :meth:`invalidate`.  Two readers racing on the first call store
        equal arrays.
        """
        try:
            return self._areas
        except AttributeError:
            areas = np.asarray(
                bitops.popcount(self.signature_matrix()), dtype=np.int64
            )
            areas.setflags(write=False)
            self._areas = areas
            return areas

    def entry_refs(self) -> np.ndarray:
        """Per-entry refs (tids or child page ids)."""
        try:
            return self._refs
        except AttributeError:
            self._stack_arrays()
            return self._refs

    def entry_counts(self) -> np.ndarray | None:
        """Per-entry subtree counts, or ``None`` for a leaf or when any
        entry lacks one."""
        try:
            return self._counts
        except AttributeError:
            self._stack_arrays()
            return self._counts

    def area_ranges(self) -> "tuple[np.ndarray, np.ndarray] | None":
        """Per-entry (min_area, max_area) vectors, or ``None`` when any
        entry lacks statistics."""
        try:
            return self._area_ranges
        except AttributeError:
            self._stack_arrays()
            return self._area_ranges

    def subtree_count(self) -> int | None:
        """Transactions under this node, from entry statistics.

        ``None`` when a directory child lacks a count (hand-built trees).
        """
        if self.is_leaf:
            return len(self.entries)
        total = 0
        for entry in self.entries:
            if entry.count is None:
                return None
            total += entry.count
        return total

    def subtree_area_range(self) -> tuple[int, int]:
        """The [min, max] transaction area under this whole node.

        For a leaf: over its transactions' areas; for a directory: over
        its entries' stored statistics (falling back to a degenerate
        range when a child lacks them).
        """
        if not self.entries:
            return (0, 0)
        if self.is_leaf:
            areas = [entry.area for entry in self.entries]
            return (min(areas), max(areas))
        mins = [e.min_area for e in self.entries if e.min_area is not None]
        maxs = [e.max_area for e in self.entries if e.max_area is not None]
        if len(mins) != len(self.entries):
            return (0, self.entries[0].signature.n_bits)
        return (min(mins), max(maxs))

    def stack_signatures(self) -> np.ndarray:
        """The signature matrix for a writer about to mutate this node:
        the read array when built, else a fresh stack that builds none
        of the read arrays (the mutation would drop them at once)."""
        try:
            return self._matrix
        except AttributeError:
            return np.stack([entry.signature.words for entry in self.entries])

    def union_signature(self) -> Signature:
        """The coverage signature of the whole node (Definition 5)."""
        matrix = self.stack_signatures()
        entries = self._entries
        n_bits = self._n_bits if entries is None else entries[0].signature.n_bits
        return Signature(bitops.union_all(matrix), n_bits)

    def add(self, entry: Entry) -> None:
        self.entries.append(entry)
        self.invalidate()

    def remove_at(self, index: int) -> Entry:
        entry = self.entries.pop(index)
        self.invalidate()
        return entry

    def replace_entries(self, entries: list[Entry]) -> None:
        self._entries = entries
        self.invalidate()

    def invalidate(self) -> None:
        """Drop the read arrays after entry mutation.

        A node still in array form builds its entries first: the arrays
        are its only copy of them.
        """
        if self._entries is None:
            self._entries = self._build_entries()
        self.matrix_ptr = self.refs_ptr = None
        if hasattr(self, "_areas"):
            del self._areas
        if hasattr(self, "_refs"):
            del self._refs, self._matrix, self._area_ranges, self._counts

    def find_ref(self, ref: int) -> int | None:
        """Index of the entry pointing at ``ref``, or ``None``."""
        for i, entry in enumerate(self.entries):
            if entry.ref == ref:
                return i
        return None

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"dir(level={self.level})"
        return f"Node(page={self.page_id}, {kind}, entries={len(self)})"


@dataclass
class StoreCounters:
    """Aggregate traffic counters of a node store."""

    node_accesses: int = 0
    random_ios: int = 0
    node_writes: int = 0
    node_decodes: int = 0

    def reset(self) -> None:
        self.node_accesses = 0
        self.random_ios = 0
        self.node_writes = 0
        self.node_decodes = 0

    def snapshot(self) -> "StoreCounters":
        return StoreCounters(
            self.node_accesses, self.random_ios, self.node_writes,
            self.node_decodes,
        )

    def register_metrics(self, registry, **labels: str) -> None:
        """Expose these counters through a metrics registry (pull model).

        The hot path keeps bumping plain ints; the registry reads them
        via callbacks only at scrape time, so instrumenting the store
        costs nothing per node access.
        """
        labelnames = tuple(sorted(labels))
        for name, help_text, attr in (
            ("sgtree_node_accesses_total",
             "Node fetches through the store (the paper's node accesses)",
             "node_accesses"),
            ("sgtree_random_ios_total",
             "Node fetches that missed the buffer (random I/Os)",
             "random_ios"),
            ("sgtree_node_writes_total",
             "Nodes serialised back to their page", "node_writes"),
            ("sgtree_node_decodes_total",
             "Node faults that parsed page bytes (vs node object reuse)",
             "node_decodes"),
        ):
            registry.counter(name, help_text, labelnames).labels(
                **labels
            ).set_function(lambda attr=attr: getattr(self, attr))


@dataclass
class ShadowOutcome:
    """What one committed shadow session changed in the store.

    ``mapping`` is old page id → replacement page id for every node the
    writer actually mutated (clean clones were reverted and do not
    appear); ``superseded`` lists every old page the published tree no
    longer references — the caller must defer-free them through its
    epoch machinery, never immediately, because pinned readers may still
    traverse them.
    """

    mapping: dict
    superseded: list
    installed: int
    created: int

    def resolve(self, page_id: PageId) -> PageId:
        """Map a pre-publish page id to its published replacement."""
        return self.mapping.get(page_id, page_id)


class ShadowSession:
    """A copy-on-write overlay for one writer epoch.

    While a session is active, store calls from the **writer thread**
    (and only that thread) are routed here: fetching a page yields a
    private clone under a **fresh page id**, creations allocate fresh
    ids, frees are recorded instead of executed.  Reader threads keep
    hitting the base tables directly and can never observe a
    half-mutated node, because the writer only ever mutates clones that
    no published root reaches.

    Fresh ids — rather than an in-place delta — are what make the reader
    path trivial: a page id uniquely identifies one immutable version,
    so a reader resolves it with a plain table lookup, no override-map
    consultation and no torn read window.  The cost is a root-to-leaf
    clone per update (R-tree updates touch ``O(height)`` pages), undone
    for any page the writer fetched but never dirtied.

    ``commit_shadow`` installs the surviving clones, rewrites directory
    entry refs through the old→new alias map, and reports the superseded
    old pages; ``abort_shadow`` returns every allocated id and leaves
    the store untouched.
    """

    __slots__ = (
        "store", "thread_id", "nodes", "alias", "reverse",
        "created", "dirty", "freed_base", "freed_created",
    )

    def __init__(self, store: "NodeStore"):
        self.store = store
        self.thread_id = threading.get_ident()
        # new page id -> clone / fresh node
        self.nodes: dict[PageId, Node] = {}
        # old page id -> its clone's new page id (and the reverse)
        self.alias: dict[PageId, PageId] = {}
        self.reverse: dict[PageId, PageId] = {}
        # new ids created from nothing (splits, root growth)
        self.created: set[PageId] = set()
        # new ids that were actually mutated (clean clones get reverted)
        self.dirty: set[PageId] = set()
        # old pages the tree freed (deferred until the epoch drains) and
        # session-allocated ids freed again before ever being published
        self.freed_base: list[PageId] = []
        self.freed_created: list[PageId] = []

    def get(self, page_id: PageId) -> Node:
        node = self.nodes.get(page_id)
        if node is not None:
            self.store.counters.node_accesses += 1
            return node
        clone_id = self.alias.get(page_id)
        if clone_id is not None:
            self.store.counters.node_accesses += 1
            return self.nodes[clone_id]
        base = self.store._base_get(page_id)
        clone_id = self.store._allocate()
        clone = base.clone(clone_id)
        self.alias[page_id] = clone_id
        self.reverse[clone_id] = page_id
        self.nodes[clone_id] = clone
        return clone

    def create_node(self, level: int) -> Node:
        page_id = self.store._allocate()
        node = Node(page_id=page_id, level=level)
        self.nodes[page_id] = node
        self.created.add(page_id)
        self.dirty.add(page_id)
        return node

    def mark_dirty(self, node: Node) -> None:
        if node.page_id not in self.nodes:
            raise RuntimeError(
                f"page {node.page_id} was mutated outside the shadow session"
            )
        self.dirty.add(node.page_id)

    def free(self, page_id: PageId) -> None:
        node = self.nodes.pop(page_id, None)
        if node is not None:
            # Freeing a session node: return the fresh id at publish and
            # (for a clone) defer the original it shadowed.
            self.dirty.discard(page_id)
            self.freed_created.append(page_id)
            if page_id in self.created:
                self.created.discard(page_id)
            else:
                original = self.reverse.pop(page_id)
                self.alias.pop(original, None)
                self.freed_base.append(original)
            return
        clone_id = self.alias.get(page_id)
        if clone_id is not None:
            self.free(clone_id)
            return
        # A base page freed without ever being cloned (defensive; the
        # tree always frees nodes it holds, which are clones).
        self.freed_base.append(page_id)


_POLICIES = {"lru": LRUPolicy, "fifo": FIFOPolicy, "clock": ClockPolicy}


class NodeStore:
    """Paginated node storage with buffer accounting.

    Parameters
    ----------
    n_bits:
        Signature length; needed to decode pages.
    page_size:
        Disk page size; also derives the default node capacity.
    frames:
        Buffer budget in pages (``None`` = everything resident; accesses
        are still counted, misses only occur on first touch).
    policy:
        Replacement policy name (``"lru"``, ``"fifo"``, ``"clock"``).
    mode:
        ``"sim"`` (default) keeps all nodes in memory and counts traffic;
        ``"disk"`` serialises evicted nodes through ``pager`` and decodes
        them back on fault.
    compress:
        Use the Section-3.2 sparse-signature encoding on pages.
    multipage:
        Allow disk-mode nodes to span a chain of pages (see the module
        docstring).  Off by default: a node that outgrows its page then
        raises :class:`~repro.storage.page.PageOverflowError`.
    pager:
        Backing page store for ``disk`` mode (default: fresh
        :class:`MemoryPager`; pass a ``FilePager`` to hit a real file).
    wal:
        Optional :class:`~repro.storage.wal.WriteAheadLog`.  When set (disk
        mode only), :meth:`commit` makes the state crash-recoverable: it
        forces dirty nodes to the pager and appends the touched page
        images plus a metadata blob to the log.
    """

    def __init__(
        self,
        n_bits: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        frames: int | None = 256,
        policy: str = "lru",
        mode: str = "sim",
        compress: bool = False,
        multipage: bool = False,
        pager: Pager | None = None,
        wal: WriteAheadLog | None = None,
    ):
        if wal is not None and mode != "disk":
            raise ValueError("a write-ahead log requires mode='disk'")
        if mode not in ("sim", "disk"):
            raise ValueError(f"mode must be 'sim' or 'disk', got {mode!r}")
        if policy not in _POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {sorted(_POLICIES)}")
        self.n_bits = n_bits
        self.page_size = page_size
        self.mode = mode
        self.compress = compress
        self.multipage = multipage
        self.counters = StoreCounters()
        self._pager = pager if pager is not None else MemoryPager(page_size=page_size)
        self._frames = frames
        self._policy: ReplacementPolicy = _POLICIES[policy]()
        self._resident: dict[PageId, Node] = {}
        # sim mode: authoritative node table (resident-set is an overlay)
        self._all: dict[PageId, Node] = {}
        self._dirty: set[PageId] = set()
        # disk mode: identity map of every decoded node still referenced
        # somewhere — an evicted node that an ancestor still holds (and
        # may still mutate) must be resurrected as the *same* object, not
        # re-decoded from stale page bytes.
        self._live: "weakref.WeakValueDictionary[PageId, Node]" = (
            weakref.WeakValueDictionary()
        )
        # multipage mode: continuation pages of each chained primary page
        self._chains: dict[PageId, list[PageId]] = {}
        self.wal = wal
        # pages touched / freed since the last commit (WAL bookkeeping)
        self._uncommitted: set[PageId] = set()
        self._freed_log: list[PageId] = []
        # pages allocated since the last commit, and frees of the other
        # pages, which wait for the commit that logs them (see _release)
        self._fresh: set[PageId] = set()
        self._pending_frees: list[PageId] = []
        # corruption accounting: pages restored from their committed WAL
        # image, and pages that could not be restored at all
        self.rescued: set[PageId] = set()
        self.quarantined: set[PageId] = set()
        # populated by repro.sgtree.persistence.recover_tree
        self.last_recovery: RecoveryReport | None = None
        # how often read() found a node's arrays ready (hits) vs had to
        # produce them (misses); the ``decode_cache_*`` series
        self.decode_cache = SimpleNamespace(stats=BufferStats())
        # active copy-on-write overlay; store calls from its writer
        # thread are routed into the session, every other thread keeps
        # reading the base tables (see ShadowSession)
        self._shadow: "ShadowSession | None" = None
        # optional repro.telemetry.Telemetry; None is the fast path —
        # every hook below is a single `is not None` check when disabled
        self.telemetry = None

    def attach_telemetry(self, telemetry, name: str = "default") -> None:
        """Wire this store into a telemetry bundle.

        Registers pull-model collectors for the store counters, the
        pager's I/O stats and (when present) the write-ahead log's
        stats, all labelled ``store=name``; structural events
        (page rescues/quarantines, WAL commits/checkpoints) are emitted
        through ``telemetry.events`` from then on.
        """
        self.telemetry = telemetry
        registry = telemetry.registry
        self.counters.register_metrics(registry, store=name)
        labelnames = ("store",)
        labels = {"store": name}
        registry.gauge(
            "sgtree_pages_rescued",
            "Pages restored from their committed WAL image", labelnames,
        ).labels(**labels).set_function(lambda: len(self.rescued))
        registry.gauge(
            "sgtree_pages_quarantined",
            "Pages that failed verification with no rescue image", labelnames,
        ).labels(**labels).set_function(lambda: len(self.quarantined))
        registry.gauge(
            "sgtree_buffer_resident_pages",
            "Nodes currently resident in the buffer", labelnames,
        ).labels(**labels).set_function(lambda: len(self._resident))
        self.decode_cache.stats.register_metrics(
            registry, prefix="decode_cache", store=name
        )
        stats = getattr(self._pager, "stats", None)
        if stats is not None and hasattr(stats, "register_metrics"):
            stats.register_metrics(registry, store=name)
        if self.wal is not None:
            self.wal.stats.register_metrics(registry, store=name)

    def _emit(self, event_type: str, **fields: object) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(event_type, **fields)

    @property
    def pager(self) -> Pager:
        return self._pager

    @property
    def frames(self) -> int | None:
        return self._frames

    def resize(self, frames: int | None) -> None:
        """Change the buffer budget at runtime."""
        self._frames = frames
        if frames is not None:
            while len(self._resident) > frames:
                self._evict_one()

    def create_node(self, level: int) -> Node:
        """Allocate a page and return its fresh, resident node."""
        shadow = self._shadow
        if shadow is not None and shadow.thread_id == threading.get_ident():
            return shadow.create_node(level)
        page_id = self._allocate()
        node = Node(page_id=page_id, level=level)
        if self.mode == "sim":
            self._all[page_id] = node
        else:
            self._live[page_id] = node
        self._admit(node)
        self._dirty.add(page_id)
        self._register_uncommitted(page_id)
        return node

    def _register_uncommitted(self, page_id: PageId) -> None:
        """Track a live page for the next WAL commit batch.

        Pagers recycle freed slots, so an id freed earlier in this batch
        may come back to life here.  Its pending free record must be
        cancelled: ``commit`` appends writes before frees, so a stale
        free would replay *after* the recycled page's write and delete a
        live page on recovery.
        """
        if self.wal is None:
            return
        self._uncommitted.add(page_id)
        try:
            self._freed_log.remove(page_id)
        except ValueError:
            pass

    def get(self, page_id: PageId) -> Node:
        """Fetch a node, counting the access and any buffer miss.

        While a shadow session is active, the writer thread is handed a
        private clone under a fresh page id instead (readers keep
        resolving published ids below).
        """
        shadow = self._shadow
        if shadow is not None and shadow.thread_id == threading.get_ident():
            return shadow.get(page_id)
        return self._base_get(page_id)

    def _base_get(self, page_id: PageId) -> Node:
        self.counters.node_accesses += 1
        node = self._resident.get(page_id)
        if node is not None:
            self._policy.record_access(page_id)
            return node
        self.counters.random_ios += 1
        node = self._fault(page_id)
        self._admit(node)
        return node

    def read(self, page_id: PageId) -> Node:
        """Fetch a node with its read arrays built — what search visits.

        The read-side twin of :meth:`get`, with the same accounting (one
        node access, and a random I/O exactly when the page is not
        resident in the buffer).  The arrays stay on the node until it
        mutates, so the buffer alone decides what a read costs in either
        store mode.  A ``decode_cache`` miss is a read that had to
        produce the arrays, by decoding the page or by stacking the
        entry list; a hit found them ready.
        """
        decodes = self.counters.node_decodes
        node = self.get(page_id)
        stats = self.decode_cache.stats
        # ready arrays, or an empty node with none to build
        if hasattr(node, "_refs") or not node._entries:
            if self.counters.node_decodes == decodes:
                stats.hits += 1
                return node
        else:
            node._stack_arrays()
        stats.misses += 1
        return node

    def mark_dirty(self, node: Node) -> None:
        """Note that a node mutated and must be flushed before eviction.

        In disk mode a dirty node is re-admitted to the resident set if it
        was evicted meanwhile, so the eviction/flush machinery always sees
        (and writes back) the mutated object.
        """
        node.invalidate()
        shadow = self._shadow
        if shadow is not None and shadow.thread_id == threading.get_ident():
            shadow.mark_dirty(node)
            return
        self._dirty.add(node.page_id)
        self._register_uncommitted(node.page_id)
        if self.mode == "sim":
            if node.page_id not in self._all:
                self._all[node.page_id] = node
        else:
            self._live[node.page_id] = node
            if node.page_id not in self._resident:
                self._admit(node)

    def free(self, page_id: PageId) -> None:
        """Release a node's page (and any continuation pages).

        Under an active shadow session the free is only *recorded*: pages
        a published snapshot references must outlive every reader pinned
        to that snapshot, so the actual release happens at epoch
        reclamation (:meth:`reclaim_pages`), not here.
        """
        shadow = self._shadow
        if shadow is not None and shadow.thread_id == threading.get_ident():
            shadow.free(page_id)
            return
        self._base_free(page_id)

    def _base_free(self, page_id: PageId) -> None:
        self._resident.pop(page_id, None)
        self._policy.remove(page_id)
        self._dirty.discard(page_id)
        self._all.pop(page_id, None)
        self._live.pop(page_id, None)
        if self.multipage and self.mode == "disk":
            for continuation in self._chain_of(page_id):
                self._release(continuation)
        self._chains.pop(page_id, None)
        self._release(page_id)

    def _allocate(self) -> PageId:
        page_id = self._pager.allocate()
        if self.wal is not None:
            self._fresh.add(page_id)
        return page_id

    def _release(self, page_id: PageId) -> None:
        """Return a page to the pager, or park it until the next commit.

        With a write-ahead log, a page the last commit may reference
        keeps its slot until :meth:`commit` has synced the record of its
        free: the pager zeroes a slot it recycles, and a committed page
        with no log image (a bulk-loaded one) could not be redone after a
        crash.  Pages allocated since the last commit recycle at once.
        """
        if self.wal is None:
            self._pager.free(page_id)
            return
        self._freed_log.append(page_id)
        self._uncommitted.discard(page_id)
        if page_id in self._fresh:
            self._fresh.discard(page_id)
            self._pager.free(page_id)
        else:
            self._pending_frees.append(page_id)

    # -- copy-on-write shadow sessions --------------------------------------

    def begin_shadow(self) -> ShadowSession:
        """Open a copy-on-write overlay for the calling (writer) thread.

        Until :meth:`commit_shadow` or :meth:`abort_shadow`, every store
        call from this thread is routed into the session; other threads
        keep reading the untouched base tables.
        """
        if self._shadow is not None:
            raise RuntimeError("a shadow session is already active")
        session = ShadowSession(self)
        self._shadow = session
        return session

    def commit_shadow(self, session: ShadowSession) -> ShadowOutcome:
        """Install a session's surviving clones and report what changed.

        Clean clones — fetched during traversal but never dirtied, hence
        never mutated (every tree mutation is followed by ``mark_dirty``)
        — are reverted and their fresh ids returned to the pager.  The
        survivors get their directory refs rewritten through the old→new
        alias map so the published tree only references replacement
        pages, then land in the base tables as dirty, uncommitted pages.
        Superseded originals are **not** freed here: the caller defers
        them through its epoch machinery (see
        :meth:`reclaim_pages`), because pinned readers may still be
        traversing them.
        """
        if self._shadow is not session:
            raise RuntimeError("commit of a shadow session that is not active")
        self._shadow = None
        reverted: set[PageId] = set()
        for clone_id in list(session.nodes):
            if clone_id in session.dirty:
                continue
            original = session.reverse.pop(clone_id, None)
            if original is None:
                continue  # created nodes are always dirty
            del session.nodes[clone_id]
            del session.alias[original]
            reverted.add(clone_id)
            self._pager.free(clone_id)
        mapping = dict(session.alias)
        for node in session.nodes.values():
            if node.level > 0:
                changed = False
                for entry in node.entries:
                    replacement = mapping.get(entry.ref)
                    if replacement is not None:
                        entry.ref = replacement
                        changed = True
                    elif entry.ref in reverted:
                        raise RuntimeError(
                            f"directory page {node.page_id} references "
                            f"reverted clone {entry.ref}"
                        )
                if changed:
                    node.invalidate()
        for page_id, node in session.nodes.items():
            if self.mode == "sim":
                self._all[page_id] = node
            else:
                self._live[page_id] = node
            self._admit(node)
            self._dirty.add(page_id)
            self._register_uncommitted(page_id)
        for page_id in session.freed_created:
            self._pager.free(page_id)
        return ShadowOutcome(
            mapping=mapping,
            superseded=list(mapping) + list(session.freed_base),
            installed=len(session.nodes),
            created=len(session.created),
        )

    def abort_shadow(self, session: ShadowSession) -> None:
        """Throw a session away: base tables untouched, fresh ids returned."""
        if self._shadow is not session:
            raise RuntimeError("abort of a shadow session that is not active")
        self._shadow = None
        for page_id in session.nodes:
            self._pager.free(page_id)
        for page_id in session.freed_created:
            self._pager.free(page_id)

    def reclaim_pages(self, page_ids) -> int:
        """Actually free superseded pages once their epoch drained.

        The deferred half of a copy-on-write publish: runs the ordinary
        free path (buffer, WAL free-log, pager) for every page, so
        crash recovery and space accounting see the frees exactly as if
        they had happened eagerly.
        """
        count = 0
        for page_id in page_ids:
            self._base_free(page_id)
            count += 1
        return count

    def flush(self) -> None:
        """Write back every dirty resident node (disk mode)."""
        if self.mode != "disk":
            self._dirty.clear()
            return
        for page_id in sorted(self._dirty):
            node = self._resident.get(page_id)
            if node is None:
                node = self._live.get(page_id)
            if node is not None:
                self._write_node(node)
        self._dirty.clear()

    def clear_cache(self) -> None:
        """Flush and evict everything — a cold buffer pool.

        Read arrays that are only a cache of an entry list are dropped
        too, so a "cold cache" measurement stacks them again.  A node in
        array form keeps them: they are its state.
        """
        if self.mode == "disk":
            self.flush()
        for page_id in list(self._resident):
            self._policy.remove(page_id)
        self._resident.clear()
        for node in list(self._all.values()) + list(self._live.values()):
            if node._entries is not None:
                node.invalidate()

    def commit(self, meta: dict | None = None) -> None:
        """Force dirty nodes to the pager and seal a WAL commit batch.

        After a crash, :func:`repro.storage.wal.recover` restores the page
        store to exactly this state (force-at-commit redo logging).
        No-op without an attached log.
        """
        if self.wal is None:
            self.flush()
            return
        records_before = self.wal.stats.records
        bytes_before = self.wal.stats.bytes_written
        self.flush()
        for page_id in sorted(self._uncommitted):
            try:
                page = self._pager.read(page_id)
            except PageNotFoundError:
                continue  # touched, then freed before the commit
            self.wal.append_write(page_id, page.data)
        for page_id in self._freed_log:
            self.wal.append_free(page_id)
        if meta is not None:
            self.wal.append_meta(meta)
        self.wal.append_commit()
        for page_id in self._pending_frees:
            self._pager.free(page_id)
        self._pending_frees.clear()
        self._fresh.clear()
        self._uncommitted.clear()
        self._freed_log.clear()
        self._emit(
            "wal_commit",
            records=self.wal.stats.records - records_before,
            bytes_written=self.wal.stats.bytes_written - bytes_before,
        )

    def checkpoint(self, meta: dict | None = None) -> None:
        """Commit, then truncate the log (the page file is the state).

        The pager is handed to the log so the page file is fsynced
        *before* the truncation — the POSIX ordering that keeps a
        durable copy of every committed page at all times.
        """
        self.commit(meta)
        if self.wal is None:
            return
        if self.telemetry is None:
            self.wal.checkpoint(self._pager)
            return
        size_before = self._wal_size()
        self.wal.checkpoint(self._pager)
        self._emit(
            "wal_checkpoint",
            bytes_dropped=max(0, size_before - self._wal_size()),
        )

    def _wal_size(self) -> int:
        try:
            return os.path.getsize(self.wal.path)
        except (OSError, AttributeError, TypeError):
            return 0

    def default_capacity(self) -> int:
        """Node fan-out derived from the page size (Section 3: node = page)."""
        return capacity_for_page(self.page_size, self.n_bits, self.compress)

    def __len__(self) -> int:
        if self.mode == "sim":
            return len(self._all)
        return len(self._pager)

    # -- internals ---------------------------------------------------------

    def _admit(self, node: Node) -> None:
        if self._frames is not None:
            while len(self._resident) >= self._frames:
                self._evict_one()
        self._resident[node.page_id] = node
        self._policy.admit(node.page_id)

    def _evict_one(self) -> None:
        victim_id = self._policy.evict()
        # pop-with-default: a concurrent epoch reclaim may have freed the
        # victim between the policy's choice and this pop
        victim = self._resident.pop(victim_id, None)
        if victim is None:
            return
        if victim_id in self._dirty:
            if self.mode == "disk":
                self._write_node(victim)
            self._dirty.discard(victim_id)

    def _fault(self, page_id: PageId) -> Node:
        if self.mode == "sim":
            try:
                return self._all[page_id]
            except KeyError:
                raise KeyError(f"unknown page id {page_id}") from None
        alive = self._live.get(page_id)
        if alive is not None:
            # The object is still referenced (and possibly mutated) by a
            # caller — reuse it rather than decoding stale page bytes.
            return alive
        node = self._load_node(page_id)
        self._live[page_id] = node
        return node

    def _load_node(self, page_id: PageId) -> Node:
        """Read and decode a node's bytes, degrading gracefully.

        Every page, raw or compressed, decodes through
        :func:`~repro.storage.serialization.decode_node` to arrays, and
        the node keeps them as its state (:meth:`Node.from_arrays`): a
        fault builds no ``Entry`` or ``Signature`` object, and on a raw
        page the matrix and refs are views of the page bytes.  Each
        decode counts one ``node_decodes``.

        A page that fails its checksum or does not decode is first
        **rescued**: if a write-ahead log is attached, the page's last
        *committed* image is replayed from the log and the read retried.
        A page with no committed image is **quarantined** and the typed
        :class:`~repro.errors.PageCorruptError` propagates — callers (and
        the scrubber) can then report which subtree, and roughly how many
        transactions, are lost, instead of decoding garbage.
        """
        tried: set[PageId] = set()
        while True:
            try:
                data = self._read_chained(page_id)
                self.counters.node_decodes += 1
                arrays = decode_node(data, self.n_bits)
                if arrays.refs.shape[0] == 0:
                    return Node(page_id=page_id, level=arrays.level)
                return Node.from_arrays(
                    page_id, arrays.level, self.n_bits, arrays.matrix,
                    arrays.refs, arrays.mins, arrays.maxs, arrays.counts,
                )
            except PageCorruptError as exc:
                bad = exc.page_id if exc.page_id is not None else page_id
                failure = exc
            except NodeDecodeError as exc:
                bad = page_id
                failure = PageCorruptError(
                    page_id, f"undecodable node payload: {exc}"
                )
            if bad in tried or not self._rescue_page(bad):
                self.quarantined.add(bad)
                self._emit("page_quarantined", page_id=bad, reason=str(failure))
                raise failure
            tried.add(bad)

    def _rescue_page(self, page_id: PageId) -> bool:
        """Restore a page from its last committed WAL image, if any."""
        if self.wal is None:
            return False
        self.wal.flush()
        image: bytes | None = None
        batch_image: bytes | None = None
        for record in LogScanner(self.wal.path):
            if record.op == OP_WRITE and record.page_id == page_id:
                batch_image = record.data
            elif record.op == OP_COMMIT and batch_image is not None:
                image = batch_image
                batch_image = None
        if image is None:
            return False
        if page_id in self._uncommitted:
            logger.warning(
                "page %d had uncommitted changes; its committed WAL image "
                "loses everything since the last commit", page_id,
            )
        self._pager.ensure(page_id)
        page = Page(page_id=page_id, capacity=self.page_size)
        page.write(image)
        self._pager.write(page)
        self.rescued.add(page_id)
        self.quarantined.discard(page_id)
        logger.warning(
            "page %d failed verification; restored from its committed "
            "WAL image", page_id,
        )
        self._emit("page_rescued", page_id=page_id)
        return True

    def _write_node(self, node: Node) -> None:
        data = encode_node(node.page_arrays(), self.n_bits, compress=self.compress)
        self._write_chained(node.page_id, data)
        self.counters.node_writes += 1

    # -- multipage chaining -------------------------------------------------
    #
    # Primary-page layout: <u32 total_len> <u16 n_cont> <u64 cont_id>*n
    # followed by the first chunk of the node bytes; each continuation
    # page holds the next page_size bytes verbatim.

    _CHAIN_HEADER = struct.Struct("<IH")
    _CHAIN_ID = struct.Struct("<q")

    def _chain_of(self, page_id: PageId) -> list[PageId]:
        """Continuation pages of a primary page (reads it if unknown)."""
        cached = self._chains.get(page_id)
        if cached is not None:
            return cached
        try:
            page = self._pager.read(page_id)
        except (KeyError, PageCorruptError):
            return []
        if len(page.data) < self._CHAIN_HEADER.size:
            return []
        _, n_cont = self._CHAIN_HEADER.unpack_from(page.data)
        offset = self._CHAIN_HEADER.size
        chain = [
            self._CHAIN_ID.unpack_from(page.data, offset + i * self._CHAIN_ID.size)[0]
            for i in range(n_cont)
        ]
        self._chains[page_id] = chain
        return chain

    def _write_chained(self, page_id: PageId, data: bytes) -> None:
        if not self.multipage:
            page = Page(page_id=page_id, capacity=self.page_size)
            page.write(data)
            self._pager.write(page)
            return
        header = self._CHAIN_HEADER
        # Minimal number of continuation pages such that the primary
        # chunk plus full continuation pages cover the payload.
        n_cont = 0
        while True:
            primary_room = self.page_size - header.size - n_cont * self._CHAIN_ID.size
            if primary_room < 0:
                raise ValueError(
                    f"page size {self.page_size} too small for a "
                    f"{len(data)}-byte node chain"
                )
            if primary_room + n_cont * self.page_size >= len(data):
                break
            n_cont += 1
        chain = self._chains.get(page_id, self._chain_of(page_id))
        while len(chain) < n_cont:
            chain.append(self._allocate())
        while len(chain) > n_cont:
            self._release(chain.pop())
        self._chains[page_id] = chain
        for continuation in chain:
            self._register_uncommitted(continuation)
        primary_room = self.page_size - header.size - n_cont * self._CHAIN_ID.size
        blob = bytearray(header.pack(len(data), n_cont))
        for continuation in chain:
            blob += self._CHAIN_ID.pack(continuation)
        blob += data[:primary_room]
        page = Page(page_id=page_id, capacity=self.page_size)
        page.write(bytes(blob))
        self._pager.write(page)
        cursor = primary_room
        for continuation in chain:
            chunk = data[cursor : cursor + self.page_size]
            cursor += self.page_size
            cont_page = Page(page_id=continuation, capacity=self.page_size)
            cont_page.write(chunk)
            self._pager.write(cont_page)

    def _read_chained(self, page_id: PageId) -> bytes:
        page = self._pager.read(page_id)
        if not self.multipage:
            return page.data
        try:
            total_len, n_cont = self._CHAIN_HEADER.unpack_from(page.data)
            offset = self._CHAIN_HEADER.size
            chain = [
                self._CHAIN_ID.unpack_from(page.data, offset + i * self._CHAIN_ID.size)[0]
                for i in range(n_cont)
            ]
        except struct.error as exc:
            raise PageCorruptError(page_id, f"bad multipage header: {exc}") from exc
        self._chains[page_id] = chain
        data = bytearray(page.data[offset + n_cont * self._CHAIN_ID.size :])
        for continuation in chain:
            # Each continuation page is one extra random I/O.
            self.counters.random_ios += 1
            data += self._pager.read(continuation).data
        return bytes(data[:total_len])


__all__ = [
    "Entry", "Node", "NodeStore", "StoreCounters",
    "ShadowOutcome", "ShadowSession",
]
