"""Copy-on-write snapshot concurrency for the SG-tree.

The core :class:`~repro.sgtree.tree.SGTree` is single-threaded, like the
paper's implementation.  :class:`ConcurrentSGTree` makes it safely
shareable with a **copy-on-write, epoch-based snapshot protocol** (see
``docs/concurrency.md`` for the full model):

* Readers pin an immutable :class:`TreeSnapshot` — root page id,
  generation, pager view — at entry and traverse it with **zero latch
  acquisitions**.  The pin itself is wait-free on CPython (a single
  GIL-atomic list append; see :mod:`repro.storage.epoch`).
* Writers run each mutation inside a shadow session
  (:class:`~repro.sgtree.node.ShadowSession`): the root-to-leaf path
  being mutated is cloned into **fresh pages** the published tree never
  references, then the new root is published with one atomic pointer
  swap and a generation bump.  A reader that pinned before the publish
  keeps its old snapshot; one that pins after it sees the new tree —
  nobody ever sees a half-mutated node.
* Superseded pages are reclaimed through epoch-based deferral
  (:class:`~repro.storage.epoch.EpochManager`): a page a snapshot
  references is freed only after the last reader pinned at or before
  that snapshot's generation drains.

Memory visibility needs no fences beyond CPython's: the publish is one
reference assignment (``self._published = snapshot``), readers load that
reference once, and every object reachable from a snapshot is frozen
before the assignment happens-before any reader can observe it (the GIL
serialises the bytecode either side of the swap).

``disk``-mode stores keep one extra rule: page faults and write-back
mutate shared buffer state that is not safe to interleave, so disk reads
and writes serialise on an internal I/O lock (``serial_reads``), held
for the whole of each snapshot query.  The
wait-free path is the default ``sim`` mode, where reads only perform
GIL-atomic cache touches.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable
from contextlib import nullcontext

from ..core.signature import Signature
from ..core.transaction import Transaction
from ..storage.epoch import Epoch, EpochManager
from .node import ShadowOutcome
from .tree import SGTree

__all__ = ["TreeSnapshot", "PinnedSnapshot", "ConcurrentSGTree"]

#: The read surface of a pinned snapshot and of :class:`ConcurrentSGTree`:
#: each name runs the :class:`SGTree` method of the same name, arguments
#: passed through unchanged.
QUERY_METHODS = frozenset({
    "nearest", "batch_nearest", "range_query", "batch_range_query",
    "containment_query", "subset_query", "equality_query",
})


class TreeSnapshot:
    """One published, immutable version of the index.

    ``tree`` is a read-only facade (:meth:`SGTree._attach`) over the
    shared store, fixed to the root page id and tree shape at publish
    time.  Because writers only ever install *fresh* pages and never
    mutate a published one, every page id reachable from this root keeps
    resolving to exactly the bytes it had at publish — traversals here
    need no lock and always return results bit-identical for this
    generation.  (A disk-mode facade carries the owner's I/O lock, which
    :meth:`SGTree._timed` holds for the whole of each query.)

    Snapshots are handed out pinned (:class:`PinnedSnapshot`); the pin
    is what delays reclamation of pages this snapshot references.
    """

    __slots__ = ("tree", "generation", "epoch", "root_id", "size", "height")

    def __init__(self, tree: SGTree, generation: int, epoch: Epoch):
        self.tree = tree
        self.generation = generation
        self.epoch = epoch
        self.root_id = tree.root_id
        self.size = len(tree)
        self.height = tree.height

    @property
    def n_bits(self) -> int:
        return self.tree.n_bits

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"TreeSnapshot(generation={self.generation}, "
            f"root={self.root_id}, size={self.size})"
        )


class PinnedSnapshot:
    """A :class:`TreeSnapshot` plus the reader's epoch pin.

    Use as a context manager (``with index.snapshot() as snap:``) or
    call :meth:`release` explicitly; releasing twice is a no-op.  The
    :data:`QUERY_METHODS` run on the snapshot's read-only tree; every
    other snapshot attribute (``generation``, ``size``, ...) is
    available directly on the pinned handle.  Nothing that mutates is.
    """

    __slots__ = ("_owner", "_snapshot", "_token")

    def __init__(self, owner: "ConcurrentSGTree", snapshot: TreeSnapshot,
                 token: object):
        self._owner = owner
        self._snapshot = snapshot
        self._token = token

    @property
    def snapshot(self) -> TreeSnapshot:
        return self._snapshot

    def release(self) -> None:
        """Drop the pin (idempotent); may trigger an epoch collection."""
        token, self._token = self._token, None
        if token is not None:
            self._owner._unpin(self._snapshot, token)

    def __enter__(self) -> "PinnedSnapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __getattr__(self, name: str):
        if name in QUERY_METHODS:
            return getattr(self._snapshot.tree, name)
        return getattr(self._snapshot, name)

    def __len__(self) -> int:
        return len(self._snapshot)

    def __repr__(self) -> str:
        state = "released" if self._token is None else "pinned"
        return f"PinnedSnapshot({self._snapshot!r}, {state})"


def _pinned(name: str):
    """A :class:`ConcurrentSGTree` query: pin, run ``name``, unpin."""

    def query(self, *args, **kwargs):
        with self.snapshot() as snap:
            return getattr(snap, name)(*args, **kwargs)

    query.__name__ = name
    query.__qualname__ = f"ConcurrentSGTree.{name}"
    query.__doc__ = (
        f"Pin the published snapshot and run :meth:`SGTree.{name}` on it."
    )
    return query


class ConcurrentSGTree:
    """Copy-on-write snapshot-published SG-tree: wait-free readers,
    serialized writers, epoch-deferred reclamation.

    Wraps an existing :class:`SGTree` (or builds one from the given
    constructor arguments) and exposes its update methods plus the
    :data:`QUERY_METHODS`, each of which pins the current snapshot for
    one call and passes its arguments through; to run several
    queries against one consistent version, hold a pin explicitly::

        with index.snapshot() as snap:
            a = snap.nearest(q1, k=5)
            b = snap.range_query(q2, 3)   # same generation as ``a``

    ``sim``-mode stores give the wait-free read path (reads only perform
    GIL-atomic cache touches).  ``disk``-mode stores fault and write
    back pages through shared buffer state, so their reads serialise on
    an internal I/O lock — pass ``serial_reads=True`` to force that for
    a sim store too.
    """

    def __init__(
        self,
        tree: SGTree | None = None,
        serial_reads: bool = False,
        **tree_kwargs: object,
    ):
        if tree is None:
            tree = SGTree(**tree_kwargs)
        self._tree = tree
        # serialises writers (and epoch advancement / collection)
        self._write_lock = threading.Lock()
        # serialises disk-mode store access (page faults, write-back)
        self._io_lock = threading.RLock()
        self._serial_reads = serial_reads or tree.store.mode == "disk"
        self._epochs = EpochManager(0)
        self._publishes = 0
        self._reclaimed_pages = 0
        self._published = self._make_snapshot(tree, 0, self._epochs.current)

    # -- snapshot plumbing -------------------------------------------------

    def _make_snapshot(self, tree: SGTree, generation: int,
                       epoch: Epoch) -> TreeSnapshot:
        facade = SGTree._attach(
            tree.store, tree.root_id, tree.height, len(tree),
            tree.max_entries, tree.min_fill, tree.split_policy,
            tree.choose_policy, tree.metric,
        )
        if self._serial_reads:
            facade._io_lock = self._io_lock
        return TreeSnapshot(facade, generation, epoch)

    def snapshot(self) -> PinnedSnapshot:
        """Pin and return the currently published snapshot (wait-free)."""
        snapshot, token = self._pin()
        return PinnedSnapshot(self, snapshot, token)

    def _pin(self) -> "tuple[TreeSnapshot, object]":
        # Revalidation loop: pin the epoch, then re-check that the
        # snapshot is still the published one.  A collector only frees
        # pages after its publish made a newer snapshot visible, and it
        # scans pins after that; so a pin that lands too late to be
        # counted necessarily fails this recheck (generations never go
        # backwards) and retries on the newer snapshot without ever
        # having traversed the old one.
        while True:
            snapshot = self._published
            token = snapshot.epoch.pin()
            if snapshot is self._published:
                return snapshot, token
            snapshot.epoch.unpin(token)

    def _unpin(self, snapshot: TreeSnapshot, token: object) -> None:
        snapshot.epoch.unpin(token)
        if self._epochs.pending:
            self._try_collect()

    def _try_collect(self) -> None:
        # Readers never wait on writers: collect only if the writer
        # mutex is free, otherwise leave the garbage to the next publish.
        if not self._write_lock.acquire(blocking=False):
            return
        try:
            self._epochs.collect()
        finally:
            self._write_lock.release()

    def _maybe_io(self):
        return self._io_lock if self._serial_reads else nullcontext()

    # -- updates (serialized writers, published as snapshots) --------------

    def _mutate(self, fn):
        """Run one mutation inside a shadow session and publish it.

        The live tree is never structurally changed in place: ``fn``
        works against copy-on-write clones under fresh page ids, and on
        success the clones are installed and a new snapshot published
        atomically.  On failure the session is aborted and the tree's
        catalogue (root/height/size) restored — readers never see the
        partial mutation either way.
        """
        with self._write_lock:
            tree = self._tree
            store = tree.store
            with self._maybe_io():
                saved = (tree._root_id, tree._height, tree._size)
                session = store.begin_shadow()
                try:
                    result = fn(tree)
                except BaseException:
                    store.abort_shadow(session)
                    tree._root_id, tree._height, tree._size = saved
                    raise
                outcome = store.commit_shadow(session)
                tree._root_id = outcome.resolve(tree._root_id)
                if outcome.installed or outcome.superseded:
                    self._publish_locked(tree, outcome)
            return result

    def _publish_locked(self, tree: SGTree,
                        outcome: "ShadowOutcome | None") -> None:
        """Publish the tree's current state as a new snapshot.

        Caller holds ``_write_lock``.  The single ``self._published``
        assignment is the linearization point; everything the snapshot
        references is immutable before it runs.
        """
        started = time.perf_counter()
        generation = self._published.generation + 1
        epoch = self._epochs.advance(generation)
        superseded = list(outcome.superseded) if outcome is not None else []
        if superseded:
            store = tree.store
            self._epochs.defer(
                lambda: self._reclaim(store, superseded, generation)
            )
        snapshot = self._make_snapshot(tree, generation, epoch)
        self._published = snapshot
        self._publishes += 1
        self._epochs.collect()
        telemetry = tree.store.telemetry
        if telemetry is not None:
            telemetry.emit(
                "snapshot_publish",
                generation=generation,
                pages_cloned=outcome.installed if outcome is not None else 0,
                pages_superseded=len(superseded),
                reclaim_pending=self._epochs.pending,
                seconds=time.perf_counter() - started,
            )
            counter = getattr(telemetry, "snapshot_publishes_total", None)
            if counter is not None:
                counter.inc()

    def _reclaim(self, store, pages: "list[int]", generation: int) -> None:
        """Free a retired generation's pages (runs when its epoch drains)."""
        if store.mode == "disk":
            with self._io_lock:
                freed = store.reclaim_pages(pages)
        else:
            freed = store.reclaim_pages(pages)
        self._reclaimed_pages += freed
        telemetry = store.telemetry
        if telemetry is not None:
            telemetry.emit(
                "epoch_reclaimed", generation=generation, pages_freed=freed
            )

    def insert(self, tid_or_transaction, signature: Signature | None = None) -> None:
        self._mutate(lambda tree: tree.insert(tid_or_transaction, signature))

    def insert_many(self, transactions: Iterable[Transaction]) -> None:
        # One shadow session for the whole batch: a single publish,
        # readers see all-or-none of it.
        self._mutate(lambda tree: tree.insert_many(transactions))

    def delete(self, tid_or_transaction, signature: Signature | None = None) -> bool:
        return self._mutate(lambda tree: tree.delete(tid_or_transaction, signature))

    def update(self, tid: int, old: Signature, new: Signature) -> bool:
        return self._mutate(lambda tree: tree.update(tid, old, new))

    def commit(self) -> None:
        """Force a WAL commit batch for everything published so far."""
        with self._write_lock, self._maybe_io():
            self._tree.commit()

    def swap(self, tree: SGTree, on_retire=None) -> SGTree:
        """Atomically replace the wrapped tree; returns the old one.

        A whole-tree snapshot publish: queries in flight finish against
        the old tree's snapshot; every query that pins after the swap
        sees the new one.  This is the recovery and hot-reload idiom —
        build the replacement off to the side
        (:func:`~repro.sgtree.persistence.recover_tree`) and swap it in,
        so readers never observe a half-recovered index.

        ``on_retire``, when given, is called with the old tree only
        after the last reader pinned to it drains — the hook for closing
        its pager without yanking pages from under live traversals.
        """
        with self._write_lock:
            old, self._tree = self._tree, tree
            self._serial_reads = self._serial_reads or tree.store.mode == "disk"
            generation = self._published.generation + 1
            epoch = self._epochs.advance(generation)
            if on_retire is not None:
                self._epochs.defer(lambda: on_retire(old))
            self._published = self._make_snapshot(tree, generation, epoch)
            self._publishes += 1
            self._epochs.collect()
            telemetry = tree.store.telemetry
            if telemetry is not None:
                counter = getattr(telemetry, "snapshot_publishes_total", None)
                if counter is not None:
                    counter.inc()
            return old

    # -- reclamation / introspection ---------------------------------------

    @property
    def tree(self) -> SGTree:
        """The wrapped live tree (not thread-safe to touch directly)."""
        return self._tree

    @property
    def generation(self) -> int:
        """Generation of the currently published snapshot."""
        return self._published.generation

    @property
    def publishes(self) -> int:
        """Snapshot publishes since construction (mutations + swaps)."""
        return self._publishes

    @property
    def pending_reclaim(self) -> int:
        """Deferred reclamation actions waiting for readers to drain."""
        return self._epochs.pending

    @property
    def active_pins(self) -> int:
        """Readers currently pinned across all live epochs."""
        return self._epochs.pins()

    @property
    def reclaimed_pages(self) -> int:
        """Superseded pages actually freed so far."""
        return self._reclaimed_pages

    def reclaim(self, timeout: "float | None" = None) -> bool:
        """Collect until the limbo list drains; ``False`` on timeout.

        Blocks (politely — 1 ms polls) while straggling readers hold
        pins on retired epochs.  With no timeout, waits indefinitely.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._write_lock:
                self._epochs.collect()
                if not self._epochs.pending:
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.001)

    @property
    def n_bits(self) -> int:
        """Signature length of the published snapshot.

        Read without pinning: the attribute read is atomic, and a
        concurrent :meth:`swap` at worst yields the other generation's
        value — callers building query signatures must handle the
        resulting bit-width mismatch (a ``ValueError``) by retrying.
        """
        return self._published.tree.n_bits

    def attach_telemetry(self, telemetry, name: str = "default") -> "ConcurrentSGTree":
        """Wire the wrapped tree plus snapshot/epoch gauges into telemetry.

        Beyond the tree's own collectors, registers pull-model gauges for
        the published generation, active reader pins and pending
        reclamation, and a counter of pages reclaimed — the signals
        ``docs/observability.md`` documents for write-heavy serving.
        """
        self._tree.attach_telemetry(telemetry, name)
        registry = telemetry.registry
        labelnames = ("tree",)
        labels = {"tree": name}
        registry.gauge(
            "sgtree_snapshot_generation",
            "Generation of the currently published snapshot", labelnames,
        ).labels(**labels).set_function(lambda: self._published.generation)
        registry.gauge(
            "sgtree_epoch_pins",
            "Readers currently pinned across live epochs", labelnames,
        ).labels(**labels).set_function(self._epochs.pins)
        registry.gauge(
            "sgtree_reclaim_pending",
            "Deferred page reclamations waiting for readers to drain",
            labelnames,
        ).labels(**labels).set_function(lambda: self._epochs.pending)
        registry.counter(
            "sgtree_epoch_pages_reclaimed_total",
            "Superseded pages freed after their epoch drained", labelnames,
        ).labels(**labels).set_function(lambda: self._reclaimed_pages)
        return self

    # -- queries (wait-free snapshot pin per call) -------------------------

    nearest = _pinned("nearest")
    batch_nearest = _pinned("batch_nearest")
    range_query = _pinned("range_query")
    batch_range_query = _pinned("batch_range_query")
    containment_query = _pinned("containment_query")
    subset_query = _pinned("subset_query")
    equality_query = _pinned("equality_query")

    def __len__(self) -> int:
        # The published size is immutable; no pin needed for a scalar.
        return self._published.size

    def __repr__(self) -> str:
        return (
            f"ConcurrentSGTree({self._tree!r}, "
            f"generation={self._published.generation})"
        )
