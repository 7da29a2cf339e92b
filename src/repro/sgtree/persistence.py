"""Saving and reopening SG-trees.

A persisted index is two files:

* ``<path>`` — the page file (fixed-size slots, one node per page,
  written through :class:`~repro.storage.pager.FilePager`);
* ``<path>.meta.json`` — the catalogue entry: signature length, root
  page, height, size, node fan-out and policies, so the tree reopens
  with exactly the configuration it was built with.

:func:`save_tree` works for any tree regardless of its storage mode: a
tree already living on the target page file is simply flushed; anything
else (including ``sim``-mode benchmark trees) is exported node by node.

Example
-------
>>> from repro.sgtree.persistence import load_tree, save_tree
>>> save_tree(tree, "baskets.sgt")                      # doctest: +SKIP
>>> reopened = load_tree("baskets.sgt", frames=64)      # doctest: +SKIP
"""

from __future__ import annotations

import json
import os

from ..errors import RecoveryError
from ..storage.page import PageId
from ..storage.pager import FilePager
from ..storage.serialization import FORMAT_VERSION
from ..storage.wal import WriteAheadLog, read_records, recover
from .node import Entry, NodeStore
from .tree import SGTree

__all__ = ["save_tree", "load_tree", "recover_tree"]


def _meta_path(path: str | os.PathLike) -> str:
    return os.fspath(path) + ".meta.json"


def save_tree(tree: SGTree, path: str | os.PathLike) -> None:
    """Persist ``tree`` to ``path`` (page file) + ``path.meta.json``.

    Overwrites any previous index at that path.
    """
    path = os.fspath(path)
    source = tree.store
    if (
        source.mode == "disk"
        and isinstance(source.pager, FilePager)
        and getattr(source.pager, "_path", None) == path
    ):
        # Already living on the target file: flush in place.
        source.flush()
        root_id = tree.root_id
        page_size = source.page_size
        compress = source.compress
    else:
        # Export: copy the tree node-by-node into a fresh page file.
        if os.path.exists(path):
            os.remove(path)
        pager = FilePager(path, page_size=source.page_size)
        target = NodeStore(
            tree.n_bits,
            page_size=source.page_size,
            frames=64,
            mode="disk",
            compress=source.compress,
            pager=pager,
        )
        root_id = _copy_subtree(tree, tree.root_id, target)
        target.flush()
        pager.close()
        page_size = source.page_size
        compress = source.compress
    meta = dict(tree.catalogue())
    meta["root_id"] = root_id
    meta["page_size"] = page_size
    meta["compress"] = compress
    with open(_meta_path(path), "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2)


def _copy_subtree(tree: SGTree, page_id: PageId, target: NodeStore) -> PageId:
    """Recursively clone a subtree into ``target``; returns the new root id."""
    node = tree.store.get(page_id)
    clone = target.create_node(level=node.level)
    for entry in node.entries:
        if node.is_leaf:
            clone.add(Entry(entry.signature, entry.ref))
        else:
            child_id = _copy_subtree(tree, entry.ref, target)
            clone.add(
                Entry(
                    entry.signature,
                    child_id,
                    min_area=entry.min_area,
                    max_area=entry.max_area,
                    count=entry.count,
                )
            )
    target.mark_dirty(clone)
    return clone.page_id


def load_tree(
    path: str | os.PathLike,
    frames: int | None = 256,
    buffer_policy: str = "lru",
    wal_path: str | os.PathLike | None = None,
) -> SGTree:
    """Reopen a tree persisted by :func:`save_tree`.

    The returned tree owns a :class:`FilePager` over ``path``; call
    ``tree.store.flush()`` (and ``tree.store.pager.close()`` when done)
    after further updates.  Pass ``wal_path`` to attach a write-ahead
    log: commits become crash-recoverable, and a page that fails its
    checksum can be rescued from its last committed WAL image.
    """
    path = os.fspath(path)
    with open(_meta_path(path), encoding="utf-8") as handle:
        meta = json.load(handle)
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported index format {meta.get('format_version')!r} at {path}"
        )
    pager = FilePager(path, page_size=meta["page_size"])
    store = NodeStore(
        meta["n_bits"],
        page_size=meta["page_size"],
        frames=frames,
        policy=buffer_policy,
        mode="disk",
        compress=meta["compress"],
        multipage=meta.get("multipage", False),
        pager=pager,
        wal=WriteAheadLog(wal_path) if wal_path is not None else None,
    )
    metric: object = meta["metric"]
    if metric == "hamming" and meta.get("metric_fixed_area") is not None:
        from ..core.distance import HammingMetric

        metric = HammingMetric(fixed_area=meta["metric_fixed_area"])
    return SGTree._attach(
        store=store,
        root_id=meta["root_id"],
        height=meta["height"],
        size=meta["size"],
        max_entries=meta["max_entries"],
        min_fill=meta["min_fill"],
        split_policy=meta["split_policy"],
        choose_policy=meta["choose_policy"],
        metric=metric,
    )


def recover_tree(
    pages_path: str | os.PathLike,
    wal_path: str | os.PathLike,
    frames: int | None = 256,
    buffer_policy: str = "lru",
    keep_wal: bool = True,
) -> SGTree:
    """Restore a tree to its last committed state after a crash.

    Reads the write-ahead log for the last committed catalogue entry,
    replays every complete commit batch onto the page file, and
    re-attaches the tree.  With ``keep_wal=True`` (default) the returned
    tree keeps logging to the same file, so committing can resume
    immediately.  The replay's :class:`~repro.storage.wal.RecoveryReport`
    is left on ``tree.store.last_recovery`` for inspection.

    Raises :class:`~repro.errors.RecoveryError` (a ``ValueError``) when
    the log holds no complete commit batch to recover from.
    """
    pages_path = os.fspath(pages_path)
    committed = None
    for record in read_records(wal_path):
        if record.meta is not None:
            committed = record.meta  # refined below by recover()
    if committed is None:
        raise RecoveryError(
            f"{os.fspath(wal_path)}: no committed catalogue entry to recover from"
        )
    if committed.get("format_version") != FORMAT_VERSION:
        raise RecoveryError(
            f"unsupported index format {committed.get('format_version')!r} "
            f"in {os.fspath(wal_path)}"
        )
    pager = FilePager(pages_path, page_size=committed["page_size"])
    report = recover(pager, wal_path)
    meta = report.meta
    if meta is None:
        pager.close()
        raise RecoveryError(
            f"{os.fspath(wal_path)}: no complete commit batch to recover from"
        )
    wal = WriteAheadLog(wal_path) if keep_wal else None
    store = NodeStore(
        meta["n_bits"],
        page_size=meta["page_size"],
        frames=frames,
        policy=buffer_policy,
        mode="disk",
        compress=meta["compress"],
        multipage=meta.get("multipage", False),
        pager=pager,
        wal=wal,
    )
    store.last_recovery = report
    metric: object = meta["metric"]
    if metric == "hamming" and meta.get("metric_fixed_area") is not None:
        from ..core.distance import HammingMetric

        metric = HammingMetric(fixed_area=meta["metric_fixed_area"])
    return SGTree._attach(
        store=store,
        root_id=meta["root_id"],
        height=meta["height"],
        size=meta["size"],
        max_entries=meta["max_entries"],
        min_fill=meta["min_fill"],
        split_policy=meta["split_policy"],
        choose_policy=meta["choose_policy"],
        metric=metric,
    )
