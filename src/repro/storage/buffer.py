"""Buffer replacement policies and hit/miss counters.

The paper argues the SG-tree "can operate with limited memory resources
and dynamically changing memory resources — caching policies previously
used for the B+-tree and the R-tree can be seamlessly applied" (Section 6).
:class:`~repro.sgtree.node.NodeStore` realises that with a bounded frame
buffer of nodes and one of the LRU, CLOCK and FIFO policies below; an
access to a node outside the buffer is one random I/O.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .page import PageId


@dataclass
class BufferStats:
    """Hit/miss/eviction counters of a cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def register_metrics(
        self, registry, prefix: str = "buffer", **labels: str
    ) -> None:
        """Expose the hit/miss counters through a metrics registry.

        Pull model: the hot path keeps incrementing plain ints; the
        registry reads them via callbacks only at scrape time.  The
        derived hit ratio is published as a gauge.  ``prefix`` names the
        series family (``decode_cache`` for the node read arrays).
        """
        labelnames = tuple(sorted(labels))
        for name, help_text, attr in (
            (f"{prefix}_hits_total", "Lookups served from the cache", "hits"),
            (f"{prefix}_misses_total", "Lookups that had to build the entry",
             "misses"),
        ):
            registry.counter(name, help_text, labelnames).labels(
                **labels
            ).set_function(lambda attr=attr: getattr(self, attr))
        registry.gauge(
            f"{prefix}_hit_ratio", "Hit ratio (0 while idle)", labelnames
        ).labels(**labels).set_function(lambda: self.hit_ratio)


class ReplacementPolicy:
    """Interface of a page-replacement policy over a fixed frame budget."""

    def record_access(self, page_id: PageId) -> None:
        """Note that ``page_id`` was touched (hit or newly admitted)."""
        raise NotImplementedError

    def admit(self, page_id: PageId) -> None:
        """Start tracking a newly cached page."""
        raise NotImplementedError

    def evict(self) -> PageId:
        """Choose and forget a victim page."""
        raise NotImplementedError

    def remove(self, page_id: PageId) -> None:
        """Forget a page evicted externally (e.g. freed)."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used replacement."""

    def __init__(self) -> None:
        self._order: OrderedDict[PageId, None] = OrderedDict()

    def record_access(self, page_id: PageId) -> None:
        try:
            self._order.move_to_end(page_id)
        except KeyError:
            # Raced with a concurrent remove (epoch reclaim of a page
            # another thread still had in hand) — losing the recency
            # bump for a page that just died is harmless.
            pass

    def admit(self, page_id: PageId) -> None:
        self._order[page_id] = None

    def evict(self) -> PageId:
        page_id, _ = self._order.popitem(last=False)
        return page_id

    def remove(self, page_id: PageId) -> None:
        self._order.pop(page_id, None)


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out replacement (access order is ignored)."""

    def __init__(self) -> None:
        self._order: OrderedDict[PageId, None] = OrderedDict()

    def record_access(self, page_id: PageId) -> None:
        pass

    def admit(self, page_id: PageId) -> None:
        self._order[page_id] = None

    def evict(self) -> PageId:
        page_id, _ = self._order.popitem(last=False)
        return page_id

    def remove(self, page_id: PageId) -> None:
        self._order.pop(page_id, None)


class ClockPolicy(ReplacementPolicy):
    """Second-chance (CLOCK) replacement."""

    def __init__(self) -> None:
        self._referenced: OrderedDict[PageId, bool] = OrderedDict()

    def record_access(self, page_id: PageId) -> None:
        self._referenced[page_id] = True

    def admit(self, page_id: PageId) -> None:
        self._referenced[page_id] = True

    def evict(self) -> PageId:
        while True:
            page_id, referenced = next(iter(self._referenced.items()))
            del self._referenced[page_id]
            if referenced:
                # Second chance: clear the bit and move to the back.
                self._referenced[page_id] = False
            else:
                return page_id

    def remove(self, page_id: PageId) -> None:
        self._referenced.pop(page_id, None)


__all__ = [
    "BufferStats",
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "ClockPolicy",
]
