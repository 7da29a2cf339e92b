"""Pagers: backing stores for pages, with logical-I/O accounting.

Two interchangeable implementations are provided:

* :class:`MemoryPager` keeps pages in a dictionary and *counts* every read
  and write.  The benchmarks run on this pager: a "random I/O" in the
  paper's sense is one fetch of a page that was not already pinned in the
  buffer pool, and logical counting reproduces the paper's I/O comparisons
  exactly (both indexes are charged by the same rule).
* :class:`FilePager` stores pages in a real file with fixed-size,
  **self-verifying** slots: every slot carries a CRC32 + length header,
  verified on read, so a torn write or a flipped bit raises a typed
  :class:`~repro.errors.PageCorruptError` instead of being decoded as a
  (garbage) tree node.

Both share the :class:`Pager` interface consumed by the buffer pool.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field

from ..errors import PageCorruptError, PageNotFoundError, PageOverflowError
from .page import (
    DEFAULT_PAGE_SIZE,
    INVALID_PAGE,
    Page,
    PageId,
)

# Self-verifying slot header: <u32 crc32> <u32 payload length>.  The CRC
# covers the length field plus the payload, so a torn header is caught as
# reliably as a torn payload.  An all-zero header denotes an empty slot
# (freshly allocated slots are zero-filled).
_SLOT_HEADER = struct.Struct("<II")
_LENGTH = struct.Struct("<I")


def _slot_crc(data: bytes) -> int:
    return zlib.crc32(data, zlib.crc32(_LENGTH.pack(len(data))))


@dataclass
class IOStats:
    """Counters of logical page traffic."""

    reads: int = 0
    writes: int = 0
    allocations: int = 0
    frees: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.allocations = 0
        self.frees = 0

    def snapshot(self) -> "IOStats":
        return IOStats(self.reads, self.writes, self.allocations, self.frees)

    def register_metrics(self, registry, **labels: str) -> None:
        """Expose these counters through a metrics registry (pull model).

        The pager keeps incrementing plain ints on the hot path; the
        registry reads them via callbacks only at scrape time.
        """
        labelnames = tuple(sorted(labels))
        for name, help_text, attr in (
            ("pager_reads_total", "Logical page reads", "reads"),
            ("pager_writes_total", "Logical page writes", "writes"),
            ("pager_allocations_total", "Page allocations", "allocations"),
            ("pager_frees_total", "Page frees", "frees"),
        ):
            registry.counter(name, help_text, labelnames).labels(
                **labels
            ).set_function(lambda attr=attr: getattr(self, attr))


class Pager:
    """Interface of a page store."""

    page_size: int
    stats: IOStats

    def allocate(self) -> PageId:
        """Reserve a fresh page id."""
        raise NotImplementedError

    def read(self, page_id: PageId) -> Page:
        """Fetch a page; counts one logical read."""
        raise NotImplementedError

    def write(self, page: Page) -> None:
        """Persist a page; counts one logical write."""
        raise NotImplementedError

    def free(self, page_id: PageId) -> None:
        """Release a page id."""
        raise NotImplementedError

    def ensure(self, page_id: PageId) -> None:
        """Make ``page_id`` addressable (allocating it and any lower ids
        as needed) — used by write-ahead-log replay."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Number of live pages."""
        raise NotImplementedError

    def sync(self) -> None:
        """Force written pages to stable storage (no-op by default)."""

    def close(self) -> None:
        """Release resources (no-op by default)."""


@dataclass
class MemoryPager(Pager):
    """Dictionary-backed page store with logical I/O counting."""

    page_size: int = DEFAULT_PAGE_SIZE
    stats: IOStats = field(default_factory=IOStats)

    def __post_init__(self) -> None:
        self._pages: dict[PageId, bytes] = {}
        self._next_id: PageId = 0
        self._free_list: list[PageId] = []

    def allocate(self) -> PageId:
        self.stats.allocations += 1
        if self._free_list:
            page_id = self._free_list.pop()
        else:
            page_id = self._next_id
            self._next_id += 1
        self._pages[page_id] = b""
        return page_id

    def read(self, page_id: PageId) -> Page:
        try:
            data = self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(page_id) from None
        self.stats.reads += 1
        return Page(page_id=page_id, capacity=self.page_size, data=data)

    def write(self, page: Page) -> None:
        if page.page_id not in self._pages:
            raise PageNotFoundError(page.page_id)
        if len(page.data) > self.page_size:
            raise PageOverflowError(
                f"{len(page.data)} bytes exceed page size {self.page_size}"
            )
        self.stats.writes += 1
        self._pages[page.page_id] = page.data

    def free(self, page_id: PageId) -> None:
        if page_id not in self._pages:
            raise PageNotFoundError(page_id)
        self.stats.frees += 1
        del self._pages[page_id]
        self._free_list.append(page_id)

    def ensure(self, page_id: PageId) -> None:
        if page_id in self._pages:
            return
        if page_id in self._free_list:
            self._free_list.remove(page_id)
        self._pages[page_id] = b""
        self._next_id = max(self._next_id, page_id + 1)

    def __len__(self) -> int:
        return len(self._pages)


class FilePager(Pager):
    """File-backed page store with fixed-size, self-verifying page slots.

    Each slot stores an 8-byte header (CRC32 over length + payload, then
    the payload length) followed by the payload.  Every read re-verifies
    the checksum and the framing; any mismatch — a torn write, a flipped
    bit, a truncated final slot — raises
    :class:`~repro.errors.PageCorruptError` with the page id and reason,
    so corruption is surfaced at the storage boundary instead of being
    decoded into a garbage tree node.  An all-zero slot (the state of a
    freshly allocated or ``ensure``-extended slot) reads as an empty page.

    Freed slots are recycled through an in-memory free list (a production
    system would persist it; recycling within a run is all the index
    needs).
    """

    def __init__(self, path: str | os.PathLike, page_size: int = DEFAULT_PAGE_SIZE):
        self.page_size = page_size
        self.stats = IOStats()
        self._slot_size = _SLOT_HEADER.size + page_size
        self._path = os.fspath(path)
        # Unbuffered: every slot moves with one position-free pread or
        # pwrite on the descriptor, so no user-space copy can go stale
        # behind a write, and concurrent readers share no file offset.
        # "r+b" opens an existing file without truncating it; "w+b"
        # creates the file on first use.
        file_mode = "r+b" if os.path.exists(self._path) else "w+b"
        self._file = open(self._path, file_mode, buffering=0)
        self._fd = self._file.fileno()
        # Round partial trailing bytes *up* into a slot: a file whose
        # final slot was torn mid-write must keep that page addressable
        # (and fail its read with PageCorruptError) rather than silently
        # shrink the store.
        size = os.fstat(self._fd).st_size
        self._next_id: PageId = (size + self._slot_size - 1) // self._slot_size
        self._free_list: list[PageId] = []
        self._live: set[PageId] = set(range(self._next_id))

    @property
    def path(self) -> str:
        return self._path

    @property
    def slot_count(self) -> int:
        """Number of slots the file holds (live or freed)."""
        return self._next_id

    def allocate(self) -> PageId:
        self.stats.allocations += 1
        if self._free_list:
            page_id = self._free_list.pop()
        else:
            page_id = self._next_id
            self._next_id += 1
        # Zero the slot: a recycled one must never serve its previous
        # owner's bytes back as a valid page.
        self._write_at(page_id, bytes(self._slot_size))
        self._live.add(page_id)
        return page_id

    def read(self, page_id: PageId) -> Page:
        if page_id not in self._live:
            raise PageNotFoundError(page_id)
        self.stats.reads += 1
        data = self._read_slot(page_id)
        return Page(page_id=page_id, capacity=self.page_size, data=data)

    def write(self, page: Page) -> None:
        if page.page_id not in self._live:
            raise PageNotFoundError(page.page_id)
        if len(page.data) > self.page_size:
            raise PageOverflowError(
                f"{len(page.data)} bytes exceed page size {self.page_size}"
            )
        self.stats.writes += 1
        self._write_at(page.page_id, self._slot_image(page.data))

    def free(self, page_id: PageId) -> None:
        if page_id not in self._live:
            raise PageNotFoundError(page_id)
        self.stats.frees += 1
        self._live.discard(page_id)
        self._free_list.append(page_id)

    def ensure(self, page_id: PageId) -> None:
        if page_id in self._live:
            return
        if page_id in self._free_list:
            self._free_list.remove(page_id)
        while self._next_id <= page_id:
            self._write_at(self._next_id, bytes(self._slot_size))
            self._next_id += 1
        self._live.add(page_id)

    def __len__(self) -> int:
        return len(self._live)

    def sync(self) -> None:
        """Fsync the page file to stable storage."""
        os.fsync(self._fd)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "FilePager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- integrity -----------------------------------------------------------

    def verify(self, page_id: PageId) -> str | None:
        """Check one slot's integrity; return the failure reason or
        ``None`` when the slot verifies.  Works on freed slots too, so a
        scrub can sweep the whole file."""
        if not 0 <= page_id < self._next_id:
            return "no such slot"
        try:
            self._read_slot(page_id)
        except PageCorruptError as exc:
            return exc.reason
        return None

    def _slot_image(self, data: bytes) -> bytes:
        return _SLOT_HEADER.pack(_slot_crc(data), len(data)) + data

    def _write_at(self, page_id: PageId, image: bytes) -> None:
        """Write ``image`` at the start of slot ``page_id`` with one
        position-free ``pwrite`` (looping only on a short write)."""
        position = page_id * self._slot_size
        view = memoryview(image)
        while view:
            written = os.pwrite(self._fd, view, position)
            view = view[written:]
            position += written

    def _read_slot(self, page_id: PageId) -> bytes:
        raw = os.pread(self._fd, self._slot_size, page_id * self._slot_size)
        if len(raw) < _SLOT_HEADER.size:
            raise PageCorruptError(page_id, "truncated slot header")
        crc, length = _SLOT_HEADER.unpack_from(raw)
        if crc == 0 and length == 0:
            return b""  # zero-filled (fresh) slot
        if length > self.page_size:
            raise PageCorruptError(
                page_id, f"slot length {length} exceeds page size {self.page_size}"
            )
        payload = raw[_SLOT_HEADER.size : _SLOT_HEADER.size + length]
        if len(payload) < length:
            raise PageCorruptError(
                page_id, f"truncated slot payload ({len(payload)} of {length} bytes)"
            )
        if _slot_crc(payload) != crc:
            raise PageCorruptError(page_id, "checksum mismatch")
        return payload

    # -- fault-injection / test hooks ---------------------------------------

    def write_torn(self, page: Page, keep_bytes: int) -> None:
        """Persist only the first ``keep_bytes`` of the slot image —
        simulates a torn write at the device level (the checksum layer
        must catch it on the next read)."""
        image = self._slot_image(page.data)
        self._write_at(page.page_id, image[: max(0, min(keep_bytes, len(image)))])

    def corrupt(self, page_id: PageId, bit: int = 0) -> None:
        """Flip one bit of a stored slot payload — simulates bit rot.
        ``bit`` indexes into the slot's *live* payload (rot in the unused
        slack beyond the stored length is invisible to the checksum and
        harmless by construction); it is wrapped to stay in range, so any
        integer is a valid fault location."""
        raw = bytearray(os.pread(self._fd, self._slot_size, page_id * self._slot_size))
        region = len(raw) - _SLOT_HEADER.size
        if region <= 0:
            return
        _, length = _SLOT_HEADER.unpack_from(raw)
        if 0 < length <= region:
            region = length
        bit %= region * 8
        raw[_SLOT_HEADER.size + bit // 8] ^= 1 << (bit % 8)
        self._write_at(page_id, raw)


__all__ = [
    "IOStats",
    "Pager",
    "MemoryPager",
    "FilePager",
    "PageId",
    "INVALID_PAGE",
]
