"""Node ↔ bytes codec.

A node is one page of ``<sig, ptr>`` entries (Section 3) plus, on
directory pages, the Section-6 per-entry statistics: a matrix of
signatures beside a few integer columns.  A page stores exactly that,
column by column::

    header:      u8  flags (bit 0: leaf, bit 1: compressed signatures,
                            bit 2: entries carry area statistics)
                 u8  level (0 = leaf; bounded by tree height)
                 u16 zero
                 u32 n, the number of entries
    refs:        n × <i8   (tids for leaves, child page ids for directories)
    stats:       n × <u4 min_area, then n × <u4 max_area, then n × <u4
                 count, zero-padded to a multiple of 8 bytes; only when
                 the statistics flag is set
    signatures:  raw pages: the n × n_words <u8 bitmap matrix;
                 compressed pages: n self-delimiting Section-3.2
                 encodings (:func:`repro.storage.compression.encode`)

Every block starts 8-byte aligned, so on a raw page the refs and the
signature matrix are zero-copy views of the page bytes: decoding
runs no Python loop per entry.  Only compressed pages loop, once per
entry, to fill the matrix rows.  :func:`encode_node` and
:func:`decode_node` are the whole codec, and round-trip property tests
pin their symmetry.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from ..core import bitops
from ..core.signature import Signature
from ..errors import NodeDecodeError
from . import compression

#: Version of this page layout (2: fixed-width columns; 1 was varint
#: entries).  Index metadata and every write-ahead-log catalogue entry
#: record it, and an index of another version is refused before any of
#: its pages is read.
FORMAT_VERSION = 2

_FLAG_LEAF = 0x01
_FLAG_COMPRESSED = 0x02
_FLAG_STATS = 0x04
_HEADER = struct.Struct("<BBHI")
_STAT_MAX = 0xFFFFFFFF


class NodeArrays(NamedTuple):
    """What a node page stores, as kernel-ready arrays.

    ``matrix`` is the ``(n_entries, n_words)`` uint64 signature matrix,
    ``refs`` the parallel int64 ref vector, and ``mins``/``maxs``/
    ``counts`` the per-entry statistics vectors, given together or not
    at all (``None`` for leaves and pages without statistics).  A named
    tuple, not a frozen dataclass: every buffer miss builds one, and a
    tuple is about three times cheaper to make.
    """

    is_leaf: bool
    level: int
    refs: np.ndarray
    matrix: np.ndarray
    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None
    counts: np.ndarray | None = None


def _stats_size(count: int) -> int:
    return (count * 12 + 7) // 8 * 8


def encode_node(arrays: NodeArrays, n_bits: int, compress: bool = False) -> bytes:
    """Serialise a node's arrays to page bytes.

    Rejects a level outside a byte, a negative ref, and a statistic
    outside ``u32``.
    """
    if not 0 <= arrays.level < 256:
        raise ValueError(f"level {arrays.level} out of byte range")
    refs = np.asarray(arrays.refs, dtype=np.int64)
    count = refs.shape[0]
    if count and refs.min() < 0:
        raise ValueError(f"negative ref {refs.min()}")
    has_stats = arrays.mins is not None
    flags = (
        (_FLAG_LEAF if arrays.is_leaf else 0)
        | (_FLAG_COMPRESSED if compress else 0)
        | (_FLAG_STATS if has_stats else 0)
    )
    parts = [_HEADER.pack(flags, arrays.level, 0, count), refs.astype("<i8").tobytes()]
    if has_stats:
        stats = np.stack([
            np.asarray(column, dtype=np.int64)
            for column in (arrays.mins, arrays.maxs, arrays.counts)
        ])
        if stats.shape != (3, count):
            raise ValueError(f"statistics of shape {stats.shape} for {count} entries")
        if count and (stats.min() < 0 or stats.max() > _STAT_MAX):
            raise ValueError("statistic outside u32")
        parts.append(stats.astype("<u4").tobytes().ljust(_stats_size(count), b"\0"))
    matrix = np.asarray(arrays.matrix, dtype=np.uint64)
    if count and matrix.shape != (count, bitops.n_words(n_bits)):
        raise ValueError(f"signature matrix of shape {matrix.shape} for {count} entries")
    if compress:
        parts.extend(compression.encode(Signature(row, n_bits)) for row in matrix)
    elif count:
        parts.append(matrix.astype("<u8", copy=False).tobytes())
    return b"".join(parts)


def decode_node(data: bytes, n_bits: int) -> NodeArrays:
    """Inverse of :func:`encode_node`, for raw and compressed pages alike.

    Raises :class:`~repro.errors.NodeDecodeError` (a ``ValueError``) on
    any framing violation: a short page, unknown header bits, an entry
    count the page cannot hold (checked before anything is sized by it),
    trailing bytes, a negative ref, or bits set past ``n_bits``.
    """
    try:
        return _decode_node(data, n_bits)
    except NodeDecodeError:
        raise
    except (ValueError, struct.error, IndexError) as exc:
        raise NodeDecodeError(str(exc)) from exc


def _decode_node(data: bytes, n_bits: int) -> NodeArrays:
    if len(data) < _HEADER.size:
        raise ValueError(f"node page too short: {len(data)} bytes")
    flags, level, reserved, count = _HEADER.unpack_from(data)
    if reserved or flags & ~(_FLAG_LEAF | _FLAG_COMPRESSED | _FLAG_STATS):
        raise ValueError(f"unknown header bits (flags {flags:#x}, reserved {reserved})")
    compressed = bool(flags & _FLAG_COMPRESSED)
    width = bitops.n_words(n_bits)
    offset = _HEADER.size + count * 8
    if flags & _FLAG_STATS:
        offset += _stats_size(count)
    # at least one byte per compressed signature
    end = offset + count * (1 if compressed else width * 8)
    if end > len(data):
        raise ValueError(f"{count} entries cannot fit in {len(data)} bytes")
    if not compressed and end != len(data):
        raise ValueError(f"{len(data) - end} trailing bytes after {count} entries")
    refs = np.frombuffer(data, dtype="<i8", count=count, offset=_HEADER.size)
    # Every buffer miss runs these checks.  On a page-sized vector,
    # ``argmin``/``argmax`` plus one index cost half of ``min``/``max``,
    # whose Python-level wrapper dominates at this size.
    if count and refs[refs.argmin()] < 0:
        raise ValueError(f"negative ref {refs.min()}")
    mins = maxs = counts = None
    if flags & _FLAG_STATS:
        stats = np.frombuffer(
            data, dtype="<u4", count=3 * count, offset=_HEADER.size + count * 8
        ).astype(np.int64).reshape(3, count)
        mins, maxs, counts = stats
    if compressed:
        matrix = np.empty((count, width), dtype=np.uint64)
        for index in range(count):
            signature, offset = compression.decode_prefix(data, offset, n_bits)
            matrix[index] = signature.words
        if offset != len(data):
            raise ValueError(
                f"{len(data) - offset} trailing bytes after {count} entries"
            )
    else:
        # a zero-copy view of the page bytes, made 2-D in one call
        matrix = np.ndarray((count, width), "<u8", data, offset)
        tail_bits = n_bits % bitops.WORD_BITS
        if count and tail_bits:
            # the largest tail word has a bit past n_bits iff any word has
            tail = matrix[:, -1]
            if int(tail[tail.argmax()]) >> tail_bits:
                raise ValueError(f"bits set past n_bits={n_bits} in tail word")
    return NodeArrays(
        is_leaf=bool(flags & _FLAG_LEAF), level=level, refs=refs, matrix=matrix,
        mins=mins, maxs=maxs, counts=counts,
    )


def max_entry_size(n_bits: int, compress: bool = False) -> int:
    """Upper bound on the serialised size of one entry.

    A node of ``M`` entries always fits when ``12 + M * max_entry_size``
    is at most the page size: an entry needs at most 20 bytes besides
    its signature (an 8-byte ref, 12 bytes of statistics), and the
    header 8 bytes plus at most 4 of statistics padding.  The bound is
    21 bytes plus the signature, which fixes every derived fan-out (and
    with it tree shape and I/O counts) independently of the layout's
    padding.  Compressed signatures are never larger than ``1 + bitmap``
    bytes, the flag-byte overhead.
    """
    sig_size = bitops.n_words(n_bits) * 8
    if compress:
        sig_size += 1
    return 21 + sig_size


def capacity_for_page(page_size: int, n_bits: int, compress: bool = False) -> int:
    """Largest node fan-out that always fits a page of ``page_size``."""
    capacity = (page_size - 12) // max_entry_size(n_bits, compress)
    if capacity < 2:
        raise ValueError(
            f"page size {page_size} cannot hold 2 entries of "
            f"{n_bits}-bit signatures"
        )
    return capacity


__all__ = [
    "FORMAT_VERSION",
    "NodeArrays",
    "NodeDecodeError",
    "encode_node",
    "decode_node",
    "max_entry_size",
    "capacity_for_page",
]
