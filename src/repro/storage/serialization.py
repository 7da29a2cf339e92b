"""Node ↔ bytes codecs.

A serialised SG-tree node page has the layout::

    header:  1 byte   flags (bit 0: leaf, bit 1: compressed signatures,
                             bit 2: entries carry area statistics)
             1 byte   level (0 = leaf; bounded by tree height)
             varint   number of entries
    entry i: varint   ref (tid for leaves, child page id for directories)
             [varint  min_area]   } only when the statistics flag is set
             [varint  max_area]   } (directory nodes' Section-6 stats:
             [varint  count]      }  subtree area range + cardinality)
             sig      signature — raw bitmap, or the Section-3.2
                      compressed form when the compressed flag is set

Varints are unsigned LEB128 and carry values below ``2**63``: refs and
statistics live in int64 arrays once decoded, so both decoders reject a
larger value as a framing violation.  The codec is symmetric and
validated by round-trip property tests.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..core import bitops
from ..core.signature import Signature
from ..errors import NodeDecodeError
from . import compression

_FLAG_LEAF = 0x01
_FLAG_COMPRESSED = 0x02
_FLAG_STATS = 0x04
_VARINT_MAX = 2**63 - 1


def write_varint(value: int, out: bytearray) -> None:
    """Append an unsigned LEB128 varint (``0 <= value < 2**63``)."""
    if value < 0:
        raise ValueError(f"varints are unsigned, got {value}")
    if value > _VARINT_MAX:
        raise ValueError(f"varint {value} does not fit int64")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; return (value, next offset).

    A value of ``2**63`` or more raises ``ValueError``, like a truncated
    or over-long varint.
    """
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise ValueError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if value > _VARINT_MAX:
                raise ValueError(f"varint {value} does not fit int64")
            return value, offset
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")


@dataclass(frozen=True)
class NodeImage:
    """The codec-level view of a node: what a page stores.

    ``stats`` carries per-entry ``(min_area, max_area, count)`` triples
    of directory nodes (``None`` for leaves or when statistics are
    absent); when present it must be parallel to ``entries``.
    """

    is_leaf: bool
    level: int
    entries: list[tuple[Signature, int]]
    stats: list[tuple[int, int, int]] | None = None


def encode_node(image: NodeImage, compress: bool = False) -> bytes:
    """Serialise a node image to page bytes."""
    has_stats = image.stats is not None
    if has_stats and len(image.stats) != len(image.entries):
        raise ValueError(
            f"{len(image.stats)} stats for {len(image.entries)} entries"
        )
    flags = (
        (_FLAG_LEAF if image.is_leaf else 0)
        | (_FLAG_COMPRESSED if compress else 0)
        | (_FLAG_STATS if has_stats else 0)
    )
    if not 0 <= image.level < 256:
        raise ValueError(f"level {image.level} out of byte range")
    out = bytearray([flags, image.level])
    write_varint(len(image.entries), out)
    for index, (signature, ref) in enumerate(image.entries):
        write_varint(ref, out)
        if has_stats:
            min_area, max_area, count = image.stats[index]
            write_varint(min_area, out)
            write_varint(max_area, out)
            write_varint(count, out)
        if compress:
            out += compression.encode(signature)
        else:
            out += bitops.to_bytes(signature.words)
    return bytes(out)


def decode_node(data: bytes, n_bits: int) -> NodeImage:
    """Inverse of :func:`encode_node`.

    Raises :class:`~repro.errors.NodeDecodeError` (a ``ValueError``) on
    any framing violation, so callers can distinguish a garbage payload
    from ordinary value errors.
    """
    try:
        return _decode_node(data, n_bits)
    except NodeDecodeError:
        raise
    except (ValueError, struct.error, IndexError) as exc:
        raise NodeDecodeError(str(exc)) from exc


def _decode_node(data: bytes, n_bits: int) -> NodeImage:
    if len(data) < 2:
        raise ValueError(f"node page too short: {len(data)} bytes")
    flags = data[0]
    level = data[1]
    is_leaf = bool(flags & _FLAG_LEAF)
    compressed = bool(flags & _FLAG_COMPRESSED)
    has_stats = bool(flags & _FLAG_STATS)
    count, offset = read_varint(data, 2)
    raw_width = bitops.n_words(n_bits) * 8
    entries: list[tuple[Signature, int]] = []
    stats: list[tuple[int, int, int]] | None = [] if has_stats else None
    for _ in range(count):
        ref, offset = read_varint(data, offset)
        if has_stats:
            min_area, offset = read_varint(data, offset)
            max_area, offset = read_varint(data, offset)
            subtree_count, offset = read_varint(data, offset)
            stats.append((min_area, max_area, subtree_count))
        if compressed:
            signature, offset = compression.decode_prefix(data, offset, n_bits)
        else:
            end = offset + raw_width
            signature = Signature(bitops.from_bytes(data[offset:end], n_bits), n_bits)
            offset = end
        entries.append((signature, ref))
    if offset != len(data):
        raise ValueError(
            f"{len(data) - offset} trailing bytes after {count} entries"
        )
    return NodeImage(is_leaf=is_leaf, level=level, entries=entries, stats=stats)


@dataclass(frozen=True)
class NodeArrays:
    """A node decoded straight to kernel-ready arrays (no objects).

    The array twin of :class:`NodeImage`: ``matrix`` is the
    ``(n_entries, n_words)`` uint64 signature matrix, ``refs`` the
    parallel int64 ref vector, and ``mins``/``maxs``/``counts`` the
    per-entry statistics vectors (``None`` when the page carries no
    statistics flag).
    """

    is_leaf: bool
    level: int
    refs: np.ndarray
    matrix: np.ndarray
    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None
    counts: np.ndarray | None = None


def decode_node_arrays(data: bytes, n_bits: int) -> NodeArrays | None:
    """Decode an uncompressed node page straight to arrays.

    The fast disk-mode decode path: it walks the entry
    varints once, then gathers every raw signature bitmap in a single
    vectorised slice — no per-entry ``Signature``/``Entry`` objects, no
    per-entry byte copies.  Returns ``None`` for pages using the
    Section-3.2 compressed encoding (callers fall back to
    :func:`decode_node`).  Framing violations raise
    :class:`~repro.errors.NodeDecodeError` exactly like
    :func:`decode_node`, including non-zero bits past ``n_bits`` in the
    tail word.
    """
    try:
        if len(data) < 2:
            raise ValueError(f"node page too short: {len(data)} bytes")
        flags = data[0]
        if flags & _FLAG_COMPRESSED:
            return None
        level = data[1]
        is_leaf = bool(flags & _FLAG_LEAF)
        has_stats = bool(flags & _FLAG_STATS)
        count, offset = read_varint(data, 2)
        raw_width = bitops.n_words(n_bits) * 8
        if count * (1 + raw_width) > len(data) - offset:
            # checked before allocating: a garbage count must not size
            # the arrays below
            raise ValueError(
                f"{count} entries cannot fit in {len(data) - offset} bytes"
            )
        refs = np.empty(count, dtype=np.int64)
        if has_stats:
            mins = np.empty(count, dtype=np.int64)
            maxs = np.empty(count, dtype=np.int64)
            counts = np.empty(count, dtype=np.int64)
        else:
            mins = maxs = counts = None
        sig_offsets = np.empty(count, dtype=np.int64)
        for index in range(count):
            refs[index], offset = read_varint(data, offset)
            if has_stats:
                mins[index], offset = read_varint(data, offset)
                maxs[index], offset = read_varint(data, offset)
                counts[index], offset = read_varint(data, offset)
            sig_offsets[index] = offset
            offset += raw_width
        if offset != len(data):
            raise ValueError(
                f"{len(data) - offset} trailing bytes after {count} entries"
            )
        raw = np.frombuffer(data, dtype=np.uint8)
        gathered = raw[sig_offsets[:, None] + np.arange(raw_width)]
        matrix = np.ascontiguousarray(gathered).view("<u8").astype(
            np.uint64, copy=False
        )
        tail_bits = n_bits % bitops.WORD_BITS
        if count and tail_bits:
            mask = ~((np.uint64(1) << np.uint64(tail_bits)) - np.uint64(1))
            if np.any(matrix[:, -1] & mask):
                raise ValueError(f"bits set past n_bits={n_bits} in tail word")
        return NodeArrays(
            is_leaf=is_leaf, level=level, refs=refs, matrix=matrix,
            mins=mins, maxs=maxs, counts=counts,
        )
    except NodeDecodeError:
        raise
    except (ValueError, struct.error, IndexError) as exc:
        raise NodeDecodeError(str(exc)) from exc


def max_entry_size(n_bits: int, compress: bool = False) -> int:
    """Worst-case serialised size of one entry.

    Used to derive a node capacity from a page size: a node of ``M``
    entries always fits when ``2 + 10 + M * max_entry_size`` is at most
    the page size.  Compressed signatures are never larger than
    ``1 + bitmap`` bytes, the flag-byte overhead.
    """
    sig_size = bitops.n_words(n_bits) * 8
    if compress:
        sig_size += 1
    # 10 = worst-case 64-bit varint ref; +11 covers the statistics
    # varints (two areas bounded by n_bits plus a 32-bit-ish count).
    return 21 + sig_size


def capacity_for_page(page_size: int, n_bits: int, compress: bool = False) -> int:
    """Largest node fan-out that always fits a page of ``page_size``."""
    available = page_size - 2 - 10  # header flags+level and entry-count varint
    capacity = available // max_entry_size(n_bits, compress)
    if capacity < 2:
        raise ValueError(
            f"page size {page_size} cannot hold 2 entries of "
            f"{n_bits}-bit signatures"
        )
    return capacity


__all__ = [
    "NodeImage",
    "NodeArrays",
    "NodeDecodeError",
    "encode_node",
    "decode_node",
    "decode_node_arrays",
    "write_varint",
    "read_varint",
    "max_entry_size",
    "capacity_for_page",
]
