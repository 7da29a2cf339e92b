"""Packed-bitmap kernels.

Signatures are fixed-length bitmaps packed into ``numpy.uint64`` words.
All kernels in this module operate directly on word arrays:

* a single signature is a one-dimensional array of shape ``(n_words,)``;
* a *matrix* of signatures is a two-dimensional array of shape
  ``(n_signatures, n_words)`` whose rows share the same bit length.

Bit ``i`` of a signature lives in word ``i // 64`` at bit offset ``i % 64``
(little-endian word order, LSB-first within a word).  Popcounts use
``numpy.bitwise_count`` so that Hamming distances, areas and containment
tests over entire node matrices are single vectorised expressions — this is
the "numpy trick" that makes bit-level work viable in pure Python.

Every kernel has a deliberately simple pure-Python reference twin in the
test-suite (``tests/core/test_bitops.py``) used for cross-checking.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from . import ckernel

WORD_BITS = 64
_WORD_DTYPE = np.uint64


def n_words(n_bits: int) -> int:
    """Number of 64-bit words needed to hold ``n_bits`` bits."""
    if n_bits < 0:
        raise ValueError(f"n_bits must be non-negative, got {n_bits}")
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def zeros(n_bits: int) -> np.ndarray:
    """An all-zero word array for a signature of ``n_bits`` bits."""
    return np.zeros(n_words(n_bits), dtype=_WORD_DTYPE)


def pack(positions: Iterable[int], n_bits: int) -> np.ndarray:
    """Pack an iterable of bit positions into a word array.

    Duplicate positions are allowed (the bit is simply set once).
    Raises ``ValueError`` for positions outside ``[0, n_bits)``.
    """
    words = zeros(n_bits)
    pos = np.fromiter(positions, dtype=np.int64)
    if pos.size == 0:
        return words
    if pos.min() < 0 or pos.max() >= n_bits:
        bad = pos[(pos < 0) | (pos >= n_bits)][0]
        raise ValueError(f"bit position {bad} out of range [0, {n_bits})")
    np.bitwise_or.at(
        words,
        pos // WORD_BITS,
        np.left_shift(np.uint64(1), (pos % WORD_BITS).astype(np.uint64)),
    )
    return words


def unpack(words: np.ndarray) -> list[int]:
    """Return the sorted list of set-bit positions in ``words``."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return np.flatnonzero(bits).tolist()


def popcount(words: np.ndarray) -> int | np.ndarray:
    """Number of set bits.

    For a single signature returns a Python ``int``; for a signature matrix
    returns a vector with one count per row.
    """
    counts = np.bitwise_count(words)
    if words.ndim == 1:
        return int(counts.sum())
    return counts.sum(axis=-1, dtype=np.int64)


def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise OR (set union).  Broadcasts matrix-vs-signature shapes."""
    return np.bitwise_or(a, b)


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise AND (set intersection)."""
    return np.bitwise_and(a, b)


def difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise AND-NOT (set difference ``a \\ b``)."""
    return np.bitwise_and(a, np.bitwise_not(b))


def symmetric_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise XOR (symmetric difference)."""
    return np.bitwise_xor(a, b)


def contains(container: np.ndarray, contained: np.ndarray) -> bool | np.ndarray:
    """Whether ``container`` covers every set bit of ``contained``.

    With a matrix as either argument, broadcasts and returns a boolean
    vector (one verdict per row).
    """
    missing = np.bitwise_and(contained, np.bitwise_not(container))
    verdict = ~np.any(missing, axis=-1)
    if verdict.ndim == 0:
        return bool(verdict)
    return verdict


def equal(a: np.ndarray, b: np.ndarray) -> bool | np.ndarray:
    """Bit-exact equality; broadcasts like :func:`contains`."""
    verdict = np.all(a == b, axis=-1)
    if verdict.ndim == 0:
        return bool(verdict)
    return verdict


def is_empty(words: np.ndarray) -> bool | np.ndarray:
    """Whether no bit is set; broadcasts over matrices."""
    verdict = ~np.any(words, axis=-1)
    if verdict.ndim == 0:
        return bool(verdict)
    return verdict


def hamming(a: np.ndarray, b: np.ndarray) -> int | np.ndarray:
    """Hamming distance |a Δ b|; broadcasts matrix-vs-signature shapes."""
    return popcount(np.bitwise_xor(a, b))


def intersect_count(a: np.ndarray, b: np.ndarray) -> int | np.ndarray:
    """|a ∩ b| without materialising the intersection separately."""
    return popcount(np.bitwise_and(a, b))


def difference_count(a: np.ndarray, b: np.ndarray) -> int | np.ndarray:
    """|a \\ b|."""
    return popcount(np.bitwise_and(a, np.bitwise_not(b)))


def union_count(a: np.ndarray, b: np.ndarray) -> int | np.ndarray:
    """|a ∪ b|."""
    return popcount(np.bitwise_or(a, b))


def union_all(matrix: np.ndarray) -> np.ndarray:
    """OR-reduce a signature matrix to a single signature.

    This is the coverage operation that defines a directory entry's
    signature (Definition 5 of the paper).  An empty matrix reduces to the
    all-zero signature.
    """
    if matrix.shape[0] == 0:
        return np.zeros(matrix.shape[1], dtype=_WORD_DTYPE)
    return np.bitwise_or.reduce(matrix, axis=0)


def pairwise_hamming(matrix: np.ndarray) -> np.ndarray:
    """Full symmetric ``(n, n)`` Hamming-distance matrix between rows."""
    xored = np.bitwise_xor(matrix[:, None, :], matrix[None, :, :])
    return np.bitwise_count(xored).sum(axis=-1, dtype=np.int64)


_FOLD_BYTE_MASK = np.uint64(0x00FF00FF00FF00FF)
_FOLD_LANE_MUL = np.uint64(0x0001000100010001)
_FOLD_SHIFT_8 = np.uint64(8)
_FOLD_SHIFT_48 = np.uint64(48)


def _cross_popcount_sum(terms: np.ndarray, n_rows: int, n_cols: int, width: int) -> np.ndarray:
    """Row-group popcount sums of a flat ``(A, B*W)`` word block.

    Signature widths are short (a 1000-bit signature is 16 words), so
    broadcasting to ``(A, B, W)`` and reducing the last axis leaves numpy
    looping over tiny inner vectors.  Operating on the flat contiguous
    block instead, then folding the per-word counts eight-at-a-time via a
    SWAR sum over the uint8 view, keeps every pass at full stride.  Word
    counts are at most 64, so the byte→16-bit fold cannot carry.
    """
    counts = np.bitwise_count(terms).astype(np.uint8)
    if width % 8 == 0:
        lanes = counts.reshape(n_rows, n_cols, width).view(np.uint64)
        folded = lanes.sum(axis=-1, dtype=np.uint64)
        folded = (folded & _FOLD_BYTE_MASK) + (
            (folded >> _FOLD_SHIFT_8) & _FOLD_BYTE_MASK
        )
        return ((folded * _FOLD_LANE_MUL) >> _FOLD_SHIFT_48).astype(np.int64)
    return counts.reshape(n_rows, n_cols, width).sum(axis=-1, dtype=np.int64)


_CROSS_UFUNCS = {
    ckernel.OP_XOR: np.bitwise_xor,
    ckernel.OP_AND: np.bitwise_and,
}


def _cross_count(a: np.ndarray, b: np.ndarray, op: int) -> np.ndarray:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    n_rows, width = a.shape
    n_cols = b.shape[0]
    if n_rows == 0 or n_cols == 0 or width == 0:
        return np.zeros((n_rows, n_cols), dtype=np.int64)
    if ckernel.available():
        return ckernel.cross_count(op, a, b)
    terms = _CROSS_UFUNCS[op](np.tile(a, (1, n_cols)), b.reshape(1, n_cols * width))
    return _cross_popcount_sum(terms, n_rows, n_cols, width)


def cross_hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(A, B)`` Hamming-distance matrix between the rows of two matrices.

    The matrix×matrix popcount expression behind batched search: one
    kernel call answers every (query, entry) pair of a whole query
    batch against a whole node at once — compiled when
    :mod:`~repro.core.ckernel` is available, a flat XOR +
    ``bitwise_count`` expression otherwise.
    """
    return _cross_count(a, b, ckernel.OP_XOR)


def cross_intersect_count(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(A, B)`` matrix of ``|a_i ∩ b_j|`` between rows."""
    return _cross_count(a, b, ckernel.OP_AND)


def to_bytes(words: np.ndarray) -> bytes:
    """Serialise a signature's words to little-endian bytes."""
    return words.astype("<u8").tobytes()


def from_bytes(data: bytes, n_bits: int) -> np.ndarray:
    """Inverse of :func:`to_bytes` for a signature of ``n_bits`` bits."""
    words = np.frombuffer(data, dtype="<u8").astype(_WORD_DTYPE)
    expected = n_words(n_bits)
    if words.size != expected:
        raise ValueError(
            f"expected {expected} words for {n_bits} bits, got {words.size}"
        )
    return words


def to_int(words: np.ndarray) -> int:
    """The signature's bitmap as an arbitrary-precision integer.

    Bit ``i`` of the signature becomes bit ``i`` of the integer, so the
    integer is a faithful positional encoding of the whole bitmap.
    """
    return int.from_bytes(to_bytes(words), byteorder="little")


def gray_rank(words: np.ndarray) -> int:
    """Rank of the signature's bitmap along the binary-reflected Gray code.

    Used by the gray-code bulk loader (Section 6 of the paper): sorting
    signatures by this rank places bitmaps that differ in few bits near
    each other, in analogy to space-filling-curve bulk loading of R-trees.
    The rank is the Gray-to-binary conversion of the bitmap: a prefix-XOR
    from the most significant bit down.
    """
    gray = to_int(words)
    binary = 0
    while gray:
        binary ^= gray
        gray >>= 1
    return binary
