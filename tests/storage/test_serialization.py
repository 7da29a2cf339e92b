"""Node codec: round trips, framing checks, page-capacity derivation."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Signature
from repro.errors import NodeDecodeError
from repro.storage.serialization import (
    NodeArrays,
    capacity_for_page,
    decode_node,
    encode_node,
    max_entry_size,
)

N_BITS = 200
WIDTH = Signature.empty(N_BITS).words.size


def _arrays(
    signatures, refs, is_leaf=True, level=0, stats=None, n_bits=N_BITS
) -> NodeArrays:
    """NodeArrays over signatures, refs and optional (min, max, count) triples."""
    matrix = (
        np.stack([s.words for s in signatures]) if signatures
        else np.empty((0, Signature.empty(n_bits).words.size), dtype=np.uint64)
    )
    columns = (None, None, None)
    if stats is not None:
        columns = tuple(
            np.array([triple[i] for triple in stats], dtype=np.int64)
            for i in range(3)
        )
    return NodeArrays(
        is_leaf, level, np.array(refs, dtype=np.int64), matrix, *columns
    )


def _assert_same(decoded: NodeArrays, expected: NodeArrays) -> None:
    assert decoded.is_leaf == expected.is_leaf
    assert decoded.level == expected.level
    assert decoded.refs.dtype == np.int64
    assert decoded.refs.tolist() == expected.refs.tolist()
    assert decoded.matrix.dtype == np.uint64
    assert decoded.matrix.shape[0] == expected.matrix.shape[0]
    np.testing.assert_array_equal(decoded.matrix, expected.matrix)
    if expected.mins is None:
        assert decoded.mins is decoded.maxs is decoded.counts is None
    else:
        for got, want in (
            (decoded.mins, expected.mins),
            (decoded.maxs, expected.maxs),
            (decoded.counts, expected.counts),
        ):
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist()


def _page(flags, level, count, *blocks) -> bytes:
    """A hand-built page: header, then raw blocks."""
    return struct.pack("<BBHI", flags, level, 0, count) + b"".join(blocks)


entry_sets = st.lists(
    st.tuples(
        st.sets(st.integers(min_value=0, max_value=N_BITS - 1), max_size=20),
        st.integers(min_value=0, max_value=10**9),
    ),
    min_size=0,
    max_size=12,
)


class TestNodeCodec:
    @given(entry_sets, st.booleans(), st.booleans(), st.integers(0, 5))
    @settings(max_examples=60)
    def test_round_trip(self, raw_entries, is_leaf, compress, level):
        signatures = [Signature.from_items(items, N_BITS) for items, _ in raw_entries]
        arrays = _arrays(
            signatures, [ref for _, ref in raw_entries], is_leaf=is_leaf, level=level
        )
        data = encode_node(arrays, N_BITS, compress=compress)
        decoded = decode_node(data, N_BITS)
        _assert_same(decoded, arrays)
        assert [Signature(row, N_BITS) for row in decoded.matrix] == signatures

    def test_compressed_smaller_for_sparse_nodes(self):
        arrays = _arrays(
            [Signature.from_items([i], N_BITS) for i in range(10)], list(range(10))
        )
        assert len(encode_node(arrays, N_BITS, compress=True)) < len(
            encode_node(arrays, N_BITS, compress=False)
        )

    def test_trailing_garbage_rejected(self):
        data = encode_node(_arrays([], []), N_BITS) + b"\x00"
        with pytest.raises(ValueError, match="trailing"):
            decode_node(data, N_BITS)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            decode_node(b"\x01", N_BITS)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            encode_node(_arrays([], [], is_leaf=False, level=256), N_BITS)

    @pytest.mark.parametrize("compress", [False, True])
    def test_compressed_trailing_garbage_rejected(self, compress):
        arrays = _arrays([Signature.from_items([1, 5], N_BITS)], [3])
        data = encode_node(arrays, N_BITS, compress=compress) + b"\x07"
        with pytest.raises(NodeDecodeError, match="trailing"):
            decode_node(data, N_BITS)

    def test_encoder_rejects_negative_ref(self):
        arrays = _arrays([Signature.from_items([1], N_BITS)], [-1])
        with pytest.raises(ValueError, match="negative"):
            encode_node(arrays, N_BITS)

    def test_nonzero_reserved_header_rejected(self):
        data = bytearray(encode_node(_arrays([], []), N_BITS))
        data[2] = 1
        with pytest.raises(NodeDecodeError, match="header"):
            decode_node(bytes(data), N_BITS)


stat_triples = st.tuples(
    st.integers(0, N_BITS), st.integers(0, N_BITS), st.integers(0, 2**32 - 1)
)


class TestDecodeNodeArrays:
    """The one decoder every disk-mode fault, raw or compressed, goes
    through: round trips, and typed errors for every framing violation."""

    @given(
        st.lists(
            st.tuples(
                st.sets(st.integers(0, N_BITS - 1), max_size=20),
                st.integers(0, 2**63 - 1),
                stat_triples,
            ),
            max_size=12,
        ),
        st.booleans(),
        st.integers(0, 5),
    )
    @settings(max_examples=80)
    def test_round_trip_matches_decode_node(self, raw_entries, with_stats, level):
        arrays = _arrays(
            [Signature.from_items(items, N_BITS) for items, _, _ in raw_entries],
            [ref for _, ref, _ in raw_entries],
            is_leaf=level == 0, level=level,
            stats=[stat for _, _, stat in raw_entries] if with_stats else None,
        )
        for compress in (False, True):
            decoded = decode_node(encode_node(arrays, N_BITS, compress), N_BITS)
            _assert_same(decoded, arrays)

    def test_compressed_page_decodes_like_raw(self):
        """A compressed page goes through the same decoder as a raw one
        and yields the same arrays."""
        arrays = _arrays(
            [Signature.from_items([3], N_BITS), Signature.from_items(range(60), N_BITS)],
            [1, 2], is_leaf=False, level=1, stats=[(1, 1, 1), (60, 60, 4)],
        )
        compressed = decode_node(encode_node(arrays, N_BITS, compress=True), N_BITS)
        raw = decode_node(encode_node(arrays, N_BITS), N_BITS)
        _assert_same(compressed, raw)
        _assert_same(compressed, arrays)

    @pytest.mark.parametrize("bad", [2**63, 2**64 - 1])
    def test_ref_past_int64_is_a_decode_error(self, bad):
        """A ref block word at or past 2**63 reads as a negative ``<i8``:
        the decoder rejects it with the typed error the store's
        rescue/quarantine path sees, on raw and compressed pages."""
        ref = struct.pack("<Q", bad)
        for flags, signature in ((0x01, bytes(8 * 4)), (0x03, b"\x00")):
            with pytest.raises(NodeDecodeError, match="negative"):
                decode_node(_page(flags, 0, 1, ref, signature), N_BITS)

    @pytest.mark.parametrize("position", range(3))
    def test_stat_past_int64_is_a_decode_error(self, position):
        """A statistic past int64 (indeed past ``u32``) cannot reach a
        page: the stats block is ``u32`` columns, which always widen to
        int64 on decode, and the encoder refuses any value that does not
        fit them."""
        stats = [1, 2, 3]
        for bad in (2**32, 2**63 - 1, -1):
            stats[position] = bad
            arrays = _arrays(
                [Signature.from_items([1], N_BITS)], [7], is_leaf=False, level=1,
                stats=[tuple(stats)],
            )
            with pytest.raises(ValueError, match="u32"):
                encode_node(arrays, N_BITS)
        # the widest value the column can hold decodes without overflow
        page = _page(
            0x04, 1, 1, struct.pack("<q", 7),
            struct.pack("<III", 2**32 - 1, 2**32 - 1, 2**32 - 1) + bytes(4),
            bytes(8 * WIDTH),
        )
        decoded = decode_node(page, N_BITS)
        assert [decoded.mins[0], decoded.maxs[0], decoded.counts[0]] == [2**32 - 1] * 3

    def test_oversized_count_rejected_before_allocating(self):
        for flags in (0x01, 0x03, 0x05, 0x07):  # raw/compressed, with/without stats
            blob = _page(flags, 0, 2**32 - 1, bytes(16))
            with pytest.raises(NodeDecodeError, match="cannot fit"):
                decode_node(blob, 100)

    @pytest.mark.parametrize("compress", [False, True])
    def test_bits_past_n_bits_rejected(self, compress):
        signature = (b"\xff" * 8) * WIDTH  # every bit of the tail word set
        if compress:
            signature = b"\xff" + signature  # the verbatim-bitmap form
        page = _page(0x01 | (0x02 if compress else 0), 0, 1, bytes(8), signature)
        with pytest.raises(NodeDecodeError, match="bits|beyond"):
            decode_node(page, N_BITS)


class TestRoundTripGrid:
    """Leaf/directory × raw/compressed × ragged tail word × empty node."""

    @pytest.mark.parametrize("n_bits", [64, 100, 200, 1000])
    @pytest.mark.parametrize("is_leaf", [True, False])
    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("n_entries", [0, 1, 7])
    def test_round_trip(self, n_bits, is_leaf, compress, n_entries):
        rng = np.random.default_rng(n_bits * 31 + n_entries)
        signatures = [
            Signature.from_items(
                rng.choice(n_bits, size=int(rng.integers(0, 40)), replace=False).tolist(),
                n_bits,
            )
            for _ in range(n_entries)
        ]
        # the largest tid and ref the columns hold, beside small ones
        refs = [2**63 - 1 - i if i % 2 else i for i in range(n_entries)]
        stats = None if is_leaf else [
            (s.area, s.area + 1, 2**32 - 1 - i) for i, s in enumerate(signatures)
        ]
        arrays = _arrays(
            signatures, refs, is_leaf=is_leaf, level=0 if is_leaf else 2,
            stats=stats, n_bits=n_bits,
        )
        data = encode_node(arrays, n_bits, compress=compress)
        _assert_same(decode_node(data, n_bits), arrays)

    def test_raw_page_arrays_are_views_of_the_page(self):
        arrays = _arrays([Signature.from_items([1, 2], N_BITS)] * 3, [4, 5, 6])
        data = encode_node(arrays, N_BITS)
        decoded = decode_node(data, N_BITS)
        for array in (decoded.refs, decoded.matrix):
            assert array.base is not None and not array.flags.writeable
            assert array.flags.c_contiguous and array.flags.aligned


# (page_size, n_bits, compress) -> (capacity_for_page, max_entry_size)
# as the varint page format derived them; the columnar format keeps the
# same bound, so fan-outs and tree shapes do not move.
CAPACITY_GRID = {
    (1024, 64, False): (34, 29),
    (1024, 64, True): (33, 30),
    (1024, 96, False): (27, 37),
    (2048, 200, False): (38, 53),
    (2048, 525, False): (21, 93),
    (2048, 525, True): (21, 94),
    (4096, 1000, False): (27, 149),
    (8192, 525, False): (87, 93),
    (8192, 525, True): (87, 94),
    (8192, 1000, False): (54, 149),
    (8192, 1000, True): (54, 150),
    (16384, 2000, False): (59, 277),
}


class TestCapacity:
    def test_capacity_fits_page(self):
        for n_bits in (64, 525, 1000):
            for page_size in (2048, 8192):
                for compress in (False, True):
                    capacity = capacity_for_page(page_size, n_bits, compress)
                    dense = Signature.from_items(range(n_bits), n_bits)
                    arrays = _arrays(
                        [dense] * capacity, [2**62] * capacity,
                        is_leaf=False, level=1,
                        stats=[(n_bits, n_bits, 2**32 - 1)] * capacity,
                    )
                    assert len(encode_node(arrays, n_bits, compress)) <= page_size

    def test_capacity_in_paper_range(self):
        # "M is in the order of several tens" for several-hundred-bit
        # signatures on usual pages.
        assert 20 <= capacity_for_page(8192, 525) <= 200

    def test_tiny_page_rejected(self):
        with pytest.raises(ValueError):
            capacity_for_page(64, 10_000)

    def test_max_entry_size_compress_flag(self):
        assert max_entry_size(128, compress=True) == max_entry_size(128) + 1

    @pytest.mark.parametrize("key", sorted(CAPACITY_GRID))
    def test_capacity_grid_pinned(self, key):
        page_size, n_bits, compress = key
        assert (
            capacity_for_page(page_size, n_bits, compress),
            max_entry_size(n_bits, compress),
        ) == CAPACITY_GRID[key]
