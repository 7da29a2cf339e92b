"""Node codec: round trips, varints, page-capacity derivation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Signature
from repro.errors import NodeDecodeError
from repro.storage.serialization import (
    NodeImage,
    capacity_for_page,
    decode_node,
    decode_node_arrays,
    encode_node,
    max_entry_size,
    read_varint,
    write_varint,
)

N_BITS = 200


class TestVarint:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=60)
    def test_round_trip(self, value):
        out = bytearray()
        write_varint(value, out)
        decoded, offset = read_varint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    def test_known_encodings(self):
        out = bytearray()
        write_varint(0, out)
        assert bytes(out) == b"\x00"
        out = bytearray()
        write_varint(300, out)
        assert bytes(out) == b"\xac\x02"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            write_varint(-1, bytearray())

    def test_truncated(self):
        with pytest.raises(ValueError, match="truncated"):
            read_varint(b"\x80", 0)

    def test_int64_bound(self):
        with pytest.raises(ValueError, match="int64"):
            write_varint(2**63, bytearray())
        # 2**63 in ten bytes: a well-formed LEB128 value past int64
        with pytest.raises(ValueError, match="int64"):
            read_varint(b"\x80" * 9 + b"\x01", 0)


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
        entries = [
            (Signature.from_items(items, N_BITS), ref) for items, ref in raw_entries
        ]
        image = NodeImage(is_leaf=is_leaf, level=level, entries=entries)
        data = encode_node(image, compress=compress)
        decoded = decode_node(data, N_BITS)
        assert decoded.is_leaf == is_leaf
        assert decoded.level == level
        assert decoded.entries == entries

    def test_compressed_smaller_for_sparse_nodes(self):
        entries = [(Signature.from_items([i], N_BITS), i) for i in range(10)]
        image = NodeImage(is_leaf=True, level=0, entries=entries)
        assert len(encode_node(image, compress=True)) < len(
            encode_node(image, compress=False)
        )

    def test_trailing_garbage_rejected(self):
        image = NodeImage(is_leaf=True, level=0, entries=[])
        data = encode_node(image) + b"\x00"
        with pytest.raises(ValueError, match="trailing"):
            decode_node(data, N_BITS)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            decode_node(b"\x01", N_BITS)

    def test_level_out_of_range(self):
        image = NodeImage(is_leaf=False, level=256, entries=[])
        with pytest.raises(ValueError):
            encode_node(image)


def _varint(value: int) -> bytes:
    """Unsigned LEB128 without the int64 bound, to build bad pages."""
    out = bytearray()
    while True:
        byte, value = value & 0x7F, value >> 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


stat_triples = st.tuples(
    st.integers(0, N_BITS), st.integers(0, N_BITS), st.integers(0, 2**63 - 1)
)


class TestDecodeNodeArrays:
    """The array codec every uncompressed disk-mode fault goes through
    must agree with the object codec on every page."""

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
        entries = [
            (Signature.from_items(items, N_BITS), ref)
            for items, ref, _ in raw_entries
        ]
        stats = [stat for _, _, stat in raw_entries] if with_stats else None
        image = NodeImage(
            is_leaf=level == 0, level=level, entries=entries, stats=stats
        )
        data = encode_node(image)
        arrays = decode_node_arrays(data, N_BITS)
        objects = decode_node(data, N_BITS)
        assert arrays.is_leaf == objects.is_leaf
        assert arrays.level == objects.level
        assert arrays.refs.dtype == np.int64
        assert arrays.refs.tolist() == [ref for _, ref in objects.entries]
        assert arrays.matrix.dtype == np.uint64
        assert arrays.matrix.shape == (len(entries), Signature.empty(N_BITS).words.size)
        for row, (signature, _) in zip(arrays.matrix, objects.entries):
            np.testing.assert_array_equal(row, signature.words)
        if objects.stats is None:
            assert arrays.mins is arrays.maxs is arrays.counts is None
        else:
            assert list(zip(
                arrays.mins.tolist(), arrays.maxs.tolist(), arrays.counts.tolist()
            )) == objects.stats

    def test_compressed_page_returns_none(self):
        image = NodeImage(
            is_leaf=True, level=0,
            entries=[(Signature.from_items([3], N_BITS), 1)],
        )
        assert decode_node_arrays(encode_node(image, compress=True), N_BITS) is None

    @pytest.mark.parametrize("bad", [2**63, 2**64])
    def test_ref_past_int64_is_a_decode_error(self, bad):
        """Both codecs reject the same page with the same typed error, so
        the store's rescue/quarantine path sees it."""
        blob = b"\x01\x00" + _varint(1) + _varint(bad) + bytes(16)
        for decode in (decode_node, decode_node_arrays):
            with pytest.raises(NodeDecodeError, match="int64"):
                decode(blob, 100)

    @pytest.mark.parametrize("position", range(3))
    def test_stat_past_int64_is_a_decode_error(self, position):
        stats = [1, 2, 3]
        stats[position] = 2**64
        blob = (
            b"\x04\x01" + _varint(1) + _varint(7)
            + b"".join(_varint(value) for value in stats) + bytes(16)
        )
        for decode in (decode_node, decode_node_arrays):
            with pytest.raises(NodeDecodeError, match="int64"):
                decode(blob, 100)

    def test_oversized_count_rejected_before_allocating(self):
        blob = b"\x01\x00" + _varint(2**62) + bytes(16)
        with pytest.raises(NodeDecodeError, match="cannot fit"):
            decode_node_arrays(blob, 100)


class TestCapacity:
    def test_capacity_fits_page(self):
        for n_bits in (64, 525, 1000):
            for page_size in (2048, 8192):
                capacity = capacity_for_page(page_size, n_bits)
                entries = [
                    (Signature.from_items(range(min(40, n_bits)), n_bits), 2**62)
                    for _ in range(capacity)
                ]
                image = NodeImage(is_leaf=True, level=0, entries=entries)
                assert len(encode_node(image)) <= page_size

    def test_capacity_in_paper_range(self):
        # "M is in the order of several tens" for several-hundred-bit
        # signatures on usual pages.
        assert 20 <= capacity_for_page(8192, 525) <= 200

    def test_tiny_page_rejected(self):
        with pytest.raises(ValueError):
            capacity_for_page(64, 10_000)

    def test_max_entry_size_compress_flag(self):
        assert max_entry_size(128, compress=True) == max_entry_size(128) + 1
