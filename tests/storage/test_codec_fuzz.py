"""Robustness fuzzing: decoders must reject garbage, never crash."""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeDecodeError
from repro.storage import compression, read_records
from repro.storage.serialization import decode_node

# every combination of the leaf, compressed and statistics flags
_FLAGS = st.integers(0, 7)


def _header(flags: int, level: int, count: int) -> bytes:
    return struct.pack("<BBHI", flags, level, 0, count)


def _check_plausible(arrays) -> None:
    n_entries = arrays.refs.shape[0]
    assert arrays.matrix.shape == (n_entries, 2)
    assert (arrays.refs >= 0).all()
    for stat in (arrays.mins, arrays.maxs, arrays.counts):
        assert stat is None or (stat.shape == (n_entries,) and (stat >= 0).all())
    tail_mask = np.uint64(~((1 << 36) - 1) & (2**64 - 1))  # bits 100..127
    assert not (arrays.matrix[:, -1] & tail_mask).any()


class TestNodeCodecFuzz:
    @given(
        st.one_of(
            st.binary(min_size=0, max_size=300),
            # a well-formed header (any flags, raw or compressed) with a
            # small entry count over random bytes
            st.tuples(
                _FLAGS, st.integers(0, 255), st.integers(0, 6),
                st.binary(min_size=0, max_size=300),
            ).map(lambda t: _header(*t[:3]) + t[3]),
        )
    )
    @settings(max_examples=300)
    def test_decode_node_never_crashes(self, blob):
        """Arbitrary bytes, compressed pages included, either decode to a
        structurally plausible node or raise ``NodeDecodeError`` — no
        other exception type escapes."""
        try:
            arrays = decode_node(blob, 100)
        except NodeDecodeError:
            return
        _check_plausible(arrays)

    @given(
        st.integers(0, 7).map(lambda flags: flags & ~0x02),
        st.integers(0, 6),
        st.data(),
    )
    @settings(max_examples=200)
    def test_decode_node_arrays_never_crashes(self, flags, count, data):
        """Raw pages of exactly the right length for their count, with
        random refs, statistics and bitmaps: the decoder returns views
        that pass every check (no negative ref, no bit past ``n_bits``)
        or raises ``NodeDecodeError``."""
        size = count * 8 + count * 16
        if flags & 0x04:
            size += (count * 12 + 7) // 8 * 8
        blob = _header(flags, 1, count) + data.draw(
            st.binary(min_size=size, max_size=size)
        )
        try:
            arrays = decode_node(blob, 100)
        except NodeDecodeError:
            return
        _check_plausible(arrays)

    @given(st.binary(min_size=0, max_size=100))
    @settings(max_examples=100)
    def test_decode_signature_never_crashes(self, blob):
        try:
            signature = compression.decode(blob, 64)
        except ValueError:
            return
        assert signature.n_bits == 64

    @given(st.binary(min_size=1, max_size=100), st.integers(0, 40))
    @settings(max_examples=60)
    def test_decode_prefix_never_crashes(self, blob, offset):
        try:
            signature, end = compression.decode_prefix(blob, offset, 64)
        except ValueError:
            return
        assert offset < end <= len(blob) + 64


class TestWalFuzz:
    @given(st.binary(min_size=0, max_size=400))
    @settings(max_examples=100)
    def test_read_records_never_crashes(self, tmp_path_factory, blob):
        """A corrupt log file yields a (possibly empty) prefix of valid
        records — it must never raise."""
        path = tmp_path_factory.mktemp("wal") / "fuzz.wal"
        path.write_bytes(blob)
        records = list(read_records(path))
        assert isinstance(records, list)
