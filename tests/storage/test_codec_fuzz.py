"""Robustness fuzzing: decoders must reject garbage, never crash."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeDecodeError
from repro.storage import compression, read_records
from repro.storage.serialization import decode_node, decode_node_arrays


class TestNodeCodecFuzz:
    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=150)
    def test_decode_node_never_crashes(self, blob):
        """Arbitrary bytes either decode to a structurally plausible node
        or raise ValueError — no other exception type escapes."""
        try:
            image = decode_node(blob, 100)
        except ValueError:
            return
        assert isinstance(image.entries, list)
        for signature, ref in image.entries:
            assert signature.n_bits == 100
            assert ref >= 0

    @given(
        st.one_of(
            st.binary(min_size=0, max_size=300),
            # an uncompressed header (leaf/stats flags) over random bytes
            st.tuples(
                st.sampled_from([b"\x00", b"\x01", b"\x04", b"\x05"]),
                st.binary(min_size=0, max_size=300),
            ).map(b"".join),
        )
    )
    @settings(max_examples=200)
    def test_decode_node_arrays_never_crashes(self, blob):
        """The array twin: arbitrary bytes decode cleanly (or are left to
        the object codec as compressed) or raise ``NodeDecodeError`` —
        no other exception type escapes."""
        try:
            arrays = decode_node_arrays(blob, 100)
        except NodeDecodeError:
            return
        if arrays is None:
            assert blob[0] & 0x02  # compressed: the object codec's page
            return
        n_entries = arrays.refs.shape[0]
        assert arrays.matrix.shape == (n_entries, 2)
        assert (arrays.refs >= 0).all()
        for stat in (arrays.mins, arrays.maxs, arrays.counts):
            assert stat is None or (stat.shape == (n_entries,) and (stat >= 0).all())

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
