"""Ablation — Section-3.2 sparse-signature compression.

Measures the page-bytes saved by the position-list encoding on sparse
synthetic signatures (T10: 10-of-1000 bits set) and dense-ish CENSUS
signatures (36-of-525), and the codec's round-trip cost.
"""

from __future__ import annotations

import numpy as np
import pytest

from bench_common import cached_census, cached_quest, n_queries, report
from repro import Signature
from repro.storage import compression
from repro.storage.serialization import NodeArrays, decode_node, encode_node

T_SIZE, I_SIZE, D = 10, 6, 200_000


@pytest.fixture(scope="module")
def results():
    outcome = {}
    for label, workload in (
        ("T10.I6 (sparse)", cached_quest(T_SIZE, I_SIZE, D, n_queries())),
        ("CENSUS (36/525)", cached_census(D, n_queries())),
    ):
        raw = compressed = 0
        sample = workload.transactions[:5000]
        for transaction in sample:
            raw += compression.bitmap_bytes(workload.n_bits) + 1
            compressed += compression.encoded_size(transaction.signature)
        outcome[label] = (raw, compressed, len(sample))
    lines = ["Ablation: signature compression (Section 3.2)"]
    lines.append(f"{'dataset':<18}{'bitmap B/sig':>14}{'encoded B/sig':>15}{'ratio':>8}")
    for label, (raw, compressed, count) in outcome.items():
        lines.append(
            f"{label:<18}{raw / count:>14.1f}{compressed / count:>15.1f}"
            f"{raw / compressed:>8.2f}"
        )
    report("ablation_compression", "\n".join(lines))
    return outcome


class TestCompressionAblation:
    def test_sparse_signatures_compress_hard(self, results):
        raw, compressed, _ = results["T10.I6 (sparse)"]
        assert raw / compressed > 4.0  # ~10 set bits in 1000 -> ~6x

    def test_census_signatures_never_expand(self, results):
        # 36 two-byte positions (72 B) exactly tie the 9-word bitmap
        # (72 B): the encoder must never do worse than the bitmap form.
        raw, compressed, _ = results["CENSUS (36/525)"]
        assert raw / compressed >= 1.0


def test_benchmark_node_codec_round_trip(benchmark):
    workload = cached_quest(T_SIZE, I_SIZE, D, n_queries())
    entries = [
        (t.signature, t.tid) for t in workload.transactions[:50]
    ]
    arrays = NodeArrays(
        is_leaf=True, level=0,
        refs=np.array([tid for _, tid in entries], dtype=np.int64),
        matrix=np.stack([signature.words for signature, _ in entries]),
    )

    def round_trip():
        page = encode_node(arrays, workload.n_bits, compress=True)
        return decode_node(page, workload.n_bits)

    decoded = benchmark(round_trip)
    assert [
        (Signature(row, workload.n_bits), ref)
        for row, ref in zip(decoded.matrix, decoded.refs.tolist())
    ] == entries
