"""Cross-check the vectorised bit kernels against pure-Python references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitops

# -- pure-Python reference implementations -----------------------------------


def ref_sets(positions_a: set[int], positions_b: set[int]) -> tuple[set[int], ...]:
    return (
        positions_a | positions_b,
        positions_a & positions_b,
        positions_a - positions_b,
        positions_a ^ positions_b,
    )


positions_strategy = st.sets(st.integers(min_value=0, max_value=299), max_size=60)


class TestPackUnpack:
    def test_round_trip_small(self):
        words = bitops.pack([0, 5, 63, 64, 127], 128)
        assert bitops.unpack(words) == [0, 5, 63, 64, 127]

    def test_empty(self):
        words = bitops.pack([], 77)
        assert bitops.unpack(words) == []
        assert bitops.popcount(words) == 0

    def test_duplicates_collapse(self):
        words = bitops.pack([3, 3, 3], 10)
        assert bitops.unpack(words) == [3]
        assert bitops.popcount(words) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bitops.pack([64], 64)
        with pytest.raises(ValueError):
            bitops.pack([-1], 64)

    def test_word_boundary_bits(self):
        for n_bits in (63, 64, 65, 128, 129):
            positions = [0, n_bits - 1]
            assert bitops.unpack(bitops.pack(positions, n_bits)) == sorted(set(positions))

    @given(positions_strategy)
    def test_round_trip_property(self, positions):
        words = bitops.pack(positions, 300)
        assert bitops.unpack(words) == sorted(positions)
        assert bitops.popcount(words) == len(positions)


class TestWordCounts:
    def test_n_words(self):
        assert bitops.n_words(0) == 0
        assert bitops.n_words(1) == 1
        assert bitops.n_words(64) == 1
        assert bitops.n_words(65) == 2
        assert bitops.n_words(525) == 9

    def test_n_words_negative(self):
        with pytest.raises(ValueError):
            bitops.n_words(-1)


class TestSetAlgebra:
    @given(positions_strategy, positions_strategy)
    @settings(max_examples=60)
    def test_against_python_sets(self, a, b):
        wa, wb = bitops.pack(a, 300), bitops.pack(b, 300)
        union, inter, diff, sym = ref_sets(a, b)
        assert bitops.unpack(bitops.union(wa, wb)) == sorted(union)
        assert bitops.unpack(bitops.intersect(wa, wb)) == sorted(inter)
        assert bitops.unpack(bitops.difference(wa, wb)) == sorted(diff)
        assert bitops.unpack(bitops.symmetric_difference(wa, wb)) == sorted(sym)

    @given(positions_strategy, positions_strategy)
    @settings(max_examples=60)
    def test_counts_match_sets(self, a, b):
        wa, wb = bitops.pack(a, 300), bitops.pack(b, 300)
        assert bitops.union_count(wa, wb) == len(a | b)
        assert bitops.intersect_count(wa, wb) == len(a & b)
        assert bitops.difference_count(wa, wb) == len(a - b)
        assert bitops.hamming(wa, wb) == len(a ^ b)

    @given(positions_strategy, positions_strategy)
    @settings(max_examples=60)
    def test_containment_matches_issubset(self, a, b):
        wa, wb = bitops.pack(a, 300), bitops.pack(b, 300)
        assert bitops.contains(wa, wb) == b.issubset(a)
        assert bitops.equal(wa, wb) == (a == b)

    def test_is_empty(self):
        assert bitops.is_empty(bitops.zeros(100))
        assert not bitops.is_empty(bitops.pack([1], 100))


class TestMatrixForms:
    def test_popcount_matrix(self):
        matrix = np.stack([bitops.pack([1, 2], 128), bitops.pack([5], 128)])
        assert bitops.popcount(matrix).tolist() == [2, 1]

    def test_hamming_broadcast(self):
        matrix = np.stack(
            [bitops.pack([0, 1], 128), bitops.pack([0], 128), bitops.pack([], 128)]
        )
        query = bitops.pack([0, 1], 128)
        assert bitops.hamming(matrix, query).tolist() == [0, 1, 2]

    def test_contains_broadcast_matrix_container(self):
        matrix = np.stack([bitops.pack([0, 1, 2], 64), bitops.pack([3], 64)])
        query = bitops.pack([0, 2], 64)
        assert bitops.contains(matrix, query).tolist() == [True, False]

    def test_contains_broadcast_matrix_contained(self):
        matrix = np.stack([bitops.pack([0], 64), bitops.pack([0, 9], 64)])
        container = bitops.pack([0, 1, 2], 64)
        assert bitops.contains(container, matrix).tolist() == [True, False]

    def test_union_all(self):
        matrix = np.stack([bitops.pack([0], 64), bitops.pack([1], 64), bitops.pack([63], 64)])
        assert bitops.unpack(bitops.union_all(matrix)) == [0, 1, 63]

    def test_union_all_empty_matrix(self):
        matrix = np.zeros((0, 2), dtype=np.uint64)
        assert bitops.popcount(bitops.union_all(matrix)) == 0

    def test_pairwise_hamming(self):
        sets = [{0, 1}, {1, 2}, set()]
        matrix = np.stack([bitops.pack(s, 64) for s in sets])
        distances = bitops.pairwise_hamming(matrix)
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                assert distances[i, j] == len(a ^ b)


class TestSerialisation:
    @given(positions_strategy)
    @settings(max_examples=40)
    def test_bytes_round_trip(self, positions):
        words = bitops.pack(positions, 300)
        data = bitops.to_bytes(words)
        assert len(data) == bitops.n_words(300) * 8
        restored = bitops.from_bytes(data, 300)
        assert bitops.unpack(restored) == sorted(positions)

    def test_from_bytes_wrong_size(self):
        with pytest.raises(ValueError):
            bitops.from_bytes(b"\x00" * 8, 300)


class TestGrayRank:
    def test_gray_neighbours_differ_by_one_rank(self):
        # Consecutive Gray codes differ in exactly one bit; their ranks
        # must therefore be consecutive integers.
        def binary_to_gray(n: int) -> int:
            return n ^ (n >> 1)

        for rank in range(64):
            gray = binary_to_gray(rank)
            positions = [i for i in range(8) if gray >> i & 1]
            words = bitops.pack(positions, 8)
            assert bitops.gray_rank(words) == rank

    def test_to_int_positional(self):
        words = bitops.pack([0, 65], 128)
        assert bitops.to_int(words) == 1 | (1 << 65)


class TestCrossKernels:
    """Matrix x matrix popcount kernels against set arithmetic."""

    A_SETS = [{0, 1, 70}, {1, 2}, set(), {5, 64, 127}]
    B_SETS = [{0, 1}, {2, 64}, {70}]

    def _matrices(self):
        a = np.stack([bitops.pack(s, 128) for s in self.A_SETS])
        b = np.stack([bitops.pack(s, 128) for s in self.B_SETS])
        return a, b

    def test_cross_hamming(self):
        a, b = self._matrices()
        out = bitops.cross_hamming(a, b)
        assert out.shape == (len(self.A_SETS), len(self.B_SETS))
        assert out.dtype == np.int64
        for i, x in enumerate(self.A_SETS):
            for j, y in enumerate(self.B_SETS):
                assert out[i, j] == len(x ^ y)

    def test_cross_intersect_count(self):
        a, b = self._matrices()
        out = bitops.cross_intersect_count(a, b)
        for i, x in enumerate(self.A_SETS):
            for j, y in enumerate(self.B_SETS):
                assert out[i, j] == len(x & y)

    @given(st.lists(positions_strategy, min_size=1, max_size=6),
           st.lists(positions_strategy, min_size=1, max_size=6))
    @settings(max_examples=25)
    def test_cross_rows_match_vector_kernels(self, a_sets, b_sets):
        """Row q of every cross kernel equals the 1-vs-many kernel."""
        a = np.stack([bitops.pack(s, 300) for s in a_sets])
        b = np.stack([bitops.pack(s, 300) for s in b_sets])
        cross = bitops.cross_hamming(a, b)
        for q in range(len(a_sets)):
            row = bitops.hamming(a[q], b)
            assert np.array_equal(cross[q], row)
