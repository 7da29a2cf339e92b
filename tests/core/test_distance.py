"""Metric correctness and bound admissibility (the search's soundness)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    COSINE,
    DICE,
    HAMMING,
    JACCARD,
    OVERLAP,
    HammingMetric,
    Signature,
    resolve_metric,
)

N_BITS = 150
positions = st.sets(st.integers(min_value=0, max_value=N_BITS - 1), max_size=30)
ALL_METRICS = [HAMMING, JACCARD, DICE, OVERLAP, COSINE]


def sig(items) -> Signature:
    return Signature.from_items(items, N_BITS)


class TestScalarDistances:
    def test_hamming_values(self):
        assert HAMMING.distance(sig({1, 2}), sig({2, 3})) == 2.0
        assert HAMMING.distance(sig({1}), sig({1})) == 0.0

    def test_jaccard_values(self):
        assert JACCARD.distance(sig({1, 2}), sig({2, 3})) == pytest.approx(1 - 1 / 3)
        assert JACCARD.distance(sig(set()), sig(set())) == 0.0
        assert JACCARD.distance(sig({1}), sig({2})) == 1.0

    def test_dice_values(self):
        assert DICE.distance(sig({1, 2}), sig({2, 3})) == pytest.approx(1 - 2 / 4)
        assert DICE.distance(sig(set()), sig(set())) == 0.0

    def test_cosine_values(self):
        assert COSINE.distance(sig({1, 2}), sig({2, 3})) == pytest.approx(1 - 1 / 2)
        assert COSINE.distance(sig({1, 2}), sig({1, 2})) == pytest.approx(0.0)
        assert COSINE.distance(sig(set()), sig(set())) == 0.0
        assert COSINE.distance(sig(set()), sig({2})) == 1.0
        assert COSINE.distance(sig({1}), sig({2})) == 1.0

    def test_overlap_values(self):
        assert OVERLAP.distance(sig({1, 2, 3}), sig({2, 3})) == 0.0
        assert OVERLAP.distance(sig({1}), sig({2})) == 1.0
        assert OVERLAP.distance(sig(set()), sig({2})) == 1.0
        assert OVERLAP.distance(sig(set()), sig(set())) == 0.0

    @given(positions, positions)
    @settings(max_examples=40)
    def test_identity_and_symmetry(self, a, b):
        sa, sb = sig(a), sig(b)
        for metric in ALL_METRICS:
            assert metric.distance(sa, sa) == 0.0
            assert metric.distance(sa, sb) == pytest.approx(metric.distance(sb, sa))
            assert metric.distance(sa, sb) >= 0.0


class TestVectorisedForms:
    """Scalar and one-vs-many forms derive from one counts definition per
    metric, so they agree exactly, not approximately."""

    METRICS = ALL_METRICS + [HammingMetric(fixed_area=5)]

    @given(st.lists(positions, min_size=1, max_size=8), positions)
    @settings(max_examples=30)
    # cosine at |q| = 23, |t| = 127: (23 * 127) ** 0.5 and sqrt(23 * 127)
    # round one ulp apart, so a scalar form using ** 0.5 disagrees
    @example(rows=[set(range(1, 128))], q=set(range(23)))
    def test_distance_many_matches_scalar(self, rows, q):
        sigs = [sig(r) for r in rows]
        matrix = np.stack([s.words for s in sigs])
        query = sig(q)
        for metric in self.METRICS:
            many = metric.distance_many(query, matrix)
            for i, s in enumerate(sigs):
                assert many[i] == metric.distance(query, s), metric

    @given(st.lists(positions, min_size=1, max_size=8), positions)
    @settings(max_examples=30)
    def test_lower_bound_many_matches_scalar(self, rows, q):
        sigs = [sig(r) for r in rows]
        matrix = np.stack([s.words for s in sigs])
        query = sig(q)
        for metric in self.METRICS:
            many = metric.lower_bound_many(query, matrix)
            for i, s in enumerate(sigs):
                assert many[i] == metric.lower_bound(query, s), metric


class TestBoundAdmissibility:
    """lower_bound(q, union(group)) must never exceed the true distance to
    any member of the group — the correctness core of branch-and-bound."""

    @given(st.lists(positions, min_size=1, max_size=10), positions)
    @settings(max_examples=60)
    def test_bounds_admissible(self, group, q):
        members = [sig(g) for g in group]
        entry_sig = Signature.union_of(members)
        query = sig(q)
        for metric in ALL_METRICS:
            bound = metric.lower_bound(query, entry_sig)
            for member in members:
                assert bound <= metric.distance(query, member) + 1e-9

    @given(st.lists(positions, min_size=1, max_size=10), positions, st.integers(1, 20))
    @settings(max_examples=60)
    def test_fixed_area_bound_admissible(self, group, q, area):
        # Pad every member to exactly `area` items, as categorical data has.
        members = []
        for g in group:
            items = sorted(g)[:area]
            filler = [i for i in range(N_BITS) if i not in items]
            items = items + filler[: area - len(items)]
            members.append(sig(items))
        entry_sig = Signature.union_of(members)
        query = sig(q)
        metric = HammingMetric(fixed_area=area)
        bound = metric.lower_bound(query, entry_sig)
        plain = HAMMING.lower_bound(query, entry_sig)
        assert bound >= plain  # the Section-6 bound is stricter
        for member in members:
            assert bound <= HAMMING.distance(query, member) + 1e-9


class TestResolveMetric:
    def test_by_name(self):
        assert resolve_metric("hamming") is HAMMING
        assert resolve_metric("jaccard") is JACCARD
        assert resolve_metric("cosine") is COSINE

    def test_passthrough(self):
        metric = HammingMetric(fixed_area=36)
        assert resolve_metric(metric) is metric

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown metric"):
            resolve_metric("euclidean")


class TestMatrixForms:
    """distance_matrix / lower_bound_matrix vs the 1-vs-many forms.

    The batched engine relies on row ``q`` of the matrix form being
    bit-for-bit identical (same float ops, not approximately equal) to
    the ``*_many`` call for query ``q`` — that is what makes batched
    search results exactly equal to sequential ones.
    """

    MATRIX_METRICS = ALL_METRICS + [HammingMetric(fixed_area=5)]

    @staticmethod
    def _stack(signatures):
        queries = np.stack([s.words for s in signatures])
        areas = np.asarray([s.area for s in signatures], dtype=np.int64)
        return queries, areas

    @given(st.lists(positions, min_size=1, max_size=5),
           st.lists(positions, min_size=1, max_size=8))
    @settings(max_examples=30)
    def test_distance_matrix_rows_bit_identical(self, query_sets, entry_sets):
        entry_matrix = np.stack([sig(s).words for s in entry_sets])
        query_sigs = [sig(s) for s in query_sets]
        queries, areas = self._stack(query_sigs)
        for metric in self.MATRIX_METRICS:
            out = metric.distance_matrix(queries, areas, entry_matrix)
            assert out.shape == (len(query_sets), len(entry_sets))
            for q, signature in enumerate(query_sigs):
                expected = metric.distance_many(signature, entry_matrix)
                assert np.array_equal(out[q], expected), metric.name

    @given(st.lists(positions, min_size=1, max_size=5),
           st.lists(positions, min_size=1, max_size=8))
    @settings(max_examples=30)
    def test_lower_bound_matrix_rows_bit_identical(self, query_sets, entry_sets):
        entry_matrix = np.stack([sig(s).words for s in entry_sets])
        query_sigs = [sig(s) for s in query_sets]
        queries, areas = self._stack(query_sigs)
        for metric in self.MATRIX_METRICS:
            out = metric.lower_bound_matrix(queries, areas, entry_matrix)
            for q, signature in enumerate(query_sigs):
                expected = metric.lower_bound_many(signature, entry_matrix)
                assert np.array_equal(out[q], expected), metric.name

    @given(st.lists(positions, min_size=1, max_size=4),
           st.lists(positions, min_size=1, max_size=6))
    @settings(max_examples=30)
    def test_matrix_bound_admissible(self, query_sets, entry_sets):
        """The matrix bound never exceeds the distance to any member."""
        union = sig(set().union(*entry_sets))
        coverage = np.stack([union.words])
        query_sigs = [sig(s) for s in query_sets]
        queries, areas = self._stack(query_sigs)
        for metric in ALL_METRICS:
            bounds = metric.lower_bound_matrix(queries, areas, coverage)
            for q, signature in enumerate(query_sigs):
                for entry_set in entry_sets:
                    assert bounds[q, 0] <= metric.distance(
                        signature, sig(entry_set)
                    ) + 1e-12, metric.name
