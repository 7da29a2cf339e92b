"""The percentile rule: failed operations rank above every success."""

import pytest

from perfbench.common import LATENCY_LIMIT_MS, median, percentile


def test_nearest_rank_on_successes():
    samples = [(float(v), False) for v in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 95) == 95.0
    assert percentile(samples, 100) == 100.0
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_failures_rank_above_every_success():
    # 90 fast successes, 10 failures that returned even faster.
    samples = [(10.0, False)] * 90 + [(1.0, True)] * 10
    assert percentile(samples, 50) == 10.0
    assert percentile(samples, 95) == LATENCY_LIMIT_MS + 1.0


def test_failure_value_exceeds_slowest_success():
    samples = [(5000.0, False), (2.0, True)]
    assert percentile(samples, 100) == 5000.0 + 2.0
    assert percentile(samples, 50) == 5000.0


def test_fixing_failures_lowers_the_tail():
    broken = [(20.0, False)] * 80 + [(5.0, True)] * 20
    fixed = [(20.0, False)] * 80 + [(30.0, False)] * 20
    assert percentile(fixed, 95) < percentile(broken, 95)


def test_all_failed_still_varies_with_latency():
    a = percentile([(3.0, True), (4.0, True)], 50)
    b = percentile([(5.0, True), (6.0, True)], 50)
    assert a != b


@pytest.mark.parametrize("q", [50, 95])
def test_empty_is_zero(q):
    assert percentile([], q) == 0.0


def test_sliced_rate_is_the_median_slice():
    from perfbench.common import sliced_rate

    # 10 s window, 5 slices of 2 s: 20 units in each slice but one slow
    # slice with 2 units, which the median ignores.
    events = [(2 * i, 2 * i + 1, 20) for i in range(4)] + [(8.5, 9.5, 2)]
    assert sliced_rate(events, 0.0, 10.0) == 10.0
    assert sliced_rate([], 0.0, 10.0) == 0.0
    assert sliced_rate([(1.0, 1.5, 5)], 1.0, 1.0) == 0.0


def test_sliced_rate_splits_an_op_across_slices():
    from perfbench.common import sliced_rate

    # one op per second, each 1 s long and straddling slice boundaries
    events = [(0.5 + i, 1.5 + i, 4) for i in range(9)] + [(0.0, 0.5, 2), (9.5, 10.0, 2)]
    assert sliced_rate(events, 0.0, 10.0) == 4.0
