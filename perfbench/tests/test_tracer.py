"""Self-time arithmetic of the traced run."""

import pytest

from perfbench import tracer as tracing


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = Clock()
    monkeypatch.setattr(tracing.time, "perf_counter", fake)
    return fake


def test_self_time_subtracts_direct_children(clock):
    t = tracing.Tracer()

    def leaf(cost):
        clock.now += cost

    kernel = t.span("K.call", "kernel", leaf)

    def read():
        clock.now += 2.0
        kernel(1.0)            # nested kernel call inside storage

    storage = t.span("S.read", "storage", read)

    def search():
        clock.now += 3.0       # own work
        storage()
        kernel(0.5)
        clock.now += 1.0

    t.span("T.nearest", "search", search)()
    layers = tracing.layer_totals(t.snapshot())
    assert layers["search"]["self_s"] == pytest.approx(4.0)
    assert layers["search"]["wall_s"] == pytest.approx(7.5)
    assert layers["storage"]["self_s"] == pytest.approx(2.0)
    assert layers["storage"]["wall_s"] == pytest.approx(3.0)
    assert layers["kernel"]["self_s"] == pytest.approx(1.5)
    assert layers["kernel"]["entries"] == 2
    total_self = sum(row["self_s"] for row in layers.values())
    assert total_self == pytest.approx(layers["search"]["wall_s"])


def test_nested_same_layer_calls_count_once_as_entries(clock):
    t = tracing.Tracer()
    inner = t.span("K.inner", "kernel", lambda: setattr(clock, "now", clock.now + 1.0))

    def outer():
        clock.now += 1.0
        inner()
        inner()

    t.span("K.outer", "kernel", outer)()
    layers = tracing.layer_totals(t.snapshot())
    assert layers["kernel"]["calls"] == 3
    assert layers["kernel"]["entries"] == 1
    assert layers["kernel"]["wall_s"] == pytest.approx(3.0)
    assert layers["kernel"]["self_s"] == pytest.approx(3.0)


def test_exception_still_records_span(clock):
    t = tracing.Tracer()

    def boom():
        clock.now += 2.0
        raise ValueError

    with pytest.raises(ValueError):
        t.span("S.read", "storage", boom)()
    assert tracing.layer_totals(t.snapshot())["storage"]["self_s"] == pytest.approx(2.0)


def test_diff_and_window_samples(clock):
    t = tracing.Tracer()
    call = t.span("ShardHandle.call", "shard", lambda: setattr(clock, "now", clock.now + 1.0))
    call()
    before = t.snapshot()
    call()
    call()
    after = t.snapshot()
    delta = tracing.diff(after, before)
    assert tracing.layer_totals(delta)["shard"]["calls"] == 2
    assert tracing.window_samples(after, "ShardHandle.call", 1.5, 3.0) == [1.0, 1.0]


def test_install_wraps_and_uninstall_restores():
    from repro.sgtree.node import NodeStore

    original = NodeStore.read
    t = tracing.Tracer().install()
    try:
        assert NodeStore.read is not original
        assert NodeStore.read.__wrapped__ is original
    finally:
        t.uninstall()
    assert NodeStore.read is original
