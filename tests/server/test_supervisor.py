"""ShardSupervisor: probes, budgeted restarts, storm handling, revive."""

from __future__ import annotations

import functools
import time

import pytest

from repro import SGTree
from repro.server import (
    Backoff,
    CircuitBreaker,
    Query,
    ShardedTree,
    ShardHandle,
    ShardSupervisor,
    make_shard_handles,
    partition_transactions,
)
from repro.server.shard import ProcessShardWorker
from repro.telemetry import EventLog, MemoryEventSink, MetricsRegistry, Telemetry
from support import random_transactions

N_BITS = 120

FAST_BACKOFF = Backoff(initial=0.0, factor=1.0, max_delay=0.0, jitter=False)


def _slow_tree(delay: float) -> SGTree:
    """A shard tree that takes ``delay`` seconds to build."""
    time.sleep(delay)
    return SGTree(N_BITS)


def _slow_handle(first_build: float) -> ShardHandle:
    """A handle whose first incarnation builds slowly, later ones fast."""
    def factory(incarnation: int) -> ProcessShardWorker:
        delay = first_build if incarnation == 0 else 0.0
        return ProcessShardWorker(functools.partial(_slow_tree, delay))

    return ShardHandle(0, factory)


@pytest.fixture
def build_handles():
    """Builds supervised shard handles; stops their worker processes."""
    built = []

    def build(n_shards: int = 2, telemetry=None):
        transactions = random_transactions(seed=9, count=60, n_bits=N_BITS)
        partitions = partition_transactions(transactions, n_shards)
        handles = make_shard_handles(partitions, N_BITS, telemetry=telemetry)
        built.extend(handles)
        return handles

    yield build
    for handle in built:
        handle.close()


class TestSupervision:
    def test_healthy_shards_are_left_alone(self, build_handles):
        handles = build_handles()
        supervisor = ShardSupervisor(handles, backoff=FAST_BACKOFF)
        assert supervisor.check_once() == []
        assert all(h.restarts == 0 for h in handles)

    def test_dead_worker_is_restarted_and_answers_again(self, build_handles):
        telemetry = Telemetry(registry=MetricsRegistry(), events=EventLog())
        sink = telemetry.events.add_sink(MemoryEventSink())
        handles = build_handles(telemetry=telemetry)
        supervisor = ShardSupervisor(handles, backoff=FAST_BACKOFF,
                                     telemetry=telemetry)
        handles[0].worker.kill()
        restarted = supervisor.check_once()
        assert restarted == [handles[0].shard_id]
        assert handles[0].restarts == 1
        assert handles[0].incarnation == 1
        assert handles[0].probe() is not None
        events = sink.of_type("shard_restarted")
        assert events and events[0]["shard"] == handles[0].shard_id
        label = str(handles[0].shard_id)
        assert telemetry.shard_restarts_total.labels(shard=label).value == 1

    def test_restart_resets_the_breaker(self, build_handles):
        handles = build_handles()
        supervisor = ShardSupervisor(handles, backoff=FAST_BACKOFF)
        handles[1].breaker.force_open()
        handles[1].worker.kill()
        supervisor.check_once()
        assert handles[1].breaker.state == CircuitBreaker.CLOSED

    def test_storm_budget_marks_shard_failed(self, build_handles):
        telemetry = Telemetry(registry=MetricsRegistry(), events=EventLog())
        sink = telemetry.events.add_sink(MemoryEventSink())
        handles = build_handles(telemetry=telemetry)
        supervisor = ShardSupervisor(
            handles, backoff=FAST_BACKOFF, storm_budget=2, storm_window=60.0,
            telemetry=telemetry,
        )
        for _ in range(3):
            handles[0].worker.kill()
            supervisor.check_once()
        assert handles[0].state == "failed"
        assert handles[0].restarts == 2  # the budget, not the kill count
        assert handles[0].breaker.state == CircuitBreaker.OPEN
        assert sink.of_type("shard_failed")
        # A failed shard is skipped by later sweeps, not restarted forever.
        assert supervisor.check_once() == []
        assert handles[0].restarts == 2

    def test_revive_brings_a_failed_shard_back(self, build_handles):
        handles = build_handles()
        supervisor = ShardSupervisor(
            handles, backoff=FAST_BACKOFF, storm_budget=1, storm_window=60.0
        )
        handles[0].worker.kill()
        supervisor.check_once()
        handles[0].worker.kill()
        supervisor.check_once()
        assert handles[0].state == "failed"
        supervisor.revive(handles[0].shard_id)
        assert handles[0].state == "up"
        assert handles[0].probe() is not None
        with pytest.raises(KeyError):
            supervisor.revive(999)

    def test_monitor_thread_restarts_in_background(self, build_handles):
        handles = build_handles()
        supervisor = ShardSupervisor(
            handles, probe_interval=0.02, backoff=FAST_BACKOFF
        ).start()
        try:
            handles[0].worker.kill()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if handles[0].restarts >= 1 and handles[0].is_up():
                    break
                time.sleep(0.02)
            assert handles[0].restarts >= 1
            assert handles[0].probe() is not None
        finally:
            supervisor.stop()

    def test_restored_shard_rejoins_the_scatter(self, build_handles):
        handles = build_handles()
        sharded = ShardedTree(handles, N_BITS)
        supervisor = ShardSupervisor(handles, backoff=FAST_BACKOFF)
        try:
            for handle in handles:
                handle.probe()
            transactions = random_transactions(seed=9, count=60, n_bits=N_BITS)
            q = transactions[7].signature
            handles[0].worker.kill()
            _, coverage = sharded.query(Query("knn", q.items(), k=3))
            assert coverage.partial
            supervisor.check_once()
            _, coverage = sharded.query(Query("knn", q.items(), k=3))
            assert not coverage.partial
        finally:
            sharded.close()

    def test_rejects_bad_parameters(self, build_handles):
        handles = build_handles()
        with pytest.raises(ValueError):
            ShardSupervisor(handles, probe_interval=0.0)
        with pytest.raises(ValueError):
            ShardSupervisor(handles, storm_budget=0)


class TestFirstAnswerGrace:
    """A worker still building its tree is not a wedged worker."""

    def test_building_worker_survives_probe_timeouts(self):
        handle = _slow_handle(first_build=1.5)
        supervisor = ShardSupervisor(
            [handle], probe_timeout=0.1, backoff=FAST_BACKOFF
        )
        try:
            assert supervisor.check_once() == []
            assert supervisor.check_once() == []
            assert handle.restarts == 0
            assert handle.probe(timeout=10.0) is not None
            assert handle.restarts == 0
        finally:
            handle.close()

    def test_worker_killed_mid_build_is_restarted(self):
        handle = _slow_handle(first_build=60.0)
        supervisor = ShardSupervisor(
            [handle], probe_timeout=1.0, backoff=FAST_BACKOFF
        )
        try:
            assert supervisor.check_once() == []
            handle.worker.kill()
            assert supervisor.check_once() == [handle.shard_id]
            assert handle.restarts == 1
            assert handle.probe(timeout=10.0) is not None
        finally:
            handle.close()
