"""The serving-layer chaos campaign (ISSUE acceptance criterion).

Seeded worker kills, latency spikes, and one corrupted shard pager,
driven against a sharded service; the campaign proves:

* no request ever exceeds its deadline (bounded by a grace margin for
  thread scheduling — the failure mode guarded against is a hang);
* every response is either complete or flagged ``partial`` with
  *accurate* coverage (answered + errored == total);
* partial kNN/range results are verified subsets of the full-index
  answer, with true distances;
* the supervisor restores full coverage once the chaos quiesces, and a
  shard whose pager rotted is healed by a rebuild-from-source restart.

Deterministic per ``REPRO_CHAOS_SEED`` (default 0; CI sweeps 0-2).
``REPRO_CHAOS_BOUND_SHARING=1`` arms pilot-shard routing (the home
shard answers first and its k-th distance seeds the rest), so the
campaign also exercises the pilot-first code path under kills and
latency (CI sweeps one seed with it); ``0``, the default, scatters to
every shard unseeded and merges at the end.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np
import pytest

from repro import SGTree
from repro.errors import (
    CircuitOpen,
    PageCorruptError,
    QueryTimeout,
    ShardError,
)
from repro.server import (
    Backoff,
    CircuitBreaker,
    Query,
    ShardedQueryService,
    ShardedTree,
    ShardHandle,
    ShardSupervisor,
    make_shard_handles,
    partition_routed,
    partition_transactions,
)
from repro.server.shard import ProcessShardWorker
from repro.sgtree.node import NodeStore
from repro.storage.faults import ChaosPlan
from repro.storage.pager import FilePager
from support import random_signature, random_transactions

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
#: Arm pilot-shard routing; otherwise shards merge at the end.
PILOT_ROUTING = os.environ.get("REPRO_CHAOS_BOUND_SHARING", "0") == "1"
N_BITS = 120
N_TX = 160
N_SHARDS = 4
N_REQUESTS = 40
DEADLINE = 0.75
#: Scheduling grace on top of the deadline; a hang would blow far past it.
GRACE = 1.5

FAST_BACKOFF = Backoff(initial=0.0, factor=1.0, max_delay=0.0, jitter=False)


@pytest.fixture(scope="module")
def transactions():
    return random_transactions(seed=SEED + 100, count=N_TX, n_bits=N_BITS)


@pytest.fixture(scope="module")
def reference(transactions):
    tree = SGTree(N_BITS, max_entries=8)
    tree.insert_many(transactions)
    return tree


class TestChaosCampaign:
    def test_kills_and_latency_never_break_the_contract(
        self, transactions, reference
    ):
        plan = ChaosPlan(
            seed=SEED, kill_rate=0.04, latency_rate=0.15,
            latency_seconds=0.02,
        )
        partitions, router = partition_routed(transactions, N_SHARDS)
        handles = make_shard_handles(
            partitions, N_BITS, chaos_plan=plan
        )
        supervisor = ShardSupervisor(
            handles, backoff=FAST_BACKOFF, storm_budget=50, storm_window=60.0
        )
        service = ShardedQueryService(
            ShardedTree(
                handles, N_BITS,
                router=router if PILOT_ROUTING else None,
            ),
            supervisor=supervisor,
            max_inflight=4, max_queue=8,
        )
        rng = np.random.default_rng(SEED)
        outcomes = {"ok": 0, "partial": 0, "failed": 0}
        try:
            for i in range(N_REQUESTS):
                q = random_signature(rng, N_BITS, max_items=12)
                use_range = i % 3 == 2
                epsilon = float(rng.uniform(0.2, 0.6))
                started = time.monotonic()
                try:
                    if use_range:
                        served = service.query(
                            Query("range", q.items(), epsilon=epsilon),
                            deadline_seconds=DEADLINE,
                        )
                    else:
                        served = service.query(
                            Query("knn", q.items(), k=5),
                            deadline_seconds=DEADLINE,
                        )
                except (QueryTimeout, ShardError, CircuitOpen):
                    served = None
                elapsed = time.monotonic() - started
                # 1. No request ever hangs past its deadline.
                assert elapsed < DEADLINE + GRACE, (
                    f"request {i} took {elapsed:.2f}s against a "
                    f"{DEADLINE}s deadline"
                )
                if served is None:
                    outcomes["failed"] += 1
                else:
                    # 2. Complete, or partial with accurate coverage.
                    cov = served.coverage
                    assert cov["shards_total"] == N_SHARDS
                    assert cov["shards_answered"] + len(cov["errors"]) \
                        == N_SHARDS
                    assert served.partial == (
                        cov["shards_answered"] < N_SHARDS
                    )
                    outcomes["partial" if served.partial else "ok"] += 1
                    # 3. Results are verified subsets of the full answer.
                    if use_range:
                        full = set(reference.range_query(q, epsilon))
                        assert set(served.results) <= full
                        if not served.partial:
                            assert sorted(served.results) == sorted(full)
                    else:
                        ranking = {
                            (n.tid, n.distance)
                            for n in reference.nearest(q, k=N_TX)
                        }
                        assert all(
                            (n.tid, n.distance) in ranking
                            for n in served.results
                        )
                        if not served.partial:
                            expected = {
                                (n.tid, n.distance)
                                for n in reference.nearest(q, k=5)
                            }
                            assert {
                                (n.tid, n.distance) for n in served.results
                            } == expected
                if i % 5 == 4:
                    supervisor.check_once()
            # The chaos actually bit: workers were killed and at least
            # one response degraded rather than failing outright.  The
            # kills are drawn inside the shard processes, so count the
            # ones the coordinator saw: dead workers the supervisor
            # restarted (a 20 ms latency spike never fails a 1 s probe).
            assert sum(h.restarts for h in handles) >= 1
            assert outcomes["partial"] >= 1
            # 4. Quiesce the chaos; the supervisor restores full coverage.
            # A running shard process keeps the chaos stream it was
            # started with, so stop every worker: the incarnations the
            # supervisor brings up after the quiesce run without chaos.
            plan.quiesce()
            for handle in handles:
                handle.worker.kill()
            for _ in range(30):
                supervisor.check_once()
                if all(h.is_up() for h in handles):
                    break
            assert all(h.is_up() for h in handles)
            q = transactions[0].signature
            served = service.query(
                Query("knn", q.items(), k=5), deadline_seconds=5.0
            )
            assert not served.partial
            expected = {(n.tid, n.distance) for n in reference.nearest(q, k=5)}
            assert {(n.tid, n.distance) for n in served.results} == expected
        finally:
            service.close()

    def test_chaos_schedule_is_deterministic(self):
        plan_a = ChaosPlan(seed=SEED, kill_rate=0.1, latency_rate=0.2)
        plan_b = ChaosPlan(seed=SEED, kill_rate=0.1, latency_rate=0.2)
        stream_a = plan_a.for_shard(1)
        stream_b = plan_b.for_shard(1)
        a = [stream_a.draw() for _ in range(50)]
        b = [stream_b.draw() for _ in range(50)]
        assert a == b
        assert set(a) > {None}  # the rates actually fire in 50 draws
        # A different incarnation draws a different stream (a restarted
        # worker must not be re-killed at the same request index).
        reborn = plan_b.for_shard(1, incarnation=1)
        c = [reborn.draw() for _ in range(50)]
        assert a != c

    def test_quiesce_stops_injection_without_shifting_the_stream(self):
        plan = ChaosPlan(seed=SEED, kill_rate=1.0)
        chaos = plan.for_shard(0)
        assert chaos.draw() == "kill"
        plan.quiesce()
        assert chaos.draw() is None


def build_corruptible(page_file, partition):
    """Shard 0's first life: a disk-mode tree whose page file the test
    then rots.  With only 2 buffer frames, traversals must fault pages
    back in, so the rot surfaces as PageCorruptError."""
    store = NodeStore(
        N_BITS, page_size=2048, frames=2, mode="disk",
        pager=FilePager(page_file, page_size=2048),
    )
    tree = SGTree(N_BITS, max_entries=8, store=store)
    tree.insert_many(partition)
    return tree


def build_pristine(partition):
    tree = SGTree(N_BITS, max_entries=8)
    tree.insert_many(partition)
    return tree


class TestCorruptedShardPager:
    """One shard's pager rots; the breaker isolates it and a rebuild-
    from-source restart heals it."""

    def test_corrupt_shard_degrades_then_heals_on_restart(
        self, tmp_path, transactions, reference
    ):
        partitions = partition_transactions(transactions, N_SHARDS)
        page_file = tmp_path / "shard0.pages"

        def factory(incarnation: int):
            if incarnation == 0:
                build = functools.partial(
                    build_corruptible, page_file, partitions[0]
                )
            else:
                build = functools.partial(build_pristine, partitions[0])
            return ProcessShardWorker(build, shard_id=0)

        corrupt_handle = ShardHandle(
            0, factory,
            breaker=CircuitBreaker(failure_threshold=3, reset_timeout=30.0),
        )
        healthy = make_shard_handles(partitions[1:], N_BITS)
        for offset, handle in enumerate(healthy, start=1):
            handle.shard_id = offset  # re-number behind shard 0
        handles = [corrupt_handle] + healthy
        sharded = ShardedTree(handles, N_BITS)
        try:
            # Sanity: before the rot, shard 0 answers.
            q = partitions[0][0].signature
            _, coverage = sharded.query(Query("knn", q.items(), k=3))
            assert not coverage.partial

            # Rot the page file: flip a payload byte in every slot (the
            # slot is an 8-byte CRC header + the 2048-byte page).
            data = bytearray(page_file.read_bytes())
            for offset in range(12, len(data), 2048 + 8):
                data[offset] ^= 0xFF
            page_file.write_bytes(bytes(data))

            # Queries now degrade to partial; shard 0's failure is typed.
            rng = np.random.default_rng(SEED)
            saw_corruption = False
            for _ in range(6):
                query = random_signature(rng, N_BITS, max_items=12)
                merged, coverage = sharded.query(
                    Query("knn", query.items(), k=5)
                )
                if 0 in coverage.errors:
                    saw_corruption = True
                    full = {
                        (n.tid, n.distance)
                        for n in reference.nearest(query, k=N_TX)
                    }
                    assert all(
                        (n.tid, n.distance) in full for n in merged
                    )
            assert saw_corruption
            # Consecutive failures tripped the breaker: the sick shard
            # now sheds instantly instead of faulting corrupt pages.
            assert corrupt_handle.breaker.state == CircuitBreaker.OPEN

            # A supervisor restart rebuilds from source and heals it.
            corrupt_handle.restart()
            assert corrupt_handle.probe() is not None
            merged, coverage = sharded.query(Query("knn", q.items(), k=3))
            assert not coverage.partial
            expected = {(n.tid, n.distance) for n in reference.nearest(q, k=3)}
            assert {(n.tid, n.distance) for n in merged} == expected
        finally:
            sharded.close()

    def test_page_corruption_is_the_typed_error(self, tmp_path):
        """The rot surfaces as PageCorruptError, not silent bad data."""
        txs = random_transactions(seed=SEED, count=40, n_bits=N_BITS)
        page_file = tmp_path / "rot.pages"
        store = NodeStore(
            N_BITS, page_size=2048, frames=2, mode="disk",
            pager=FilePager(page_file, page_size=2048),
        )
        tree = SGTree(N_BITS, max_entries=8, store=store)
        tree.insert_many(txs)
        data = bytearray(page_file.read_bytes())
        for offset in range(12, len(data), 2048 + 8):
            data[offset] ^= 0xFF
        page_file.write_bytes(bytes(data))
        rng = np.random.default_rng(SEED)
        with pytest.raises(PageCorruptError):
            for _ in range(8):
                tree.nearest(random_signature(rng, N_BITS, max_items=12), k=3)
