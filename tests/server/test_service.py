"""QueryService: admission control, deadlines, snapshot hot-swap."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import SGTree, Signature
from repro.data.io import save_transactions
from repro.errors import QueryTimeout
from repro.server import Query, QueryService, ReloadInProgress, RequestShed
from repro.sgtree.persistence import save_tree
from repro.telemetry import EventLog, MemoryEventSink, MetricsRegistry, Telemetry
from support import random_signature, random_transactions

N_BITS = 120


def build_tree(seed: int = 5, count: int = 300) -> SGTree:
    tree = SGTree(N_BITS, max_entries=8)
    for t in random_transactions(seed=seed, count=count, n_bits=N_BITS):
        tree.insert(t)
    return tree


@pytest.fixture
def tree():
    return build_tree()


@pytest.fixture
def telemetry():
    events = EventLog(strict=True)
    events.add_sink(MemoryEventSink())
    return Telemetry(registry=MetricsRegistry(), events=events)


class TestQueryRoutes:
    def test_knn_matches_tree(self, tree):
        with QueryService(tree) as service:
            rng = np.random.default_rng(3)
            for _ in range(5):
                q = random_signature(rng, N_BITS, max_items=10)
                served = service.query(Query("knn", q.items(), k=4))
                assert served.results == tree.nearest(q, k=4)
                assert served.kind == "knn"
                assert served.stats.node_accesses > 0
                assert served.generation == 0
                assert served.seconds > 0

    def test_items_list_accepted(self, tree):
        with QueryService(tree) as service:
            q = Signature.from_items([3, 17, 44], N_BITS)
            served = service.query(Query("knn", [3, 17, 44], k=2))
            assert served.results == tree.nearest(q, k=2)

    def test_range_and_containment(self, tree):
        with QueryService(tree) as service:
            q = Signature.from_items([1, 2, 3], N_BITS)
            ranged = service.query(Query("range", q.items(), epsilon=4.0))
            assert ranged.results == tree.range_query(q, 4.0)
            assert service.query(Query("containment", [5])).results == \
                tree.containment_query(Signature.from_items([5], N_BITS))

    def test_batch_matches_sequential(self, tree):
        """A served batch, past one 64-query kNN block, answers exactly
        as sequential queries, from the pinned snapshot's generation."""
        rng = np.random.default_rng(9)
        queries = [random_signature(rng, N_BITS, max_items=10) for _ in range(70)]
        with QueryService(tree) as service:
            items = [q.items() for q in queries]
            served = service.query(Query("batch_knn", queries=items, k=3))
            assert served.kind == "batch_knn"
            assert served.results == [tree.nearest(q, k=3) for q in queries]
            assert served.tree_generation == service.tree.generation
            ranged = service.query(
                Query("batch_range", queries=items, epsilon=4.0)
            )
            assert ranged.results == [tree.range_query(q, 4.0) for q in queries]

    def test_batch_validation(self, tree):
        with QueryService(tree) as service:
            with pytest.raises(ValueError, match="kind"):
                service.query(Query.from_body(
                    "batch", {"queries": [[1]], "kind": "containment"}
                ))
            with pytest.raises(ValueError, match="epsilon"):
                service.query(Query.from_body(
                    "batch", {"queries": [[1]], "kind": "range"}
                ))

    def test_constructor_validation(self, tree):
        with pytest.raises(ValueError, match="max_inflight"):
            QueryService(tree, max_inflight=0)
        with pytest.raises(ValueError, match="max_queue"):
            QueryService(tree, max_queue=-1)
        with pytest.raises(ValueError, match="default_deadline"):
            QueryService(tree, default_deadline=0.0)

    def test_health_snapshot(self, tree):
        with QueryService(tree, max_inflight=3, max_queue=7) as service:
            health = service.health()
            assert health["status"] == "ok"
            assert health["transactions"] == len(tree)
            assert health["n_bits"] == N_BITS
            assert health["max_inflight"] == 3
            assert health["max_queue"] == 7
            assert health["inflight"] == 0


class TestAdmissionControl:
    def test_sheds_when_saturated(self, tree, telemetry):
        """With slots and queue full, the next request is shed with 429."""
        gate = threading.Event()
        entered = threading.Barrier(3)  # 2 occupiers + the main thread
        service = QueryService(
            tree, telemetry=telemetry, max_inflight=2, max_queue=0
        )
        original = service._run

        def slow_run(*args):
            entered.wait(timeout=10)
            gate.wait(timeout=10)
            return original(*args)

        service._run = slow_run
        q = Signature.from_items([1, 2], N_BITS)
        query = Query("knn", q.items())
        threads = [
            threading.Thread(target=service.query, args=(query,))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        entered.wait(timeout=10)  # both slots now held
        with pytest.raises(RequestShed) as excinfo:
            service.query(query)
        assert excinfo.value.inflight == 2
        gate.set()
        for t in threads:
            t.join(timeout=10)
        shed = telemetry.registry.get("sgtree_server_shed_total")
        assert shed.labels(route="knn").value == 1
        ok = telemetry.registry.get("sgtree_server_requests_total")
        assert ok.labels(route="knn", code="200").value == 2
        assert ok.labels(route="knn", code="429").value == 1
        service.close()

    def test_queued_request_runs_when_slot_frees(self, tree):
        """A request within max_queue waits instead of being shed."""
        gate = threading.Event()
        entered = threading.Event()
        service = QueryService(tree, max_inflight=1, max_queue=4)
        original = service._run
        slow_once = {"pending": True}

        def slow_run(*args):
            if slow_once.pop("pending", False):
                entered.set()
                gate.wait(timeout=10)
            return original(*args)

        service._run = slow_run
        q = Signature.from_items([1, 2], N_BITS)
        query = Query("knn", q.items())
        occupier = threading.Thread(target=service.query, args=(query,))
        occupier.start()
        assert entered.wait(timeout=10)
        results = []
        waiter = threading.Thread(
            target=lambda: results.append(service.query(query))
        )
        waiter.start()
        time.sleep(0.05)  # waiter is now queued on the semaphore
        gate.set()
        occupier.join(timeout=10)
        waiter.join(timeout=10)
        assert results and results[0].results == tree.nearest(q)
        service.close()

    def test_deadline_expires_in_queue(self, tree, telemetry):
        """A queued request whose deadline lapses gets a QueryTimeout."""
        gate = threading.Event()
        entered = threading.Event()
        service = QueryService(
            tree, telemetry=telemetry, max_inflight=1, max_queue=4
        )
        original = service._run
        slow_once = {"pending": True}

        def slow_run(*args):
            if slow_once.pop("pending", False):
                entered.set()
                gate.wait(timeout=10)
            return original(*args)

        service._run = slow_run
        q = Signature.from_items([1, 2], N_BITS)
        query = Query("knn", q.items())
        occupier = threading.Thread(target=service.query, args=(query,))
        occupier.start()
        assert entered.wait(timeout=10)
        started = time.monotonic()
        with pytest.raises(QueryTimeout):
            service.query(query, deadline_seconds=0.05)
        assert time.monotonic() - started < 5.0
        gate.set()
        occupier.join(timeout=10)
        timeouts = telemetry.registry.get("sgtree_server_timeouts_total")
        assert timeouts.labels(route="knn").value >= 1
        service.close()

    def test_deadline_expires_mid_traversal(self, tree):
        with QueryService(tree) as service:
            with pytest.raises(QueryTimeout):
                service.query(
                    Query("knn", [1, 2, 3], k=3), deadline_seconds=0.0
                )

    def test_default_deadline_applies(self, tree):
        with QueryService(tree, default_deadline=1e-9) as service:
            with pytest.raises(QueryTimeout):
                service.query(Query("knn", [1, 2, 3], k=3))
            # a per-request budget overrides the default
            served = service.query(
                Query("knn", [1, 2, 3], k=3), deadline_seconds=30.0
            )
            assert served.results


class TestHotSwap:
    def test_reload_from_index_path(self, tree, telemetry, tmp_path):
        replacement = build_tree(seed=11, count=120)
        path = tmp_path / "replacement.sgt"
        save_tree(replacement, path)
        replacement.store.pager.close()
        with QueryService(tree, telemetry=telemetry) as service:
            assert service.generation == 0
            info = service.reload(index_path=str(path))
            assert info["generation"] == 1
            assert info["transactions"] == 120
            assert service.generation == 1
            assert len(service.tree) == 120
            served = service.query(Query("knn", [1, 2, 3], k=2))
            assert served.generation == 1
        sink = telemetry.events._sinks[0]
        swaps = sink.of_type("snapshot_swap")
        assert len(swaps) == 1 and swaps[0]["source"] == str(path)
        reloads = telemetry.registry.get("sgtree_server_reloads_total")
        assert reloads.labels(outcome="ok").value == 1

    def test_reload_from_dataset_path(self, tree, tmp_path):
        transactions = random_transactions(seed=23, count=80, n_bits=N_BITS)
        path = tmp_path / "fresh.jsonl"
        save_transactions(transactions, path, N_BITS)
        with QueryService(tree) as service:
            info = service.reload(dataset_path=str(path))
            assert info["transactions"] == 80
            assert len(service.tree) == 80

    def test_reload_argument_validation(self, tree, tmp_path):
        with QueryService(tree) as service:
            with pytest.raises(ValueError, match="exactly one"):
                service.reload()
            with pytest.raises(ValueError, match="exactly one"):
                service.reload(index_path="a", dataset_path="b")

    def test_reload_failure_counted_and_lock_released(self, tree, telemetry):
        with QueryService(tree, telemetry=telemetry) as service:
            with pytest.raises(OSError):
                service.reload(index_path="/nonexistent/index.sgt")
            reloads = telemetry.registry.get("sgtree_server_reloads_total")
            assert reloads.labels(outcome="error").value == 1
            # the reload lock was released despite the failure
            assert not service._reload_lock.locked()

    def test_concurrent_reload_rejected(self, tree, tmp_path):
        with QueryService(tree) as service:
            assert service._reload_lock.acquire(blocking=False)
            try:
                with pytest.raises(ReloadInProgress):
                    service.reload(index_path="whatever.sgt")
            finally:
                service._reload_lock.release()

    def test_zero_dropped_requests_during_swap(self, tree, tmp_path):
        """Parallel clients across a hot-swap: every request succeeds."""
        replacement = build_tree(seed=11, count=150)
        path = tmp_path / "replacement.sgt"
        save_tree(replacement, path)
        replacement.store.pager.close()

        service = QueryService(tree, max_inflight=8, max_queue=64)
        rng = np.random.default_rng(2)
        queries = [random_signature(rng, N_BITS, max_items=10) for _ in range(8)]
        stop = threading.Event()
        outcomes = {"ok": 0}
        errors: list[BaseException] = []
        lock = threading.Lock()

        def client():
            i = 0
            while not stop.is_set():
                try:
                    query = queries[i % len(queries)]
                    served = service.query(Query("knn", query.items(), k=2))
                    assert served.results is not None
                    with lock:
                        outcomes["ok"] += 1
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)
                    return
                i += 1

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.1)
        info = service.reload(index_path=str(path))
        time.sleep(0.1)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        service.close()
        assert not errors
        assert info["generation"] == 1
        assert outcomes["ok"] > 0
        # post-swap queries answer from the new snapshot
        assert len(service.tree) == 150

    def test_reload_answers_from_the_new_store(self, tree, tmp_path):
        """Satellite: no post-reload query can see pre-swap state — every
        answer after /admin/reload comes from the new store."""
        replacement = build_tree(seed=17, count=100)
        path = tmp_path / "replacement.sgt"
        save_tree(replacement, path)
        expected_tree = build_tree(seed=17, count=100)
        replacement.store.pager.close()
        with QueryService(tree) as service:
            rng = np.random.default_rng(4)
            for _ in range(6):  # warm the old snapshot's views
                q = random_signature(rng, N_BITS, max_items=10)
                service.query(Query("knn", q.items(), k=3))
            old_store = service.tree.tree.store

            service.reload(index_path=str(path))

            new_store = service.tree.tree.store
            assert new_store is not old_store
            # post-reload queries answer from (and build views in) the
            # new store
            misses = new_store.decode_cache.stats.misses
            q = random_signature(rng, N_BITS, max_items=10)
            served = service.query(Query("knn", q.items(), k=3))
            assert served.generation == 1
            assert served.results == expected_tree.nearest(q, k=3)
            assert new_store.decode_cache.stats.misses > misses


class TestRetryAcrossAnNBitsSwap:
    """The one-retry absorber covers the hot-swap race only."""

    def test_bad_request_runs_the_engine_once(self, tree, monkeypatch):
        calls = []
        original = SGTree.nearest

        def counting(self, *args, **kwargs):
            calls.append(kwargs.get("k"))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SGTree, "nearest", counting)
        with QueryService(tree) as service:
            with pytest.raises(ValueError, match="k must be"):
                service.query(Query("knn", [1, 2, 3], k=0))
        assert calls == [0]

    def test_a_swap_to_other_n_bits_under_the_request_is_retried(self, tree):
        wider = SGTree(2 * N_BITS, max_entries=8)
        with QueryService(tree) as service:
            seen = []

            def attempt():
                seen.append(service.tree.n_bits)
                if len(seen) == 1:
                    service.tree.swap(wider)
                    raise ValueError("signature built for the old n_bits")
                return "answered"

            assert service._retrying(attempt) == "answered"
            assert seen == [N_BITS, 2 * N_BITS]
