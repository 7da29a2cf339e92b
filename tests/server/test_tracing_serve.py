"""Request tracing through the serving stack, including failure paths.

Covers the tracing contract end to end: single-tree sampled traces
attach their per-node visit spans as shard 0; sharded traces stitch one
span tree per shard; every retry attempt, circuit-breaker rejection and
dead worker is visible in the coordinator spans; killed shards yield
*partial* traces whose stitch report still passes; and the HTTP layer
echoes ``X-Request-Id`` and serves ``/debug/traces``.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import SGTree
from repro.server import (
    Backoff,
    Query,
    QueryService,
    RetryPolicy,
    ShardedQueryService,
    ShardedTree,
    make_server,
    make_shard_handles,
    partition_transactions,
)
from repro.telemetry import (
    EventLog,
    MemoryEventSink,
    MetricsRegistry,
    RequestTracing,
    Telemetry,
)
from repro.telemetry.export import snapshot
from support import random_signature, random_transactions

N_BITS = 120
N_TX = 240
N_SHARDS = 4


def make_telemetry() -> "tuple[Telemetry, MemoryEventSink]":
    sink = MemoryEventSink()
    events = EventLog(strict=True)
    events.add_sink(sink)
    return Telemetry(registry=MetricsRegistry(), events=events), sink


@pytest.fixture(scope="module")
def transactions():
    return random_transactions(seed=31, count=N_TX, n_bits=N_BITS)


@pytest.fixture
def query():
    rng = np.random.default_rng(13)
    return random_signature(rng, N_BITS, max_items=10)


@pytest.fixture
def single(transactions):
    """A single-tree service tracing at 100%; yields (service, sink)."""
    tree = SGTree(N_BITS, max_entries=8)
    tree.insert_many(transactions)
    telemetry, sink = make_telemetry()
    service = QueryService(
        tree, telemetry=telemetry, max_inflight=4, max_queue=8,
        tracing=RequestTracing(sample_rate=1.0),
    )
    yield service, sink
    service.close()


def make_sharded(transactions, sample_rate: float = 1.0,
                 **tracing_kwargs) -> ShardedQueryService:
    """A sharded service with fast, deterministic retries."""
    partitions = partition_transactions(transactions, N_SHARDS)
    handles = make_shard_handles(
        partitions, N_BITS,
        retry_factory=lambda sid: RetryPolicy(
            max_attempts=3, backoff=Backoff(initial=0.001, seed=sid)
        ),
    )
    telemetry, sink = make_telemetry()
    service = ShardedQueryService(
        ShardedTree(handles, N_BITS), telemetry=telemetry,
        max_inflight=4, max_queue=8,
        tracing=RequestTracing(sample_rate=sample_rate, **tracing_kwargs),
    )
    service.event_sink = sink  # test hook
    return service


@pytest.fixture
def sharded(transactions):
    service = make_sharded(transactions, sample_rate=1.0)
    yield service
    service.close()


class TestSingleTreeTracing:
    def test_sampled_knn_attaches_local_visits_as_shard_zero(self, single,
                                                             query):
        service, _ = single
        served = service.query(Query("knn", query.items(), k=3))
        assert served.trace_id
        doc = service.trace(served.trace_id)
        assert doc is not None
        assert [s["name"] for s in doc["spans"]] == ["admission_wait",
                                                     "execute"]
        shard = doc["shards"]["0"]
        assert shard["reconciled"] is True
        assert len(shard["spans"]) == doc["stats"]["node_accesses"]
        assert doc["stitch"]["ok"], doc["stitch"]["problems"]

    def test_best_first_runs_untraced_but_keeps_the_trace(self, single,
                                                          query):
        # Per-node tracing only understands depth-first (same restriction
        # as SGTree.explain): no shard attach, but the coordinator trace
        # is still complete and retained.
        service, _ = single
        served = service.query(
            Query("knn", query.items(), k=3, algorithm="best-first")
        )
        doc = service.trace(served.trace_id)
        assert doc["shards"] == {}
        assert doc["stitch"]["ok"]

    def test_unsampled_ok_request_is_not_retained(self, transactions, query):
        tree = SGTree(N_BITS, max_entries=8)
        tree.insert_many(transactions)
        service = QueryService(
            tree, tracing=RequestTracing(sample_rate=0.0)
        )
        try:
            served = service.query(Query("knn", query.items(), k=2))
            assert served.trace_id  # ids are free; retention is not
            assert service.trace(served.trace_id) is None
            assert service.traces() == []
        finally:
            service.close()

    def test_inbound_request_id_keys_the_trace(self, single, query):
        service, _ = single
        served = service.query(
            Query("knn", query.items(), k=2), request_id="order-lookup-42"
        )
        assert served.trace_id == "order-lookup-42"
        assert service.trace("order-lookup-42")["trace_id"] == \
            "order-lookup-42"


class TestShardedStitching:
    def test_full_sampling_stitches_every_shard(self, sharded, query):
        served = sharded.query(Query("knn", query.items(), k=5))
        doc = sharded.trace(served.trace_id)
        assert set(doc["shards"]) == {str(i) for i in range(N_SHARDS)}
        assert all(d["reconciled"] is True for d in doc["shards"].values())
        assert doc["stitch"]["ok"], doc["stitch"]["problems"]
        names = [s["name"] for s in doc["spans"]]
        assert names.count("rpc") == N_SHARDS
        assert "scatter" in names and "merge" in names
        scatter = next(s for s in doc["spans"] if s["name"] == "scatter")
        assert scatter["attrs"]["answered"] == N_SHARDS
        rpc_outcomes = {s["shard"]: s["attrs"]["outcome"]
                        for s in doc["spans"] if s["name"] == "rpc"}
        assert rpc_outcomes == {i: "ok" for i in range(N_SHARDS)}

    def test_summed_shard_spans_equal_aggregate_stats(self, sharded, query):
        served = sharded.query(Query("knn", query.items(), k=3))
        doc = sharded.trace(served.trace_id)
        total = sum(len(d["spans"]) for d in doc["shards"].values())
        assert total == doc["stats"]["node_accesses"]

    def test_health_detail_carries_storage_fields(self, sharded):
        rows = sharded.health()["shards"]["detail"]
        assert len(rows) == N_SHARDS
        for row in rows:
            assert set(row["decode_cache"]) == {"hits", "misses"}


class TestFailurePathTracing:
    def test_dead_shard_records_a_span_per_retry_attempt(self, sharded,
                                                         query):
        victim = sharded.shards.handles[2]
        victim.worker.kill()
        served = sharded.query(Query("knn", query.items(), k=3))
        assert served.partial
        doc = sharded.trace(served.trace_id)
        victim_rpcs = [s for s in doc["spans"]
                       if s["name"] == "rpc" and s["shard"] == 2]
        # max_attempts=3 -> one rpc span per attempt, each annotated with
        # the failure, plus a timed backoff span between attempts.
        assert len(victim_rpcs) == 3
        assert all(s["attrs"]["outcome"] == "ShardUnavailable"
                   for s in victim_rpcs)
        backoffs = [s for s in doc["spans"]
                    if s["name"] == "retry_backoff" and s["shard"] == 2]
        assert len(backoffs) == 2
        assert [s["attrs"]["attempt"] for s in backoffs] == [0, 1]

    def test_open_breaker_records_zero_duration_rpc_span(self, sharded,
                                                         query):
        sharded.shards.handles[1].breaker.force_open()
        served = sharded.query(Query("knn", query.items(), k=3))
        assert served.partial
        doc = sharded.trace(served.trace_id)
        (rejected,) = [s for s in doc["spans"]
                       if s["name"] == "rpc" and s["shard"] == 1]
        assert rejected["duration"] == 0.0
        assert rejected["attrs"]["outcome"] == "circuit_open"
        assert rejected["attrs"]["retry_after"] >= 0.0

    def test_killed_worker_yields_a_partial_trace_that_stitches(
        self, sharded, query
    ):
        sharded.shards.handles[0].worker.kill()
        served = sharded.query(Query("knn", query.items(), k=5))
        doc = sharded.trace(served.trace_id)
        assert doc["partial"] is True
        assert doc["coverage"]["shards_answered"] == N_SHARDS - 1
        assert doc["coverage"]["shards_total"] == N_SHARDS
        assert set(doc["shards"]) == {"1", "2", "3"}
        # The aggregate span-sum check is skipped for partial traces:
        # per-shard invariants still hold, so the stitch passes.
        assert doc["stitch"]["ok"], doc["stitch"]["problems"]
        scatter = next(s for s in doc["spans"] if s["name"] == "scatter")
        assert scatter["attrs"]["answered"] == N_SHARDS - 1

    def test_failures_force_retention_even_when_unsampled(self,
                                                          transactions,
                                                          query):
        service = make_sharded(transactions, sample_rate=0.0)
        try:
            ok = service.query(Query("knn", query.items(), k=2))
            assert service.trace(ok.trace_id) is None  # healthy: dropped
            service.shards.handles[3].worker.kill()
            partial = service.query(Query("knn", query.items(), k=2))
            doc = service.trace(partial.trace_id)
            assert doc is not None and doc["partial"] is True
            assert doc["shards"] == {}  # unsampled: no per-node spans
        finally:
            service.close()


class TestAccessEventsAndExemplars:
    def test_every_request_emits_http_access(self, sharded, query):
        served = sharded.query(Query("knn", query.items(), k=3))
        (event,) = sharded.event_sink.of_type("http_access")
        assert event["trace_id"] == served.trace_id
        assert event["route"] == "knn" and event["code"] == "200"
        assert event["shards_answered"] == N_SHARDS
        assert event["sampled"] is True and event["kept"] is True

    def test_slow_query_event_names_the_top_spans(self, transactions,
                                                  query):
        service = make_sharded(transactions, sample_rate=0.0,
                               slow_threshold=0.0)
        try:
            service.query(Query("knn", query.items(), k=3))
            (event,) = service.event_sink.of_type("slow_query")
            assert event["threshold_seconds"] == 0.0
            assert 1 <= len(event["top_spans"]) <= 3
            assert all({"name", "seconds", "shard"} <= set(s)
                       for s in event["top_spans"])
        finally:
            service.close()

    def test_request_histogram_carries_trace_id_exemplars(self, sharded,
                                                          query):
        served = sharded.query(Query("knn", query.items(), k=3))
        doc = snapshot(sharded.telemetry.registry)
        series = doc["sgtree_server_request_seconds"]["series"]["knn"]
        exemplars = series["exemplars"]
        assert any(e["trace_id"] == served.trace_id
                   for e in exemplars.values())


# -- the HTTP front door ----------------------------------------------------


def http_get(url: str, headers: "dict | None" = None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read().decode()


def http_post(url: str, body: dict, headers: "dict | None" = None):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


@pytest.fixture
def served(single):
    service, sink = single
    server = make_server(service, host="127.0.0.1", port=0)
    server.serve_background()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, service
    finally:
        server.close()


class TestHTTPTracing:
    def test_request_id_is_echoed_and_keys_debug_traces(self, served):
        base, _ = served
        status, headers, body = http_post(
            f"{base}/query/knn", {"items": [1, 7, 42], "k": 3},
            headers={"X-Request-Id": "it-was-me"},
        )
        assert status == 200
        assert body["request_id"] == "it-was-me"
        assert headers["X-Request-Id"] == "it-was-me"
        status, _, text = http_get(f"{base}/debug/traces/it-was-me")
        assert status == 200
        doc = json.loads(text)
        assert doc["trace_id"] == "it-was-me"
        assert doc["stitch"]["ok"]

    def test_hostile_inbound_id_is_sanitised(self, served):
        base, _ = served
        _, headers, body = http_post(
            f"{base}/query/knn", {"items": [3], "k": 1},
            headers={"X-Request-Id": "x" * 500},
        )
        assert body["request_id"] == "x" * 64
        assert headers["X-Request-Id"] == "x" * 64

    def test_listing_is_newest_first_summaries(self, served):
        base, _ = served
        for name in ("first", "second"):
            http_post(f"{base}/query/knn", {"items": [5], "k": 1},
                      headers={"X-Request-Id": name})
        status, _, text = http_get(f"{base}/debug/traces")
        assert status == 200
        rows = json.loads(text)["traces"]
        assert [r["trace_id"] for r in rows[:2]] == ["second", "first"]
        assert all("spans" in r and "shards" in r for r in rows)

    def test_unknown_trace_is_404(self, served):
        base, _ = served
        status, _, text = http_get(f"{base}/debug/traces/never-seen")
        assert status == 404
        assert "no retained trace" in json.loads(text)["error"]

    def test_healthz_reports_storage_health(self, served):
        base, _ = served
        _, _, text = http_get(f"{base}/healthz")
        health = json.loads(text)
        assert set(health["decode_cache"]) == {"hits", "misses"}

    def test_detached_tracing_disables_the_routes(self, transactions):
        tree = SGTree(N_BITS, max_entries=8)
        tree.insert_many(transactions)
        service = QueryService(tree)  # no tracing
        server = make_server(service, host="127.0.0.1", port=0)
        server.serve_background()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            status, _, text = http_get(f"{base}/debug/traces")
            assert status == 404
            assert json.loads(text)["error"] == "tracing is not enabled"
            status, headers, body = http_post(
                f"{base}/query/knn", {"items": [3], "k": 1}
            )
            assert status == 200
            assert "request_id" not in body
            assert "X-Request-Id" not in headers
        finally:
            server.close()
            service.close()
