"""The HTTP front end, driven through real sockets."""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import SGTree
from repro.data.io import save_transactions
from repro.errors import CircuitOpen
from repro.server import (
    QueryService,
    ShardedQueryService,
    ShardedTree,
    make_server,
    make_shard_handles,
    partition_transactions,
)
from repro.server import http as http_module
from repro.server.service import RequestShed
from repro.sgtree.persistence import save_tree
from repro.telemetry import EventLog, MemoryEventSink, MetricsRegistry, Telemetry
from support import random_transactions

N_BITS = 120


def build_tree(seed: int = 5, count: int = 200) -> SGTree:
    tree = SGTree(N_BITS, max_entries=8)
    for t in random_transactions(seed=seed, count=count, n_bits=N_BITS):
        tree.insert(t)
    return tree


@pytest.fixture
def served():
    """A running server on a free port; yields (base_url, service, sink)."""
    tree = build_tree()
    sink = MemoryEventSink()
    events = EventLog(strict=True)
    events.add_sink(sink)
    telemetry = Telemetry(registry=MetricsRegistry(), events=events)
    tree.attach_telemetry(telemetry)
    service = QueryService(tree, telemetry=telemetry, max_inflight=4, max_queue=8)
    server = make_server(service, host="127.0.0.1", port=0)
    server.serve_background()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, service, sink
    finally:
        server.close()


def get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


def post(url: str, body: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestRoutes:
    def test_healthz(self, served):
        base, service, _ = served
        status, body = get(f"{base}/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["transactions"] == 200
        assert health["generation"] == 0

    def test_knn_roundtrip(self, served):
        base, service, _ = served
        status, body = post(f"{base}/query/knn", {"items": [1, 7, 42], "k": 3})
        assert status == 200
        assert body["kind"] == "knn"
        assert len(body["results"]) == 3
        hit = body["results"][0]
        assert set(hit) == {"tid", "distance"}
        assert body["stats"]["node_accesses"] > 0
        # parity with the in-process API
        from repro import Signature

        expected = service.tree.nearest(
            Signature.from_items([1, 7, 42], N_BITS), k=3
        )
        assert [(h["tid"], h["distance"]) for h in body["results"]] == [
            (n.tid, n.distance) for n in expected
        ]

    def test_range_and_containment_roundtrip(self, served):
        base, _, _ = served
        status, body = post(
            f"{base}/query/range", {"items": [1, 7], "epsilon": 4.0}
        )
        assert status == 200 and body["kind"] == "range"
        status, body = post(f"{base}/query/containment", {"items": [7]})
        assert status == 200 and body["kind"] == "containment"
        assert all(isinstance(tid, int) for tid in body["results"])

    def test_batch_roundtrip(self, served):
        base, _, _ = served
        status, body = post(
            f"{base}/query/batch",
            {"queries": [[1, 2], [3, 4], [5, 6]], "kind": "knn", "k": 2},
        )
        assert status == 200
        assert body["kind"] == "batch_knn"
        assert [len(r) for r in body["results"]] == [2, 2, 2]

    def test_metrics_exposition(self, served):
        base, _, _ = served
        post(f"{base}/query/knn", {"items": [1], "k": 1})
        status, text = get(f"{base}/metrics")
        assert status == 200
        assert "sgtree_server_requests_total" in text
        assert 'route="knn"' in text

    def test_server_started_event(self, served):
        _, _, sink = served
        events = sink.of_type("server_started")
        assert len(events) == 1
        assert events[0]["max_inflight"] == 4


class TestErrorMapping:
    def test_malformed_body_400(self, served):
        base, _, _ = served
        assert post(f"{base}/query/knn", {"wrong": True})[0] == 400
        assert post(f"{base}/query/range", {"items": [1]})[0] == 400

    def test_unknown_route_404(self, served):
        base, _, _ = served
        assert post(f"{base}/query/nothing", {})[0] == 404
        assert get(f"{base}/nothing")[0] == 404

    def test_deadline_exceeded_504(self, served):
        base, _, _ = served
        status, body = post(
            f"{base}/query/knn", {"items": [1, 2, 3], "deadline_ms": 0}
        )
        assert status == 504
        assert "deadline" in body["error"]
        assert body["budget_seconds"] == 0.0

    def test_negative_deadline_400(self, served):
        base, _, _ = served
        assert post(
            f"{base}/query/knn", {"items": [1], "deadline_ms": -5}
        )[0] == 400

    def test_reload_validation_400(self, served):
        base, _, _ = served
        assert post(f"{base}/admin/reload", {})[0] == 400


def running(service):
    """Serve ``service`` on a free port; yields the base URL."""
    server = make_server(service, host="127.0.0.1", port=0)
    server.serve_background()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.close()


@pytest.fixture(scope="module")
def single_served():
    """A running single-tree server shared by the module; yields its URL."""
    yield from running(
        QueryService(build_tree(), max_inflight=4, max_queue=8)
    )


@pytest.fixture(scope="module")
def sharded_served():
    """A running 2-shard server shared by the module; yields its URL."""
    transactions = random_transactions(seed=5, count=200, n_bits=N_BITS)
    partitions = partition_transactions(transactions, 2)
    yield from running(ShardedQueryService(
        ShardedTree(make_shard_handles(partitions, N_BITS), N_BITS),
        max_inflight=4, max_queue=8,
    ))


NAN = float("nan")


class TestMalformedBodies:
    """Every malformed numeric field is a 400 on both serving modes."""

    @pytest.mark.parametrize("route, body", [
        pytest.param("knn", {"items": [1, 2], "k": 2.7}, id="k-float"),
        pytest.param("knn", {"items": [1, 2], "k": True}, id="k-bool"),
        pytest.param("knn", {"items": [1, 2], "k": 0}, id="k-zero"),
        pytest.param("knn", {"items": [1.5], "k": 2}, id="item-float"),
        pytest.param("containment", {"items": [True]}, id="item-bool"),
        pytest.param("knn", {"items": [1, 2], "algorithm": "sideways"},
                     id="unknown-algorithm"),
        pytest.param("knn", {"items": [1, 2], "k": 0,
                             "algorithm": "best-first"},
                     id="k-zero-best-first"),
        pytest.param("knn", {"items": [1, 2], "deadline_ms": NAN},
                     id="deadline-nan"),
        pytest.param("knn", {"items": [1, 2], "deadline_ms": 10**400},
                     id="deadline-overflow"),
        pytest.param("range", {"items": [1, 2], "epsilon": NAN},
                     id="epsilon-nan"),
        pytest.param("range", {"items": [1, 2], "epsilon": -0.5},
                     id="epsilon-negative"),
        pytest.param("batch", {"queries": [[1, 2]], "kind": "range",
                               "epsilon": NAN}, id="batch-epsilon-nan"),
        pytest.param("batch", {"queries": [[1.5]], "k": 2},
                     id="batch-item-float"),
    ])
    def test_same_400_on_single_tree_and_shards(
        self, single_served, sharded_served, route, body
    ):
        single_status, _ = post(f"{single_served}/query/{route}", body)
        status, doc = post(f"{sharded_served}/query/{route}", body)
        assert single_status == status == 400
        assert doc["error"].startswith("bad request")

    def test_nan_deadlines_trip_no_breaker(self, sharded_served):
        body = {"items": [1, 2, 3], "k": 3, "deadline_ms": NAN}
        for _ in range(8):
            assert post(f"{sharded_served}/query/knn", body)[0] == 400
        health = json.loads(get(f"{sharded_served}/healthz")[1])
        assert [row["breaker"] for row in health["shards"]["detail"]] == \
            ["closed", "closed"]
        status, doc = post(
            f"{sharded_served}/query/knn", {"items": [1, 2, 3], "k": 3}
        )
        assert status == 200 and not doc["partial"]


class TestShardedErrorMapping:
    """A request every shard rejects is the client's error, as on the
    single tree: 400, not a retryable 503."""

    @pytest.mark.parametrize("route, body", [
        ("knn", {"items": [1, 2, 3], "k": 3, "metric": "nonsense"}),
        ("knn", {"items": [1, 2, 3], "k": 0}),
        ("range", {"items": [1, 2, 3], "epsilon": 0.5, "metric": "nonsense"}),
        ("batch", {"queries": [[1, 2], [3]], "k": 2, "metric": "nonsense"}),
    ])
    def test_bad_request_is_400_like_the_single_tree(
        self, served, sharded_served, route, body
    ):
        single_status, _ = post(f"{served[0]}/query/{route}", body)
        status, doc = post(f"{sharded_served}/query/{route}", body)
        assert single_status == status == 400
        assert "retry" not in doc
        assert doc["error"].startswith("bad request")


class TestReloadEndpoint:
    def test_reload_from_index(self, served, tmp_path):
        base, service, sink = served
        replacement = build_tree(seed=9, count=90)
        path = tmp_path / "next.sgt"
        save_tree(replacement, path)
        replacement.store.pager.close()
        status, info = post(f"{base}/admin/reload", {"index_path": str(path)})
        assert status == 200
        assert info["generation"] == 1
        assert info["transactions"] == 90
        # subsequent queries answer from the new generation
        status, body = post(f"{base}/query/knn", {"items": [1], "k": 1})
        assert status == 200 and body["generation"] == 1
        assert len(sink.of_type("snapshot_swap")) == 1

    def test_reload_from_dataset(self, served, tmp_path):
        base, _, _ = served
        transactions = random_transactions(seed=3, count=40, n_bits=N_BITS)
        path = tmp_path / "fresh.jsonl"
        save_transactions(transactions, path, N_BITS)
        status, info = post(
            f"{base}/admin/reload", {"dataset_path": str(path)}
        )
        assert status == 200 and info["transactions"] == 40


class TestConcurrentClients:
    def test_parallel_clients_during_hot_swap(self, served, tmp_path):
        """The acceptance scenario over real HTTP: zero non-shed failures."""
        base, service, _ = served
        replacement = build_tree(seed=13, count=160)
        path = tmp_path / "swap.sgt"
        save_tree(replacement, path)
        replacement.store.pager.close()

        stop = threading.Event()
        counts = {"ok": 0, "shed": 0}
        errors: list[object] = []
        lock = threading.Lock()

        def client(offset: int):
            i = 0
            while not stop.is_set():
                status, body = post(
                    f"{base}/query/knn",
                    {"items": [(offset + i) % N_BITS, 5], "k": 2},
                )
                with lock:
                    if status == 200:
                        counts["ok"] += 1
                    elif status == 429:
                        counts["shed"] += 1  # legitimate backpressure
                    else:
                        errors.append((status, body))
                i += 1

        threads = [threading.Thread(target=client, args=(j,)) for j in range(4)]
        for t in threads:
            t.start()
        status, info = post(f"{base}/admin/reload", {"index_path": str(path)})
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert status == 200 and info["generation"] == 1
        assert errors == []
        assert counts["ok"] > 0
        assert json.loads(get(f"{base}/healthz")[1])["transactions"] == 160


def connect(base: str) -> http.client.HTTPConnection:
    """One persistent (keep-alive) client connection to ``base``."""
    url = urllib.parse.urlsplit(base)
    return http.client.HTTPConnection(url.hostname, url.port, timeout=30)


def exchange(conn: http.client.HTTPConnection, path: str, body: dict):
    """One POST on ``conn``; returns (status, headers, decoded body)."""
    conn.request("POST", path, body=json.dumps(body),
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.headers, json.loads(resp.read())


def raw_socket(base: str) -> socket.socket:
    url = urllib.parse.urlsplit(base)
    return socket.create_connection((url.hostname, url.port), timeout=10)


def read_to_close(sock: socket.socket) -> bytes:
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def raw_exchange(base: str, request: bytes) -> bytes:
    """Send raw bytes on a fresh socket; read until the server closes."""
    with raw_socket(base) as sock:
        sock.sendall(request)
        return read_to_close(sock)


def split_response(raw: bytes) -> "tuple[int, dict[str, str], bytes]":
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, body


class TestConnections:
    """Keep-alive connections: one buffered write per response, Nagle
    off, and a bounded read timeout."""

    @staticmethod
    def keep_alive_median_ms(base: str, n: int = 20) -> float:
        conn = connect(base)
        latencies = []
        try:
            for i in range(n):
                started = time.perf_counter()
                status, _, _ = exchange(
                    conn, "/query/knn", {"items": [i % N_BITS, 7], "k": 3}
                )
                latencies.append((time.perf_counter() - started) * 1e3)
                assert status == 200
        finally:
            conn.close()
        return statistics.median(latencies)

    def test_keep_alive_does_not_stall_single_tree(self, served):
        # A header write and a body write on a Nagle socket stall each
        # keep-alive response ~40 ms on the client's delayed ACK.
        assert self.keep_alive_median_ms(served[0]) < 20.0

    def test_keep_alive_does_not_stall_shards(self, sharded_served):
        assert self.keep_alive_median_ms(sharded_served) < 20.0

    def test_truncated_body_closes_connection(self, served, monkeypatch):
        base, _, _ = served
        assert http_module._Handler.timeout == http_module.READ_TIMEOUT_SECONDS
        monkeypatch.setattr(http_module._Handler, "timeout", 0.5)
        with raw_socket(base) as sock:
            sock.sendall(
                b"POST /query/knn HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100\r\n\r\n" + b'{"items": '
            )
            started = time.monotonic()
            assert sock.recv(1024) == b""  # closed, no response
            assert time.monotonic() - started < 5.0
        # The server still answers the next client.
        assert post(f"{base}/query/knn", {"items": [1, 7], "k": 2})[0] == 200

    def test_expect_continue_is_answered_before_the_body(self, served):
        base, _, _ = served
        body = json.dumps({"items": [1, 7, 42], "k": 3}).encode()
        with raw_socket(base) as sock:
            sock.sendall(
                b"POST /query/knn HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\nExpect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            sock.settimeout(2.0)
            assert sock.recv(1024).startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            sock.settimeout(10.0)
            status, _, payload = split_response(read_to_close(sock))
        assert status == 200 and len(json.loads(payload)["results"]) == 3

    def test_malformed_request_line_error_arrives_complete(self, served):
        # The stdlib cannot tell the version of a broken request line, so
        # it answers HTTP/0.9-style: the bare error page, then close.
        raw = raw_exchange(served[0], b"GET /healthz HTTP/1.1 extra\r\n\r\n")
        assert raw.startswith(b"<!DOCTYPE HTML>")
        assert b"Error code: 400" in raw and raw.endswith(b"</html>\n")

    def test_unsupported_method_error_arrives_complete(self, served):
        status, headers, body = split_response(raw_exchange(
            served[0], b"PUT /query/knn HTTP/1.1\r\nHost: x\r\n\r\n"
        ))
        assert status == 501
        assert headers["connection"] == "close"
        assert len(body) == int(headers["content-length"]) > 0

    def test_connection_survives_a_400(self, served):
        conn = connect(served[0])
        try:
            status, _, doc = exchange(conn, "/query/knn", {"wrong": True})
            assert status == 400 and doc["error"].startswith("bad request")
            status, _, doc = exchange(
                conn, "/query/knn", {"items": [1, 7], "k": 2}
            )
            assert status == 200 and len(doc["results"]) == 2
        finally:
            conn.close()

    @pytest.mark.parametrize("error, code, retry_after", [
        pytest.param(RequestShed(waiting=8, inflight=4), 429, None,
                     id="shed-429"),
        pytest.param(CircuitOpen("all breakers open", retry_after=2.4), 503,
                     "2", id="breaker-503"),
    ])
    def test_retry_responses_arrive_complete(
        self, served, monkeypatch, error, code, retry_after
    ):
        base, service, _ = served
        original = service.query

        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(service, "query", refuse)
        conn = connect(base)
        try:
            status, headers, doc = exchange(
                conn, "/query/knn", {"items": [1, 7], "k": 2}
            )
            assert status == code and doc["retry"] is True
            assert headers.get("Retry-After") == retry_after
            monkeypatch.setattr(service, "query", original)
            status, _, _ = exchange(
                conn, "/query/knn", {"items": [1, 7], "k": 2}
            )
            assert status == 200
        finally:
            conn.close()
