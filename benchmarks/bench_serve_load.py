"""Serving-layer load behaviour: shedding, deadlines, hot-swap.

Exercises the three guarantees of :mod:`repro.server` end to end (real
sockets, real threads) and writes ``BENCH_serve_load.json`` at the repo
root:

1. **Admission control** — a server with capacity 8 (4 in flight + 4
   queued) is offered 16 concurrent requests, i.e. 2x saturation, while
   the executing queries are gated shut.  Exactly the 8 requests beyond
   capacity must be shed with 429; the 8 within capacity must all
   complete once the gate opens.
2. **Deadline early termination** — the same query batch runs with no
   deadline and with an already-expired one.  Every expired query must
   abort with :class:`~repro.errors.QueryTimeout` at its first
   cancellation checkpoint, so the aborted runs' node accesses land
   strictly below the full runs'; over HTTP the same requests come back
   as 504.
3. **Snapshot hot-swap under load** — four client threads hammer
   ``/query/knn`` while ``/admin/reload`` swaps in a different index.
   Zero non-shed requests may fail, and the swap must be visible in the
   served generation.
4. **Kill-one-shard under load** — the same clients hammer a sharded
   service while one shard worker process is SIGKILLed mid-run.  Zero requests may
   hang past their deadline, affected responses degrade to ``partial``
   with coverage detail instead of failing, and the supervisor must
   restore full coverage before the run ends.
5. **Concurrent writer, wait-free readers** — four clients query a
   fresh tree while a background writer publishes >= 10 copy-on-write
   snapshots (one per insert).  Zero requests may fail or stall, query
   p99 with the writer active must stay within 2x the read-only p99,
   and results must be bit-identical within each pinned
   ``tree_generation``; once the readers drain the epoch reclaimer
   must free every superseded page.
6. **Keep-alive vs connection-per-request** — 1 and 4 closed-loop
   clients query a single tree, once over one persistent
   :mod:`http.client` connection per client and once over a fresh
   connection per request; QPS and p50/p99 for each.  A persistent
   connection must not be slower than a fresh one: p50 within
   ``max(2 x per-request p50, 5 ms)``.

Runnable standalone (``python benchmarks/bench_serve_load.py``) or via
pytest; the CI serve-smoke job runs the pytest form and gates on the
acceptance assertions above.
"""

from __future__ import annotations

import argparse
import http.client
import json
import pathlib
import threading
import time
import urllib.error
import urllib.request

import pytest

from bench_common import cached_quest, report
from repro import Transaction
from repro.bench import build_tree
from repro.errors import QueryTimeout
from repro.server import (
    Backoff,
    QueryService,
    ShardedQueryService,
    ShardedTree,
    ShardSupervisor,
    make_server,
    make_shard_handles,
    partition_transactions,
)
from repro.sgtree import Deadline, SearchStats
from repro.sgtree.persistence import save_tree
from repro.telemetry import MetricsRegistry, Telemetry

T_SIZE, I_SIZE, D = 10, 6, 5_000
N_QUERIES = 40
K = 10
REPO_ROOT = pathlib.Path(__file__).parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_serve_load.json"


def _post(base: str, path: str, body: dict, timeout: float = 30.0):
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get_json(base: str, path: str) -> dict:
    with urllib.request.urlopen(f"{base}{path}", timeout=30) as resp:
        return json.loads(resp.read())


def _served(tree, **service_kwargs):
    """A running server over ``tree``; returns (server, service, base url)."""
    telemetry = Telemetry(registry=MetricsRegistry())
    service = QueryService(tree, telemetry=telemetry, **service_kwargs)
    server = make_server(service, host="127.0.0.1", port=0)
    server.serve_background()
    return server, service, f"http://127.0.0.1:{server.server_address[1]}"


def bench_admission(tree, queries) -> dict:
    """Offer 2x the server's capacity at once; count the sheds."""
    max_inflight, max_queue = 4, 4
    capacity = max_inflight + max_queue
    offered = 2 * capacity
    server, service, base = _served(
        tree, max_inflight=max_inflight, max_queue=max_queue
    )
    gate = threading.Event()
    original = service._run

    def gated(*args):
        gate.wait(timeout=60)
        return original(*args)

    service._run = gated
    statuses: list[int] = []
    lock = threading.Lock()

    def client(i: int):
        status, _body = _post(
            base, "/query/knn", {"items": queries[i % len(queries)], "k": K}
        )
        with lock:
            statuses.append(status)

    try:
        # Wave A fills the server exactly to capacity (the gate holds the
        # executing queries, so slots and queue stay occupied) ...
        wave_a = [
            threading.Thread(target=client, args=(i,)) for i in range(capacity)
        ]
        for t in wave_a:
            t.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            health = _get_json(base, "/healthz")
            if (health["inflight"], health["queue_depth"]) == (
                max_inflight, max_queue,
            ):
                break
            time.sleep(0.01)
        else:  # pragma: no cover - diagnostic
            raise RuntimeError(f"server never saturated: {health}")
        # ... so wave B — the second half of the 2x offered load — is
        # past both limits and must be shed to the last request.
        wave_b = [
            threading.Thread(target=client, args=(capacity + i,))
            for i in range(offered - capacity)
        ]
        for t in wave_b:
            t.start()
        for t in wave_b:
            t.join(timeout=60)
        gate.set()
        for t in wave_a:
            t.join(timeout=60)
    finally:
        gate.set()
        server.close()
    ok = sum(1 for s in statuses if s == 200)
    shed = sum(1 for s in statuses if s == 429)
    return {
        "max_inflight": max_inflight,
        "max_queue": max_queue,
        "capacity": capacity,
        "offered": offered,
        "ok": ok,
        "shed": shed,
        "other": len(statuses) - ok - shed,
        "shed_rate": shed / offered,
    }


def bench_deadline(tree, queries) -> dict:
    """Expired deadlines must abort traversals at the first checkpoint."""
    full = SearchStats()
    for query in queries:
        tree.nearest(query, k=K, stats=full)
    aborted = SearchStats()
    timeouts = 0
    for query in queries:
        try:
            tree.nearest(query, k=K, stats=aborted,
                         deadline=Deadline.after(0.0))
        except QueryTimeout:
            timeouts += 1
    return {
        "n_queries": len(queries),
        "k": K,
        "full_node_accesses": full.node_accesses,
        "expired_node_accesses": aborted.node_accesses,
        "timeouts_raised": timeouts,
        "early_termination":
            aborted.node_accesses < full.node_accesses,
    }


def bench_hot_swap(tree, replacement_path: str, queries,
                   seconds: float = 0.6) -> dict:
    """Swap snapshots under live traffic; no non-shed request may fail."""
    server, service, base = _served(tree, max_inflight=8, max_queue=64)
    stop = threading.Event()
    counts = {"ok": 0, "shed": 0, "failed": 0}
    lock = threading.Lock()
    transactions_before = len(service.tree)

    def client(offset: int):
        i = 0
        while not stop.is_set():
            status, _body = _post(
                base, "/query/knn",
                {"items": queries[(offset + i) % len(queries)], "k": K},
            )
            with lock:
                if status == 200:
                    counts["ok"] += 1
                elif status == 429:
                    counts["shed"] += 1
                else:
                    counts["failed"] += 1
            i += 1

    threads = [threading.Thread(target=client, args=(j,)) for j in range(4)]
    try:
        for t in threads:
            t.start()
        time.sleep(seconds / 2)
        status, info = _post(
            base, "/admin/reload", {"index_path": replacement_path}
        )
        time.sleep(seconds / 2)
        stop.set()
        for t in threads:
            t.join(timeout=60)
        health = _get_json(base, "/healthz")
    finally:
        stop.set()
        server.close()
    assert status == 200, info
    return {
        "clients": len(threads),
        "requests_ok": counts["ok"],
        "requests_shed": counts["shed"],
        "requests_failed": counts["failed"],
        "transactions_before": transactions_before,
        "transactions_after": health["transactions"],
        "generation_after": health["generation"],
        "swap_seconds": info["seconds"],
    }


def bench_kill_shard(tree, queries, seconds: float = 1.2) -> dict:
    """Kill one shard worker under live load; nothing may hang."""
    n_shards = 4
    deadline_ms = 500
    grace = 2.0  # scheduling slack; a hang would blow far past this
    transactions = [Transaction(tid, sig) for tid, sig in tree.items()]
    partitions = partition_transactions(transactions, n_shards)
    handles = make_shard_handles(partitions, tree.n_bits)
    supervisor = ShardSupervisor(
        handles, probe_interval=0.15,
        backoff=Backoff(initial=0.01, factor=2.0, max_delay=0.1,
                        jitter=False),
    ).start()
    service = ShardedQueryService(
        ShardedTree(handles, tree.n_bits), supervisor=supervisor,
        telemetry=Telemetry(registry=MetricsRegistry()),
        max_inflight=8, max_queue=64,
    )
    server = make_server(service, host="127.0.0.1", port=0)
    server.serve_background()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    stop = threading.Event()
    counts = {"ok": 0, "partial": 0, "shed": 0, "failed": 0, "hung": 0}
    lock = threading.Lock()

    def client(offset: int):
        i = 0
        while not stop.is_set():
            started = time.monotonic()
            status, body = _post(
                base, "/query/knn",
                {"items": queries[(offset + i) % len(queries)], "k": K,
                 "deadline_ms": deadline_ms},
            )
            elapsed = time.monotonic() - started
            with lock:
                if elapsed > deadline_ms / 1e3 + grace:
                    counts["hung"] += 1
                elif status == 200 and body.get("partial"):
                    counts["partial"] += 1
                elif status == 200:
                    counts["ok"] += 1
                elif status == 429:
                    counts["shed"] += 1
                else:
                    counts["failed"] += 1
            i += 1

    threads = [threading.Thread(target=client, args=(j,)) for j in range(4)]
    try:
        for t in threads:
            t.start()
        time.sleep(seconds / 2)
        handles[1].worker.kill()  # mid-run: one shard dies without warning
        time.sleep(seconds / 2)
        stop.set()
        for t in threads:
            t.join(timeout=60)
        # The supervisor must bring the shard back; then full coverage.
        recovery_deadline = time.monotonic() + 10.0
        while time.monotonic() < recovery_deadline:
            if all(h.is_up() for h in handles):
                break
            time.sleep(0.05)
        status, body = _post(
            base, "/query/knn",
            {"items": queries[0], "k": K, "deadline_ms": 5000},
        )
        recovered = status == 200 and not body.get("partial")
        health = _get_json(base, "/healthz")
    finally:
        stop.set()
        server.close()
    return {
        "shards": n_shards,
        "clients": len(threads),
        "deadline_ms": deadline_ms,
        "requests_ok": counts["ok"],
        "requests_partial": counts["partial"],
        "requests_shed": counts["shed"],
        "requests_failed": counts["failed"],
        "requests_hung": counts["hung"],
        "restarts": sum(h.restarts for h in handles),
        "coverage_recovered": recovered,
        "final_shards_up": health["shards"]["up"],
    }


def _quantile(latencies: list, q: float) -> float:
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _p99(latencies: list) -> float:
    return _quantile(latencies, 0.99)


def bench_keep_alive(tree, queries, seconds: float = 0.5) -> dict:
    """Closed-loop kNN over persistent vs per-request connections.

    For 1 and 4 clients, each client runs for ``seconds`` either on one
    keep-alive :class:`http.client.HTTPConnection` or on a fresh
    connection per request.  Gate (asserted by :class:`TestServeLoad`
    and CI): persistent p50 <= ``max(2 x per-request p50, 5 ms)``.
    """
    server, _service, base = _served(tree, max_inflight=8, max_queue=64)
    port = server.server_address[1]

    def run(n_clients: int, persistent: bool) -> dict:
        stop = threading.Event()
        lock = threading.Lock()
        latencies: list = []
        failed = [0]

        def client(offset: int):
            conn = None
            i = 0
            while not stop.is_set():
                if conn is None:
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=30
                    )
                body = json.dumps(
                    {"items": queries[(offset + i) % len(queries)], "k": K}
                )
                started = time.perf_counter()
                conn.request("POST", "/query/knn", body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                resp.read()
                elapsed = time.perf_counter() - started
                if not persistent:
                    conn.close()
                    conn = None
                with lock:
                    if resp.status == 200:
                        latencies.append(elapsed)
                    else:
                        failed[0] += 1
                i += 1
            if conn is not None:
                conn.close()

        threads = [threading.Thread(target=client, args=(j,))
                   for j in range(n_clients)]
        started = time.perf_counter()
        for t in threads:
            t.start()
        time.sleep(seconds)
        stop.set()
        for t in threads:
            t.join(timeout=60)
        wall = time.perf_counter() - started
        return {
            "requests": len(latencies),
            "failed": failed[0],
            "qps": len(latencies) / wall,
            "p50_ms": _quantile(latencies, 0.5) * 1e3,
            "p99_ms": _p99(latencies) * 1e3,
        }

    try:
        return {
            f"clients_{n}": {
                "persistent": run(n, persistent=True),
                "per_request": run(n, persistent=False),
            }
            for n in (1, 4)
        }
    finally:
        server.close()


def bench_concurrent_writer(workload, queries, n_publishes: int = 12,
                            seconds: float = 1.0) -> dict:
    """Readers must keep flowing while a writer publishes COW snapshots.

    A fresh tree serves four HTTP clients twice: once read-only (the
    latency baseline) and once while a background writer performs
    ``n_publishes`` single-transaction inserts, each of which is one
    copy-on-write snapshot publish.  Gates (asserted by
    :class:`TestServeLoad`): zero failed and zero stalled requests,
    at least ``n_publishes`` publishes observed, p99 with the writer
    active within 2x the read-only p99, and results bit-identical
    within each ``(query, tree_generation)`` group.
    """
    fresh = build_tree(workload).index
    server, service, base = _served(fresh, max_inflight=8, max_queue=64)
    deadline_ms = 5_000
    grace = 2.0  # scheduling slack; a stalled reader would blow past this
    lock = threading.Lock()

    def hammer(seconds: float, samples: list):
        """Four clients for ``seconds``; append (qi, status, elapsed,
        generation, canonical-results) tuples to ``samples``."""
        stop = threading.Event()

        def client(offset: int):
            i = 0
            while not stop.is_set():
                qi = (offset + i) % len(queries)
                started = time.monotonic()
                status, body = _post(
                    base, "/query/knn",
                    {"items": queries[qi], "k": K, "deadline_ms": deadline_ms},
                )
                elapsed = time.monotonic() - started
                row = (
                    qi, status, elapsed,
                    body.get("tree_generation"),
                    json.dumps(body.get("results"), sort_keys=True),
                )
                with lock:
                    samples.append(row)
                i += 1

        threads = [threading.Thread(target=client, args=(j,))
                   for j in range(4)]
        for t in threads:
            t.start()
        time.sleep(seconds)
        stop.set()
        for t in threads:
            t.join(timeout=60)

    read_only: list = []
    with_writer: list = []
    try:
        hammer(seconds, read_only)

        publishes_before = service.tree.publishes
        writer_done = threading.Event()

        def writer():
            start_tid = 10_000_000
            for i in range(n_publishes):
                source = workload.transactions[i % len(workload.transactions)]
                service.tree.insert(start_tid + i, source.signature)
                time.sleep(seconds / (2 * n_publishes))
            writer_done.set()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        hammer(seconds, with_writer)
        writer_thread.join(timeout=60)
        publishes = service.tree.publishes - publishes_before

        # Superseded pages must drain once the readers are gone.
        reclaimed = service.tree.reclaim(timeout=10)
        pending = service.tree.pending_reclaim
        pages_reclaimed = service.tree.reclaimed_pages
    finally:
        server.close()

    def gate_counts(samples: list) -> dict:
        failed = sum(1 for _, s, _, _, _ in samples if s not in (200, 429))
        stalled = sum(1 for _, _, e, _, _ in samples
                      if e > deadline_ms / 1e3 + grace)
        return {"failed": failed, "stalled": stalled}

    # Bit-identical per pinned generation: every response in one
    # (query, generation) group must carry byte-identical results.
    groups: dict = {}
    mismatches = 0
    for qi, status, _e, generation, canonical in with_writer:
        if status != 200:
            continue
        key = (qi, generation)
        if key in groups:
            if groups[key] != canonical:
                mismatches += 1
        else:
            groups[key] = canonical
    generations = sorted({g for _, s, _, g, _ in with_writer if s == 200})

    p99_read_only = _p99([e for _, s, e, _, _ in read_only if s == 200])
    p99_with_writer = _p99([e for _, s, e, _, _ in with_writer if s == 200])
    return {
        "clients": 4,
        "deadline_ms": deadline_ms,
        "writer_inserts": n_publishes,
        "publishes": publishes,
        "read_only_requests": len(read_only),
        "with_writer_requests": len(with_writer),
        **{f"read_only_{k}": v for k, v in gate_counts(read_only).items()},
        **{f"with_writer_{k}": v for k, v in gate_counts(with_writer).items()},
        "p99_read_only_seconds": p99_read_only,
        "p99_with_writer_seconds": p99_with_writer,
        "generations_observed": len(generations),
        "generation_span": (generations[-1] - generations[0]
                            if generations else 0),
        "identity_groups": len(groups),
        "identity_mismatches": mismatches,
        "reclaim_drained": bool(reclaimed),
        "pages_reclaimed": pages_reclaimed,
        "reclaim_pending_after_drain": pending,
    }


def run_benchmark(tmp_dir: "pathlib.Path | None" = None) -> dict:
    workload = cached_quest(T_SIZE, I_SIZE, D, N_QUERIES)
    tree = build_tree(workload).index
    query_items = [
        sorted(query.items()) for query in workload.queries[:N_QUERIES]
    ]

    admission = bench_admission(tree, query_items)

    deadline_doc = bench_deadline(tree, workload.queries[:N_QUERIES])
    # The same expired budget over HTTP must come back as 504.
    server, _service, base = _served(tree, max_inflight=8, max_queue=32)
    try:
        deadline_doc["http_504"] = sum(
            1
            for items in query_items[:5]
            if _post(base, "/query/knn",
                     {"items": items, "k": K, "deadline_ms": 0})[0] == 504
        )
    finally:
        server.close()

    # A second, smaller index to swap in while clients hammer the first.
    out_dir = tmp_dir if tmp_dir is not None else REPO_ROOT / "benchmarks" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    replacement_workload = cached_quest(T_SIZE, I_SIZE, D // 2, N_QUERIES,
                                        stream_seed=2)
    replacement = build_tree(replacement_workload).index
    replacement_path = out_dir / "serve_swap_replacement.sgt"
    save_tree(replacement, replacement_path)

    hot_swap = bench_hot_swap(tree, str(replacement_path), query_items)

    kill_shard = bench_kill_shard(tree, query_items)

    concurrent_writer = bench_concurrent_writer(
        replacement_workload, query_items
    )

    keep_alive = bench_keep_alive(tree, query_items)

    return {
        "benchmark": "serve_load",
        "workload": workload.name,
        "database_size": len(workload.transactions),
        "admission": admission,
        "deadline": deadline_doc,
        "hot_swap": hot_swap,
        "kill_shard": kill_shard,
        "concurrent_writer": concurrent_writer,
        "keep_alive": keep_alive,
    }


def _summarise(doc: dict) -> str:
    admission, deadline, swap, kill, writer = (
        doc["admission"], doc["deadline"], doc["hot_swap"],
        doc["kill_shard"], doc["concurrent_writer"],
    )
    return "\n".join([
        f"Serving under load ({doc['workload']}, "
        f"{doc['database_size']} transactions)",
        f"  admission: offered {admission['offered']} at capacity "
        f"{admission['capacity']} -> {admission['ok']} ok, "
        f"{admission['shed']} shed (rate {admission['shed_rate']:.2f})",
        f"  deadline: {deadline['full_node_accesses']} node accesses "
        f"unbounded vs {deadline['expired_node_accesses']} expired "
        f"({deadline['timeouts_raised']}/{deadline['n_queries']} timeouts, "
        f"{deadline['http_504']}/5 HTTP 504)",
        f"  hot-swap: {swap['requests_ok']} ok, {swap['requests_shed']} "
        f"shed, {swap['requests_failed']} failed across the swap "
        f"({swap['transactions_before']} -> {swap['transactions_after']} "
        f"transactions, {swap['swap_seconds'] * 1e3:.1f}ms)",
        f"  kill-shard: {kill['requests_ok']} ok, "
        f"{kill['requests_partial']} partial, {kill['requests_hung']} hung "
        f"across {kill['restarts']} restart(s); coverage recovered: "
        f"{kill['coverage_recovered']} "
        f"({kill['final_shards_up']}/{kill['shards']} shards up)",
        f"  concurrent-writer: {writer['publishes']} publishes, "
        f"{writer['with_writer_requests']} reads "
        f"({writer['with_writer_failed']} failed, "
        f"{writer['with_writer_stalled']} stalled), p99 "
        f"{writer['p99_with_writer_seconds'] * 1e3:.1f}ms vs "
        f"{writer['p99_read_only_seconds'] * 1e3:.1f}ms read-only, "
        f"{writer['identity_mismatches']} identity mismatches across "
        f"{writer['identity_groups']} (query, generation) groups",
        *(
            f"  {clients.replace('_', ' ')}: keep-alive "
            f"{row['persistent']['qps']:.0f} qps, p50 "
            f"{row['persistent']['p50_ms']:.2f}ms vs per-request "
            f"{row['per_request']['qps']:.0f} qps, p50 "
            f"{row['per_request']['p50_ms']:.2f}ms"
            for clients, row in doc["keep_alive"].items()
        ),
    ])


def write_results(doc: dict, out_path: pathlib.Path = DEFAULT_OUT) -> None:
    out_path.write_text(json.dumps(doc, indent=2) + "\n")


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    doc = run_benchmark(tmp_dir=tmp_path_factory.mktemp("serve_load"))
    write_results(doc)
    report("serve_load", _summarise(doc))
    return doc


class TestServeLoad:
    def test_shedding_at_double_saturation(self, results):
        admission = results["admission"]
        assert admission["ok"] == admission["capacity"]
        assert admission["shed"] == admission["offered"] - admission["capacity"]
        assert admission["other"] == 0

    def test_expired_deadline_terminates_early(self, results):
        deadline = results["deadline"]
        assert deadline["timeouts_raised"] == deadline["n_queries"]
        assert deadline["expired_node_accesses"] < deadline["full_node_accesses"]
        assert deadline["http_504"] == 5

    def test_hot_swap_drops_nothing(self, results):
        swap = results["hot_swap"]
        assert swap["requests_failed"] == 0
        assert swap["requests_ok"] > 0
        assert swap["generation_after"] == 1
        assert swap["transactions_after"] != swap["transactions_before"]

    def test_kill_shard_hangs_nothing_and_recovers(self, results):
        kill = results["kill_shard"]
        assert kill["requests_hung"] == 0
        assert kill["requests_failed"] == 0
        assert kill["requests_ok"] > 0
        assert kill["restarts"] >= 1
        assert kill["coverage_recovered"]
        assert kill["final_shards_up"] == kill["shards"]

    def test_concurrent_writer_never_stalls_readers(self, results):
        writer = results["concurrent_writer"]
        assert writer["publishes"] >= 10
        assert writer["with_writer_failed"] == 0
        assert writer["with_writer_stalled"] == 0
        assert writer["read_only_failed"] == 0
        assert writer["p99_with_writer_seconds"] <= max(
            2 * writer["p99_read_only_seconds"], 0.05
        )
        assert writer["identity_mismatches"] == 0
        assert writer["generations_observed"] >= 2
        assert writer["reclaim_drained"]
        assert writer["reclaim_pending_after_drain"] == 0

    def test_keep_alive_not_slower_than_per_request(self, results):
        for row in results["keep_alive"].values():
            persistent, per_request = row["persistent"], row["per_request"]
            assert persistent["failed"] == per_request["failed"] == 0
            assert persistent["requests"] > 0 and per_request["requests"] > 0
            assert persistent["p50_ms"] <= max(2 * per_request["p50_ms"], 5.0)

    def test_json_well_formed(self, results):
        doc = json.loads(DEFAULT_OUT.read_text())
        assert doc["benchmark"] == "serve_load"
        for key in ("admission", "deadline", "hot_swap", "kill_shard",
                    "concurrent_writer", "keep_alive"):
            assert key in doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    doc = run_benchmark()
    write_results(doc, args.output)
    print(_summarise(doc))
    print(f"results -> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
