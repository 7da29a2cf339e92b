"""``serve_single`` and ``serve_sharded``: ``repro-sgtree serve`` over HTTP.

The server runs as a subprocess with the CLI defaults (256 buffer
frames, max-inflight 8); ``serve_sharded`` adds ``--shards 2`` (process
mode, bound sharing on).  Two client threads each hold one HTTP/1.1
keep-alive connection and run a closed loop of kNN (k = 10,
depth-first) and range (epsilon = 4) requests at 2 : 1.  Every answer is
checked against :class:`perfbench.oracle.Oracle` after the window.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from . import common, tracer
from .common import D, EPSILON, K, N_ITEMS, percentile, ratio
from .oracle import Oracle, pack, same_knn, same_range

CLIENTS = 2
#: Distinct queries the clients cycle through (the first of the fixed
#: query stream).  A window of ``serve_sharded`` wraps this pool about
#: twice, so it measures warm shard caches: with the whole 640-query
#: stream, the first pass ran ~10 % slower than the second and runs
#: split into a slow and a fast mode depending on how much of the
#: window was first pass.
POOL = 160
#: Setups per untraced run for ``setup_s`` (median reported).
SETUP_REPEATS = 3
READY_TIMEOUT_S = 60.0
#: ``serve_sharded`` waits for its supervisor to settle (see
#: :meth:`Server.wait_settled`) before the window, untimed.
SETTLE_S = 4.0
SETTLE_TIMEOUT_S = 90.0
REQUEST_TIMEOUT_S = 30.0
#: Time for a hooked server's trace flusher (0.2 s period) to catch up.
TRACE_SETTLE_S = 0.6
#: Bytes per page-file slot at the default 8 KiB page (8-byte slot header).
PAGE_SLOT = 8 + 8192


def fetch(port: int, method: str, path: str, body: "dict | None" = None,
          timeout: float = REQUEST_TIMEOUT_S) -> "tuple[int, bytes]":
    """One request on a fresh connection (set-up and scrapes only)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, payload, headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def scrape(port: int) -> "dict[str, float]":
    """``/metrics`` as ``{'name{labels}': value}``."""
    status, body = fetch(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    values = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            values[key] = float(value)
    return values


def metric_sum(values: "dict[str, float]", name: str, label: str = "") -> float:
    """Sum of every series of ``name`` whose labels contain ``label``."""
    return sum(
        v for key, v in values.items()
        if (key == name or key.startswith(name + "{")) and label in key
    )


class Server:
    """One ``repro-sgtree serve`` subprocess in its own process group."""

    def __init__(self, index: str, sharded: bool, log: str,
                 trace_dir: "str | None" = None):
        self.index = index
        self.sharded = sharded
        self.log = log
        self.trace_dir = trace_dir
        self.process: "subprocess.Popen | None" = None
        self.port = 0

    def start(self) -> "Server":
        env = common.bench_env()
        if self.trace_dir is not None:
            env["PYTHONPATH"] = os.pathsep.join(
                [str(common.ROOT / "perfbench" / "hook"), env["PYTHONPATH"]]
            )
            env["PERFBENCH_TRACE_DIR"] = self.trace_dir
        args = [sys.executable, "-m", "repro.cli", "serve", self.index, "--port", "0"]
        if self.sharded:
            args += ["--shards", "2"]
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                args, stdout=log, stderr=subprocess.STDOUT, env=env,
                start_new_session=True,
            )
        return self

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not self.port:
            self._check_alive(deadline)
            with open(self.log, "rb") as log:
                match = re.search(rb"http://[\d.]+:(\d+)", log.read())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.01)
        while True:
            self._check_alive(deadline)
            try:
                if fetch(self.port, "GET", "/healthz/ready")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)

    def wait_settled(self, items: "list[int]") -> float:
        """Block until the shards have settled; returns the seconds waited.

        Settled means a kNN probe is answered by every shard and no
        shard's state or restart count has changed for :data:`SETTLE_S`
        (longer than one supervisor probe timeout plus its largest
        restart backoff).  Past :data:`SETTLE_TIMEOUT_S` the window starts
        anyway and partial answers count as failures.
        """
        started = time.monotonic()
        seen, since = None, started
        while time.monotonic() - started < SETTLE_TIMEOUT_S:
            self._check_alive(started + SETTLE_TIMEOUT_S + 1)
            try:
                health = json.loads(fetch(self.port, "GET", "/healthz")[1])
                shards = [(s["state"], s["restarts"]) for s in health["shards"]["detail"]]
                status, body = fetch(self.port, "POST", "/query/knn", {"items": items, "k": K})
                full = status == 200 and not json.loads(body).get("partial")
            except OSError:
                shards, full = None, False
            now = time.monotonic()
            if shards != seen or not full:
                seen, since = shards, now
            elif now - since >= SETTLE_S and all(s in ("up", "failed") for s, _ in shards):
                break
            time.sleep(0.1)
        return time.monotonic() - started

    def _check_alive(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(f"server exited with {self.process.returncode}; see {self.log}")
        if time.monotonic() > deadline:
            raise TimeoutError(f"server not ready in time; see {self.log}")

    def pids(self) -> "list[int]":
        return [self.process.pid] + common.children(self.process.pid)

    def stop(self) -> None:
        """SIGINT (graceful drain), then SIGKILL the group; waits for all."""
        if self.process is None:
            return
        group = self.process.pid
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        deadline = time.monotonic() + 10
        while _group_alive(group) and time.monotonic() < deadline:
            time.sleep(0.05)
        self.process = None


def _group_alive(pgid: int) -> bool:
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                return True
    return False


# -- load ------------------------------------------------------------------------

@dataclass
class Record:
    kind: str
    query: int
    start: float
    end: float
    status: "int | None"
    body: bytes = b""


def operations(client: int) -> "list[tuple[str, int]]":
    """Client ``client``'s op sequence: query index and kind (kNN : range = 2 : 1)."""
    ops = []
    for j in range(POOL):
        g = j * CLIENTS + client
        ops.append(("range" if g % 3 == 2 else "knn", g % POOL))
    return ops


def _client(port: int, ops, query_items, t_end: float, out: list) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    headers = {"Content-Type": "application/json"}
    bodies = {}
    i = 0
    try:
        while time.perf_counter() < t_end:
            kind, q = ops[i % len(ops)]
            i += 1
            body = bodies.get((kind, q))
            if body is None:
                spec = {"k": K, "algorithm": "depth-first"} if kind == "knn" else {"epsilon": EPSILON}
                body = bodies[(kind, q)] = json.dumps({"items": query_items[q], **spec})
            start = time.perf_counter()
            try:
                conn.request("POST", f"/query/{kind}", body, headers)
                response = conn.getresponse()
                data, status = response.read(), response.status
            except (OSError, http.client.HTTPException):
                data, status = b"", None
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
            out.append(Record(kind, q, start, time.perf_counter(), status, data))
    finally:
        conn.close()


@dataclass
class Window:
    """What one measurement window observed."""

    records: list = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    health: dict = field(default_factory=dict)
    rss_mb: float = 0.0


def run_window(server: Server, inputs, seconds: float) -> Window:
    window = Window(before=scrape(server.port))
    per_client: list[list] = [[] for _ in range(CLIENTS)]
    window.start = time.perf_counter()
    t_end = window.start + seconds
    threads = [
        threading.Thread(target=_client, args=(server.port, operations(c),
                                                inputs.query_items, t_end, per_client[c]))
        for c in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window.records = [r for records in per_client for r in records]
    window.end = max([r.end for r in window.records] + [t_end])
    window.after = scrape(server.port)
    window.health = json.loads(fetch(server.port, "GET", "/healthz")[1])
    window.rss_mb = common.peak_rss_mb(server.pids())
    return window


# -- checking and metrics --------------------------------------------------------

@dataclass
class Outcome:
    kind: str
    latency_ms: float
    failed: bool
    wrong: bool = False
    partial: bool = False
    seconds: "float | None" = None
    stats: dict = field(default_factory=dict)


def check(window: Window, oracle: Oracle, query_rows) -> "list[Outcome]":
    """Grade every response: non-200, partial and oracle mismatches fail."""
    distances: dict[int, object] = {}
    outcomes = []
    for r in window.records:
        latency = (r.end - r.start) * 1e3
        if r.status != 200:
            outcomes.append(Outcome(r.kind, latency, failed=True))
            continue
        doc = json.loads(r.body)
        answer = [(hit["tid"], hit["distance"]) for hit in doc["results"]]
        partial = bool(doc.get("partial"))
        wrong = False
        if not partial:
            d = distances.get(r.query)
            if d is None:
                d = distances[r.query] = oracle.distances(query_rows[r.query])
            wrong = not (same_knn(answer, oracle.knn(d, K)) if r.kind == "knn"
                         else same_range(answer, oracle.range(d, EPSILON)))
        outcomes.append(Outcome(r.kind, latency, failed=partial or wrong, wrong=wrong,
                                partial=partial, seconds=doc.get("seconds"),
                                stats=doc.get("stats") or {}))
    return outcomes


def end_to_end(outcomes, window: Window) -> dict:
    samples = [(o.latency_ms, o.failed) for o in outcomes]
    done = [(r.start, r.end, int(not o.failed)) for r, o in zip(window.records, outcomes)]
    return {
        "qps": common.sliced_rate(done, window.start, window.end),
        "read_p50_ms": percentile(samples, 50),
        "read_p90_ms": percentile(samples, 90),
        "peak_rss_mb": window.rss_mb,
    }


def per_layer_counters(outcomes, window: Window, sharded: bool) -> dict:
    """Per-layer numbers that need no spans (from the untraced window)."""
    by_kind = {kind: [(o.latency_ms, o.failed) for o in outcomes if o.kind == kind]
               for kind in ("knn", "range")}
    answered = [o for o in outcomes if o.seconds is not None]
    n = len(answered)
    before, after = window.before, window.after

    def delta(name: str, label: str = "") -> float:
        return metric_sum(after, name, label) - metric_sum(before, name, label)

    stats = {key: sum(o.stats.get(key) or 0 for o in answered)
             for key in ("node_accesses", "random_ios", "leaf_entries", "bound_updates_applied")}
    if sharded:
        shards = window.health["shards"]["detail"]
        hits = sum((s.get("decode_cache") or {}).get("hits", 0) for s in shards)
        misses = sum((s.get("decode_cache") or {}).get("misses", 0) for s in shards)
        decodes = 0.0  # shard stores are not scraped; see README
    else:
        hits = delta("decode_cache_hits_total")
        misses = delta("decode_cache_misses_total")
        decodes = delta("sgtree_node_decodes_total")
    return {
        "op.knn_p50_ms": percentile(by_kind["knn"], 50),
        "op.knn_p95_ms": percentile(by_kind["knn"], 95),
        "op.range_p50_ms": percentile(by_kind["range"], 50),
        "op.range_p95_ms": percentile(by_kind["range"], 95),
        "op.error_frac": ratio(sum(o.failed for o in outcomes), len(outcomes)),
        "http.overhead_ms_p50": common.median([o.latency_ms - o.seconds * 1e3 for o in answered]),
        "service.seconds_p50": common.median([o.seconds for o in answered]),
        "service.shed": delta("sgtree_server_shed_total"),
        "service.timeouts": delta("sgtree_server_timeouts_total"),
        "shard.partial_frac": ratio(sum(o.partial for o in outcomes), len(outcomes)),
        "shard.restarts": metric_sum(after, "sgtree_shard_restarts_total"),
        "shard.retries": metric_sum(after, "sgtree_shard_retries_total"),
        "shard.breaker_rejections": metric_sum(after, "sgtree_shard_requests_total", 'outcome="open"'),
        "shard.bound_updates_per_query": ratio(stats["bound_updates_applied"], n),
        "search.node_accesses_per_query": ratio(stats["node_accesses"], n),
        "search.leaf_entries_per_query": ratio(stats["leaf_entries"], n),
        "search.data_fraction": ratio(stats["leaf_entries"], n * D),
        "storage.random_ios_per_query": ratio(stats["random_ios"], n),
        "storage.buffer_hit_ratio": 1.0 - ratio(stats["random_ios"], stats["node_accesses"]),
        "storage.decode_cache_hit_ratio": ratio(hits, hits + misses),
        "storage.decodes_per_query": ratio(decodes, n),
        "snapshot.publishes": delta("sgtree_snapshot_publishes_total"),
        "snapshot.pages_reclaimed": delta("sgtree_epoch_pages_reclaimed_total"),
        "snapshot.reclaim_pending_end": metric_sum(after, "sgtree_reclaim_pending"),
    }


# -- the workload ------------------------------------------------------------

def build_index(inputs, path: str):
    """Gray bulk load at the default page size, saved to ``path``."""
    from repro.sgtree.bulkload import bulk_load
    from repro.sgtree.persistence import save_tree

    tree = bulk_load(inputs.transactions, N_ITEMS, method="gray")
    save_tree(tree, path)
    return tree


def setup(inputs, work: str, sharded: bool, n: int):
    """``n`` timed set-ups (build + start until ready).

    Returns the times, the untimed settle wait of the last server when
    sharded, and that server.
    """
    times, waits, server = [], [], None
    for i in range(n):
        if server is not None:
            server.stop()
        index = os.path.join(work, "index.sgt")
        for stale in (index, index + ".meta.json"):
            if os.path.exists(stale):
                os.remove(stale)
        start = time.perf_counter()
        tree = build_index(inputs, index)
        server = Server(index, sharded, os.path.join(work, f"serve-{i}.log")).start()
        try:
            server.wait_ready()
            times.append(time.perf_counter() - start)
            del tree
            gc.collect()
            if sharded and i == n - 1:
                waits.append(server.wait_settled(inputs.query_items[0]))
        except BaseException:
            server.stop()
            raise
    return times, waits, server


def run(workload: str, inputs, seconds: float, trace: bool, work: str) -> dict:
    sharded = workload == "serve_sharded"
    query_rows = pack(inputs.query_items, N_ITEMS)
    oracle = Oracle(pack(inputs.items[:D], N_ITEMS), [t.tid for t in inputs.transactions])
    outcomes_all: list[Outcome] = []
    repeats = 1 if trace else SETUP_REPEATS
    times, waits, server = setup(inputs, work, sharded, repeats)
    index = server.index
    try:
        window = run_window(server, inputs, seconds / 2 if trace else seconds)
    finally:
        server.stop()
    outcomes = check(window, oracle, query_rows)
    e2e = end_to_end(outcomes, window)
    outcomes_all += outcomes
    pages = os.path.getsize(index) // PAGE_SLOT
    result = {
        "info": {
            "setup_s_samples": times,
            "settle_wait_s": waits,
            "pages": pages,
            "pages_per_frame": pages / common.FRAMES,
            "samples": {k: sum(o.kind == k for o in outcomes) for k in ("knn", "range")},
        },
    }
    if not trace:
        result["metrics"] = {
            "setup_s": common.median(times),
            **e2e,
            "index_bytes_per_txn": os.path.getsize(index) / D,
        }
        return _tally(result, outcomes_all)

    layers = per_layer_counters(outcomes, window, sharded)
    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    server = Server(index, sharded, os.path.join(work, "serve-traced.log"), trace_dir).start()
    try:
        server.wait_ready()
        if sharded:
            server.wait_settled(inputs.query_items[0])
        time.sleep(TRACE_SETTLE_S)
        before = tracer.read_dir(trace_dir)
        traced = run_window(server, inputs, seconds / 2)
        time.sleep(TRACE_SETTLE_S)
        after = tracer.read_dir(trace_dir)
    finally:
        server.stop()
    traced_outcomes = check(traced, oracle, query_rows)
    outcomes_all += traced_outcomes
    traced_e2e = end_to_end(traced_outcomes, traced)
    n_traced = sum(o.seconds is not None for o in traced_outcomes)
    result["spans"] = tracer.diff(after, before)
    layers.update(tracer.layer_metrics(result["spans"], n_traced, traced.start, traced.end))
    layers["trace.overhead_frac"] = 1.0 - ratio(traced_e2e["qps"], e2e["qps"])
    result["metrics"] = layers
    return _tally(result, outcomes_all)


def _tally(result: dict, outcomes: "list[Outcome]") -> dict:
    result["attempted"] = len(outcomes)
    result["failed"] = sum(o.failed for o in outcomes)
    result["wrong"] = sum(o.wrong for o in outcomes)
    return result
