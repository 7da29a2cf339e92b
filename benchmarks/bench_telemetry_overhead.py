"""Telemetry overhead gate: disabled instrumentation must be free.

Measures batched k-NN three ways on the same warm tree:

* **raw** — calling the traversal in :mod:`repro.sgtree.search`
  directly, bypassing the tree's query wrapper entirely (the exact hot
  path of the pre-telemetry code);
* **disabled** — ``tree.batch_nearest`` with no telemetry attached,
  which pays the wrapper's single ``telemetry is None`` check;
* **enabled** — the same call with a live registry attached, which adds
  one counter increment and two histogram observations per call
  (informational: per-*batch* cost, amortised over the whole shard).

A second, serving-level comparison measures distributed request tracing
at its production setting: the same :class:`~repro.server.service.
QueryService` answering single k-NN requests **untraced** (no tracing
attached) versus **traced** at 1% head sampling — per request the traced
path pays one trace object, two coordinator spans, the retention
decision, and the ``http_access`` event; one request in a hundred
additionally runs the per-node tracer (measured separately by a 100%
sampled contender and folded in at the sampling rate — see
:func:`_run_serving_benchmark`).

Acceptance gates (CI ``observability-smoke`` / ``tracing-smoke``): the
disabled path must be within ``--max-overhead`` percent (default 5) of
raw, and the traced serving path within ``--max-overhead`` percent of
untraced.  Interleaved best-of-``--rounds`` timing keeps the comparison
honest on noisy machines.

Runnable standalone (``python benchmarks/bench_telemetry_overhead.py``)
or through pytest, like every other bench module.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import pytest

from bench_common import cached_quest, n_queries, report
from repro.bench import build_tree
from repro.server import Query, QueryService
from repro.sgtree import search as _search
from repro.telemetry import (
    EventLog,
    MetricsRegistry,
    RequestTracing,
    Telemetry,
)

T_SIZE, I_SIZE, D = 10, 6, 50_000
BATCH_SIZE = 64
K = 10
REPO_ROOT = pathlib.Path(__file__).parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_telemetry_overhead.json"


def _interleaved_best(contenders: dict, rounds: int) -> dict:
    """Best wall time per contender, alternating between them each round
    so drift (thermal, buffer state) hits everyone equally."""
    best = {name: float("inf") for name in contenders}
    for _ in range(rounds):
        for name, fn in contenders.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def run_benchmark(rounds: int = 5, k: int = K) -> dict:
    queries = max(BATCH_SIZE, n_queries(BATCH_SIZE))
    workload = cached_quest(T_SIZE, I_SIZE, D, queries)
    tree = build_tree(workload).index
    batch = workload.queries[:queries]
    store, root_id, metric = tree.store, tree.root_id, tree.metric

    # Warm the buffer so every contender sees the same cache state.
    tree.batch_nearest(batch, k=k)

    def raw():
        return _search.batch_knn(store, root_id, batch, k=k, metric=metric)

    def disabled():
        return tree.batch_nearest(batch, k=k)

    telemetry = Telemetry(registry=MetricsRegistry())

    def enabled():
        tree.attach_telemetry(telemetry)
        try:
            return tree.batch_nearest(batch, k=k)
        finally:
            tree.telemetry = None
            store.telemetry = None

    assert raw() == disabled() == enabled()
    best = _interleaved_best(
        {"raw": raw, "disabled": disabled, "enabled": enabled}, rounds
    )
    overhead = {
        name: (best[name] / best["raw"] - 1.0) * 100.0
        for name in ("disabled", "enabled")
    }
    doc = {
        "benchmark": "telemetry_overhead",
        "workload": workload.name,
        "n_queries": len(batch),
        "k": k,
        "rounds": rounds,
        "best_seconds": best,
        "overhead_percent": overhead,
    }
    doc["serving"] = _run_serving_benchmark(tree, batch, rounds=rounds, k=k)
    return doc


def _run_serving_benchmark(tree, batch, rounds: int, k: int) -> dict:
    """Tracing overhead at the serving layer.

    Three services answer the same single-query k-NN requests: untraced,
    traced at the production 1% head sampling, and traced at 100%
    sampling.  The contenders are paired request-by-request and each
    request keeps its *minimum* across rounds — the per-request tracing
    cost is tens of microseconds against a sub-millisecond query, so
    per-round machine drift would otherwise dominate the signal.

    Per-request minima filter out the rounds in which a request happened
    to be head-sampled, so the 1% column measures the always-on
    coordinator floor; the expected overhead at 1% sampling is
    reconstructed as ``floor + rate * sampled-request surcharge``, with
    the surcharge measured by the 100% column.
    """
    requests = [Query("knn", q.items(), k=k) for q in batch[:BATCH_SIZE]]
    sample_rate = 0.01

    def make(**kwargs):
        return QueryService(
            tree,
            telemetry=Telemetry(registry=MetricsRegistry(), events=EventLog()),
            **kwargs,
        )

    services = {
        "untraced": make(),
        "traced": make(tracing=RequestTracing(sample_rate=sample_rate, seed=0)),
        "full_sampling": make(tracing=RequestTracing(sample_rate=1.0)),
    }
    try:
        # Warm every service (admission machinery, executor, buffer).
        for service in services.values():
            for query in requests:
                service.query(query)

        minima = {
            name: [float("inf")] * len(requests) for name in services
        }
        for _ in range(rounds * 2):
            for i, query in enumerate(requests):
                for name, service in services.items():
                    start = time.perf_counter()
                    service.query(query)
                    elapsed = time.perf_counter() - start
                    if elapsed < minima[name][i]:
                        minima[name][i] = elapsed
        best = {name: sum(times) for name, times in minima.items()}
    finally:
        for service in services.values():
            service.close()
    floor = (best["traced"] / best["untraced"] - 1.0) * 100.0
    sampled = (best["full_sampling"] / best["untraced"] - 1.0) * 100.0
    return {
        "sample_rate": sample_rate,
        "n_requests": len(requests),
        "best_seconds": best,
        "floor_percent": floor,
        "sampled_request_percent": sampled,
        "overhead_percent": floor + sample_rate * sampled,
    }


def _summarise(doc: dict) -> str:
    best = doc["best_seconds"]
    overhead = doc["overhead_percent"]
    serving = doc["serving"]
    sbest = serving["best_seconds"]
    lines = [
        f"Telemetry overhead, batched k-NN ({doc['workload']}, "
        f"{doc['n_queries']} queries, k={doc['k']})",
        f"  raw       {best['raw'] * 1e3:8.2f} ms",
        f"  disabled  {best['disabled'] * 1e3:8.2f} ms  "
        f"({overhead['disabled']:+.1f}%)",
        f"  enabled   {best['enabled'] * 1e3:8.2f} ms  "
        f"({overhead['enabled']:+.1f}%)",
        f"Request tracing overhead, served k-NN "
        f"({serving['n_requests']} requests, "
        f"{serving['sample_rate']:.0%} sampling)",
        f"  untraced  {sbest['untraced'] * 1e3:8.2f} ms",
        f"  traced    {sbest['traced'] * 1e3:8.2f} ms  "
        f"(floor {serving['floor_percent']:+.1f}%)",
        f"  sampled   {sbest['full_sampling'] * 1e3:8.2f} ms  "
        f"({serving['sampled_request_percent']:+.1f}% per sampled request)",
        f"  expected at {serving['sample_rate']:.0%} sampling: "
        f"{serving['overhead_percent']:+.1f}%",
    ]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def results():
    doc = run_benchmark()
    DEFAULT_OUT.write_text(json.dumps(doc, indent=2) + "\n")
    report("telemetry_overhead", _summarise(doc))
    return doc


class TestTelemetryOverhead:
    def test_disabled_overhead_small(self, results):
        # generous in-suite bound; CI enforces the tight one on a quiet
        # run with --max-overhead
        assert results["overhead_percent"]["disabled"] < 25.0

    def test_document_shape(self, results):
        assert set(results["best_seconds"]) == {"raw", "disabled", "enabled"}
        assert all(v > 0 for v in results["best_seconds"].values())

    def test_tracing_overhead_small(self, results):
        # generous in-suite bound; CI's tracing-smoke job enforces the
        # tight <5% gate on a quiet run with --max-overhead
        assert results["serving"]["overhead_percent"] < 25.0

    def test_serving_document_shape(self, results):
        serving = results["serving"]
        assert set(serving["best_seconds"]) == {
            "untraced", "traced", "full_sampling",
        }
        assert all(v > 0 for v in serving["best_seconds"].values())
        assert serving["sample_rate"] == 0.01


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("-k", type=int, default=K)
    parser.add_argument("--max-overhead", type=float, default=5.0,
                        help="fail when the telemetry-disabled path is more "
                             "than this percent slower than raw, or the "
                             "traced serving path more than this percent "
                             "slower than untraced")
    args = parser.parse_args(argv)
    doc = run_benchmark(rounds=args.rounds, k=args.k)
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    print(_summarise(doc))
    print(f"wrote {args.output}")
    failed = False
    if doc["overhead_percent"]["disabled"] > args.max_overhead:
        print(
            f"FAIL: telemetry-disabled overhead "
            f"{doc['overhead_percent']['disabled']:.1f}% exceeds the "
            f"{args.max_overhead:g}% gate"
        )
        failed = True
    if doc["serving"]["overhead_percent"] > args.max_overhead:
        print(
            f"FAIL: sampled-tracing serving overhead "
            f"{doc['serving']['overhead_percent']:.1f}% exceeds the "
            f"{args.max_overhead:g}% gate"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
