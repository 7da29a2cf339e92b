"""Node decode cost: cold parse vs the read arrays kept on the node.

A node keeps its read arrays while it stays in the buffer, so a node
access is an array slice instead of a parse.  This benchmark measures what
that buys on the batched k-NN workload of ``bench_batch_throughput``
(T10.I6, hamming, k=10):

* ``sequential`` / ``batched`` — the warm sim-mode engines, as a QPS
  anchor.  The acceptance gate compares the two, measured in the same
  run on the same workload (``speedup_batched_vs_sequential``).
* ``disk_cold`` — a disk-mode reopen of the same index with the buffer
  dropped before the pass: each visit pays a real page read + decode
  (the fault path: the decoded arrays become the node, with no
  per-entry objects).  Its ``fault_us_per_page`` is what one buffer
  miss costs on its own — slot ``pread``, CRC, decode, node — timed
  over a sweep that faults every page of the index once.
* ``disk_warm`` — the same pass again with the buffer hot: decode calls
  per query must fall below 1 (visits read kept arrays, not parses).

Writes ``BENCH_node_decode.json`` at the repo root.  The CI smoke job
re-runs this benchmark at a tiny scale and validates the document:
``identical_results`` across all four passes, and warm decode calls per
query < 1.

Runnable standalone (``python benchmarks/bench_node_decode.py``) or
through pytest, like every other bench module.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import tempfile
import time

import pytest

from bench_common import cached_quest, n_queries, report
from repro.bench import build_tree
from repro.sgtree import SearchStats
from repro.sgtree.persistence import load_tree, save_tree

T_SIZE, I_SIZE, D = 10, 6, 50_000
BATCH_SIZE = 64
K = 10
REPO_ROOT = pathlib.Path(__file__).parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_node_decode.json"


def _time_best_of(fn, repeat: int) -> tuple[float, object]:
    """Best (minimum) wall time over ``repeat`` runs; first run's value."""
    best, value = float("inf"), None
    for attempt in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if attempt == 0:
            value = result
        best = min(best, elapsed)
    return best, value


def _row(label: str, elapsed: float, per_pass: int, total: int,
         stats: SearchStats, decodes: int,
         cache_hits: int, cache_misses: int, **extra) -> dict:
    # ``elapsed`` is the best single pass; the stats and counter deltas
    # accumulate over every pass, so per-query figures divide by ``total``.
    looked_up = cache_hits + cache_misses
    row = {
        "label": label,
        "elapsed_seconds": elapsed,
        "qps": per_pass / elapsed if elapsed > 0 else 0.0,
        "node_accesses_per_query": stats.node_accesses / total,
        "random_ios_per_query": stats.random_ios / total,
        "buffer_hit_ratio": stats.hit_ratio,
        "decode_calls_per_query": decodes / total,
        "decode_cache_hit_ratio":
            cache_hits / looked_up if looked_up else None,
    }
    row.update(extra)
    return row


def _fault_us_per_page(tree, repeat: int) -> float:
    """Best-of-``repeat`` mean microseconds of one buffer miss: every
    page of the index read once into an empty buffer."""
    store = tree.store
    page_ids, pending = [], [tree.root_id]
    while pending:
        page_ids.append(pending.pop())
        node = store.read(page_ids[-1])
        if not node.is_leaf:
            pending.extend(node.entry_refs().tolist())
    del node  # a node still referenced is revived, not faulted
    best = float("inf")
    for _ in range(repeat):
        store.clear_cache()
        decodes = store.counters.node_decodes
        start = time.perf_counter()
        for page_id in page_ids:
            store.read(page_id)
        best = min(best, time.perf_counter() - start)
        assert store.counters.node_decodes - decodes == len(page_ids)
    return best / len(page_ids) * 1e6


def run_benchmark(repeat: int = 3, k: int = K) -> dict:
    """Measure the four passes; returns the result document."""
    queries = max(BATCH_SIZE, n_queries(BATCH_SIZE))
    workload = cached_quest(T_SIZE, I_SIZE, D, queries)
    tree = build_tree(workload).index
    batch = workload.queries[:queries]

    # -- sim-mode anchors (warm buffer, like bench_batch_throughput) ------
    for query in batch:
        tree.nearest(query, k=k)

    def measure(run, store, label, **extra):
        stats = SearchStats()
        cache = store.decode_cache.stats
        decodes_before = store.counters.node_decodes
        hits_before, misses_before = cache.hits, cache.misses
        elapsed, results = _time_best_of(lambda: run(stats), repeat)
        return results, _row(
            label, elapsed, len(batch), len(batch) * repeat, stats,
            store.counters.node_decodes - decodes_before,
            cache.hits - hits_before,
            cache.misses - misses_before,
            **extra,
        )

    seq_results, seq_row = measure(
        lambda stats: [tree.nearest(q, k=k, stats=stats) for q in batch],
        tree.store, "sequential",
    )
    bat_results, bat_row = measure(
        lambda stats: tree.batch_nearest(batch, k=k, stats=stats),
        tree.store, "batched", batch_size=BATCH_SIZE,
    )

    # -- disk-mode reopen: real page bytes, real decodes ------------------
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "decode.sgt"
        save_tree(tree, path)
        disk = load_tree(path, frames=None)
        store = disk.store
        try:
            def cold(stats):
                store.clear_cache()  # drop the buffer: pay the parse
                return disk.batch_nearest(batch, k=k, stats=stats)

            cold_results, cold_row = measure(cold, store, "disk_cold",
                                             batch_size=BATCH_SIZE)
            cold_row["fault_us_per_page"] = _fault_us_per_page(disk, repeat)
            # one untimed pass so the warm measurement starts hot
            disk.batch_nearest(batch, k=k)
            warm_results, warm_row = measure(
                lambda stats: disk.batch_nearest(batch, k=k, stats=stats),
                store, "disk_warm", batch_size=BATCH_SIZE,
            )
        finally:
            store.pager.close()

    identical = seq_results == bat_results == cold_results == warm_results
    return {
        "benchmark": "node_decode",
        "workload": workload.name,
        "database_size": len(workload.transactions),
        "n_queries": len(batch),
        "k": k,
        "metric": "hamming",
        "identical_results": identical,
        "sequential": seq_row,
        "batched": bat_row,
        "disk_cold": cold_row,
        "disk_warm": warm_row,
        "speedup_batched_vs_sequential":
            bat_row["qps"] / seq_row["qps"] if seq_row["qps"] else 0.0,
        "speedup_warm_vs_cold_decode":
            warm_row["qps"] / cold_row["qps"] if cold_row["qps"] else 0.0,
    }


def _summarise(doc: dict) -> str:
    lines = [
        f"Node decode cost ({doc['workload']}, {doc['n_queries']} queries, "
        f"k={doc['k']})",
        f"  identical results: {doc['identical_results']}",
    ]
    for key in ("sequential", "batched", "disk_cold", "disk_warm"):
        row = doc[key]
        ratio = row["decode_cache_hit_ratio"]
        lines.append(
            f"  {row['label']:<10} {row['qps']:>10.0f} q/s   "
            f"{row['decode_calls_per_query']:>7.3f} decodes/query   "
            f"view reuse ratio "
            f"{'n/a' if ratio is None else format(ratio, '.2f')}"
        )
    lines.append(
        f"  one buffer miss: {doc['disk_cold']['fault_us_per_page']:.1f} us/page"
    )
    lines.append(
        f"  batched vs sequential: "
        f"{doc['speedup_batched_vs_sequential']:.2f}x"
    )
    lines.append(
        f"  warm view vs cold decode: "
        f"{doc['speedup_warm_vs_cold_decode']:.1f}x"
    )
    return "\n".join(lines)


def write_results(doc: dict, out_path: pathlib.Path = DEFAULT_OUT) -> None:
    out_path.write_text(json.dumps(doc, indent=2) + "\n")


@pytest.fixture(scope="module")
def results():
    doc = run_benchmark()
    write_results(doc)
    report("node_decode", _summarise(doc))
    return doc


class TestNodeDecode:
    def test_results_identical_across_all_passes(self, results):
        assert results["identical_results"]

    def test_warm_visits_are_views_not_parses(self, results):
        assert results["disk_warm"]["decode_calls_per_query"] < 1.0

    def test_cold_pass_actually_decodes(self, results):
        assert results["disk_cold"]["decode_calls_per_query"] >= 1.0

    def test_batched_beats_sequential(self, results):
        assert results["speedup_batched_vs_sequential"] >= 3.0

    def test_warm_views_beat_cold_decodes(self, results):
        assert results["disk_warm"]["qps"] > results["disk_cold"]["qps"]

    def test_json_well_formed(self, results):
        doc = json.loads(DEFAULT_OUT.read_text())
        assert doc["benchmark"] == "node_decode"
        for key in ("sequential", "batched", "disk_cold", "disk_warm"):
            assert doc[key]["qps"] > 0
        assert doc["disk_cold"]["fault_us_per_page"] > 0


def test_benchmark_warm_decode(results, benchmark):
    queries = max(BATCH_SIZE, n_queries(BATCH_SIZE))
    workload = cached_quest(T_SIZE, I_SIZE, D, queries)
    tree = build_tree(workload).index
    batch = workload.queries[:BATCH_SIZE]
    tree.batch_nearest(batch, k=K)  # warm
    benchmark(lambda: tree.batch_nearest(batch, k=K))


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("-k", type=int, default=K)
    parser.add_argument("--min-batched-speedup", type=float, default=3.0,
                        help="fail when batched QPS is below this multiple "
                             "of the sequential QPS measured in the same "
                             "run (0 disables; CI smoke runs use 0 — "
                             "wall-clock ratios are unreliable on tiny "
                             "scaled workloads)")
    args = parser.parse_args(argv)
    doc = run_benchmark(repeat=args.repeat, k=args.k)
    write_results(doc, args.output)
    print(_summarise(doc))
    print(f"wrote {args.output}")
    if not doc["identical_results"]:
        print("FAIL: passes returned different results")
        return 1
    if doc["disk_warm"]["decode_calls_per_query"] >= 1.0:
        print("FAIL: warm pass still decodes >= 1 node per query")
        return 1
    if doc["speedup_batched_vs_sequential"] < args.min_batched_speedup:
        print(f"FAIL: batched QPS below {args.min_batched_speedup:g}x the "
              "sequential QPS")
        return 1
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
