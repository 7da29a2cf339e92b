"""Cooperative cross-shard kNN pruning vs merge-at-end scatter-gather.

Runs the same kNN workload against a 4-shard :class:`ShardedTree` (one
worker process per shard, as ``serve --shards`` runs them) two
ways — the baseline coordinator (no router: every shard prunes on its
own local k-th distance, results merge only at the end) and the
cooperative coordinator (``router=``: the query's home shard answers
first and its k-th distance seeds every other shard's traversal) — and
measures the aggregate ``node_accesses/query`` across all shards.  A single-tree index over
the full collection provides the ground truth both sharded modes must
match bit-for-bit, ``(distance, tid)`` tie order included.

Writes ``BENCH_shard_bound.json`` at the repo root.  Acceptance gate
for the committed document: >= 30% node-access reduction at 4 shards
with bit-identical results.  The CI smoke job re-runs the benchmark
with ``--min-reduction 0`` and fails on any result drift or on a
reduction that is not strictly positive.

Runnable standalone (``python benchmarks/bench_shard_bound.py``) or
through pytest, like every other bench module.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import pytest

from bench_common import cached_quest, n_queries, report
from repro.bench import build_tree
from repro.server import (
    Query,
    ShardedTree,
    make_shard_handles,
    partition_routed,
)
from repro.sgtree import SearchStats

T_SIZE, I_SIZE, D = 10, 6, 50_000
N_SHARDS = 4
K = 10
REPO_ROOT = pathlib.Path(__file__).parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_shard_bound.json"


def _run_mode(coordinator: ShardedTree, queries, k: int) -> dict:
    """One full pass; aggregate traffic plus the per-query results."""
    stats = SearchStats()
    results = []
    start = time.perf_counter()
    for query in queries:
        hits, coverage = coordinator.query(
            Query("knn", query.items(), k=k), stats=stats
        )
        assert not coverage.partial
        results.append(hits)
    elapsed = time.perf_counter() - start
    return {
        "results": results,
        "node_accesses_per_query": stats.node_accesses / len(queries),
        "leaf_entries_per_query": stats.leaf_entries / len(queries),
        "bound_provenance": stats.bound_provenance,
        "elapsed_seconds": elapsed,
    }


def run_benchmark(k: int = K, n_shards: int = N_SHARDS) -> dict:
    workload = cached_quest(T_SIZE, I_SIZE, D, n_queries(100))
    queries = workload.queries
    reference_tree = build_tree(workload).index
    reference = [reference_tree.nearest(q, k=k) for q in queries]
    single_stats = SearchStats()
    for query in queries:
        reference_tree.nearest(query, k=k, stats=single_stats)

    partitions, router = partition_routed(workload.transactions, n_shards)
    handles = make_shard_handles(partitions, workload.n_bits)
    rows = {}
    try:
        baseline = ShardedTree(handles, workload.n_bits)
        rows["baseline"] = _run_mode(baseline, queries, k)
        cooperative = ShardedTree(handles, workload.n_bits, router=router)
        rows["cooperative"] = _run_mode(cooperative, queries, k)
    finally:
        for handle in handles:
            handle.close()

    base = rows["baseline"]["node_accesses_per_query"]
    coop = rows["cooperative"]["node_accesses_per_query"]
    doc = {
        "benchmark": "shard_bound",
        "workload": workload.name,
        "database_size": len(workload.transactions),
        "n_queries": len(queries),
        "k": k,
        "n_shards": n_shards,
        "metric": "hamming",
        "single_tree_node_accesses_per_query":
            single_stats.node_accesses / len(queries),
        "baseline_identical_to_single_tree":
            rows["baseline"]["results"] == reference,
        "cooperative_identical_to_single_tree":
            rows["cooperative"]["results"] == reference,
        "reduction_pct": (base - coop) / base * 100.0 if base else 0.0,
    }
    for label in ("baseline", "cooperative"):
        row = dict(rows[label])
        row.pop("results")
        doc[label] = row
    return doc


def _summarise(doc: dict) -> str:
    return "\n".join([
        f"Cooperative shard-bound kNN ({doc['workload']}, "
        f"{doc['n_queries']} queries, k={doc['k']}, "
        f"{doc['n_shards']} shards)",
        f"  identical to single tree: "
        f"baseline={doc['baseline_identical_to_single_tree']} "
        f"cooperative={doc['cooperative_identical_to_single_tree']}",
        f"  baseline     {doc['baseline']['node_accesses_per_query']:>8.1f} "
        f"node accesses/query",
        f"  cooperative  {doc['cooperative']['node_accesses_per_query']:>8.1f} "
        f"node accesses/query "
        f"(bound provenance: {doc['cooperative']['bound_provenance']})",
        f"  single tree  "
        f"{doc['single_tree_node_accesses_per_query']:>8.1f} "
        f"node accesses/query",
        f"  reduction: {doc['reduction_pct']:.1f}%",
    ])


def write_results(doc: dict, out_path: pathlib.Path = DEFAULT_OUT) -> None:
    out_path.write_text(json.dumps(doc, indent=2) + "\n")


@pytest.fixture(scope="module")
def results():
    doc = run_benchmark()
    write_results(doc)
    report("shard_bound", _summarise(doc))
    return doc


class TestShardBound:
    def test_both_modes_bit_identical_to_single_tree(self, results):
        assert results["baseline_identical_to_single_tree"]
        assert results["cooperative_identical_to_single_tree"]

    def test_cooperative_reduces_node_accesses(self, results):
        assert results["reduction_pct"] > 0.0

    def test_pilot_seed_binds(self, results):
        # The reduction must come through the pilot seed, not noise: the
        # seed was the bound in force for at least one shard traversal.
        assert results["cooperative"]["bound_provenance"] == "pilot"

    def test_json_well_formed(self, results):
        doc = json.loads(DEFAULT_OUT.read_text())
        assert doc["benchmark"] == "shard_bound"
        for key in ("baseline", "cooperative"):
            assert doc[key]["node_accesses_per_query"] > 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--min-reduction", type=float, default=30.0,
                        help="fail unless the cooperative mode cuts "
                             "node accesses/query by more than this "
                             "percentage (default 30)")
    args = parser.parse_args()
    doc = run_benchmark()
    write_results(doc, args.out)
    print(_summarise(doc))
    if not (doc["baseline_identical_to_single_tree"]
            and doc["cooperative_identical_to_single_tree"]):
        print("FAIL: sharded results drifted from the single-tree engine")
        return 1
    if doc["reduction_pct"] <= args.min_reduction:
        print(
            f"FAIL: reduction {doc['reduction_pct']:.1f}% is not above "
            f"the {args.min_reduction:g}% gate"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
