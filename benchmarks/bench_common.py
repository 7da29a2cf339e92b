"""Shared benchmark infrastructure.

Every bench module regenerates one table or figure of the paper: it
builds both indexes over the figure's workload, runs the query batch,
prints the paper-style series (visible with ``pytest -s``), writes it to
``benchmarks/out/<name>.txt``, and asserts the qualitative *shape* the
paper reports (who wins, where the gap opens).  A pytest-benchmark test
per figure records a representative query latency.

Dataset sizes honour ``REPRO_SCALE`` (default: paper sizes divided by
10); see ``repro.data.workload``.
"""

from __future__ import annotations

import functools
import pathlib

from repro.bench import BuildResult, build_table, build_tree
from repro.data import census_workload, quest_workload, scale_factor
from repro.data.workload import Workload

OUT_DIR = pathlib.Path(__file__).parent / "out"


def n_queries(paper_count: int = 100) -> int:
    """Query-batch size: the paper's count at full scale, 40 otherwise
    (enough for stable averages without dominating runtime)."""
    if scale_factor() == 1:
        return paper_count
    return min(paper_count, 40)


@functools.lru_cache(maxsize=32)
def cached_quest(t: float, i: float, d: int, queries: int, stream_seed: int = 1,
                 pattern_seed: int = 7) -> Workload:
    return quest_workload(
        t, i, d, n_queries=queries, stream_seed=stream_seed, pattern_seed=pattern_seed
    )


@functools.lru_cache(maxsize=4)
def cached_census(d: int, queries: int) -> Workload:
    return census_workload(d, n_queries=queries)


@functools.lru_cache(maxsize=32)
def cached_tree(t: float, i: float, d: int, queries: int) -> BuildResult:
    return build_tree(cached_quest(t, i, d, queries))


@functools.lru_cache(maxsize=32)
def cached_table(t: float, i: float, d: int, queries: int) -> BuildResult:
    return build_table(cached_quest(t, i, d, queries))


@functools.lru_cache(maxsize=4)
def cached_census_tree(d: int, queries: int) -> BuildResult:
    return build_tree(cached_census(d, queries), use_fixed_area_bound=True)


@functools.lru_cache(maxsize=4)
def cached_census_table(d: int, queries: int) -> BuildResult:
    return build_table(cached_census(d, queries))


def report(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/out/."""
    print()
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")


def telemetry_summary(telemetry) -> dict:
    """A compact, JSON-able digest of a benchmark run's telemetry.

    Collapses the full registry snapshot to the handful of series a
    benchmark report cares about — query counts and latency quantiles
    per kind — so result documents stay reviewable while still carrying
    real measured distributions.
    """
    snapshot = telemetry.snapshot()
    out: dict = {"metrics": {}}
    for name in (
        "sgtree_queries_total",
        "sgtree_query_seconds",
        "sgtree_query_node_accesses",
    ):
        family = snapshot.get(name)
        if not family or not family["series"]:
            continue
        series: dict = {}
        for key, value in family["series"].items():
            if isinstance(value, dict):  # histogram: keep the digest only
                series[key] = {
                    "count": value["count"],
                    "sum": value["sum"],
                    "p50": value["p50"],
                    "p95": value["p95"],
                    "p99": value["p99"],
                }
            else:
                series[key] = value
        out["metrics"][name] = series
    out["events"] = dict(telemetry.events.counts)
    return out
