"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload serve_single --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed (untraced) and prints, per
metric, the median, the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``) and that metric's bound from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, series in values.items():
        mid = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
        else:
            spread = 0.0
        print(f"{name:24s} median={mid:10.4g} spread={spread:6.3f} "
              f"bound={bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
