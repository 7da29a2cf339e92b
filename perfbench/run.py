"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_single --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics (half the window untraced,
half with spans).  The last line of standard output is the result
object; the line before it is the environment stamp.  The exit status
is 1 when any answer disagrees with the brute-force oracle or a
committed update is lost, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("serve_single", "serve_sharded", "embedded_update", "embedded_crash")


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {common.SRC}", file=sys.stderr)
        return 2
    os.environ.update(common.bench_env())
    os.environ.pop("REPRO_SCALE", None)
    (common.WORK / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(common.SRC))
    signal.signal(signal.SIGTERM, _terminate)

    ckernel = common.ckernel_available()   # compile once, before any timing
    work = common.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = common.make_inputs(args.seed)
        # The inputs are millions of objects the program never owns; left
        # in the collector's generations they make every full collection
        # during a build or a window slower by a varying amount.
        gc.collect()
        gc.freeze()
        if args.workload.startswith("embedded_"):
            from perfbench import embedded

            result = embedded.run(inputs, args.seconds, bool(args.trace), str(work), args.seed,
                                  crash=args.workload == "embedded_crash")
        else:
            from perfbench import serve

            result = serve.run(args.workload, inputs, args.seconds, bool(args.trace), str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = {m["name"]: m["unit"]
            for m in _spec()["per_layer" if args.trace else "end_to_end"]}
    metrics = result["metrics"]
    unknown = set(metrics) - set(spec)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if args.trace:
        metrics["kernel.ckernel"] = float(ckernel)
        with open(common.WORK / f"trace-{args.workload}-{args.seed}.json", "w",
                  encoding="utf-8") as handle:
            json.dump(result["spans"], handle)
    print("perfbench-stamp " + json.dumps(common.stamp(
        args.seed, args.workload, ckernel, result["info"])))
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        # A per-layer metric that does not apply to the workload reads 0.
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in spec.items()},
    }))
    return 0 if result["wrong"] == 0 else 1


def _spec() -> dict:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    sys.exit(main())
