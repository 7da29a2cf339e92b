"""Inputs, statistics and environment helpers shared by every workload.

Nothing here times or calls the layers under test except
:func:`make_inputs`, which draws the data and queries from the program's
own Quest generator (data generation is excluded from every timing).
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (index files, WAL, traces); ignored by git.
WORK = ROOT / ".perfbench"

# -- traffic shared by all workloads -----------------------------------------

#: Real database size: the transactions actually indexed (no REPRO_SCALE).
D = 50_000
N_ITEMS = 1000
T = 10.0
I = 6.0
#: The potentially-large-itemset pool and the query stream are fixed;
#: ``--seed`` draws the transactions (and the inserts and deletion
#: victims of ``embedded_update``).  Query costs differ by up to 50x, and
#: a run completes only ~150 requests, so a per-seed query draw moved
#: ``qps`` by 13 % and ``read_p95_ms`` by 18 % (interquartile share over
#: five seeds) — more than the bounds it must resolve.
PATTERN_SEED = 7
QUERY_SEED = 1_000_003
K = 10
EPSILON = 4
BATCH = 64
#: Buffer frames of ``repro-sgtree serve`` and of the embedded reopen.
FRAMES = 256
#: Failed operations rank above every success in latency percentiles;
#: their value is this limit (or the slowest success, if larger) plus
#: their own latency, so they read as missing any latency limit.
LATENCY_LIMIT_MS = 1000.0


@dataclass
class Inputs:
    transactions: list      # repro Transaction, tids 0..D-1
    extra: list             # further transactions of the same stream (inserts)
    queries: list           # repro Signature
    items: list             # item lists of ``transactions + extra``
    query_items: list       # item lists of ``queries``


def items_of(signature) -> list[int]:
    """A signature's items, read from its raw words by the benchmark itself."""
    bits = np.unpackbits(np.asarray(signature.words).view(np.uint8), bitorder="little")
    return np.flatnonzero(bits[: signature.n_bits]).tolist()


N_QUERIES = 640
#: Transactions drawn after the D indexed ones, for ``embedded_update`` inserts.
N_EXTRA = 400


def make_inputs(seed: int) -> Inputs:
    """Quest T10.I6 data (D real transactions), inserts and queries for ``seed``.

    The item lists are cached per seed under :data:`WORK`, keyed by a
    digest of ``src/`` and of this file (which holds the input
    constants), because drawing them takes ~6 s of each run and
    rebuilding the signatures from the cache ~1 s.
    """
    from repro.core.signature import Signature
    from repro.core.transaction import Transaction

    own = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:8]
    cache = WORK / f"inputs-{seed}-{source_digest()}-{own}.npz"
    if cache.is_file():
        with np.load(cache) as saved:
            items = _split(saved["items"], saved["offsets"])
            query_items = _split(saved["query_items"], saved["query_offsets"])
        rows = [Transaction(tid, Signature.from_items(it, N_ITEMS)) for tid, it in enumerate(items)]
        return Inputs(rows[:D], rows[D:], [Signature.from_items(it, N_ITEMS) for it in query_items],
                      items, query_items)
    from repro.data.quest import QuestConfig, QuestGenerator

    generator = QuestGenerator(QuestConfig(
        n_transactions=D, avg_transaction_size=T, avg_itemset_size=I,
        n_items=N_ITEMS, pattern_seed=PATTERN_SEED, stream_seed=seed,
    ))
    transactions = generator.generate()
    extra = generator.generate(N_EXTRA)
    queries = generator.queries(N_QUERIES, seed=QUERY_SEED)
    inputs = Inputs(
        transactions=transactions,
        extra=extra,
        queries=queries,
        items=[items_of(t.signature) for t in transactions + extra],
        query_items=[items_of(q) for q in queries],
    )
    WORK.mkdir(exist_ok=True)
    tmp = cache.with_suffix(".tmp.npz")
    np.savez(tmp, **_joined("", inputs.items), **_joined("query_", inputs.query_items))
    os.replace(tmp, cache)
    return inputs


def _joined(prefix: str, lists: "list[list[int]]") -> dict:
    offsets = np.cumsum([0] + [len(x) for x in lists])
    flat = np.fromiter((i for x in lists for i in x), dtype=np.int16, count=int(offsets[-1]))
    return {f"{prefix}items": flat, f"{prefix}offsets": offsets}


def _split(flat: np.ndarray, offsets: np.ndarray) -> "list[list[int]]":
    values = flat.tolist()
    return [values[a:b] for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]


# -- statistics ----------------------------------------------------------------

def percentile(samples: "list[tuple[float, bool]]", q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``(latency_ms, failed)`` samples.

    Failures rank above every success and are valued at
    ``max(LATENCY_LIMIT_MS, slowest success) + own latency``: a fix that
    turns failures into slower successes lowers the percentile instead of
    raising it.
    """
    if not samples:
        return 0.0
    ok = sorted(latency for latency, failed in samples if not failed)
    floor = max([LATENCY_LIMIT_MS] + ok[-1:])
    ranked = ok + sorted(floor + latency for latency, failed in samples if failed)
    rank = max(1, math.ceil(q / 100.0 * len(ranked)))
    return ranked[rank - 1]


#: Equal slices of a window whose rates :func:`sliced_rate` takes the median of.
RATE_SLICES = 5


def sliced_rate(events: "list[tuple[float, float, int]]", start: float, end: float) -> float:
    """Median over :data:`RATE_SLICES` equal slices of ``[start, end]`` of
    the units completed per second, from ``(op start, op end, units)``.

    An operation's units are spread evenly over its own duration, so a
    slice holding part of a 0.3 s batch is credited that part and the
    rate does not jump by a whole batch.  The host's speed drifts by
    10–20 % over seconds; a slice median ignores a slow or fast spell
    that covers less than half the window, where the plain mean would not.
    """
    width = (end - start) / RATE_SLICES
    if width <= 0:
        return 0.0
    totals = [0.0] * RATE_SLICES
    for op_start, op_end, units in events:
        span = max(op_end - op_start, 1e-9)
        for i in range(RATE_SLICES):
            a = start + i * width
            overlap = min(op_end, a + width) - max(op_start, a)
            if overlap > 0:
                totals[i] += units * overlap / span
    return median([t / width for t in totals])


def median(values: "list[float]") -> float:
    return percentile([(v, False) for v in values], 50) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- environment ------------------------------------------------------------

def bench_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CKERNEL_CACHE"] = str(WORK / "ckernel")
    env["TMPDIR"] = str(WORK / "tmp")   # the C-kernel build's compiler scratch
    env.pop("REPRO_SCALE", None)
    return env


def git_sha() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over ``src/``, which identifies the code where no git sha exists."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(seed: int, workload: str, ckernel: bool, extra: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "src_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel.ckernel": int(ckernel),
        "D": D,
        "buffer_frames": FRAMES,
        **extra,
    }


# -- processes -----------------------------------------------------------------

def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def children(pid: int) -> "list[int]":
    """Live descendants of ``pid`` (by parent pid, recursively)."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        parents.setdefault(int(fields[1]), []).append(int(entry))
    found, todo = [], [pid]
    while todo:
        for child in parents.get(todo.pop(), []):
            found.append(child)
            todo.append(child)
    return found


def peak_rss_mb(pids: "list[int]") -> float:
    """Sum of the processes' peak resident set sizes, in MiB."""
    return sum(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count (Linux ``clear_refs`` 5)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def ckernel_available() -> bool:
    """Whether the compiled C kernels load (built on first use, outside timing)."""
    from repro.core import ckernel

    return ckernel.available()
