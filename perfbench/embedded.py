"""``embedded_update`` and ``embedded_crash``: library use with reads
beside a live write stream.

The persisted index is reopened with a write-ahead log at 256 buffer
frames and wrapped in ``ConcurrentSGTree``.  One reader thread runs a
closed loop of ``batch_nearest`` calls on pinned snapshots, each over
the same first 64 queries of the fixed stream at k = 10, so the median
call does not jump between the costs of different batches.  One writer
thread runs an open loop at :data:`RATE` updates per second; an update
inserts one new transaction and deletes one live one, and every tenth
update ends with ``commit``.

Flush policy (fixed): force-at-commit as the library implements it and
no checkpoint during the run.  When the window ends, the files are
closed as they are, like a crash, and the index is reopened with
``recover_tree`` from the page file and the WAL alone.  Every insert and
delete acknowledged by a commit must be there; a gap fails the run.

``embedded_update`` commits once more before the crash, so it checks the
state a clean commit leaves.  ``embedded_crash`` first makes
:data:`PENDING` more updates without a commit, so the crash comes with
updates in flight, as a real one would.  Today ``embedded_crash`` fails:
the pages those updates supersede are freed on disk before any commit
(see ``perfbench/README.md``).
"""

from __future__ import annotations

import gc
import os
import random
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import common, tracer
from .common import BATCH, D, FRAMES, K, N_ITEMS, percentile, ratio
from .oracle import Oracle, pack, same_knn
from .serve import PAGE_SLOT, build_index

#: Writer rate (updates per second).  Closed-loop capacity beside the
#: reader is about 2 per second on a 2-core host, because a disk-mode
#: batch holds the store's I/O lock for its whole traversal.
RATE = 1.0
COMMIT_EVERY = 10
SETUP_REPEATS = 3
#: Updates ``embedded_crash`` makes after its last commit, before the crash.
PENDING = COMMIT_EVERY // 2


@dataclass
class Batch:
    start: float
    end: float
    generation: int
    answers: list
    stats: object


@dataclass
class Update:
    due: float
    start: float
    end: float
    ok: bool


@dataclass
class Phase:
    start: float = 0.0
    end: float = 0.0
    batches: list = field(default_factory=list)
    updates: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


class Live:
    """The writer's view of the live transactions, O(1) random pick."""

    def __init__(self, transactions, seed: int):
        self.rows = list(transactions)
        self.where = {t.tid: i for i, t in enumerate(self.rows)}
        self.rng = random.Random(seed)

    def add(self, transaction) -> None:
        self.where[transaction.tid] = len(self.rows)
        self.rows.append(transaction)

    def pop_random(self):
        i = self.rng.randrange(len(self.rows))
        victim, last = self.rows[i], self.rows[-1]
        self.rows[i] = last
        self.where[last.tid] = i
        self.rows.pop()
        del self.where[victim.tid]
        return victim


class Workload:
    def __init__(self, inputs, seed: int, work: str):
        self.inputs = inputs
        self.work = work
        self.live = Live(inputs.transactions, seed)
        self.next_extra = 0
        #: (generation after, "insert" | "delete", tid) per mutation
        self.oplog: list[tuple[int, str, int]] = []
        #: oplog length at the last acknowledged commit
        self.acked = 0
        self.updates_done = 0
        self.index = None
        self.paths: tuple[str, str] = ("", "")

    # -- set-up --------------------------------------------------------------

    def setup(self, repeats: int) -> "list[float]":
        from repro.sgtree.concurrent import ConcurrentSGTree
        from repro.sgtree.persistence import load_tree

        times = []
        for i in range(repeats):
            if self.index is not None:
                self.close()
            pages = os.path.join(self.work, f"embedded-{i}.sgt")
            wal = pages + ".wal"
            start = time.perf_counter()
            tree = build_index(self.inputs, pages)
            index = ConcurrentSGTree(load_tree(pages, frames=FRAMES, wal_path=wal))
            times.append(time.perf_counter() - start)
            index.commit()   # the built state is the first recoverable version
            del tree
            gc.collect()
            self.index, self.paths = index, (pages, wal)
        return times

    def close(self) -> None:
        store = self.index.tree.store
        store.pager.close()
        store.wal.close()
        self.index = None

    # -- load ------------------------------------------------------------------

    def counters(self) -> dict:
        index = self.index
        store = index.tree.store
        return {
            "decodes": store.counters.node_decodes,
            "node_writes": store.counters.node_writes,
            "pager_writes": store.pager.stats.writes,
            "wal_bytes": store.wal.stats.bytes_written,
            "decode_hits": store.decode_cache.stats.hits,
            "decode_misses": store.decode_cache.stats.misses,
            "publishes": index.publishes,
            "reclaimed": index.reclaimed_pages,
        }

    def _reader(self, t_end: float, out: list) -> None:
        from repro.sgtree.search import SearchStats

        batch = self.inputs.queries[:BATCH]
        while time.perf_counter() < t_end:
            stats = SearchStats()
            start = time.perf_counter()
            with self.index.snapshot() as snap:
                answers = snap.batch_nearest(batch, k=K, stats=stats)
                generation = snap.snapshot.generation
            out.append(Batch(start, time.perf_counter(), generation,
                             [[(n.tid, n.distance) for n in hits] for hits in answers], stats))

    def _writer(self, t0: float, t_end: float, out: list) -> None:
        index = self.index
        i = 0
        while True:
            due = t0 + i / RATE
            if due >= t_end:
                return
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            start = time.perf_counter()
            ok = self.update()
            if self.updates_done % COMMIT_EVERY == 0:
                index.commit()
                self.acked = len(self.oplog)
            out.append(Update(due, start, time.perf_counter(), ok))
            i += 1

    def update(self) -> bool:
        """Insert the next new transaction and delete a random live one."""
        index = self.index
        fresh = self.inputs.extra[self.next_extra]
        self.next_extra += 1
        index.insert(fresh)
        self.live.add(fresh)
        self.oplog.append((index.generation, "insert", fresh.tid))
        victim = self.live.pop_random()
        ok = index.delete(victim)
        self.oplog.append((index.generation, "delete", victim.tid))
        self.updates_done += 1
        return ok

    def phase(self, seconds: float) -> Phase:
        phase = Phase(counters=self.counters())
        phase.start = time.perf_counter()
        t_end = phase.start + seconds
        threads = [
            threading.Thread(target=self._reader, args=(t_end, phase.batches)),
            threading.Thread(target=self._writer, args=(phase.start, t_end, phase.updates)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.end = max([b.end for b in phase.batches] + [u.end for u in phase.updates] + [t_end])
        after = self.counters()
        phase.counters = {key: after[key] - phase.counters[key] for key in after}
        phase.counters["reclaim_pending_end"] = self.index.pending_reclaim
        return phase

    # -- checks ------------------------------------------------------------------

    def check_reads(self, phases: "list[Phase]") -> "dict[int, int]":
        """Wrong answers per batch (by id), against the version each batch pinned."""
        inputs = self.inputs
        n_rows = D + self.next_extra
        matrix = pack(inputs.items[:n_rows], N_ITEMS)
        tids = np.array([t.tid for t in (inputs.transactions + inputs.extra)[:n_rows]])
        oracle = Oracle(matrix, tids)
        row_of = {int(tid): i for i, tid in enumerate(tids)}
        query_rows = pack(inputs.query_items[:BATCH], N_ITEMS)
        distances = [oracle.distances(row) for row in query_rows]
        alive = np.zeros(n_rows, dtype=bool)
        alive[:D] = True
        wrong: dict[int, int] = {}
        batches = sorted((b for p in phases for b in p.batches), key=lambda b: b.generation)
        applied = 0
        for batch in batches:
            while applied < len(self.oplog) and self.oplog[applied][0] <= batch.generation:
                _, kind, tid = self.oplog[applied]
                alive[row_of[tid]] = kind == "insert"
                applied += 1
            bad = 0
            for j, answer in enumerate(batch.answers):
                expected = oracle.knn(distances[j], K, alive)
                bad += not same_knn(answer, expected)
            wrong[id(batch)] = bad
        return wrong

    def crash_and_recover(self, pending: int) -> "tuple[int, float, str]":
        """Crash with ``pending`` uncommitted updates, recover, count gaps.

        A gap is a transaction live at the last commit (built or
        acknowledged insert) that is missing, or an acknowledged delete
        that is back.  With ``pending`` 0 the crash comes right after a
        commit.  Returns
        ``(gaps, page-file bytes per live transaction after a checkpoint,
        the recovery error or "")``.  A recovery that raises, or a
        recovered tree that cannot be read, counts the whole last commit
        as gaps.
        """
        from repro.sgtree.persistence import recover_tree

        if pending:
            for _ in range(pending):
                self.update()
        else:
            self.index.commit()
            self.acked = len(self.oplog)
        pages, wal = self.paths
        self.close()
        # the state of the last commit: the build plus the acknowledged ops
        expected_in, expected_out = {t.tid for t in self.inputs.transactions}, set()
        for _, kind, tid in self.oplog[: self.acked]:
            (expected_in if kind == "insert" else expected_out).add(tid)
            (expected_out if kind == "insert" else expected_in).discard(tid)
        lost = len(expected_in) + len(expected_out)
        # every update inserts one and deletes one, so D rows stay live
        live = len(self.live.rows)
        try:
            recovered = recover_tree(pages, wal, frames=FRAMES)
        except Exception as exc:  # noqa: BLE001 - any failure to recover loses the ops
            return lost, os.path.getsize(pages) / live, repr(exc)
        try:
            present = {tid for tid, _ in recovered.items()}
            recovered.store.checkpoint(recovered.catalogue())
        except Exception as exc:  # noqa: BLE001 - e.g. a page cycle (RecursionError)
            return lost, os.path.getsize(pages) / live, repr(exc)
        finally:
            recovered.store.pager.close()
            recovered.store.wal.close()
        gaps = len(expected_in - present) + len(expected_out & present)
        return gaps, os.path.getsize(pages) / max(len(present), 1), ""


# -- metrics ---------------------------------------------------------------------

def read_samples(phase: Phase, wrong: dict) -> "list[tuple[float, bool]]":
    return [((b.end - b.start) * 1e3, wrong[id(b)] > 0) for b in phase.batches]


def write_samples(phase: Phase) -> "list[tuple[float, bool]]":
    return [((u.end - u.due) * 1e3, not u.ok) for u in phase.updates]


def qps(phase: Phase, wrong: dict) -> float:
    """Correct queries per second (median over slices of the phase)."""
    done = [(b.start, b.end, len(b.answers) - wrong[id(b)]) for b in phase.batches]
    return common.sliced_rate(done, phase.start, phase.end)


def per_layer(phases: "list[Phase]", wrong: dict) -> dict:
    """Latencies from the untraced first phase; counts from every phase."""
    batches = [b for p in phases for b in p.batches]
    updates = [u for p in phases for u in p.updates]
    queries = sum(len(b.answers) for b in batches)
    stats = {key: sum(getattr(b.stats, key) for b in batches)
             for key in ("node_accesses", "random_ios", "leaf_entries")}
    c = {key: sum(p.counters[key] for p in phases) for key in phases[0].counters}
    c["reclaim_pending_end"] = phases[-1].counters["reclaim_pending_end"]
    reads, writes = read_samples(phases[0], wrong), write_samples(phases[0])
    failed = sum(f for _, f in reads + writes)
    return {
        "op.batch_p50_ms": percentile(reads, 50),
        "op.batch_p95_ms": percentile(reads, 95),
        "op.write_p50_ms": percentile(writes, 50),
        "op.write_p95_ms": percentile(writes, 95),
        "op.error_frac": ratio(failed, len(reads) + len(writes)),
        "search.node_accesses_per_query": ratio(stats["node_accesses"], queries),
        "search.leaf_entries_per_query": ratio(stats["leaf_entries"], queries),
        "search.data_fraction": ratio(stats["leaf_entries"], queries * D),
        "storage.random_ios_per_query": ratio(stats["random_ios"], queries),
        "storage.buffer_hit_ratio": 1.0 - ratio(stats["random_ios"], stats["node_accesses"]),
        "storage.decode_cache_hit_ratio": ratio(c["decode_hits"], c["decode_hits"] + c["decode_misses"]),
        "storage.decodes_per_query": ratio(c["decodes"], queries),
        "snapshot.publishes": c["publishes"],
        "snapshot.pages_reclaimed": c["reclaimed"],
        "snapshot.reclaim_pending_end": c["reclaim_pending_end"],
        "wal.bytes_per_write": ratio(c["wal_bytes"], len(updates)),
        "storage.node_writes_per_write": ratio(c["node_writes"], len(updates)),
        "storage.pager_writes_per_write": ratio(c["pager_writes"], len(updates)),
        "gen.lateness_ms_p95": percentile([((u.start - u.due) * 1e3, False) for u in updates], 95),
    }


def run(inputs, seconds: float, trace: bool, work: str, seed: int, crash: bool) -> dict:
    """One run; ``crash`` crashes with :data:`PENDING` uncommitted updates."""
    bench = Workload(inputs, seed, work)
    times = bench.setup(1 if trace else SETUP_REPEATS)
    pages = os.path.getsize(bench.paths[0]) // PAGE_SLOT
    common.reset_peak_rss()
    phases = [bench.phase(seconds / 2 if trace else seconds)]
    spans = None
    if trace:
        probe = tracer.Tracer().install()
        try:
            phases.append(bench.phase(seconds / 2))
        finally:
            probe.uninstall()
        spans = probe.snapshot()
    rss = common.peak_rss_mb([os.getpid()])
    pending = PENDING if crash else 0
    gaps, bytes_per_txn, recovery_error = bench.crash_and_recover(pending)
    wrong = bench.check_reads(phases)

    first = phases[0]
    reads, writes = read_samples(first, wrong), write_samples(first)
    untraced_qps = qps(first, wrong)
    outcomes = [f for _, f in reads + writes]
    if trace:
        traced = phases[1]
        outcomes += [f for _, f in read_samples(traced, wrong) + write_samples(traced)]
    result = {
        # the durability check counts as one operation
        "failed": sum(outcomes) + (gaps > 0),
        "attempted": len(outcomes) + 1,
        "wrong": sum(wrong.values()) + gaps,
        "info": {
            "setup_s_samples": times,
            "pages": pages,
            "pages_per_frame": pages / FRAMES,
            "pending_at_crash": pending,
            "durability_gaps": gaps,
            "recovery_error": recovery_error,
            "acknowledged_ops": bench.acked,
            "samples": {"batch": len(reads), "write": len(writes)},
        },
    }
    if not trace:
        result["metrics"] = {
            "setup_s": common.median(times),
            "qps": untraced_qps,
            "read_p50_ms": percentile(reads, 50),
            "read_p90_ms": percentile(reads, 90),
            "peak_rss_mb": rss,
            "index_bytes_per_txn": bytes_per_txn,
        }
        return result
    traced = phases[1]
    n_traced = sum(len(b.answers) for b in traced.batches)
    layers = per_layer(phases, wrong)
    layers.update(tracer.layer_metrics(spans, n_traced, traced.start, traced.end))
    layers["trace.overhead_frac"] = 1.0 - ratio(qps(traced, wrong), untraced_qps)
    result["metrics"] = layers
    result["spans"] = spans
    return result
