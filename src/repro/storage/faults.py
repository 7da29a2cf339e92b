"""Deterministic fault injection for the storage stack.

The crash-consistency guarantees of the WAL + self-verifying page file
are only worth what the tests can break.  This module wraps the two
durable components — the pager and the write-ahead log — behind
fault-injecting proxies driven by one shared, seeded
:class:`FaultPlan`, so a whole build-insert-commit workload can be
killed at an exact storage operation, have its writes torn, its WAL
appends cut short, its fsyncs dropped, or random bits flipped — all
reproducibly from a seed.

Fault kinds
-----------
* **crash** — after ``crash_after`` storage operations, the next one
  raises :class:`~repro.errors.CrashError`.  If the fatal operation is a
  write (page or WAL append), a random *prefix* of the bytes is
  persisted first — a torn page write / partial log append, exactly what
  a power cut leaves behind.  Once crashed, the plan refuses every
  further operation: a dead process does no I/O.
* **io-error** — reads/writes raise
  :class:`~repro.errors.InjectedIOError` with probability
  ``io_error_rate`` (transient device failure).
* **bit-flip** — after a successful page write, one random bit of the
  stored slot is flipped *below* the checksum (silent media corruption;
  the self-verifying pager must catch it on the next read).
* **lost fsync** — ``drop_fsync=True`` turns syncs into buffer flushes;
  on a crash, everything after the last *real* sync is truncated away,
  modelling data that only ever reached the OS cache.

Example
-------
>>> plan = FaultPlan(seed=7, crash_after=120)
>>> pager = FaultInjectingPager(FilePager(path, page_size=4096), plan)
>>> wal = FaultInjectingLog(wal_path, plan)
>>> store = NodeStore(n_bits, mode="disk", pager=pager, wal=wal)
... # build until CrashError, then recover_tree(path, wal_path)

Serving-layer chaos
-------------------
:class:`ChaosPlan` lifts the same seeded discipline into the sharded
serving path (:mod:`repro.server.shard`): a shared schedule of **worker
kills mid-query** and **latency spikes**, drawn per shard from a
deterministic per-shard RNG stream, so a whole chaos campaign — which
worker died, at which request, with which spikes — replays exactly from
one seed.  Shard workers consult :meth:`ShardChaos.draw` before serving
each request; a ``"kill"`` makes the worker die *without answering*
(the in-flight request is abandoned, exactly what a crashed process
leaves behind), a ``"latency"`` stalls it.  The third chaos ingredient
— a corrupted shard pager — needs nothing new: build one shard's tree
over a :class:`FaultInjectingPager` with a ``bit_flip_rate`` and the
self-verifying page file turns silent rot into typed
:class:`~repro.errors.PageCorruptError` failures at read time.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass, field

from ..errors import CrashError, InjectedIOError
from .page import Page, PageId
from .pager import Pager
from .wal import WriteAheadLog

__all__ = [
    "FaultPlan",
    "FaultInjectingPager",
    "FaultInjectingLog",
    "ChaosPlan",
    "ShardChaos",
]


@dataclass
class FaultPlan:
    """A seeded, shared schedule of storage faults.

    One plan instance is shared by every proxy participating in a run,
    so ``crash_after`` counts *total* storage operations across the page
    store and the log — a kill point in the workload's real timeline.
    """

    seed: int = 0
    crash_after: int | None = None
    partial_tail: bool = True
    io_error_rate: float = 0.0
    bit_flip_rate: float = 0.0
    drop_fsync: bool = False

    ops: int = field(default=0, init=False)
    crashed: bool = field(default=False, init=False)
    commits_durable: int = field(default=0, init=False)
    injected: Counter = field(default_factory=Counter, init=False)
    # run at the instant the crash fires, whichever component trips it —
    # e.g. the log truncating its never-fsynced tail (OS cache loss)
    crash_hooks: list = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def tick(self, kind: str) -> str | None:
        """Account one storage operation; return the fault to inject
        (``"crash"``, ``"io-error"``) or ``None``.  Raises
        :class:`CrashError` outright if the plan already crashed."""
        if self.crashed:
            raise CrashError(f"{kind} after simulated crash (op {self.ops})")
        self.ops += 1
        if self.crash_after is not None and self.ops > self.crash_after:
            self.crashed = True
            self.injected["crash"] += 1
            for hook in self.crash_hooks:
                hook()
            return "crash"
        if (
            kind in ("read", "write", "wal-append")
            and self.io_error_rate
            and self._rng.random() < self.io_error_rate
        ):
            self.injected["io-error"] += 1
            return "io-error"
        return None

    def flip_bit(self) -> bool:
        """Whether to corrupt the write that just succeeded."""
        if self.bit_flip_rate and self._rng.random() < self.bit_flip_rate:
            self.injected["bit-flip"] += 1
            return True
        return False

    def keep_bytes(self, total: int) -> int:
        """How much of a torn write survives: a strict prefix."""
        if total <= 0:
            return 0
        return self._rng.randrange(total)

    def random_bit(self, n_bytes: int) -> int:
        return self._rng.randrange(max(1, n_bytes * 8))


class FaultInjectingPager(Pager):
    """A pager proxy that injects the plan's faults around a real pager.

    Wraps any :class:`~repro.storage.pager.Pager`; torn writes and bit
    flips use the inner pager's raw-slot hooks when available
    (:class:`~repro.storage.pager.FilePager`), and degrade to silently
    truncated payloads otherwise (documenting exactly why the file pager
    carries checksums and the memory pager cannot detect rot).
    """

    def __init__(self, inner: Pager, plan: FaultPlan):
        self.inner = inner
        self.plan = plan
        self.page_size = inner.page_size
        self.stats = inner.stats

    def allocate(self) -> PageId:
        if self.plan.tick("allocate") == "crash":
            raise CrashError("crash during page allocation")
        return self.inner.allocate()

    def read(self, page_id: PageId) -> Page:
        fault = self.plan.tick("read")
        if fault == "crash":
            raise CrashError(f"crash during read of page {page_id}")
        if fault == "io-error":
            raise InjectedIOError(f"injected read error on page {page_id}")
        return self.inner.read(page_id)

    def write(self, page: Page) -> None:
        fault = self.plan.tick("write")
        if fault == "crash":
            if self.plan.partial_tail:
                self._torn_write(page)
            raise CrashError(f"crash during write of page {page.page_id}")
        if fault == "io-error":
            raise InjectedIOError(f"injected write error on page {page.page_id}")
        self.inner.write(page)
        if self.plan.flip_bit():
            self._flip_bit(page)

    def free(self, page_id: PageId) -> None:
        if self.plan.tick("free") == "crash":
            raise CrashError(f"crash during free of page {page_id}")
        self.inner.free(page_id)

    def ensure(self, page_id: PageId) -> None:
        if self.plan.tick("ensure") == "crash":
            raise CrashError(f"crash during ensure of page {page_id}")
        self.inner.ensure(page_id)

    def sync(self) -> None:
        if self.plan.drop_fsync:
            self.plan.injected["dropped-fsync"] += 1
            return
        self.inner.sync()

    def __len__(self) -> int:
        return len(self.inner)

    def close(self) -> None:
        self.inner.close()

    def __getattr__(self, name: str):
        # Forward pass-through surface (path, verify, slot_count, ...) so
        # the proxy can stand in for its inner pager everywhere.
        if name in ("inner", "plan"):
            raise AttributeError(name)
        return getattr(self.inner, name)

    # -- fault mechanics -----------------------------------------------------

    def _torn_write(self, page: Page) -> None:
        torn = getattr(self.inner, "write_torn", None)
        if torn is not None:
            # Tear below the checksum: a prefix of the raw slot image.
            torn(page, self.plan.keep_bytes(len(page.data) + 8))
        else:
            keep = self.plan.keep_bytes(len(page.data))
            self.inner.write(
                Page(page_id=page.page_id, capacity=page.capacity, data=page.data[:keep])
            )

    def _flip_bit(self, page: Page) -> None:
        corrupt = getattr(self.inner, "corrupt", None)
        if corrupt is not None:
            corrupt(page.page_id, self.plan.random_bit(max(1, len(page.data))))
        else:
            data = bytearray(page.data)
            if not data:
                return
            bit = self.plan.random_bit(len(data))
            data[bit // 8] ^= 1 << (bit % 8)
            self.inner.write(
                Page(page_id=page.page_id, capacity=page.capacity, data=bytes(data))
            )


class FaultInjectingLog(WriteAheadLog):
    """A write-ahead log that injects the plan's faults into appends.

    A crash scheduled on an append persists a random prefix of the
    encoded record — a **partial WAL append** whose torn tail recovery
    must discard.  With ``drop_fsync=True``, commit fsyncs only flush to
    the OS cache, and a later crash truncates the file back to the last
    truly synced byte, modelling cache loss on power failure.
    """

    def __init__(self, path: str | os.PathLike, plan: FaultPlan):
        self.plan = plan
        self._synced_len = 0
        super().__init__(path)
        self._synced_len = os.path.getsize(self.path)
        if plan.drop_fsync:
            # Whatever component trips the crash, the log's never-fsynced
            # tail evaporates with the OS cache.
            plan.crash_hooks.append(self._lose_unsynced)

    def _append(self, op: int, payload: bytes) -> None:
        fault = self.plan.tick("wal-append")
        if fault == "crash":
            record = self._encode(op, payload)
            if self.plan.partial_tail:
                self._file.write(record[: self.plan.keep_bytes(len(record))])
                self._file.flush()
            if self.plan.drop_fsync:
                self._lose_unsynced()
            raise CrashError(f"crash during WAL append (op {op})")
        if fault == "io-error":
            raise InjectedIOError(f"injected WAL append error (op {op})")
        super()._append(op, payload)

    def _sync(self) -> None:
        if self.plan.drop_fsync:
            self.plan.injected["dropped-fsync"] += 1
            self._file.flush()  # reaches the OS cache only
            return
        super()._sync()
        self._synced_len = self._file.tell()

    def append_commit(self) -> None:
        super().append_commit()
        if not self.plan.drop_fsync:
            self.plan.commits_durable += 1

    def _lose_unsynced(self) -> None:
        """Drop everything after the last real fsync (OS cache loss)."""
        self._file.flush()
        self._file.truncate(self._synced_len)


@dataclass
class ChaosPlan:
    """A seeded, shared schedule of serving-layer faults.

    One plan is shared by every shard worker of a sharded service; each
    worker draws from its own :class:`ShardChaos` stream (seeded from
    ``seed`` and the shard id), so schedules are independent per shard
    yet fully reproducible.  ``enabled`` is read live on every draw.
    A shard process draws from the copy of the plan it was started with,
    so flipping it off (:meth:`quiesce`) ends the chaos phase for every
    worker started afterwards — which is how the campaign tests
    "supervisor restores full coverage once the faults stop".  Likewise
    ``injected`` counts only the draws made in this process.

    Rates are per-request probabilities; ``kill`` wins over ``latency``
    when both could fire.
    """

    seed: int = 0
    kill_rate: float = 0.0
    latency_rate: float = 0.0
    latency_seconds: float = 0.02
    enabled: bool = True

    injected: Counter = field(default_factory=Counter, init=False)

    def for_shard(self, shard_id: int, incarnation: int = 0) -> "ShardChaos":
        """The deterministic chaos stream for one shard worker.

        ``incarnation`` salts the stream so a restarted worker does not
        replay its predecessor's draws (which would re-kill it at the
        same request index every life).
        """
        return ShardChaos(self, shard_id, incarnation=incarnation)

    def quiesce(self) -> None:
        """Stop injecting (in streams drawn in this process, and in
        shard workers started from now on)."""
        self.enabled = False


class ShardChaos:
    """One shard worker's view of a :class:`ChaosPlan`.

    The RNG stream is derived from ``(plan.seed, shard_id)`` and
    advances one draw per request, so a restarted worker resumes a
    *fresh* stream only if the caller builds a new instance — the shard
    handle keeps one per worker incarnation, mirroring how a real crash
    loses in-process RNG state.
    """

    def __init__(self, plan: ChaosPlan, shard_id: int, incarnation: int = 0):
        self.plan = plan
        self.shard_id = shard_id
        self.incarnation = incarnation
        self._rng = random.Random(
            (plan.seed << 16) ^ 0x9E3779B1 ^ shard_id ^ (incarnation * 0x85EBCA6B)
        )

    def draw(self) -> "str | None":
        """The fault to inject for the next request, if any.

        Returns ``"kill"`` (die without answering), ``"latency"``
        (stall for :attr:`ChaosPlan.latency_seconds` before serving) or
        ``None``.  The RNG advances exactly once per call regardless of
        the rates, so toggling rates mid-campaign does not shift the
        rest of the schedule.
        """
        roll = self._rng.random()
        if not self.plan.enabled:
            return None
        if roll < self.plan.kill_rate:
            self.plan.injected["chaos-kill"] += 1
            return "kill"
        if roll < self.plan.kill_rate + self.plan.latency_rate:
            self.plan.injected["chaos-latency"] += 1
            return "latency"
        return None
