"""Shard supervision: health probes, bounded restarts, storm budget.

:class:`ShardSupervisor` owns the lifecycle of a set of
:class:`~repro.server.shard.ShardHandle` objects.  A background monitor
thread probes every shard at ``probe_interval``; a shard that is dead, or
stops answering pings after its first answer, is restarted with bounded
exponential backoff plus jitter (one independent
:class:`~repro.server.resilience.Backoff` per shard, so two crashed
shards do not thunder back in lockstep).  A live worker still building
its tree before that first answer is left to finish.

Restarts are budgeted: at most ``storm_budget`` restarts per shard
within a ``storm_window`` sliding window.  A shard that keeps dying past
the budget is marked ``failed`` and left down — its breaker is forced
open so the scatter path stops paying the probe cost — until
:meth:`ShardSupervisor.revive` is called.  This is the standard
supervision discipline: crash loops must degrade the service, not wedge
the supervisor in a restart spin.

Every restart and failure is observable: ``shard_restarted`` /
``shard_failed`` events through the telemetry event log, per-shard
restart counters, and a ``shards_up`` gauge the readiness probe reads.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Sequence

from .resilience import Backoff

__all__ = ["ShardSupervisor"]


class ShardSupervisor:
    """Keeps shard workers alive within a restart budget.

    ``start()`` launches the monitor thread; ``stop()`` halts it (idempotent,
    also called by :meth:`~repro.server.shard.ShardedQueryService.close`).
    ``check_once()`` runs a single probe/restart sweep synchronously —
    tests and the chaos campaign drive the supervisor deterministically
    with it instead of sleeping around the monitor thread.
    """

    def __init__(
        self,
        handles: Sequence,
        probe_interval: float = 0.25,
        probe_timeout: float = 1.0,
        backoff: "Backoff | None" = None,
        storm_budget: int = 5,
        storm_window: float = 30.0,
        telemetry=None,
    ):
        if probe_interval <= 0:
            raise ValueError(f"probe_interval must be > 0, got {probe_interval}")
        if storm_budget < 1:
            raise ValueError(f"storm_budget must be >= 1, got {storm_budget}")
        self.handles = list(handles)
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.storm_budget = storm_budget
        self.storm_window = storm_window
        self.telemetry = telemetry
        template = backoff if backoff is not None else Backoff(
            initial=0.02, factor=2.0, max_delay=1.0
        )
        # One independent jitter stream per shard, seeded per shard id so
        # restart schedules are reproducible yet de-synchronised.
        self._backoffs = {
            h.shard_id: Backoff(
                initial=template.initial, factor=template.factor,
                max_delay=template.max_delay, jitter=template.jitter,
                seed=h.shard_id,
            )
            for h in self.handles
        }
        self._restart_times: "dict[int, deque[float]]" = {
            h.shard_id: deque() for h in self.handles
        }
        self._consecutive: "dict[int, int]" = {h.shard_id: 0 for h in self.handles}
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ShardSupervisor":
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._monitor, name="sgtree-supervisor", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=2.0)

    def _monitor(self) -> None:
        while not self._stop.wait(self.probe_interval):
            try:
                self.check_once()
            except Exception:  # noqa: BLE001 - the monitor must survive
                pass

    # -- one supervision sweep ---------------------------------------------

    def check_once(self) -> "list[int]":
        """Probe every shard, restart the dead ones; returns restarted ids."""
        restarted: list[int] = []
        for handle in self.handles:
            if handle.state == "failed":
                continue
            if handle.probe(timeout=self.probe_timeout) is not None:
                self._consecutive[handle.shard_id] = 0
                continue
            if handle.building():
                # Still building its tree: a probe timeout counts only
                # once this incarnation has answered once.
                continue
            if self._restart(handle):
                restarted.append(handle.shard_id)
        if self.telemetry is not None:
            self.telemetry.shards_up.set(
                sum(1 for h in self.handles if h.is_up())
            )
        return restarted

    def _restart(self, handle) -> bool:
        """One budgeted restart; marks the shard failed past the budget."""
        with self._lock:
            now = time.monotonic()
            times = self._restart_times[handle.shard_id]
            while times and now - times[0] > self.storm_window:
                times.popleft()
            if len(times) >= self.storm_budget:
                return self._mark_failed(handle)
            times.append(now)
            attempt = self._consecutive[handle.shard_id]
            self._consecutive[handle.shard_id] = attempt + 1
            pause = self._backoffs[handle.shard_id].delay(attempt)
        if pause > 0.0:
            # Sleep outside the lock; bounded by the backoff ceiling.
            if self._stop.wait(pause):
                return False
        handle.restart()
        # A restarted worker must actually answer before it counts.
        if handle.probe(timeout=self.probe_timeout) is None:
            return False
        if self.telemetry is not None:
            self.telemetry.emit(
                "shard_restarted",
                shard=handle.shard_id,
                restarts=handle.restarts,
                generation=handle.incarnation,
            )
        return True

    def _mark_failed(self, handle) -> bool:
        if handle.state != "failed":
            handle.state = "failed"
            handle.breaker.force_open()
            if self.telemetry is not None:
                self.telemetry.emit(
                    "shard_failed",
                    shard=handle.shard_id,
                    restarts=handle.restarts,
                )
        return False

    def revive(self, shard_id: int) -> None:
        """Clear a ``failed`` shard's budget and bring it back (operator)."""
        for handle in self.handles:
            if handle.shard_id == shard_id:
                with self._lock:
                    self._restart_times[shard_id].clear()
                    self._consecutive[shard_id] = 0
                handle.state = "up"
                handle.restart()
                return
        raise KeyError(f"no shard {shard_id}")
