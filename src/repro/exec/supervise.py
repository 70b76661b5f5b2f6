"""Supervised worker pool: watchdog, restart backoff, storm fuse.

:class:`SupervisedExecutor` is the service's execution substrate.  It is
a :class:`~repro.exec.parallel.ParallelExecutor` whose respawn policy is
hardened for a *long-lived* process:

* **exponential restart backoff** — consecutive worker failures (crashes,
  hard-timeout kills, hung acks) delay the next respawn by a
  :class:`~repro.exec.worker.RestartBackoff` (``respawn_backoff``
  doubling per failure, capped at ``respawn_backoff_max``), so a poison
  workload cannot turn the pool into a fork bomb;
* **restart-storm fuse** — ``storm_threshold`` failures inside a sliding
  ``storm_window`` trip the fuse: respawns stop for ``storm_cooldown``
  seconds and pending queries fail fast as ``crash`` instead of queueing
  behind a pool that cannot hold workers.  The service's circuit breaker
  sees those crash results and opens, which is the intended escalation
  path: storm at the pool level, degraded mode at the service level;
* **self-healing** — one successful result resets the consecutive-failure
  counter and the backoff, so an isolated crash costs one backoff step,
  not a permanently slowed pool.

The base executor already contains the crash/hang *detection* (the event
loop classifies deaths, SIGKILLs hard-timeout and hung-ack workers); this
class only overrides the small bookkeeping and respawn hooks, so the two
executors cannot drift apart behaviourally.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING

from repro.exec.parallel import ParallelExecutor, _Worker
from repro.exec.worker import RestartBackoff

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.pipeline import QueryPipeline
    from repro.graph.database import GraphDatabase

__all__ = ["SupervisedExecutor"]


class SupervisedExecutor(ParallelExecutor):
    """A :class:`ParallelExecutor` with restart backoff and a storm fuse."""

    def __init__(
        self,
        *args,
        respawn_backoff: float = 0.05,
        respawn_backoff_max: float = 2.0,
        storm_threshold: int = 8,
        storm_window: float = 10.0,
        storm_cooldown: float = 5.0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if storm_threshold < 1:
            raise ValueError("storm_threshold must be at least 1")
        self.storm_threshold = storm_threshold
        self.storm_window = storm_window
        self.storm_cooldown = storm_cooldown
        #: Failures since the last successful result hold respawns back.
        self._backoff = RestartBackoff(respawn_backoff, respawn_backoff_max)
        #: perf_counter timestamps of recent failures (drives the fuse).
        self._failure_times: deque[float] = deque()
        #: While now < this, the storm fuse is tripped: no respawns, and
        #: ``_fuse_blown`` fails pending work fast.
        self._storm_until = 0.0
        self.storm_trips = 0

    @property
    def _consecutive_failures(self) -> int:
        return self._backoff.failures

    @property
    def _next_spawn_at(self) -> float:
        """Earliest ``time.monotonic()`` of the next respawn (0.0: now)."""
        return self._backoff.not_before

    # ------------------------------------------------------------------
    # Supervision hooks
    # ------------------------------------------------------------------

    def _record_failure_reap(self, worker: _Worker, deliberate: bool) -> None:
        super()._record_failure_reap(worker, deliberate)
        self._backoff.failure()
        now = time.perf_counter()
        self._failure_times.append(now)
        while self._failure_times and self._failure_times[0] < now - self.storm_window:
            self._failure_times.popleft()
        if len(self._failure_times) >= self.storm_threshold:
            self._storm_until = now + self.storm_cooldown
            self._failure_times.clear()
            self.storm_trips += 1

    def _note_result(self, worker, job, now: float) -> None:
        super()._note_result(worker, job, now)
        # A healthy answer proves the pool can hold workers again.
        self._backoff.success()

    def _fuse_blown(self) -> bool:
        # During a storm the pool refuses to respawn; once no workers are
        # left, pending queries must fail fast as crashes rather than wait
        # out the cooldown — the breaker upstairs handles the rest.
        return time.perf_counter() < self._storm_until

    def _maintain_pool(
        self, pipeline: "QueryPipeline", db: "GraphDatabase", want: int
    ) -> None:
        if len(self._workers) < want and self._backoff.ready():
            # One worker per pass: each spawn must survive long enough to
            # produce a result (resetting the backoff) before the pool
            # returns to full strength — the probe pattern.  (While the
            # backoff holds an empty pool back, the event loop idles.)
            self._spawn_worker(pipeline, db)

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------

    def worker_stats(self) -> dict:
        now = time.perf_counter()
        stats = super().worker_stats()
        stats.update(
            supervised=True,
            consecutive_failures=self._consecutive_failures,
            storm_trips=self.storm_trips,
            storm_active=now < self._storm_until,
            next_spawn_backoff_s=max(0.0, self._next_spawn_at - time.monotonic()),
        )
        return stats
