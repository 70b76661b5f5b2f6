"""Process-isolated query execution: a pool of persistent, killable workers.

:class:`ParallelExecutor` runs queries in ``jobs`` worker processes
(:class:`~repro.exec.worker.WorkerProcess`), which is what makes the
limits *hard* — the parent can kill what it cannot pre-empt:

* **hard wall-clock timeout** — once a worker acknowledges a query the
  parent waits :func:`~repro.exec.worker.hard_deadline` seconds
  (``time_limit * 1.5 + 0.25`` by default) for the result, then SIGKILLs
  that worker and records the query as OOT while the other workers keep
  draining the queue — one pathological query never stalls the pool;
* **memory cap** — workers apply ``resource.setrlimit(RLIMIT_AS)`` at
  startup, so a runaway allocation raises ``MemoryError`` inside the
  worker (recorded as OOM) instead of taking down the run;
* **crash containment** — a worker that dies mid-query (segfault-
  equivalent, injected ``os._exit``, OOM-killer) yields a ``crash``
  failure for that one query; the pool respawns and the run continues;
* **bounded retry** — a worker that dies *before acknowledging* a query
  never started it, so the query is re-dispatched.  Every such death —
  met as a dead pipe on send or as an EOF a millisecond later — costs
  the query it held exactly one of its ``max_retries``; a query that
  runs out fails as a ``crash`` stamped ``retries == max_retries``.
* **one throttle** — every worker lost is counted on the pool's
  :class:`~repro.exec.worker.Health` by the reap rule it shares with the
  shard process host (:meth:`~repro.exec.worker.WorkerProcess.reap`: a
  hard-deadline kill is a success, every other loss one failure), and
  every result is a success.  A new binding starts with no backoff left
  over.  Its capped exponential backoff spaces the respawns; when it
  is armed with a ``threshold`` (the ``supervised`` name, and the pools
  ``serve`` builds) that many consecutive failures open it: no respawns
  until a half-open probe, and queued queries fail fast as ``crash``
  once no worker is left.  The pool is sized by the work it can hand out
  (in flight plus queued), so no worker is spawned to idle.

The (pipeline, database) pair is serialized to each worker **once** per
binding — on Linux the ``fork`` start method shares the parent's copy
copy-on-write, so queries never re-pickle the data graphs — and every
result lands at its input position, so any pool width returns the exact
sequence a pool of one would (timings aside).

The pool is a persistent **stream** (see :class:`~repro.exec.base.
QueryExecutor`): ``submit`` queues one job — carrying its own time limit
and hard deadline — and ``collect`` is an event loop over
:func:`multiprocessing.connection.wait` that returns as soon as some job
has finished, so a caller can answer each query when *it* completes and
keep feeding idle workers while slower queries run.  Dispatch is eager (a
query is written to a spawning worker's pipe before the ``ready`` handshake
arrives — the pipe buffers it), and all timeout accounting (startup, ack,
hard wall-clock) is driven from the loop.  ``run_many`` is the base
class's "submit all, collect all" over this stream.  One ``(pipeline,
db)`` binding is live at a time: rebinding or invalidating while jobs are
in flight is a caller bug and raises.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from collections.abc import Sequence
from multiprocessing.connection import wait as _conn_wait
from typing import TYPE_CHECKING

from repro.core.metrics import QueryFailure, QueryResult
from repro.exec import faults
from repro.exec.base import QueryExecutor, failure_result
from repro.exec.worker import (
    DEAD,
    HARD_TIMEOUT_FACTOR,
    HARD_TIMEOUT_GRACE,
    TIMEOUT,
    Health,
    WorkerProcess,
    hard_deadline,
    preferred_context,
    query_worker_main,
)

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.pipeline import QueryPipeline
    from repro.graph.database import GraphDatabase
    from repro.graph.labeled_graph import Graph
    from repro.matching.plan import QueryPlan

__all__ = ["ParallelExecutor"]


class _Job:
    """One submitted query: queued, or dispatched to one worker."""

    __slots__ = (
        "ticket", "query", "time_limit", "plan", "hard",
        "retries", "sent_at", "acked_at",
    )

    def __init__(self, ticket: int, query: "Graph", time_limit: float | None,
                 plan: "QueryPlan | None", hard: float | None) -> None:
        self.ticket = ticket
        self.query = query
        self.time_limit = time_limit
        # The compiled plan is serialized with its query: each dispatch
        # carries it so workers never recompile per attempt.
        self.plan = plan
        #: Seconds after the ack at which the worker is SIGKILLed.
        self.hard = hard
        self.retries = 0
        self.sent_at = 0.0
        self.acked_at: float | None = None


class _Worker(WorkerProcess):
    """A pool worker: the process plus its dispatch state."""

    __slots__ = (
        "ready", "ready_at", "spawned_at", "job", "queries", "last_latency",
    )

    def __init__(self, ctx, args: tuple) -> None:
        super().__init__(ctx, query_worker_main, args)
        self.ready = False
        self.ready_at: float | None = None
        self.spawned_at = time.perf_counter()
        self.job: _Job | None = None
        #: Liveness bookkeeping surfaced by ``worker_stats``.
        self.queries = 0
        self.last_latency: float | None = None


class ParallelExecutor(QueryExecutor):
    """Streams queries through ``jobs`` persistent worker processes.

    A job's ``time_limit=None`` means no hard deadline either: the parent
    waits for it as long as its worker lives.  ``health`` throttles
    respawns (default: backoff only, never opens).
    """

    def __init__(
        self,
        jobs: int = 4,
        memory_limit_mb: int | None = None,
        hard_timeout_factor: float = HARD_TIMEOUT_FACTOR,
        hard_timeout_grace: float = HARD_TIMEOUT_GRACE,
        max_retries: int = 2,
        startup_timeout: float = 60.0,
        ack_timeout: float = 30.0,
        start_method: str | None = None,
        health: Health | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.memory_limit_mb = memory_limit_mb
        self.hard_timeout_factor = hard_timeout_factor
        self.hard_timeout_grace = hard_timeout_grace
        self.max_retries = max_retries
        self.health = health if health is not None else Health()
        self.startup_timeout = startup_timeout
        self.ack_timeout = ack_timeout
        self._ctx = (
            multiprocessing.get_context(start_method)
            if start_method
            else preferred_context()
        )
        self._workers: list[_Worker] = []
        #: Identity of the (pipeline, db) the live pool was built from.
        self._bound: tuple[object, object] | None = None
        self._last_exit: int | None = None
        #: Lifetime supervision counters (never reset by rebinds), the
        #: raw material for the service's per-worker liveness stats.
        self.spawn_total = 0
        self.worker_deaths = 0  # died on their own (crash, OOM-killer, ...)
        self.worker_kills = 0  # deliberately SIGKILLed (hard/ack timeout)
        #: The stream: jobs not yet on a worker, finished ``(ticket,
        #: result)`` pairs not yet collected, and how many submitted jobs
        #: have not finished.
        self._pending: deque[_Job] = deque()
        self._done: list[tuple[int, QueryResult]] = []
        self._outstanding = 0
        self._tickets = 0

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _spawn_worker(self, pipeline: "QueryPipeline", db: "GraphDatabase") -> _Worker:
        limit_bytes = (
            self.memory_limit_mb * 1024 * 1024 if self.memory_limit_mb else None
        )
        worker = _Worker(
            self._ctx, (pipeline, db, limit_bytes, faults.active_specs())
        )
        self._workers.append(worker)
        self.spawn_total += 1
        return worker

    def _discard(self, worker: _Worker, kill: bool) -> None:
        worker.scrap(kill=kill)
        if worker.exitcode is not None:
            self._last_exit = worker.exitcode
        if worker in self._workers:
            self._workers.remove(worker)

    def _scrap_all(self) -> None:
        for w in list(self._workers):
            self._discard(w, kill=True)
        self._bound = None

    def _require_idle(self, what: str) -> None:
        if self._outstanding:
            raise RuntimeError(
                f"cannot {what} with {self._outstanding} queries in flight; "
                "collect them first"
            )

    def _rebind(self, pipeline: "QueryPipeline", db: "GraphDatabase") -> None:
        if self._bound is not None and (
            self._bound[0] is pipeline and self._bound[1] is db
        ):
            return  # live workers carry over from one job to the next
        self._require_idle("rebind the pool to another (pipeline, db)")
        self._scrap_all()
        self._bound = (pipeline, db)
        if self.health.state == "closed":  # an open one awaits its probe
            self.health.success()  # no backoff carried over

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------

    def worker_stats(self) -> dict:
        """Supervision snapshot: lifetime counters plus per-worker rows.

        ``restarts`` counts every worker lost to a failure over the
        executor's lifetime — each one forced a respawn to keep the pool
        at strength.  Safe to call between batches from any thread that
        owns the executor (the service calls it from its stats path).
        """
        now = time.perf_counter()
        health = self.health.snapshot()
        return {
            "executor": type(self).__name__,
            "jobs": self.jobs,
            "spawns": self.spawn_total,
            "deaths": self.worker_deaths,
            "kills": self.worker_kills,
            "restarts": self.worker_deaths + self.worker_kills,
            "last_exit_code": self._last_exit,
            # The pool's Health: supervised means it can open, and a
            # storm is its closed -> open edge.
            "supervised": health["enabled"],
            "consecutive_failures": health["consecutive_failures"],
            "storm_trips": health["transitions"].get("closed->open", 0),
            "storm_active": self.health.retry_after() > 0,
            "next_spawn_backoff_s": max(
                0.0, self.health.backoff_until - time.monotonic()
            ),
            "live": [
                {
                    "pid": w.pid,
                    "alive": w.alive,
                    "ready": w.ready,
                    "age_s": now - w.spawned_at,
                    "queries": w.queries,
                    "last_batch_latency_s": w.last_latency,
                }
                for w in self._workers
            ],
        }

    # ------------------------------------------------------------------
    # The stream: submit / collect
    # ------------------------------------------------------------------

    def submit(
        self,
        pipeline: "QueryPipeline",
        query: "Graph",
        db: "GraphDatabase",
        time_limit: float | None = None,
        plan: "QueryPlan | None" = None,
    ) -> int:
        self._rebind(pipeline, db)
        self._tickets += 1
        self._pending.append(_Job(
            self._tickets, query, time_limit, plan,
            hard_deadline(
                time_limit, self.hard_timeout_factor, self.hard_timeout_grace
            ),
        ))
        self._outstanding += 1
        # An idle worker starts on it now, while the caller prepares its
        # next submit, instead of at the next collect.
        self._dispatch(time.perf_counter())
        return self._tickets

    def collect(
        self, timeout: float | None = None, also: Sequence = ()
    ) -> list[tuple[int, QueryResult]]:
        deadline = None if timeout is None else time.perf_counter() + timeout
        also = list(also)
        woken = False
        while True:
            now = time.perf_counter()
            # First, so a worker that just delivered a result is handed
            # its next query before the caller goes off to answer.
            self._dispatch(now)
            if (
                self._done or woken or not self._outstanding
                or (deadline is not None and now >= deadline)
            ):
                done, self._done = self._done, []
                return done
            # With no worker to listen to, the Health is holding the
            # respawn back: wait a short slice.
            wait = 0.05 if self._workers else 0.01
            if deadline is not None:
                wait = min(wait, deadline - now)
            readable = set(_conn_wait(
                [w.conn for w in self._workers] + also, timeout=wait
            ))
            woken = any(waitable in readable for waitable in also)
            now = time.perf_counter()
            for w in list(self._workers):
                if w.conn in readable or not w.alive:
                    msg = w.recv(0)
                    if msg is DEAD:
                        self._on_death(w, now)
                    elif msg is not TIMEOUT:
                        self._handle_message(w, msg, now)
                else:
                    self._check_timeouts(w, now)

    def _dispatch(self, now: float) -> None:
        """Bring the pool to the strength the queue needs and hand one
        queued job to each idle worker."""
        pending = self._pending
        if not pending:
            return
        pipeline, db = self._bound  # type: ignore[misc]
        # Size the pool by the work it can hand out: queries in flight
        # plus queued ones.  A worker spawned beyond that would sit idle
        # — and, under a persistent start-up crash, die without a job to
        # charge the death to.  The Health gates every spawn: its backoff
        # spaces them, and while it is open (or its one half-open probe
        # is out) none is made.
        if len(self._workers) < self.jobs:
            busy = sum(w.job is not None for w in self._workers)
            want = min(self.jobs, busy + len(pending))
            health = self.health
            while (
                len(self._workers) < want and health.ready() and health.allow()
            ):
                self._spawn_worker(pipeline, db)

        # Eager dispatch: the pipe buffers the request even before the
        # worker's ready handshake arrives.
        for w in list(self._workers):
            if w.job is not None:
                continue
            if w.ready and not w.alive:
                # Died idle after its handshake; the watchdog counts it
                # like any other unexpected death, and no query is charged.
                self._on_death(w, now)
                continue
            if not pending:
                break
            job = w.job = pending.popleft()
            job.sent_at, job.acked_at = now, None
            if not w.send(("query", job.query, job.time_limit, job.plan)):
                # A pipe already dead on send is the same event as a
                # death noticed before the ack: one requeue path.
                self._on_death(w, now)

        if not self._workers and self.health.state == "open":
            # Nothing in flight, nothing spawnable: fail the rest.
            while pending:
                self._fail(
                    pending.popleft(),
                    "crash",
                    f"worker pool could not start (exit code {self._last_exit})",
                )

    def _fail(self, job: _Job, kind: str, message: str,
              query_time: float = 0.0) -> None:
        failure = QueryFailure(kind=kind, message=message, retries=job.retries)
        self._done.append((job.ticket, failure_result(
            self._bound[0].name, job.query.name, failure, query_time=query_time,
        )))
        self._outstanding -= 1

    def _requeue(self, job: _Job) -> None:
        """The worker was lost before it acknowledged ``job``: the query
        never started, so re-dispatch it, bounded."""
        if job.retries < self.max_retries:
            job.retries += 1
            self._pending.append(job)
        else:
            self._fail(
                job,
                "crash",
                "worker died before starting the query "
                f"(exit code {self._last_exit}; "
                f"{self.health.failures} consecutive worker failures)",
            )

    def _handle_message(self, worker: _Worker, msg, now: float) -> None:
        kind = msg[0]
        if kind == "ready":
            worker.ready = True
            worker.ready_at = now
        elif kind == "ack":
            if worker.job is not None:
                worker.job.acked_at = now
        elif kind == "result":
            job, worker.job = worker.job, None
            if job is not None:
                worker.queries += 1
                worker.last_latency = now - (job.acked_at or job.sent_at)
                # Any answer proves the pool can hold workers again.
                self.health.success()
                result = msg[1]
                if result.failure is not None:
                    result.failure.retries = job.retries
                self._done.append((job.ticket, result))
                self._outstanding -= 1

    def _lose(self, worker: _Worker, kill: bool, deliberate: bool,
              slow: bool = False) -> "_Job | None":
        """Reap a failed worker under the reap rule (``slow``: killed at
        its hard deadline); returns the job it held, if any."""
        job, worker.job = worker.job, None
        if deliberate:  # a containment SIGKILL (hard or ack timeout)
            self.worker_kills += 1
        else:
            self.worker_deaths += 1
        worker.reap(self.health, kill, slow)
        self._discard(worker, kill)
        return job

    def _on_death(self, worker: _Worker, now: float) -> None:
        """The worker died on its own: mid-query is a crash for that
        query, before the ack is transient."""
        job = self._lose(worker, kill=False, deliberate=False)
        if job is None:
            return
        if job.acked_at is not None:
            self._fail(
                job,
                "crash",
                f"worker died mid-query (exit code {self._last_exit})",
                query_time=now - job.acked_at,
            )
        else:
            self._requeue(job)

    def _check_timeouts(self, worker: _Worker, now: float) -> None:
        job = worker.job
        if job is not None and job.acked_at is not None:
            if job.hard is not None and now - job.acked_at >= job.hard:
                self._lose(worker, kill=True, deliberate=True, slow=True)
                elapsed = now - job.sent_at
                self._fail(
                    job,
                    "oot",
                    f"hard timeout: worker SIGKILLed after {elapsed:.2f}s "
                    f"(limit {job.time_limit}s)",
                    query_time=job.time_limit,
                )
            return
        if not worker.ready:
            if now - worker.spawned_at >= self.startup_timeout:
                self._lose(worker, kill=True, deliberate=False)
                if job is not None:
                    self._requeue(job)
            return
        if job is not None:
            # The ack clock starts when the worker can first see the
            # request: the later of send time and the ready handshake.
            since = max(job.sent_at, worker.ready_at or job.sent_at)
            if now - since >= self.ack_timeout:
                self._lose(worker, kill=True, deliberate=True)
                self._requeue(job)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop all workers; the next job sees fresh (pipeline, db) state."""
        self._require_idle("invalidate the pool")
        self._scrap_all()

    def close(self) -> None:
        # Whatever is still in flight is abandoned with its worker.
        self._pending.clear()
        self._done.clear()
        self._outstanding = 0
        for w in self._workers:
            w.send(("stop",))
        # Grace period: let workers read the stop message and exit on
        # their own (exit code 0) before the scrap falls back to kill.
        deadline = time.perf_counter() + 5.0
        for w in self._workers:
            w.proc.join(timeout=max(0.0, deadline - time.perf_counter()))
        self._scrap_all()

