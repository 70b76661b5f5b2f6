"""The one worker-process primitive every supervisor is built on.

The cooperative :class:`~repro.utils.timing.Deadline` only stops code that
polls it, and Python cannot pre-empt a hot loop in its own process, so
containment here always means *a killable child on a duplex pipe*.  This
module is the only place in ``src/`` that creates one (a test walks the
tree to keep it that way): :class:`WorkerProcess` with its reap rule
(:meth:`WorkerProcess.reap`), the :class:`Health` that throttles a
failing domain, the :func:`hard_deadline` rule, and the query pool's
child loop, :func:`query_worker_main`.

:class:`~repro.exec.parallel.ParallelExecutor` multiplexes ``jobs`` of
these in one event loop behind one :class:`Health`; :class:`~repro.shard.
host.ShardProcessHost` keeps one per shard behind a lock, an op protocol
and that shard's :class:`Health`.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import threading
import time

from repro.core.metrics import QueryFailure
from repro.exec import faults
from repro.exec.base import classify_exception, failure_result
from repro.utils.timing import Deadline

__all__ = [
    "DEAD",
    "TIMEOUT",
    "Health",
    "WorkerProcess",
    "hard_deadline",
    "preferred_context",
    "query_worker_main",
]

#: ``WorkerProcess.recv`` outcomes that are not messages.
DEAD = object()
TIMEOUT = object()

#: A child working under ``time_limit`` is SIGKILLed after
#: ``time_limit * HARD_TIMEOUT_FACTOR + HARD_TIMEOUT_GRACE`` seconds: the
#: slack lets the cooperative deadline fire (and the reply cross the pipe)
#: first, so the kill only lands on code that stopped polling it.
HARD_TIMEOUT_FACTOR = 1.5
HARD_TIMEOUT_GRACE = 0.25


def hard_deadline(
    time_limit: float | None,
    factor: float = HARD_TIMEOUT_FACTOR,
    grace: float = HARD_TIMEOUT_GRACE,
) -> float | None:
    """Seconds to wait on work limited to ``time_limit`` before killing
    the worker; ``None`` (no limit, wait forever) when there is none."""
    return None if time_limit is None else time_limit * factor + grace


def preferred_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available: the child shares the parent's database
    and built index copy-on-write instead of unpickling them."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class WorkerProcess:
    """A child process on a duplex pipe.

    ``target`` is called in the child as ``target(conn, *args)``.  The
    object outlives its process: after :meth:`scrap`, ``proc`` and
    ``conn`` are ``None`` while ``pid`` and ``exitcode`` stay readable.
    """

    __slots__ = ("proc", "conn", "pid", "exitcode")

    def __init__(self, ctx, target, args: tuple, name: str | None = None) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=target, args=(child_conn, *args), daemon=True, name=name
        )
        self.proc.start()
        child_conn.close()
        self.pid: int | None = self.proc.pid
        self.exitcode: int | None = None

    @property
    def alive(self) -> bool:
        proc = self.proc  # one read: a stats thread may race a scrap
        return proc is not None and proc.is_alive()

    def send(self, message) -> bool:
        """Write one message; ``False`` when the pipe is gone (the child
        died or was scrapped) — the caller's cue to treat it as dead."""
        if self.conn is None:
            return False
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            return False
        return True

    def recv(self, timeout: float | None):
        """One message, or :data:`DEAD` / :data:`TIMEOUT`.

        Polls in 50 ms steps so a child that dies without closing its end
        cleanly is still noticed.  A message written just before death
        (a result sent as the process exited) is drained first: ``DEAD``
        is only returned once the pipe is empty.  ``timeout=None`` waits
        as long as the child lives; ``0`` is one poll step.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            try:
                if self.conn.poll(0.05):
                    return self.conn.recv()
            except (EOFError, OSError):
                return DEAD
            if not self.alive:
                try:
                    if self.conn.poll(0):
                        return self.conn.recv()
                except (EOFError, OSError):
                    pass
                return DEAD
            if deadline is not None and time.perf_counter() >= deadline:
                return TIMEOUT

    def reap(self, health: "Health", kill: bool, slow: bool = False) -> None:
        """The reap rule of both supervisors: scrap a lost worker and
        count it once.  One killed at its hard deadline (``slow``) ran its
        work: a success.  Any other loss — a start-up death, an ack
        timeout, a death before, during or between requests — a failure."""
        self.scrap(kill=kill)
        if slow:
            health.success()
        else:
            health.failure()

    def scrap(self, kill: bool = False) -> None:
        """Reap the child and close both handles (idempotent).

        ``kill=True`` SIGKILLs a child that is still alive; otherwise it
        is given 5 s to finish exiting on its own.  Either way the exit
        code is recorded (``-9`` after a kill).
        """
        proc, conn = self.proc, self.conn
        self.proc = self.conn = None
        if proc is not None:
            if kill and proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
            self.exitcode = proc.exitcode
            proc.close()
        if conn is not None:
            conn.close()


class Health:
    """When to stop trying one failing worker domain for a while.

    One instance per domain (a query pool, a shard), fed by that
    domain's owner: :meth:`failure` for every worker lost, :meth:`success`
    for every answer.  It holds three things, all on ``time.monotonic``:

    * ``failures`` — consecutive failures since the last success;
    * ``backoff_until`` — the n-th consecutive failure holds the next
      respawn back by ``min(base * 2**min(n - 1, 6), cap)`` seconds
      (:meth:`ready`);
    * ``open_until`` — ``threshold`` consecutive failures open the
      breaker for ``cooldown`` seconds (and never less than the backoff);
      after that :meth:`allow` grants one half-open probe per cooldown,
      whose success closes it and whose failure opens it again.  A
      ``threshold`` of 0 never opens.

    Thread-safe: owners feed it while ``stats`` snapshots it.
    """

    def __init__(self, threshold: int = 0, cooldown: float = 1.0,
                 base: float = 0.05, cap: float = 2.0) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if cooldown <= 0:
            raise ValueError("cooldown must be positive")
        self.threshold = threshold
        self.cooldown = cooldown
        self.base = base
        self.cap = cap
        self._lock = threading.Lock()
        self.failures = 0
        self.backoff_until = 0.0
        self.open_until = 0.0
        self.state = "closed"
        #: While half-open, no second probe before this time.
        self._probe_until = 0.0
        self.transitions: collections.Counter[str] = collections.Counter()

    def _transition(self, state: str) -> None:
        self.transitions[f"{self.state}->{state}"] += 1
        self.state = state

    def failure(self) -> float:
        """Count one failure; returns the backoff it imposed."""
        with self._lock:
            now = time.monotonic()
            self.failures += 1
            delay = min(self.base * 2 ** min(self.failures - 1, 6), self.cap)
            self.backoff_until = now + delay
            if self.state == "half_open" or (
                self.state == "closed" and self.threshold
                and self.failures >= self.threshold
            ):
                self._transition("open")
            if self.state == "open":
                self.open_until = max(now + self.cooldown, self.backoff_until)
            return delay

    def success(self) -> None:
        with self._lock:
            self.failures = 0
            self.backoff_until = 0.0
            if self.state != "closed":
                self._transition("closed")

    def ready(self) -> bool:
        """Whether the backoff of the last failure has run out."""
        return time.monotonic() >= self.backoff_until

    def allow(self) -> bool:
        """Whether the breaker lets one more attempt start now.

        Closed: always.  Open: not until the cooldown has run out; then
        it turns half-open and grants the probe.  Half-open: one probe
        per cooldown, until an outcome closes or reopens it.
        """
        with self._lock:
            if self.state == "closed":
                return True
            now = time.monotonic()
            if self.state == "open":
                if now < self.open_until:
                    return False
                self._transition("half_open")
            elif now < self._probe_until:
                return False
            self._probe_until = now + self.cooldown
            return True

    def retry_after(self) -> float:
        """Seconds until :meth:`allow` could grant again: the rest of the
        cooldown while open, of the probe's window while half-open."""
        with self._lock:
            if self.state == "closed":
                return 0.0
            until = self.open_until if self.state == "open" else self._probe_until
            return max(0.0, until - time.monotonic())

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "enabled": bool(self.threshold),
                "state": self.state,
                "threshold": self.threshold,
                "cooldown_s": self.cooldown,
                "consecutive_failures": self.failures,
                "transitions": dict(self.transitions),
            }


# ----------------------------------------------------------------------
# The query pool's child
# ----------------------------------------------------------------------


def _apply_memory_limit(limit_bytes: int) -> None:
    """Cap the worker's address space; best effort on exotic platforms."""
    try:
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
    except (ImportError, ValueError, OSError):
        pass


def _shed_memory() -> None:
    """Free what we can after a MemoryError so reporting it can succeed."""
    import gc

    faults._ballast.clear()
    gc.collect()


def query_worker_main(conn, pipeline, db, memory_limit_bytes, fault_specs) -> None:
    faults.clear()
    faults.install(*fault_specs)
    if memory_limit_bytes:
        _apply_memory_limit(memory_limit_bytes)
    try:
        faults.trip("worker:start", tag=pipeline.name)
        conn.send(("ready", None))
    except BaseException:
        os._exit(1)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        # The compiled plan travels with the query: workers never
        # recompile what the engine's plan cache already produced.
        _, query, time_limit, plan = msg
        try:
            conn.send(("ack", None))
        except (BrokenPipeError, OSError):
            break
        try:
            # Chaos hook: a fault here models the worker failing while it
            # owns a dispatched query — crash mid-batch, hang, slow reply.
            faults.trip("worker.query", tag=query.name or "")
            result = pipeline.execute(
                query, db, deadline=Deadline(time_limit), plan=plan
            )
        except MemoryError:
            _shed_memory()
            result = failure_result(
                pipeline.name,
                query.name,
                QueryFailure(kind="oom", message="MemoryError under worker RSS cap"),
            )
        except Exception as exc:
            result = failure_result(pipeline.name, query.name, classify_exception(exc))
        # Which process answered: consumed by the service's per-request
        # metrics; harmless provenance everywhere else.
        result.metadata["worker_pid"] = os.getpid()
        try:
            conn.send(("result", result))
        except (BrokenPipeError, OSError):
            break
    conn.close()
