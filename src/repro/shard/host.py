"""The process-per-shard host: one long-lived subprocess per shard.

The threaded shard fleet (PR 9) runs every shard engine inside the
router's process, so CPU-bound matching gains almost nothing from adding
shards — the GIL serialises the per-shard work.  This module moves each
shard into its own persistent worker process, built on the same
:class:`~repro.exec.worker.WorkerProcess` primitive as the query pool in
``repro.exec`` (a killable child on a duplex pipe, ack-before-work
dispatch, drain-after-death receive, a hard deadline on limited work,
respawn behind a :class:`~repro.exec.worker.Health`) but at
*shard* granularity: the child owns the whole shard —
its pipeline, its index, its ``IndexStore`` subdirectory, and its
write-ahead mutation log — and the parent keeps only a lightweight
mirror of the shard's database for routing, rebalancing, and pruning.

Protocol (parent -> child, child -> parent)::

    spawn args: (conn, index, partition db, pipeline, store dir, ...)
    <- ("ready", info)                 # after in-child build/WAL recovery
    -> ("query", queries, time_limit)
    <- ("ack", None)                   # the worker owns the batch now
    <- ("results", [QueryResult, ...]) # or ("error", exception)
    -> ("add", gid, graph, request_key)    <- ("ok", None)
    -> ("remove", gid, request_key)        <- ("ok", removed Graph)
    -> ("compact", None)                   <- ("ok", summary dict)
    -> ("stop", None)

The ``ready`` info ships the child's *recovered* database contents plus
the engine's post-build attributes (``wal_recovery``, ``index_source``,
``degraded``, recovered request keys), so the parent can reconcile its
mirror with whatever WAL replay produced inside the child.  WAL ownership
is strictly in-child: the parent never opens a shard's store in process
mode, so there is exactly one journal writer per directory.

Crash semantics: a worker that dies mid-batch fails that batch — the
router flags the merged results partial, exactly like a downed thread
shard — and the next dispatch respawns the worker from its frozen base
partition (store mode: WAL recovery replays every acknowledged mutation,
so the respawned shard answers bit-identically) or from the parent's
current mirror (storeless mode).  The shard's
:class:`~repro.exec.worker.Health` — the same object the router reads
to report the shard down — counts every worker lost under the reap rule
the query pool uses (:meth:`~repro.exec.worker.WorkerProcess.reap`)
and every reply as a success.  One gate admits queries and mutations
alike: nothing while it is open (the first after the cooldown is the
half-open probe), no respawn while it backs off.  A refusal raises
:class:`ShardWorkerError` with ``retry_after``, unsent and uncounted.

Hang semantics: a *query* exchange that carries a ``time_limit`` waits
for its reply at most :func:`~repro.exec.worker.hard_deadline` of the
batch's budget (``time_limit`` per query — the same factor and grace the
query pool kills at); past that the worker has stopped polling its
deadline, so it is SIGKILLed and the exchange fails like a crash — the
router flags the batch partial instead of the whole scatter-gather (and
every mutation queued on that shard's lock) hanging with it.
``time_limit=None`` waits as long as the worker lives, exactly as the
pool does.  Mutation and compaction exchanges are never bounded: they
carry no budget to derive a deadline from, and killing a worker
mid-journal-append would turn a slow disk into a lost shard.

Fault sites: ``shard.worker:start`` fires in the child before ``ready``
(startup-failure tests) and ``shard.worker.query`` fires per dispatched
batch (tag ``shard-<i>``) — a ``crash`` there is the deterministic
"shard process dies mid-batch" used by the property tests and the CI
smoke (with a ``latch`` file so the respawned worker survives).
"""

from __future__ import annotations

import os
import threading
import time
from typing import TYPE_CHECKING, Callable

from repro.exec import faults
from repro.exec.worker import (
    DEAD,
    TIMEOUT,
    Health,
    WorkerProcess,
    hard_deadline,
    preferred_context,
)

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.metrics import QueryResult
    from repro.core.pipeline import QueryPipeline
    from repro.graph.database import GraphDatabase
    from repro.graph.labeled_graph import Graph

__all__ = ["ShardProcessHost", "ShardWorkerError"]


class ShardWorkerError(RuntimeError):
    """A shard's worker process is unavailable (died or cannot start);
    ``retry_after`` is set when the exchange was refused unsent."""

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


# ----------------------------------------------------------------------
# The child
# ----------------------------------------------------------------------


def _shard_worker_main(
    conn,
    index: int,
    db: "GraphDatabase",
    pipeline: "QueryPipeline",
    store_dir,
    plan_capacity: int,
    cache_capacity: int,
    fault_specs,
) -> None:
    faults.clear()
    faults.install(*fault_specs)
    from repro.core.engine import SubgraphQueryEngine

    tag = f"shard-{index}"
    try:
        faults.trip("shard.worker:start", tag=tag)
        engine = SubgraphQueryEngine(
            db, pipeline, cache=cache_capacity, plan_cache=plan_capacity
        )
        store = None
        if store_dir is not None:
            from repro.store import IndexStore

            store = IndexStore(store_dir)
        engine.build_index(store=store)

        def wal_state() -> dict:
            # Mirrored parent-side so the service's journal-depth
            # compaction trigger keeps working with no store open there.
            if store is None:
                return {"wal_depth": 0, "wal_last_seq": 0}
            return {
                "wal_depth": store.wal.depth,
                "wal_last_seq": store.wal.last_seq,
            }

        conn.send((
            "ready",
            {
                "pid": os.getpid(),
                "graphs": list(engine.db.items()),
                "next_id": engine.db.next_id,
                **wal_state(),
                "indexing_time": engine.indexing_time,
                "degraded": engine.degraded,
                "degraded_reason": engine.degraded_reason,
                "index_source": engine.index_source,
                "store_recovery": engine.store_recovery,
                "store_save_error": engine.store_save_error,
                "wal_recovery": engine.wal_recovery,
                "recovered_request_keys": engine.recovered_request_keys,
            },
        ))
    except BaseException:
        os._exit(1)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        op = msg[0]
        if op == "stop":
            break
        try:
            if op == "query":
                _, queries, time_limit = msg
                conn.send(("ack", None))
                # Chaos hook: a fault here models the shard process
                # failing while it owns a dispatched batch.
                faults.trip("shard.worker.query", tag=tag)
                results = engine.query_many(queries, time_limit=time_limit)
                for result in results:
                    result.metadata["shard_worker_pid"] = os.getpid()
                reply = ("results", results)
            elif op == "add":
                _, gid, graph, request_key = msg
                engine.add_graph_with_id(gid, graph, request_key=request_key)
                reply = ("ok", wal_state())
            elif op == "remove":
                _, gid, request_key = msg
                removed = engine.remove_graph(gid, request_key=request_key)
                reply = ("ok", {"graph": removed, **wal_state()})
            elif op == "compact":
                compacted = engine.compact_store()
                reply = ("ok", {"result": compacted, **wal_state()})
            else:  # pragma: no cover - protocol mismatch
                reply = ("error", RuntimeError(f"unknown op {op!r}"))
        except Exception as exc:
            reply = ("error", exc)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# ----------------------------------------------------------------------
# The parent
# ----------------------------------------------------------------------


class _Worker:
    """Parent-side record of one shard: it outlives the processes that
    serve it (``process`` is replaced on every respawn)."""

    __slots__ = (
        "index", "process", "lock", "store_dir", "db_supplier", "on_ready",
        "spawns", "restarts", "health",
    )

    def __init__(
        self,
        index: int,
        store_dir,
        db_supplier: "Callable[[], GraphDatabase]",
        on_ready: "Callable[[dict], None] | None",
        health: Health,
    ) -> None:
        self.index = index
        self.process: WorkerProcess | None = None
        #: Serialises whole request/response exchanges: the router's
        #: fan-out thread and a concurrent mutation must not interleave
        #: messages on one pipe.
        self.lock = threading.Lock()
        self.store_dir = store_dir
        self.db_supplier = db_supplier
        self.on_ready = on_ready
        self.spawns = 0
        self.restarts = 0
        #: The shard's Health: every worker lost is a failure, every
        #: reply a success, and its backoff holds the next respawn back.
        self.health = health


class ShardProcessHost:
    """Spawns, supervises, and talks to one worker process per shard.

    The owning :class:`~repro.shard.engine.ShardedEngine` registers each
    shard with a *database supplier* (what to ship a fresh worker: the
    frozen base partition when a store is attached — WAL recovery
    replays mutations on top — or the live mirror when storeless) and an
    ``on_ready`` callback that reconciles the parent mirror from the
    child's recovered state.  Every exchange is crash-contained: a dead
    worker raises :class:`ShardWorkerError` (the router degrades that
    shard, nothing else), and the next exchange respawns it once the
    shard's :class:`~repro.exec.worker.Health` backoff has run out.
    """

    def __init__(
        self,
        pipeline_factory: "Callable[[], QueryPipeline]",
        *,
        plan_cache: int = 256,
        cache: int = 0,
        ready_timeout: float = 300.0,
        ack_timeout: float = 30.0,
    ) -> None:
        self._pipeline_factory = pipeline_factory
        self._plan_cache = plan_cache
        self._cache = cache
        self._ready_timeout = ready_timeout
        self._ack_timeout = ack_timeout
        self._ctx = preferred_context()
        self._workers: dict[int, _Worker] = {}

    # ------------------------------------------------------------------
    # Registration / lifecycle
    # ------------------------------------------------------------------

    def register(
        self,
        index: int,
        *,
        db_supplier: "Callable[[], GraphDatabase]",
        store_dir=None,
        on_ready: "Callable[[dict], None] | None" = None,
        health: Health,
    ) -> dict:
        """Adopt shard ``index`` and spawn its worker; returns ready info.

        Startup failures here are *not* contained: the fleet is being
        built, and a shard that cannot start is a configuration problem
        the caller must see.
        """
        worker = _Worker(index, store_dir, db_supplier, on_ready, health)
        self._workers[index] = worker
        return self._spawn(worker)

    def stop(self, index: int) -> None:
        """Gracefully stop and forget one shard's worker (shrink path)."""
        worker = self._workers.pop(index, None)
        if worker is None:
            return
        with worker.lock:
            if worker.process is not None:
                worker.process.send(("stop", None))
                worker.process.scrap(kill=True)

    def close(self) -> None:
        for index in list(self._workers):
            self.stop(index)

    # ------------------------------------------------------------------
    # Spawn / supervision internals
    # ------------------------------------------------------------------

    def _spawn(self, worker: _Worker) -> dict:
        worker.process = process = WorkerProcess(
            self._ctx,
            _shard_worker_main,
            (
                worker.index,
                worker.db_supplier(),
                self._pipeline_factory(),
                worker.store_dir,
                self._plan_cache,
                self._cache,
                faults.active_specs(),
            ),
            name=f"repro-shard-worker-{worker.index}",
        )
        worker.spawns += 1
        msg = process.recv(self._ready_timeout)
        if msg is DEAD or msg is TIMEOUT or msg[0] != "ready":
            raise self._lost(worker, "failed to start")
        info = msg[1]
        if worker.on_ready is not None:
            worker.on_ready(info)
        return info

    def _lost(
        self, worker: _Worker, what: str, slow: bool = False
    ) -> ShardWorkerError:
        """Reap a failed worker (``slow``: killed at its hard deadline);
        returns the error for the caller to raise."""
        worker.process.reap(worker.health, kill=True, slow=slow)
        return ShardWorkerError(
            f"shard {worker.index} worker {what} "
            f"(exit code {worker.process.exitcode})"
        )

    def _ensure(self, worker: _Worker) -> WorkerProcess:
        """The one gate of every exchange: a live worker, respawned if
        needed; raises on a refusal or a failed respawn."""
        process, health = worker.process, worker.health
        if process.proc is not None and not process.alive:
            process.reap(health, kill=False)  # an idle death
            # It took no exchange with it: unless it opened the shard,
            # wait its backoff (at most ``health.cap``) out here, as the
            # pool does in ``collect``, instead of refusing this exchange.
            if health.allow():
                time.sleep(max(0.0, health.backoff_until - time.monotonic()))
        # Backoff first: a refusal must not use up the half-open probe.
        if not ((process.alive or health.ready()) and health.allow()):
            raise ShardWorkerError(
                f"shard {worker.index} refused: health {health.state} "
                f"(consecutive failures: {health.failures})",
                retry_after=max(
                    health.retry_after(),
                    health.backoff_until - time.monotonic(),
                ),
            )
        if not process.alive:
            worker.restarts += 1
            self._spawn(worker)  # raises ShardWorkerError on startup failure
        return worker.process

    def _exchange(
        self, index: int, message: tuple, *,
        expect_ack: bool = False, reply_timeout: float | None = None,
    ):
        """Send one request and return its reply payload, crash-contained.

        Raises :class:`ShardWorkerError` when the worker is (or becomes)
        unavailable — dead, or silent past ``reply_timeout`` and killed
        for it; re-raises the child's own exception when the reply is
        ``("error", exc)`` — a *logical* failure from a live worker,
        which therefore resets the supervision counters.
        """
        worker = self._workers.get(index)
        if worker is None:
            raise ShardWorkerError(f"shard {index} is not registered with this host")
        with worker.lock:
            process = self._ensure(worker)
            if not process.send(message):
                raise self._lost(worker, "pipe broke on send")
            if expect_ack:
                ack = process.recv(self._ack_timeout)
                if ack is DEAD or ack is TIMEOUT:
                    raise self._lost(worker, "died before acknowledging the batch")
            reply = process.recv(reply_timeout)
            if reply is DEAD:
                raise self._lost(worker, "died mid-request")
            if reply is TIMEOUT:
                raise self._lost(
                    worker,
                    f"hung past its hard deadline ({reply_timeout:.2f}s)",
                    slow=True,
                )
            kind, payload = reply
            worker.health.success()
            if kind == "error":
                raise payload
            return payload

    # ------------------------------------------------------------------
    # The shard operations
    # ------------------------------------------------------------------

    def query_many(
        self, index: int, queries: "list[Graph]", time_limit: float | None
    ) -> "list[QueryResult]":
        # The child runs the batch serially, each query under its own
        # ``time_limit``, so the batch's budget is their sum.
        budget = None if time_limit is None else time_limit * len(queries)
        return self._exchange(
            index, ("query", queries, time_limit),
            expect_ack=True, reply_timeout=hard_deadline(budget),
        )

    def add_graph(
        self, index: int, gid: int, graph: "Graph",
        request_key: str | None = None,
    ) -> dict:
        """Returns the worker's post-mutation WAL state dict."""
        return self._exchange(index, ("add", gid, graph, request_key))

    def remove_graph(
        self, index: int, gid: int, request_key: str | None = None
    ) -> dict:
        """Returns ``{"graph": removed, "wal_depth": ..., "wal_last_seq": ...}``."""
        return self._exchange(index, ("remove", gid, request_key))

    def compact(self, index: int) -> dict:
        """Returns ``{"result": compaction summary, "wal_depth": ..., ...}``."""
        return self._exchange(index, ("compact", None))

    # ------------------------------------------------------------------
    # Liveness reporting
    # ------------------------------------------------------------------

    def worker_row(self, index: int) -> dict:
        """Liveness row for ``stats``: pid / alive / spawns / restarts."""
        worker = self._workers.get(index)
        if worker is None or worker.process is None:
            return {"pid": None, "alive": False, "spawns": 0, "restarts": 0}
        return {
            "pid": worker.process.pid,
            "alive": worker.process.alive,
            "spawns": worker.spawns,
            "restarts": worker.restarts,
        }
