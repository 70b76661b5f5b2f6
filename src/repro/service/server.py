"""The long-running subgraph query service.

A :class:`QueryService` owns one warm :class:`~repro.core.engine.
SubgraphQueryEngine` — database loaded once, index built or warm-started
once — and serves queries over the NDJSON protocol of
:mod:`repro.service.protocol` for as long as the process lives.  The
pieces, in the order a request meets them:

* **admission control** — a bounded request queue.  A request that does
  not fit is rejected *immediately* with a structured ``overloaded``
  error; the service never builds an unbounded backlog and never answers
  load with silence.
* **scheduler** — one scheduler thread admits requests in arrival order,
  keeps at most ``batch_max`` of them in flight on the engine's stream
  (``engine.submit`` / ``engine.collect`` — the PR 2 :class:`~repro.exec.
  parallel.ParallelExecutor` underneath when the service runs with
  ``jobs > 1``, inheriting its per-query OOT/OOM/crash containment) and
  answers each one when *it* completes: a slow query holds up neither the
  finished answers beside it nor the admission of the requests behind it.
  Each request carries its own time limit.  A mutation or admin verb is
  a barrier: admission stops, everything in flight is collected, the verb
  is applied, admission resumes.  The scheduler is the *only* thread
  that touches the engine, so the core stays single-threaded.
* **result cache** — an LRU of exact-match answers keyed by
  :func:`~repro.service.protocol.graph_key`.  A repeat of a recently
  answered query skips dispatch entirely and is stamped ``cache: "hit"``;
  a repeat of a query still in flight waits for that one dispatch.
  Database mutations (``add_graph``/``remove_graph``) invalidate exactly
  the entries they can affect — an insertion drops entries whose query
  labels the new graph covers, a removal drops entries whose cached
  answers named the removed graph — and also reach the engine-level
  containment cache and worker pool through the engine's own hooks.
* **durable mutations** — when the engine carries an
  :class:`~repro.store.IndexStore`, every mutation is journaled in the
  store's write-ahead log *before* it is applied or acknowledged, so a
  ``kill -9`` at any instant loses at most the unacknowledged request in
  flight.  The ``compact`` admin verb (and the ``wal_compact_threshold``
  auto-trigger) folds the journal into fresh snapshots; ``stats`` reports
  journal depth and warm-start replay counters under ``store``.
* **resilience layer** — per-request ``deadline_ms`` budgets propagate
  end to end (expired-in-queue requests are shed with a structured
  ``oot``; dispatched ones get their kernel budget clipped); while the
  engine's pool :class:`~repro.exec.worker.Health` is open (consecutive
  worker failures; ``serve`` arms it with ``--breaker-threshold``) cache
  misses are rejected fast with ``degraded`` + retry-after, except the
  one admitted as its half-open probe, until that probe answers;
  mutations carrying a client ``request_key`` are deduplicated across
  retries.  An engine with no pool — in-process, or sharded, which skips
  its down shards itself — never answers a query ``degraded``; a
  mutation its owning shard refused unsent (that shard's Health open or
  backing off) is answered ``degraded`` with that Health's retry-after.
* **graceful drain** — SIGTERM/SIGINT (or the ``shutdown`` verb) stop
  admission, finish every queued and in-flight request, then exit.  A
  kill mid-flight loses nothing already answered: responses are written
  as each request completes.
* **metrics** — per-request records (queue wait, execution time, cache
  outcome, worker pid, batch size) are returned with every response and
  aggregated into :class:`~repro.utils.timing.LatencyHistogram`
  s surfaced by the ``stats`` verb.
"""

from __future__ import annotations

import collections
import os
import queue
import signal
import socket
import threading
import time
from dataclasses import dataclass

from repro.core.engine import SubgraphQueryEngine
from repro.exec import faults
from repro.service import protocol
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_message,
    error_response,
    graph_from_wire,
    graph_key,
)
from repro.exec.worker import Health
from repro.service.resilience import MutationDedup
from repro.utils.timing import LatencyHistogram

__all__ = ["QueryService", "ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of one service instance."""

    #: Bounded request-queue depth; the admission-control limit.  A
    #: request arriving when ``capacity`` requests are already queued is
    #: rejected with ``overloaded``.
    capacity: int = 64
    #: Most requests in flight on the engine at once.
    batch_max: int = 8
    #: Exact-match result-cache entries (0 disables the cache).
    cache_capacity: int = 128
    #: Per-query time budget when the request does not set one.
    default_time_limit: float | None = 600.0
    #: Mutation ``request_key`` dedup-window entries (0 disables dedup).
    dedup_capacity: int = 512
    #: Auto-compaction trigger: when the attached store's write-ahead log
    #: holds at least this many records after a mutation, the scheduler
    #: folds it into fresh snapshots (0 disables; the ``compact`` verb
    #: always works).  Compaction failures are counted, never fatal.
    wal_compact_threshold: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if self.batch_max < 1:
            raise ValueError("batch_max must be at least 1")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be non-negative")
        if self.dedup_capacity < 0:
            raise ValueError("dedup_capacity must be non-negative")
        if self.wal_compact_threshold < 0:
            raise ValueError("wal_compact_threshold must be non-negative")


class _Request:
    """One admitted operation waiting for the scheduler."""

    __slots__ = (
        "op", "request_id", "graph", "key", "time_limit", "no_cache",
        "payload", "respond", "enqueued_at", "deadline_at", "request_key",
        "handed_at", "batch_size", "followers",
    )

    def __init__(self, op, request_id, respond, *, graph=None, key=None,
                 time_limit=None, no_cache=False, payload=None,
                 deadline_ms=None, request_key=None) -> None:
        self.op = op
        self.request_id = request_id
        self.respond = respond
        self.graph = graph
        self.key = key
        self.time_limit = time_limit
        self.no_cache = no_cache
        self.payload = payload
        self.request_key = request_key
        self.enqueued_at = time.perf_counter()
        #: Absolute perf_counter moment the client's end-to-end budget
        #: expires; the clock starts at admission.
        self.deadline_at = (
            None if deadline_ms is None else self.enqueued_at + deadline_ms / 1000.0
        )
        #: Set when the scheduler hands the request over: the moment, and
        #: how many requests were in flight then, this one included.
        self.handed_at = 0.0
        self.batch_size = 0
        #: Identical cacheable requests admitted while this one was in
        #: flight; they are answered from its one dispatch.
        self.followers: tuple[_Request, ...] = ()


class _ResultCache:
    """LRU of finished query payloads, exact-match keyed.

    Each entry remembers its query's label set and its answer ids so
    mutations invalidate precisely instead of flushing everything: an
    insertion can only change the answers of queries whose labels the new
    graph covers, and a removal only affects entries whose cached answers
    named the removed graph (removal never adds answers).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.entries_dropped = 0
        self._entries: collections.OrderedDict[
            str, tuple[dict, frozenset[int]]
        ] = collections.OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str) -> dict | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def admit(self, key: str, payload: dict, labels: frozenset[int]) -> None:
        self._entries[key] = (payload, labels)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def _drop(self, stale: list[str]) -> int:
        for key in stale:
            del self._entries[key]
        if stale:
            self.invalidations += 1
            self.entries_dropped += len(stale)
        return len(stale)

    def invalidate_added(self, graph_labels: frozenset[int]) -> int:
        """Drop entries the inserted graph could answer; returns the count."""
        return self._drop([
            key
            for key, (_, labels) in self._entries.items()
            if labels <= graph_labels
        ])

    def invalidate_removed(self, gid: int) -> int:
        """Drop entries whose cached answers include ``gid``."""
        return self._drop([
            key
            for key, (payload, _) in self._entries.items()
            if gid in payload.get("answers", ())
        ])

    def invalidate(self) -> None:
        """Unscoped full flush (admin/diagnostic; mutations use the
        scoped variants above)."""
        self.entries_dropped += len(self._entries)
        self._entries.clear()
        self.invalidations += 1


class QueryService:
    """Serves one engine over the NDJSON protocol (see module docs).

    The service separates mechanism from transport: :meth:`submit` /
    :meth:`run_scheduler` implement admission, batching, caching and
    drain against plain callables, and :meth:`serve` wires them to a
    listening socket.  Tests may drive :meth:`submit` directly.
    """

    def __init__(
        self,
        engine: SubgraphQueryEngine,
        config: ServiceConfig | None = None,
    ) -> None:
        self.engine = engine
        self.config = config or ServiceConfig()
        self.cache = _ResultCache(self.config.cache_capacity)
        #: The engine's pool Health (``None``: no pool, never degraded).
        self.health = engine.executor.health
        self.dedup = MutationDedup(self.config.dedup_capacity)
        # Persist the dedup window across restarts: every request_key the
        # write-ahead log journaled with a recovered mutation is seeded
        # back, so a client retrying a mutation whose ack a crash
        # swallowed (wal.crash_before_ack) gets an idempotent replay
        # instead of a double-apply.  Compaction bounds the window — a
        # folded journal no longer carries its keys.
        self.dedup_seeded = 0
        if self.dedup.capacity:
            for key, op, gid in getattr(engine, "recovered_request_keys", ()):
                self.dedup.store(key, {
                    "ok": True,
                    "result": {
                        "gid": gid,
                        "num_graphs": len(engine.db),
                        "op": "add_graph" if op == "add" else "remove_graph",
                        "recovered": True,
                    },
                })
                self.dedup_seeded += 1
        self._queue: queue.Queue[_Request] = queue.Queue(maxsize=self.config.capacity)
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._started_at = time.monotonic()
        self._lock = threading.Lock()  # counters + histograms
        self._counters = collections.Counter()
        self._hist_queue_wait = LatencyHistogram()
        self._hist_execution = LatencyHistogram()
        self._hist_total = LatencyHistogram()
        self._batch_count = 0
        self._batch_request_total = 0
        self._batch_max_seen = 0
        # Flight state, owned by the scheduler thread (``_enqueue`` only
        # reads ``_in_flight``).
        #: Engine ticket -> the request it is computing.
        self._flights: dict[int, _Request] = {}
        #: Result-cache key -> the cacheable request in flight for it.
        self._leaders: dict[str, _Request] = {}
        #: Requests handed over and not yet answered, followers included.
        self._in_flight = 0
        #: A mutation or admin verb waiting for the flight to land.
        self._barrier: _Request | None = None
        #: Wakes the scheduler out of ``engine.collect`` when a request
        #: arrives while others are in flight.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._listener: socket.socket | None = None
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._exit_signal: int | None = None

    # ------------------------------------------------------------------
    # Admission (any thread)
    # ------------------------------------------------------------------

    def submit(self, message: dict, respond) -> None:
        """Admit one decoded request; ``respond(dict)`` delivers the answer.

        Never raises for a bad request and never blocks on a full queue —
        every outcome is a response, delivered either immediately
        (``ping``/``stats``/rejections) or later by the scheduler thread.
        """
        request_id = message.get("id")
        op = message.get("op")
        self._count("received")
        try:
            if op == "ping":
                respond({"id": request_id, "ok": True,
                         "result": {"protocol": PROTOCOL_VERSION, "pid": os.getpid()}})
                return
            if op == "stats":
                respond({"id": request_id, "ok": True, "result": self.stats()})
                return
            if op == "shutdown":
                # Acknowledge first: the drain closes this connection.
                respond({"id": request_id, "ok": True, "result": {"draining": True}})
                self.request_shutdown()
                return
            if op == "query":
                self._admit_query(message, request_id, respond)
                return
            if op in ("add_graph", "remove_graph"):
                self._admit_mutation(op, message, request_id, respond)
                return
            if op == "compact":
                # Admin verb: routed through the queue so it runs on the
                # scheduler thread (the only engine owner), after every
                # earlier mutation it must fold.
                self._enqueue(_Request("compact", request_id, respond))
                return
            if op == "rebalance":
                # Shard admin verb (split/merge/heal); scheduler thread
                # for the same reason as compact.
                shards = message.get("shards")
                if shards is not None and (
                    not isinstance(shards, int) or isinstance(shards, bool)
                    or shards < 1
                ):
                    raise ProtocolError(
                        f"shards must be a positive integer, got {shards!r}"
                    )
                self._enqueue(_Request("rebalance", request_id, respond,
                                       payload=shards))
                return
            raise ProtocolError(f"unknown op {op!r}")
        except ProtocolError as exc:
            self._count("bad_requests")
            respond(error_response(request_id, exc.code, str(exc)))
        except Exception as exc:  # never let a request kill a connection
            self._count("internal_errors")
            respond(error_response(
                request_id, "internal", f"{type(exc).__name__}: {exc}"
            ))

    def _admit_query(self, message: dict, request_id, respond) -> None:
        graph = graph_from_wire(message.get("graph"))
        time_limit = message.get("time_limit", self.config.default_time_limit)
        if time_limit is not None and (
            not isinstance(time_limit, (int, float)) or isinstance(time_limit, bool)
            or time_limit <= 0
        ):
            raise ProtocolError(f"time_limit must be a positive number, got "
                                f"{time_limit!r}")
        deadline_ms = message.get("deadline_ms")
        if deadline_ms is not None and (
            not isinstance(deadline_ms, (int, float)) or isinstance(deadline_ms, bool)
            or deadline_ms <= 0
        ):
            raise ProtocolError(f"deadline_ms must be a positive number, got "
                                f"{deadline_ms!r}")
        request = _Request(
            "query", request_id, respond,
            graph=graph, key=graph_key(graph),
            time_limit=None if time_limit is None else float(time_limit),
            no_cache=bool(message.get("no_cache", False)),
            deadline_ms=None if deadline_ms is None else float(deadline_ms),
        )
        self._enqueue(request)

    def _admit_mutation(self, op: str, message: dict, request_id, respond) -> None:
        request_key = message.get("request_key")
        if request_key is not None and not isinstance(request_key, str):
            raise ProtocolError("request_key must be a string")
        if op == "add_graph":
            request = _Request(op, request_id, respond,
                               graph=graph_from_wire(message.get("graph")),
                               request_key=request_key)
        else:
            gid = message.get("gid")
            if not isinstance(gid, int) or isinstance(gid, bool):
                raise ProtocolError("remove_graph needs an integer 'gid'")
            request = _Request(op, request_id, respond, payload=gid,
                               request_key=request_key)
        self._enqueue(request)

    def _enqueue(self, request: _Request) -> None:
        if self._draining.is_set():
            self._count("rejected_shutting_down")
            request.respond(error_response(
                request.request_id, "shutting_down",
                "service is draining and accepts no new requests",
            ))
            return
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self._count("rejected_overloaded")
            request.respond(error_response(
                request.request_id, "overloaded",
                f"request queue is full ({self.config.capacity} pending); "
                "back off and retry",
            ))
            return
        # Put first, look second: the scheduler sets ``_in_flight`` and then
        # re-checks the queue before it blocks in collect, so one of the two
        # sees the other.  An idle scheduler sleeps in ``queue.get``.
        if self._in_flight:
            try:
                self._wake_w.send(b"\0")
            except OSError:
                pass  # a wake-up is already pending (or the drain is over)

    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self._counters[key] += n

    # ------------------------------------------------------------------
    # Scheduling (the one engine-owning thread)
    # ------------------------------------------------------------------

    def run_scheduler(self) -> None:
        """Serve the request queue until shutdown completes the drain.

        Runs in the caller's thread.  Returns only when the service is
        draining *and* every admitted request has been answered.
        """
        try:
            while self._turn(0.1) or not self._draining.is_set():
                pass
        finally:
            # Close the race between "queue looked empty" and a request
            # admitted in the same instant the drain began: nothing that
            # was accepted goes unanswered.
            while self._turn(0.0):
                pass
            self._drained.set()
            self._wake_r.close()
            self._wake_w.close()

    def _turn(self, wait: float) -> bool:
        """One turn of the scheduler loop: admit, then land or apply.

        (a) Admit from the queue while fewer than ``batch_max`` requests
        are in flight and no barrier is waiting — idle, that is a
        blocking ``get`` of up to ``wait`` seconds; (b) with requests in
        flight, block in ``engine.collect`` (on the worker pipes, plus the
        wake-up socket while more could be admitted) and answer whatever
        completed; with none, apply the waiting barrier.  Returns False
        when the service was idle for the whole of ``wait``.
        """
        wave: list[_Request] = []
        while (
            self._barrier is None
            and self._in_flight + len(wave) < self.config.batch_max
        ):
            try:
                if self._in_flight or wave:
                    request = self._queue.get_nowait()
                else:
                    request = self._queue.get(timeout=wait)
            except queue.Empty:
                break
            if request.op == "query":
                wave.append(request)
            else:
                # A mutation must observe every earlier answer and
                # invalidate before any later one: stop admitting here.
                self._barrier = request
        if wave:
            self._hand_over(wave)
        if self._flights:
            self._land()
        elif self._barrier is not None:
            request, self._barrier = self._barrier, None
            if request.op == "compact":
                self._apply_compact(request)
            elif request.op == "rebalance":
                self._apply_rebalance(request)
            else:
                self._apply_mutation(request)
        else:
            return bool(wave)
        return True

    def _hand_over(self, wave: list[_Request]) -> None:
        """Admit ``wave``: first answer what needs no engine (shed, cache
        hit) and attach repeats of an in-flight query to it — a hit never
        waits behind a miss — then submit the misses."""
        now = time.perf_counter()
        size = self._in_flight + len(wave)
        with self._lock:
            self._batch_count += 1
            self._batch_request_total += size
            self._batch_max_seen = max(self._batch_max_seen, size)
        misses: list[_Request] = []
        for request in wave:
            request.handed_at = now
            request.batch_size = size
            if request.deadline_at is not None and now >= request.deadline_at:
                # Deadline shedding: a request whose end-to-end budget
                # expired while it sat in the queue is answered *now* with
                # a structured ``oot`` — executing it would burn engine
                # time on an answer the client has already given up on.
                self._count("shed_deadline")
                self._finish(request, self._shed_payload(request, now), "shed")
                continue
            if self.cache.capacity and not request.no_cache:
                # An identical query already in flight computes for both:
                # this one is answered when that dispatch completes.
                leader = self._leaders.get(request.key)
                if leader is not None:
                    leader.followers += (request,)
                    self._in_flight += 1
                    continue
                cached = self.cache.lookup(request.key)
                if cached is not None:
                    self._finish(request, dict(cached), "hit")
                    continue
                self._leaders[request.key] = request
            misses.append(request)
        for request in misses:
            # While the pool's Health is open, requests the cache could
            # not answer are rejected fast with a retry-after hint instead
            # of feeding a pool that cannot currently hold workers.  The
            # first miss after the cooldown is admitted as its half-open
            # probe; while that runs, the rest back off again, rather than
            # fail with it as a terminal ``crash``.
            retry_after = self.health.retry_after() if self.health else 0.0
            if retry_after:
                for each in self._unlead(request):
                    self._count("rejected_degraded")
                    each.respond(error_response(
                        each.request_id, "degraded",
                        "worker pool open after consecutive worker "
                        "failures; back off and retry",
                        retry_after=retry_after,
                    ))
                continue
            time_limit = request.time_limit
            if request.deadline_at is not None:
                # The clip is this request's alone: every job carries its
                # own limit down to the kernel and the hard deadline.
                remaining = max(0.001, request.deadline_at - time.perf_counter())
                time_limit = (
                    remaining if time_limit is None else min(time_limit, remaining)
                )
            try:
                ticket = self.engine.submit(request.graph, time_limit)
            except Exception as exc:
                for each in self._unlead(request):
                    self._fail_internal(each, exc)
                continue
            self._flights[ticket] = request
            self._in_flight += 1

    def _unlead(self, request: _Request) -> tuple[_Request, ...]:
        """``request`` stops leading: returns it and the followers it
        gathered, none of which is in flight any more."""
        if self._leaders.get(request.key) is request:
            del self._leaders[request.key]
        self._in_flight -= len(request.followers)
        return (request, *request.followers)

    def _land(self) -> None:
        """Block until something in flight completes (or, while more
        could be admitted, a request arrives) and answer what completed."""
        listen = self._barrier is None and self._in_flight < self.config.batch_max
        # A request that arrived while the wave was handed over is admitted
        # before blocking; what has already finished is answered first.
        timeout = 0.0 if listen and not self._queue.empty() else None
        try:
            done = self.engine.collect(
                timeout, also=(self._wake_r,) if listen else ()
            )
        except Exception as exc:
            # The engine lost track of the flight: nothing in it will
            # ever complete, so everything in it is answered now.
            flights, self._flights = self._flights, {}
            for request in flights.values():
                self._in_flight -= 1
                for each in self._unlead(request):
                    self._fail_internal(each, exc)
            return
        if listen:
            try:
                self._wake_r.recv(4096)
            except OSError:
                pass  # nothing pending
        for ticket, result in done:
            self._complete(self._flights.pop(ticket), result)

    def _complete(self, request: _Request, result) -> None:
        """Answer one request the engine finished, and its followers."""
        # The pool's Health has already counted the worker behind a
        # crash; the service only tallies it.
        if result.failure is not None and result.failure.kind == "crash":
            self._count("worker_crashes")
        payload = self._result_payload(result)
        self._in_flight -= 1
        _, *followers = self._unlead(request)
        # A partial answer (a shard was down) must not be cached: it would
        # keep serving the degraded answer set after the shard recovers.
        if (
            self.cache.capacity and not request.no_cache
            and not result.failed and not result.metadata.get("partial")
        ):
            self.cache.admit(
                request.key, payload, frozenset(request.graph.label_set())
            )
        outcome = "bypass" if request.no_cache else (
            "miss" if self.cache.capacity else "off"
        )
        self._finish(request, dict(payload), outcome)
        for follower in followers:
            # A real lookup, so the hit/miss counters stay truthful (a
            # failed leader was not admitted: the repeat is a miss
            # answered with the leader's failure payload).
            entry = self.cache.lookup(follower.key)
            self._finish(
                follower,
                dict(entry) if entry is not None else dict(payload),
                "hit" if entry is not None else "miss",
            )

    def _fail_internal(self, request: _Request, exc: Exception) -> None:
        self._count("internal_errors")
        request.respond(error_response(
            request.request_id, "internal", f"{type(exc).__name__}: {exc}"
        ))

    @staticmethod
    def _shed_payload(request: _Request, now: float) -> dict:
        """A structured ``oot`` answer for a deadline expired in queue."""
        overshoot_ms = (now - request.deadline_at) * 1000.0
        return {
            "answers": [],
            "num_candidates": 0,
            "timed_out": True,
            "failure": {
                "kind": "oot",
                "message": (
                    "deadline expired while queued "
                    f"({overshoot_ms:.0f}ms past the budget); never executed"
                ),
                "retries": 0,
            },
            "query_time_s": 0.0,
            "filtering_time_s": 0.0,
            "verification_time_s": 0.0,
            "metadata": {"shed": "deadline"},
        }

    @staticmethod
    def _result_payload(result) -> dict:
        failure = None
        if result.failure is not None:
            failure = {
                "kind": result.failure.kind,
                "message": result.failure.message,
                "retries": result.failure.retries,
            }
        return {
            "answers": sorted(result.answers),
            "num_candidates": result.num_candidates,
            "timed_out": result.timed_out,
            "failure": failure,
            "query_time_s": result.query_time,
            "filtering_time_s": result.filtering_time,
            "verification_time_s": result.verification_time,
            "metadata": dict(result.metadata),
        }

    def _finish(self, request: _Request, payload: dict, cache_outcome: str) -> None:
        now = time.perf_counter()
        queue_wait = max(0.0, request.handed_at - request.enqueued_at)
        execution = 0.0 if cache_outcome == "hit" else payload["query_time_s"]
        payload["cache"] = cache_outcome
        payload["metrics"] = {
            "queue_wait_s": queue_wait,
            "execution_s": execution,
            "batch_size": request.batch_size,
            "worker_pid": (
                "cache" if cache_outcome == "hit"
                else payload["metadata"].get("worker_pid", os.getpid())
            ),
        }
        with self._lock:
            self._counters["answered"] += 1
            if payload["timed_out"] or payload["failure"] is not None:
                self._counters["query_failures"] += 1
            self._hist_queue_wait.record(queue_wait)
            self._hist_execution.record(execution)
            self._hist_total.record(now - request.enqueued_at)
        request.respond({"id": request.request_id, "ok": True, "result": payload})

    def _apply_mutation(self, request: _Request) -> None:
        # Retry dedup: a mutation whose request_key was already answered
        # inside the window is a client resend after a lost response —
        # replay the recorded answer instead of applying it twice.
        if request.request_key:
            replay = self.dedup.lookup(request.request_key)
            if replay is not None:
                self._count("dedup_hits")
                replay["id"] = request.request_id
                replay["result"] = {**replay.get("result", {}),
                                    "deduplicated": True}
                request.respond(replay)
                return
        try:
            if request.op == "add_graph":
                gid = self.engine.add_graph(
                    request.graph, request_key=request.request_key
                )
                result = {"gid": gid, "num_graphs": len(self.engine.db)}
                if self.cache.capacity:
                    self.cache.invalidate_added(
                        frozenset(request.graph.label_set())
                    )
            else:
                self.engine.remove_graph(
                    request.payload, request_key=request.request_key
                )
                result = {"gid": request.payload, "num_graphs": len(self.engine.db)}
                if self.cache.capacity:
                    self.cache.invalidate_removed(request.payload)
        except KeyError as exc:
            # Removal of an unknown graph id: a terminal, structured
            # rejection — retrying the identical request can only fail
            # the same way, so clients must not retry it.
            self._count("not_found")
            request.respond(error_response(
                request.request_id, "not_found",
                exc.args[0] if exc.args else str(exc),
            ))
            return
        except Exception as exc:
            # A mutation its shard refused unsent (a ShardWorkerError
            # with ``retry_after``; not imported, to keep unsharded serving
            # from loading the shard package) never ran: retryable.  One
            # lost mid-exchange may have journaled: terminal.
            retry = getattr(exc, "retry_after", None)
            refused = retry is not None
            self._count("rejected_degraded" if refused else "bad_requests")
            request.respond(error_response(
                request.request_id, "degraded" if refused else "bad_request",
                f"{type(exc).__name__}: {exc}", retry_after=retry,
            ))
            return
        self._count("mutations")
        response = {"id": request.request_id, "ok": True, "result": result}
        if request.request_key:
            self.dedup.store(request.request_key, response)
        # Chaos brackets around the acknowledgement: the mutation is
        # journaled and applied by now, so a crash on either side must be
        # recoverable — before the ack the client sees a lost response
        # (and may retry into the dedup window), after it the mutation is
        # acknowledged and must survive verbatim.
        faults.trip("wal.crash_before_ack", tag=request.op)
        request.respond(response)
        faults.trip("wal.crash_after_ack", tag=request.op)
        self._maybe_compact()

    def _apply_compact(self, request: _Request) -> None:
        """The ``compact`` admin verb (scheduler thread only)."""
        if self.engine.store is None:
            self._count("bad_requests")
            request.respond(error_response(
                request.request_id, "bad_request",
                "no index store attached; run the service with an index "
                "store to enable compaction",
            ))
            return
        try:
            summary = self.engine.compact_store()
        except Exception as exc:
            self._count("internal_errors")
            request.respond(error_response(
                request.request_id, "internal", f"{type(exc).__name__}: {exc}"
            ))
            return
        self._count("compactions")
        request.respond({"id": request.request_id, "ok": True, "result": summary})

    def _apply_rebalance(self, request: _Request) -> None:
        """The ``rebalance`` shard-admin verb (scheduler thread only)."""
        rebalance = getattr(self.engine, "rebalance", None)
        if rebalance is None:
            self._count("bad_requests")
            request.respond(error_response(
                request.request_id, "bad_request",
                "engine is not sharded; run the service with --shards to "
                "enable rebalancing",
            ))
            return
        try:
            summary = rebalance(request.payload)
        except Exception as exc:
            self._count("bad_requests")
            request.respond(error_response(
                request.request_id, "bad_request",
                f"{type(exc).__name__}: {exc}",
            ))
            return
        # Placement may have changed under cached answers' feet only if
        # graphs moved — answer sets are placement-independent, so the
        # cache stays valid; nothing to invalidate.
        self._count("rebalances")
        request.respond({"id": request.request_id, "ok": True, "result": summary})

    def _maybe_compact(self) -> None:
        """Fold the journal when it has grown past the configured depth."""
        threshold = self.config.wal_compact_threshold
        engine = self.engine
        if not threshold or engine.store is None:
            return
        if engine.store.wal.depth < threshold:
            return
        try:
            engine.compact_store()
        except Exception:
            # Auto-compaction is background hygiene: a failure (disk
            # full, injected fault) leaves the journal in place and the
            # service fully correct — count it and move on.
            self._count("compaction_errors")
            return
        self._count("compactions")

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        engine = self.engine
        with self._lock:
            counters = dict(self._counters)
            batches = {
                "count": self._batch_count,
                "max_size": self._batch_max_seen,
                "mean_size": (
                    self._batch_request_total / self._batch_count
                    if self._batch_count else 0.0
                ),
            }
            latency = {
                "queue_wait": self._hist_queue_wait.summary(),
                "execution": self._hist_execution.summary(),
                "total": self._hist_total.summary(),
            }
            histograms = {
                "queue_wait": self._hist_queue_wait.to_dict(),
                "execution": self._hist_execution.to_dict(),
                "total": self._hist_total.to_dict(),
            }
        # Age of the oldest waiting request: the operator-facing wedge
        # signal (a deep queue is fine; an *old* head means the scheduler
        # is stuck).  Peeked under the queue's own mutex.
        oldest_wait = None
        with self._queue.mutex:
            if self._queue.queue:
                oldest_wait = time.perf_counter() - self._queue.queue[0].enqueued_at
        cache_lookups = self.cache.hits + self.cache.misses
        return {
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_s": time.monotonic() - self._started_at,
            "draining": self._draining.is_set(),
            "engine": {
                "algorithm": engine.name,
                "num_graphs": len(engine.db),
                "executor": type(engine.executor).__name__,
                "index_source": engine.index_source,
                "degraded": engine.degraded,
                "containment_cache": engine.cache is not None,
            },
            "queue": {"capacity": self.config.capacity,
                      "depth": self._queue.qsize(),
                      "oldest_wait_s": oldest_wait},
            # Per-worker liveness (None for in-process execution).
            "workers": engine.executor_stats(),
            # The pool's Health (a never-opening one when there is none).
            "breaker": (self.health or Health()).snapshot(),
            # Per-shard health rows (None for an unsharded engine).
            "shards": (
                engine.shard_stats()
                if hasattr(engine, "shard_stats") else None
            ),
            # Router seed-screen pruning counters (None when unsharded).
            "pruning": (
                engine.prune_stats()
                if hasattr(engine, "prune_stats") else None
            ),
            "dedup": {
                "capacity": self.dedup.capacity,
                "size": len(self.dedup),
                "hits": self.dedup.hits,
                "seeded": self.dedup_seeded,
            },
            "requests": counters,
            "batches": batches,
            "cache": {
                "capacity": self.cache.capacity,
                "size": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "hit_rate": self.cache.hits / cache_lookups if cache_lookups else 0.0,
                "invalidations": self.cache.invalidations,
                "entries_dropped": self.cache.entries_dropped,
            },
            # Durable-store state: journal depth, warm-start replay
            # counters, compactions (None without an index store).
            "store": engine.store_stats(),
            # Compiled-query-plan cache (isomorphism-invariant, unlike the
            # exact-match result cache above).
            "plan_cache": (
                engine.plans.stats() if engine.plans is not None
                else {"enabled": False}
            ),
            "latency": latency,
            "histograms": histograms,
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def request_shutdown(self, signum: int | None = None) -> None:
        """Begin the graceful drain; safe from any thread or a signal
        handler, idempotent."""
        if signum is not None and self._exit_signal is None:
            self._exit_signal = signum
        if self._draining.is_set():
            return
        self._draining.set()
        # Refuse new connections immediately.  ``close()`` alone does not
        # wake a thread already blocked in ``accept()`` on Linux;
        # ``shutdown()`` does (accept fails with EINVAL), so the accept
        # loop ends now instead of at serve()'s join timeout.  A Unix
        # socket file outlives its socket, so the drain removes it too.
        listener = self._listener
        if listener is not None:
            unix_path = (
                listener.getsockname() if listener.family == socket.AF_UNIX else None
            )
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
            if unix_path:
                try:
                    os.unlink(unix_path)
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # Socket transport
    # ------------------------------------------------------------------

    def serve(self, listen_address: str, *, ready_callback=None) -> int:
        """Listen, serve until drained, and return a CLI exit code.

        Runs the scheduler in the calling thread (so SIGTERM/SIGINT
        handlers installed here fire promptly when that is the main
        thread) and one reader thread per connection.  Returns 0 after a
        ``shutdown``-verb drain, ``128 + signum`` after a signal drain.
        """
        self._listener = protocol.listen(listen_address)
        restore: list[tuple[int, object]] = []
        if threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGTERM, signal.SIGINT):
                previous = signal.signal(
                    sig, lambda signum, frame: self.request_shutdown(signum)
                )
                restore.append((sig, previous))
        accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        accept_thread.start()
        if ready_callback is not None:
            ready_callback(self)
        try:
            self.run_scheduler()
        finally:
            self.request_shutdown()
            for sig, previous in restore:
                signal.signal(sig, previous)
            accept_thread.join(timeout=5.0)
            with self._conn_lock:
                conns = list(self._conns)
            for conn in conns:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    conn.close()
                except OSError:
                    pass
            self.engine.close()
        return 0 if self._exit_signal is None else 128 + self._exit_signal

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._draining.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed by the drain
            with self._conn_lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._client_loop, args=(conn,),
                name="repro-serve-client", daemon=True,
            ).start()

    def _client_loop(self, conn: socket.socket) -> None:
        write_lock = threading.Lock()

        def respond(payload: dict) -> None:
            data = encode_message(payload)
            try:
                with write_lock:
                    conn.sendall(data)
            except OSError:
                pass  # client went away; the answer is simply dropped

        try:
            with conn.makefile("rb") as rfile:
                while True:
                    line = rfile.readline(MAX_LINE_BYTES + 2)
                    if not line:
                        return
                    # Chaos hook: a ``drop`` here models the transport
                    # dying just as a request arrives — the raised
                    # ConnectionResetError unwinds into the OSError
                    # handler below and closes this connection, which is
                    # exactly what a retrying client must survive.
                    faults.trip("serve.connection")
                    if len(line) > MAX_LINE_BYTES:
                        respond(error_response(
                            None, "bad_request",
                            f"request line exceeds {MAX_LINE_BYTES} bytes",
                        ))
                        return  # cannot resynchronise mid-line
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        message = protocol.decode_line(line)
                    except ProtocolError as exc:
                        self._count("bad_requests")
                        respond(error_response(None, exc.code, str(exc)))
                        continue
                    self.submit(message, respond)
        except OSError:
            pass
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass
