"""Executor protocol and the in-process reference implementation.

A :class:`QueryExecutor` is the seam between "what to compute" (a
:class:`~repro.core.pipeline.QueryPipeline` plus a query) and "how to
survive computing it".  The engine routes every query through one, so the
containment policy — cooperative in-process for tests and small runs,
process-isolated with hard limits for benchmarks and services — is a
configuration choice, not a code path.

An executor is a **stream**: ``submit`` hands over one query with its own
time limit and returns a ticket, ``collect`` returns the ``(ticket,
result)`` pairs that have finished since the last call, in completion
order.  ``run_many`` is defined once, here, as "submit all, collect all",
so a batch caller and a server answering each request as it completes
drive the same loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro.core.metrics import QueryFailure, QueryResult
from repro.utils.errors import ConfigurationError, MemoryLimitExceeded, TimeLimitExceeded
from repro.utils.timing import Deadline

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.pipeline import QueryPipeline
    from repro.exec.worker import Health
    from repro.graph.database import GraphDatabase
    from repro.graph.labeled_graph import Graph
    from repro.matching.plan import QueryPlan

__all__ = [
    "EXECUTOR_NAMES",
    "InProcessExecutor",
    "QueryExecutor",
    "classify_exception",
    "create_executor",
    "executor_factory",
    "failure_result",
    "gather",
]


def classify_exception(exc: BaseException) -> QueryFailure:
    """Map an exception escaping query execution onto a failure record."""
    if isinstance(exc, TimeLimitExceeded):
        return QueryFailure(kind="oot", message=str(exc) or "deadline expired")
    if isinstance(exc, (MemoryLimitExceeded, MemoryError)):
        return QueryFailure(kind="oom", message=str(exc) or "memory limit exceeded")
    return QueryFailure(kind="error", message=f"{type(exc).__name__}: {exc}")


def failure_result(
    algorithm: str,
    query_name: str | None,
    failure: QueryFailure,
    query_time: float = 0.0,
) -> QueryResult:
    """A result shell recording a failure the pipeline never got to flag."""
    return QueryResult(
        algorithm=algorithm,
        query_name=query_name,
        failure=failure,
        timed_out=failure.kind == "oot",
        query_time=query_time,
    )


def gather(stream, tickets: list[int]) -> list[QueryResult]:
    """Collect from ``stream`` until every one of ``tickets`` has its
    result; results in ticket order.  The stream must hold no other work:
    a foreign ticket is a caller bug and raises ``KeyError``."""
    position = {ticket: i for i, ticket in enumerate(tickets)}
    results: list[QueryResult | None] = [None] * len(tickets)
    missing = len(tickets)
    while missing:
        for ticket, result in stream.collect():
            results[position[ticket]] = result
            missing -= 1
    return results  # type: ignore[return-value]


class QueryExecutor(ABC):
    """Runs pipeline invocations under a containment policy, as a stream.

    :meth:`submit` takes one query — with *its own* time limit, so the
    hard deadline a pool enforces is per job — and returns a ticket;
    :meth:`collect` hands back finished ``(ticket, result)`` pairs in
    completion order.  :meth:`run_many` and :meth:`run` are "submit,
    then collect everything" over that pair.  All queries in flight at
    one time share one ``(pipeline, db)`` binding.

    Implementations never raise for per-query problems: every outcome,
    including crashes and budget violations, comes back as a
    :class:`~repro.core.metrics.QueryResult` (possibly carrying a
    :class:`~repro.core.metrics.QueryFailure`).
    """

    #: The :class:`~repro.exec.worker.Health` of the executor's worker
    #: pool; ``None`` when it has no worker to lose.
    health: "Health | None" = None

    @abstractmethod
    def submit(
        self,
        pipeline: "QueryPipeline",
        query: "Graph",
        db: "GraphDatabase",
        time_limit: float | None = None,
        plan: "QueryPlan | None" = None,
    ) -> int:
        """Hand over ``query`` for execution through ``pipeline`` against
        ``db``; returns the ticket :meth:`collect` will report it under.

        ``plan`` is the query's compiled plan, if the caller (the engine)
        already has one; executors ship it alongside the query — pool
        workers receive it with the message rather than recompiling.
        """

    @abstractmethod
    def collect(
        self, timeout: float | None = None, also: Sequence = ()
    ) -> list[tuple[int, QueryResult]]:
        """Finished ``(ticket, result)`` pairs, in completion order.

        Blocks until at least one submitted query has finished, nothing
        is in flight, ``timeout`` seconds pass, or one of the extra
        waitables in ``also`` (file descriptors, connections) becomes
        readable — so a caller can sleep on "a result or a new request"
        in one wait.  May return an empty list.
        """

    def run(
        self,
        pipeline: "QueryPipeline",
        query: "Graph",
        db: "GraphDatabase",
        time_limit: float | None = None,
        plan: "QueryPlan | None" = None,
    ) -> QueryResult:
        """Execute one query: a batch of one."""
        return self.run_many(pipeline, [query], db, time_limit, plans=[plan])[0]

    def run_many(
        self,
        pipeline: "QueryPipeline",
        queries: list["Graph"],
        db: "GraphDatabase",
        time_limit: float | None = None,
        plans: "list[QueryPlan | None] | None" = None,
    ) -> list[QueryResult]:
        """Execute a batch of queries; results in input order.

        Submit all, collect all: a pool fans the batch across its workers,
        and whatever order they finish in, every result lands at its input
        position.  ``plans``, when given, is parallel to ``queries``.
        """
        if plans is None:
            plans = [None] * len(queries)
        return gather(self, [
            self.submit(pipeline, q, db, time_limit, plan=p)
            for q, p in zip(queries, plans)
        ])

    def invalidate(self) -> None:
        """Forget any worker state bound to a (pipeline, db) pair.

        Called by the engine after database mutations; in-process
        execution holds no such state.
        """

    def worker_stats(self) -> dict | None:
        """Supervision snapshot (spawns, restarts, per-worker liveness).

        ``None`` for executors with no worker processes; pool executors
        override this.  The service surfaces it through its ``stats``
        verb so operators can see a wedged or storming pool.
        """
        return None

    def close(self) -> None:
        """Release workers and other resources (idempotent)."""

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class InProcessExecutor(QueryExecutor):
    """Cooperative execution in the calling process (the default).

    Containment is exception-level only: deadline expiry, memory-budget
    violations and unexpected exceptions become failure records, but a
    non-cooperative loop or real memory exhaustion is *not* stopped —
    that is what a :class:`~repro.exec.parallel.ParallelExecutor` is for.

    There is nothing to overlap with, so ``submit`` runs the query on the
    spot and parks the result for the next ``collect``.
    """

    def __init__(self) -> None:
        self._parked: list[tuple[int, QueryResult]] = []
        self._tickets = 0

    def run(
        self,
        pipeline: "QueryPipeline",
        query: "Graph",
        db: "GraphDatabase",
        time_limit: float | None = None,
        plan: "QueryPlan | None" = None,
    ) -> QueryResult:
        try:
            return pipeline.execute(query, db, deadline=Deadline(time_limit), plan=plan)
        except Exception as exc:  # escaped the pipeline's own containment
            return failure_result(pipeline.name, query.name, classify_exception(exc))

    def submit(
        self,
        pipeline: "QueryPipeline",
        query: "Graph",
        db: "GraphDatabase",
        time_limit: float | None = None,
        plan: "QueryPlan | None" = None,
    ) -> int:
        self._tickets += 1
        self._parked.append(
            (self._tickets, self.run(pipeline, query, db, time_limit, plan))
        )
        return self._tickets

    def collect(
        self, timeout: float | None = None, also: Sequence = ()
    ) -> list[tuple[int, QueryResult]]:
        done, self._parked = self._parked, []
        return done


#: The process-backed names are aliases of one pool class, each mapped to
#: its width when ``jobs`` is not given and the ``threshold`` of its
#: ``Health`` when none is given.
_POOL_ALIASES = {"subprocess": (1, 0), "parallel": (4, 0), "supervised": (4, 5)}
EXECUTOR_NAMES = ("inprocess", *_POOL_ALIASES)


def create_executor(name: str = "inprocess", **kwargs) -> QueryExecutor:
    """Instantiate an executor by configuration name; ``kwargs`` reach
    the pool (e.g. ``jobs=4``, ``memory_limit_mb=512``, ``health=...``).
    """
    if name == "inprocess":
        return InProcessExecutor()
    if name not in _POOL_ALIASES:
        raise ConfigurationError(
            f"unknown executor {name!r}; expected one of {EXECUTOR_NAMES}"
        )
    from repro.exec.parallel import ParallelExecutor
    from repro.exec.worker import Health

    width, threshold = _POOL_ALIASES[name]
    health = kwargs.pop("health", None) or Health(threshold=threshold)
    if threshold and health.threshold < 1:
        raise ValueError(f"a {name} pool's health threshold must be positive")
    if kwargs.get("jobs") is None:
        kwargs["jobs"] = width
    return ParallelExecutor(health=health, **kwargs)


def executor_factory(
    name: str = "inprocess", jobs: int = 1, memory_limit_mb: int | None = None
) -> "Callable[[Health | None], QueryExecutor] | None":
    """The one flags -> executor ladder: a pool constructor, taking the
    ``Health`` to arm it with (a shard's own, or ``None``), when ``jobs >
    1`` or ``name`` asks for isolation (``subprocess``/``supervised``);
    otherwise ``None``, the engine's in-process default."""
    if name == "inprocess":
        if jobs <= 1:
            return None
        name = "parallel"
    return lambda health=None: create_executor(
        name, jobs=jobs, memory_limit_mb=memory_limit_mb, health=health
    )
