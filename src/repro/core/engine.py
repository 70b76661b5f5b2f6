"""The subgraph query engine: one database, one algorithm, many queries.

:class:`SubgraphQueryEngine` owns a :class:`~repro.graph.database.
GraphDatabase` and a :class:`~repro.core.pipeline.QueryPipeline`, and adds
the operational concerns around them: index construction under a time
limit, per-query time limits (the paper's 10-minute budget), database
updates that keep the index consistent (the maintenance cost the paper's
introduction weighs against IFV methods), and memory accounting for
Tables VII/IX.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.core.cache import CachingPipeline
from repro.core.metrics import QueryResult
from repro.core.pipeline import QueryPipeline, fallback_pipeline
from repro.exec import faults
from repro.exec.base import InProcessExecutor, QueryExecutor, gather
from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import Graph
from repro.matching.plan import PlanCache, QueryPlan
from repro.utils.errors import (
    ConfigurationError,
    MemoryLimitExceeded,
    SnapshotError,
    TimeLimitExceeded,
)
from repro.utils.timing import Deadline, Timer

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.store.manager import IndexStore

__all__ = ["SubgraphQueryEngine"]


class SubgraphQueryEngine:
    """Answers subgraph queries over a database with one algorithm.

    Typical use::

        engine = SubgraphQueryEngine(db, pipeline)   # or create_engine(db, "CFQL")
        engine.build_index()                         # no-op for vcFV algorithms
        result = engine.query(q, time_limit=600.0)
        print(result.answers)

    Every query is routed through a :class:`~repro.exec.base.QueryExecutor`
    (cooperative in-process containment by default; pass a
    :class:`~repro.exec.parallel.ParallelExecutor` for hard kill-based
    limits), so per-query failures come back as flagged results instead of
    exceptions.
    """

    def __init__(
        self,
        db: GraphDatabase,
        pipeline: QueryPipeline,
        executor: QueryExecutor | None = None,
        cache: int = 0,
        plan_cache: int = 256,
    ) -> None:
        self.db = db
        #: LRU of compiled query plans keyed by canonical query form, so a
        #: repeated query — including an isomorphic one under different
        #: vertex ids — reuses its validated orders and per-query memos
        #: across the whole database.  ``plan_cache`` is its capacity;
        #: 0 disables plan caching (each query compiles a throwaway plan).
        self.plans: PlanCache | None = PlanCache(plan_cache) if plan_cache else None
        #: The GraphCache-style query-to-query result cache wrapped around
        #: the pipeline when ``cache > 0`` (its LRU capacity); None
        #: otherwise.  Per-query outcomes are stamped into
        #: ``QueryResult.metadata`` (``cache_hit``/``cache_pruned``);
        #: aggregate counters live on ``self.cache.stats``.  With a pool
        #: executor each worker holds its own copy of the cache, so the
        #: aggregate counters here only reflect in-process execution.
        self.cache: CachingPipeline | None = None
        if cache:
            pipeline = CachingPipeline(pipeline, capacity=cache)
            self.cache = pipeline
        self.pipeline = pipeline
        self.executor = executor if executor is not None else InProcessExecutor()
        self.indexing_time: float = 0.0
        self._index_built = not pipeline.uses_index
        #: True when the configured index failed to build and queries are
        #: answered by the fallback pipeline instead.
        self.degraded: bool = False
        #: "OOT" or "OOM" when degraded, None otherwise.
        self.degraded_reason: str | None = None
        #: "store" when the index was warm-started from a snapshot,
        #: "build" when it was built cold, None for index-free pipelines
        #: (or before build_index).
        self.index_source: str | None = None
        #: SnapshotError reason when a store was offered but its snapshot
        #: was rejected (missing/corrupt/stale/...) and the index rebuilt.
        self.store_recovery: str | None = None
        #: Failure message when saving the freshly built index to the
        #: store did not complete (the engine still answers normally —
        #: persistence is an optimisation, never a correctness gate).
        self.store_save_error: str | None = None
        #: The store attached by ``build_index(store=...)``; once set,
        #: ``add_graph``/``remove_graph`` journal durably through it.
        self.store: "IndexStore | None" = None
        #: Mutation-log recovery counters from the last warm start
        #: (folded_seq / log_records / replayed / truncated / reason /
        #: quarantined), None when no store was involved.
        self.wal_recovery: dict | None = None
        #: ``(request_key, op, gid)`` for every recovered mutation that
        #: journaled a client idempotency token, in journal order.  The
        #: service seeds its :class:`~repro.service.resilience.
        #: MutationDedup` window from these so a client retry across a
        #: crash-restart boundary is answered idempotently instead of
        #: double-applied (the at-least-once edge of
        #: ``wal.crash_before_ack``).
        self.recovered_request_keys: list[tuple[str, str, int]] = []
        #: Number of successful :meth:`compact_store` runs.
        self.compactions: int = 0
        #: Plan-cache outcome per submitted, not yet collected ticket.
        self._plan_outcomes: dict[int, str] = {}

    @property
    def name(self) -> str:
        return self.pipeline.name

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------

    def build_index(
        self,
        time_limit: float | None = None,
        fallback: bool = False,
        store: "IndexStore | None" = None,
    ) -> float:
        """Build (or warm-start) the supporting index; returns the time.

        A no-op (0.0 seconds) for index-free algorithms.  Raises
        :class:`~repro.utils.errors.TimeLimitExceeded` when ``time_limit``
        expires — the paper's OOT condition for index construction — and
        :class:`~repro.utils.errors.MemoryLimitExceeded` when an index
        budget is blown (OOM).  With ``fallback=True`` neither aborts the
        configuration: the engine degrades to the corresponding index-free
        vcFV pipeline (see :func:`~repro.core.pipeline.fallback_pipeline`)
        and flags itself ``degraded``.

        With a :class:`~repro.store.IndexStore` the index is loaded from
        its snapshot when one exists and verifies (checksums, format
        version, build parameters, database fingerprint all match) —
        skipping the build entirely — and is saved back, crash-
        consistently, after any cold build.  A snapshot that fails *any*
        verification is never used: the engine rebuilds and records the
        rejection reason in ``store_recovery``.

        A store also makes the database *dynamic*: any mutations journaled
        in its write-ahead log (and its database snapshot, if compaction
        produced one) are recovered first and replayed idempotently —
        through the index snapshot's fold point database-side, past it
        through the live index's incremental hooks — so a warm start
        reproduces the exact acknowledged state a crash interrupted.
        Counters land in ``wal_recovery``; the store stays attached as
        ``self.store``, making later ``add_graph``/``remove_graph`` calls
        durable.
        """
        if store is not None:
            self.store = store
        store = self.store
        pending: list = []
        if store is not None:
            recovery = store.recover_mutations(self.db)
            self.wal_recovery = {
                "folded_seq": recovery.folded_seq,
                "log_records": len(recovery.records),
                "replayed": 0,
                "truncated": recovery.dropped,
                "reason": recovery.reason,
                "quarantined": recovery.quarantined,
            }
            pending = list(recovery.records)
            self.recovered_request_keys = [
                (r.request_key, r.op, r.gid)
                for r in pending
                if r.request_key is not None
            ]
        if not self.pipeline.uses_index:
            for record in pending:
                if record.apply(self.db):
                    self.wal_recovery["replayed"] += 1
            self._index_built = True
            self.indexing_time = 0.0
            return 0.0
        index = getattr(self.pipeline, "index", None)
        with Timer() as t:
            loaded = False
            db_fingerprint: str | None = None
            if store is not None and index is not None:
                from repro.store.snapshot import database_fingerprint

                snap_seq = 0
                try:
                    header = store.snapshot_header(index.name)
                    if isinstance(header.get("wal_seq"), int):
                        snap_seq = header["wal_seq"]
                except SnapshotError:
                    pass  # load_into below classifies the failure
                # Mutations the index snapshot already folded must be in
                # the database before the fingerprint comparison.
                for record in [r for r in pending if r.seq <= snap_seq]:
                    if record.apply(self.db):
                        self.wal_recovery["replayed"] += 1
                pending = [r for r in pending if r.seq > snap_seq]
                db_fingerprint = database_fingerprint(self.db)
                try:
                    store.load_into(index, self.db, db_fingerprint)
                    loaded = True
                    self.index_source = "store"
                except SnapshotError as exc:
                    self.store_recovery = exc.reason
            if loaded:
                # Replay the journal tail through the live index so the
                # warm-started pipeline answers exactly like a cold
                # rebuild of the full acknowledged mutation history.
                for record in pending:
                    if self._replay_record(record, live=True):
                        self.wal_recovery["replayed"] += 1
                pending = []
            else:
                # Cold build: fold every surviving record into the
                # database first, then build the index over the result.
                if pending:
                    for record in pending:
                        if record.apply(self.db) and self.wal_recovery:
                            self.wal_recovery["replayed"] += 1
                    pending = []
                    db_fingerprint = None  # database changed since computed
                try:
                    faults.trip("index.build", tag=self.name)
                    self.pipeline.build_index(self.db, deadline=Deadline(time_limit))
                    self.index_source = "build"
                except (TimeLimitExceeded, MemoryLimitExceeded) as exc:
                    if not fallback:
                        raise
                    self.degraded = True
                    self.degraded_reason = (
                        "OOT" if isinstance(exc, TimeLimitExceeded) else "OOM"
                    )
                    self.pipeline = fallback_pipeline(self.pipeline)
                    if self.cache is not None:
                        # fallback_pipeline preserves the caching wrapper.
                        self.cache = self.pipeline  # type: ignore[assignment]
                    self.executor.invalidate()
                else:
                    if store is not None and index is not None:
                        try:
                            store.save(
                                index,
                                self.db,
                                db_fingerprint,
                                wal_seq=store.wal.last_seq,
                            )
                        except Exception as exc:
                            # A failed save (disk full, injected torn
                            # write, ...) only costs the next process its
                            # warm start; this one already has the index.
                            self.store_save_error = (
                                f"{type(exc).__name__}: {exc}"
                            )
        self.indexing_time = t.elapsed
        self._index_built = True
        return self.indexing_time

    def _replay_record(self, record, live: bool) -> bool:
        """Apply one journaled mutation; ``live`` also maintains the index.

        Idempotent by graph id, like
        :meth:`~repro.store.wal.MutationRecord.apply`, but routes applied
        mutations through the pipeline's incremental hooks so a warm-
        started index tracks the replay.
        """
        if record.op == "add":
            if record.gid in self.db:
                return False
            self.db.add_graph_with_id(record.gid, record.graph)
            if live:
                self.pipeline.on_graph_added(record.gid, record.graph)
            return True
        if record.gid not in self.db:
            return False
        graph = self.db.remove_graph(record.gid)
        if live:
            self.pipeline.on_graph_removed(record.gid, graph)
        return True

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def _annotate(self, result: QueryResult) -> QueryResult:
        """Stamp engine-level provenance onto a result's metadata.

        Callers downstream (benchmark reports, services) must be able to
        tell a full-fidelity answer from one served in a degraded or
        recovered configuration without holding a reference to the engine.
        """
        result.metadata["degraded"] = self.degraded
        if self.degraded_reason is not None:
            result.metadata["degraded_reason"] = self.degraded_reason
        if self.index_source is not None:
            result.metadata["index_source"] = self.index_source
        if self.store_recovery is not None:
            result.metadata["store_recovery"] = self.store_recovery
        return result

    def _plan_for(self, query: Graph) -> tuple[QueryPlan | None, str]:
        """The query's compiled plan and the cache outcome for metadata."""
        if self.plans is None:
            return None, "off"
        return self.plans.get(query)

    def _check_queryable(self, queries: list[Graph]) -> None:
        for q in queries:
            if q.num_vertices == 0:
                raise ConfigurationError("query graph must have at least one vertex")
        if not self._index_built:
            raise ConfigurationError(
                f"{self.name} requires build_index() before querying"
            )

    def query(self, query: Graph, time_limit: float | None = None) -> QueryResult:
        """Answer one subgraph query (Definition II.2).

        ``time_limit`` is the per-query budget; on expiry the returned
        result is flagged ``timed_out`` with whatever was computed so far.
        """
        return self.query_many([query], time_limit)[0]

    def query_many(
        self, queries: list[Graph], time_limit: float | None = None
    ) -> list[QueryResult]:
        """Answer a whole query set with a per-query time limit.

        Submit all, collect all over the executor's stream, so a pool
        executor fans the set across its workers (the first query is
        already running while the second is planned); results always come
        back in input order.  Each query is compiled (or fetched from the
        plan cache) exactly once here — a batch repeating one query ships
        one shared plan to every worker.
        """
        self._check_queryable(queries)
        return gather(self, [self.submit(q, time_limit) for q in queries])

    def submit(self, query: Graph, time_limit: float | None = None) -> int:
        """Hand one query to the executor's stream; returns its ticket.

        The streaming half of :meth:`query_many`, for a caller (the
        service) that answers each query when *it* completes: the plan is
        looked up here, the executor gets the query with its own
        ``time_limit``, and :meth:`collect` reports the result.  The
        database must not be mutated while tickets are outstanding.
        """
        self._check_queryable([query])
        plan, outcome = self._plan_for(query)
        ticket = self.executor.submit(
            self.pipeline, query, self.db, time_limit, plan=plan
        )
        self._plan_outcomes[ticket] = outcome
        return ticket

    def collect(
        self, timeout: float | None = None, also: Sequence = ()
    ) -> list[tuple[int, QueryResult]]:
        """Finished ``(ticket, result)`` pairs in completion order, stamped
        like :meth:`query` results; blocks as :meth:`QueryExecutor.collect
        <repro.exec.base.QueryExecutor.collect>` does."""
        done = self.executor.collect(timeout, also)
        for ticket, result in done:
            self._annotate(result)
            result.metadata["plan_cache"] = self._plan_outcomes.pop(ticket)
        return done

    def find_embeddings(
        self,
        query: Graph,
        gid: int,
        limit: int | None = None,
        time_limit: float | None = None,
    ) -> list[dict[int, int]]:
        """Enumerate subgraph isomorphisms from ``query`` into one data
        graph (Definition II.3 — full subgraph matching, not just the
        containment test).

        Uses the pipeline's own matcher when it has one (vcFV/IvcFV), the
        CFQL matcher otherwise, so results are consistent with the
        engine's configuration.  ``limit`` bounds the number of embeddings
        returned; embeddings map query vertices to data vertices.
        """
        matcher = getattr(self.pipeline, "matcher", None)
        if matcher is None:
            from repro.matching.cfql import CFQLMatcher

            matcher = CFQLMatcher()
        plan, _ = self._plan_for(query)
        outcome = matcher.run(
            query,
            self.db[gid],
            limit=limit,
            collect=True,
            deadline=Deadline(time_limit),
            plan=plan,
        )
        return outcome.embeddings

    # ------------------------------------------------------------------
    # Database maintenance (the index-update story)
    # ------------------------------------------------------------------

    def _require_landed(self) -> None:
        """Workers in flight hold the database as it was: a mutation under
        them would answer old tickets from a state nobody asked about."""
        if self._plan_outcomes:
            raise RuntimeError(
                f"cannot mutate the database with {len(self._plan_outcomes)} "
                "submitted queries not yet collected"
            )

    def add_graph(
        self,
        graph: Graph,
        store: "IndexStore | None" = None,
        request_key: str | None = None,
    ) -> int:
        """Insert a data graph, updating the index if one exists.

        With a store (the argument, or the one attached by
        ``build_index(store=...)``) the insertion is journaled durably in
        the write-ahead mutation log *before* any in-memory state changes,
        so an acknowledged insertion survives a crash.  ``request_key``
        (the client's idempotency token, if any) rides along in the
        journal record so recovery can rebuild the dedup window.

        Before ``build_index`` has run there is no index and no pool
        state to maintain, so the pipeline hooks and executor
        invalidation are skipped — the mutation is a plain (journaled)
        database insert.
        """
        self._require_landed()
        store = store if store is not None else self.store
        if store is not None:
            store.journal_add(self.db, graph, request_key=request_key)
        gid = self.db.add_graph(graph)
        if self._index_built:
            self.pipeline.on_graph_added(gid, graph)
            self.executor.invalidate()
        return gid

    def add_graph_with_id(
        self,
        gid: int,
        graph: Graph,
        store: "IndexStore | None" = None,
        request_key: str | None = None,
    ) -> int:
        """Insert a data graph under a caller-chosen id (journaled first).

        The shard rebalancer uses this to land a migrating graph on its
        destination shard under its *original* id — step one of the
        two-phase move — so queries keep answering with stable graph ids
        throughout a migration.  Raises :class:`ValueError` when ``gid``
        is already present (same contract as the database layer).
        """
        self._require_landed()
        if gid in self.db:
            raise ValueError(f"graph id {gid} already exists")
        store = store if store is not None else self.store
        if store is not None:
            store.journal_add(self.db, graph, gid=gid, request_key=request_key)
        self.db.add_graph_with_id(gid, graph)
        if self._index_built:
            self.pipeline.on_graph_added(gid, graph)
            self.executor.invalidate()
        return gid

    def remove_graph(
        self,
        gid: int,
        store: "IndexStore | None" = None,
        request_key: str | None = None,
    ) -> Graph:
        """Delete a data graph, updating the index if one exists.

        Raises :class:`KeyError` for an unknown ``gid`` before anything
        is journaled or mutated.  With a store the removal is journaled
        durably first, exactly like :meth:`add_graph`.
        """
        self._require_landed()
        store = store if store is not None else self.store
        if store is not None:
            store.journal_remove(self.db, gid, request_key=request_key)
        graph = self.db.remove_graph(gid)
        if self._index_built:
            self.pipeline.on_graph_removed(gid, graph)
            self.executor.invalidate()
        return graph

    def compact_store(self, store: "IndexStore | None" = None) -> dict:
        """Fold the mutation journal into fresh snapshots; returns a summary.

        Protocol, crash-safe at every step: write a fresh index snapshot
        (when a live, non-degraded index exists), then the database
        snapshot — both atomic (temp + fsync + rename) — and only then
        truncate the journal through the folded sequence number.  A crash
        between any two steps leaves already-folded records in the
        journal, which the next recovery skips idempotently by sequence
        number; acknowledged mutations are never lost or double-applied.
        """
        store = store if store is not None else self.store
        if store is None:
            raise ConfigurationError(
                "compact_store requires an IndexStore (pass one, or attach "
                "one via build_index(store=...))"
            )
        store.ensure_recovered(self.db)
        upto = store.wal.last_seq
        snapshots: list[str] = []
        index = getattr(self.pipeline, "index", None)
        if (
            index is not None
            and self.pipeline.uses_index
            and self._index_built
            and not self.degraded
        ):
            snapshots.append(str(store.save(index, self.db, wal_seq=upto)))
        snapshots.append(str(store.save_database(self.db, wal_seq=upto)))
        folded = store.wal.truncate_through(upto)
        self.compactions += 1
        return {
            "wal_seq": upto,
            "folded": folded,
            "log_depth": store.wal.depth,
            "snapshots": snapshots,
            "compactions": self.compactions,
        }

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def index_memory_bytes(self) -> int:
        """Retained auxiliary-structure size: the supporting index (0 for
        index-free algorithms) plus the lazily built per-graph bitmap
        profiles the matching kernels memoize on the data graphs."""
        return self.pipeline.index_memory_bytes() + self.db.profile_memory_bytes()

    def executor_stats(self) -> dict | None:
        """The executor's supervision snapshot, ``None`` when it has no
        worker processes.  Surfaced by the service's ``stats`` verb."""
        return self.executor.worker_stats()

    def store_stats(self) -> dict | None:
        """Durable-store counters (journal depth, recovery, compactions);
        ``None`` when no store is attached.  Surfaced by ``stats``."""
        if self.store is None:
            return None
        stats: dict = {
            "directory": str(self.store.directory),
            "wal_depth": self.store.wal.depth,
            "wal_last_seq": self.store.wal.last_seq,
            "compactions": self.compactions,
        }
        if self.wal_recovery is not None:
            stats["recovery"] = dict(self.wal_recovery)
        return stats

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release executor resources (worker processes); idempotent."""
        self.executor.close()

    def __enter__(self) -> "SubgraphQueryEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<SubgraphQueryEngine {self.name!r} over {self.db!r}>"
