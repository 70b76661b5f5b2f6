"""The sharded engine: N independent engines behind one engine surface.

:class:`ShardedEngine` partitions one :class:`~repro.graph.database.
GraphDatabase` into ``num_shards`` disjoint partitions (deterministic
placement by graph id through a pluggable :class:`~repro.shard.partition.
Partitioner`) and runs one full :class:`~repro.core.engine.
SubgraphQueryEngine` per partition — its own pipeline and index, its own
:class:`~repro.store.IndexStore` subdirectory and write-ahead mutation
log, its own worker pool, if any (armed with the shard's ``Health``).
Queries scatter-gather through the :class:`~repro.shard.router.
ShardRouter`; mutations route to the owning shard only, so journaling,
index maintenance, and worker-pool invalidation all stay scoped to one
partition.

The class is surface-compatible with :class:`SubgraphQueryEngine` where
the service and CLI touch it (``query``/``query_many``/``build_index``/
``add_graph``/``remove_graph``/``compact_store``/``stats`` accessors /
``close``), so everything downstream — the NDJSON service and the CLI
verbs — runs unmodified over 1 or N shards.

Durable layout under ``store_root``::

    store_root/
      shards.json        # the manifest: num_shards / seed_shards / partitioner
      shard-00/          # one full IndexStore per shard (snapshots + WAL)
      shard-01/
      ...

**The manifest and the seed invariant.**  ``seed_shards`` records how the
*base* database (the graph file the service was started from) is
partitioned, and never changes: every shard's WAL is anchored to the
fingerprint of its base partition, so re-partitioning the base under a
different count would orphan every journal.  Growing the fleet
(``rebalance(target)``) therefore updates ``num_shards`` only — new
shards start with an empty base partition and receive graphs through
journaled two-phase moves — and shrinking below ``seed_shards`` is
rejected while a store is attached.  A restart must pass the manifest's
``num_shards`` (the CLI surfaces this as a structured configuration
error).

**Rebalance: the crash-safe two-phase move.**  For every graph sitting on
a shard that placement says should live elsewhere: journal + apply the
insertion on the *destination* first, then journal + apply the removal on
the source.  A crash between the phases leaves the graph on both shards —
queries stay correct (the router merges by set union) — and the next
rebalance heals the duplicate by deleting the non-owner copy.  Growth
writes the manifest *before* creating shards (a crash mid-grow restarts
into the larger fleet and re-runs the migration); shrink writes it
*after* the migration (a crash mid-shrink restarts into the old fleet
with some graphs already moved — still correct, still idempotent).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.core.engine import SubgraphQueryEngine
from repro.exec.worker import Health
from repro.graph.database import GraphDatabase
from repro.shard.host import ShardProcessHost
from repro.shard.partition import Partitioner, create_partitioner
from repro.shard.router import ShardRouter
from repro.store import IndexStore
from repro.utils.errors import ConfigurationError
from repro.utils.fsio import atomic_write_text
from repro.utils.timing import LatencyHistogram

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.metrics import QueryResult
    from repro.core.pipeline import QueryPipeline
    from repro.exec.base import QueryExecutor
    from repro.graph.labeled_graph import Graph

__all__ = ["MANIFEST_NAME", "SHARD_HOSTS", "ShardedEngine"]

#: The manifest file at the root of a sharded store.
MANIFEST_NAME = "shards.json"
MANIFEST_VERSION = 1

#: Where shard engines run: ``thread`` keeps every shard in-process
#: (fan-out threads share the GIL); ``process`` gives each shard a
#: long-lived worker process for true CPU parallelism.
SHARD_HOSTS = ("thread", "process")


@dataclass
class _Shard:
    """One partition: engine + health tracking, owned by the fleet.

    Under the thread host ``engine`` is the authoritative shard engine;
    under the process host it is a lightweight *mirror* (database copy +
    post-build attributes reconciled from the worker's ready message)
    and the authoritative engine lives in the shard's worker process.
    Either way ``engine.db`` is parent-side and current, so the router
    prunes against its seed screen.
    """

    index: int
    engine: SubgraphQueryEngine
    #: The shard's one failure throttle: the router's "down", and the
    #: respawn gate of its workers' owner (the process host, or the
    #: shard's pool, which is armed with this same object).
    health: Health
    histogram: LatencyHistogram
    store_dir: Path | None = None
    #: Process host only: the worker's journal state, mirrored from its
    #: replies so the service's compaction trigger sees real depths.
    wal_depth: int = 0
    wal_last_seq: int = 0


class _ShardedDbView:
    """Read-only union view over the shard databases.

    Gives the service and CLI the few ``GraphDatabase`` accessors they
    use (`len`, membership, item lookup, id listing) without ever
    materialising the union.
    """

    def __init__(self, shards: list[_Shard]) -> None:
        self._shards = shards

    def __len__(self) -> int:
        return sum(len(s.engine.db) for s in self._shards)

    def __contains__(self, gid: int) -> bool:
        return any(gid in s.engine.db for s in self._shards)

    def __getitem__(self, gid: int) -> "Graph":
        for shard in self._shards:
            if gid in shard.engine.db:
                return shard.engine.db[gid]
        raise KeyError(f"no graph with id {gid}")

    def __iter__(self):
        return iter(self.ids())

    def ids(self) -> list[int]:
        merged: set[int] = set()
        for shard in self._shards:
            merged.update(shard.engine.db.ids())
        return sorted(merged)

    def seed_screen(self, pairs) -> int:
        """Union of the shard databases' seed screens (ids are global)."""
        survivors = 0
        for shard in self._shards:
            survivors |= shard.engine.db.seed_screen(pairs)
        return survivors

    @property
    def next_id(self) -> int:
        return max(s.engine.db.next_id for s in self._shards)


class ShardedExecutor:
    """Facade over the per-shard executors (stats / invalidate / close).

    Exists so service code that treats ``engine.executor`` as one object
    (the ``stats`` verb names its type; drains close it) works over the
    fleet unchanged.
    """

    #: No pool of its own: a sharded engine skips its down shards fast
    #: instead of answering ``degraded``.
    health = None

    def __init__(self, shards: list[_Shard]) -> None:
        self._shards = shards

    def worker_stats(self) -> dict:
        return {
            "executor": "ShardedExecutor",
            "shards": [
                {"shard": s.index, **(s.engine.executor_stats() or {})}
                for s in self._shards
            ],
        }

    def invalidate(self) -> None:
        for shard in self._shards:
            shard.engine.executor.invalidate()

    def close(self) -> None:
        for shard in self._shards:
            shard.engine.executor.close()


class _ShardWalView:
    """Aggregate journal depth, for the service's auto-compact trigger."""

    def __init__(self, shards: list[_Shard]) -> None:
        self._shards = shards

    @property
    def depth(self) -> int:
        return sum(
            s.engine.store.wal.depth if s.engine.store is not None
            else s.wal_depth
            for s in self._shards
        )

    @property
    def last_seq(self) -> int:
        return max(
            (s.engine.store.wal.last_seq if s.engine.store is not None
             else s.wal_last_seq
             for s in self._shards),
            default=0,
        )


class _ShardStoreView:
    """What ``engine.store`` looks like for a sharded fleet."""

    def __init__(self, root: Path, shards: list[_Shard]) -> None:
        self.directory = root
        self.wal = _ShardWalView(shards)


class ShardedEngine:
    """N per-partition engines behind one engine-compatible surface."""

    def __init__(
        self,
        db: GraphDatabase,
        num_shards: int,
        pipeline_factory: "Callable[[], QueryPipeline]",
        *,
        executor_factory: "Callable[[Health], QueryExecutor] | None" = None,
        cache: int = 0,
        plan_cache: int = 256,
        partitioner: "str | Partitioner" = "hash",
        store_root: "str | Path | None" = None,
        health: "Callable[[], Health]" = partial(Health, threshold=3),
        shard_host: str = "thread",
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        if shard_host not in SHARD_HOSTS:
            raise ConfigurationError(
                f"shard_host must be 'thread' or 'process', got {shard_host!r}"
            )
        if shard_host == "process" and executor_factory is not None:
            raise ConfigurationError(
                "the process shard host runs each shard in its own "
                "process; per-shard worker pools (executor_factory / "
                "--jobs) require the thread host"
            )
        self.partitioner = (
            create_partitioner(partitioner)
            if isinstance(partitioner, str) else partitioner
        )
        self.shard_host = shard_host
        self._pipeline_factory = pipeline_factory
        self._executor_factory = executor_factory
        self._cache_capacity = cache
        self._plan_cache_capacity = plan_cache
        self._health = health
        self._store_root = Path(store_root) if store_root is not None else None
        self.seed_shards = self._load_or_create_manifest(num_shards)
        # The base database is always partitioned by ``seed_shards`` —
        # the invariant every shard WAL's base fingerprint depends on.
        partitions = [GraphDatabase(name=f"shard-{i}") for i in range(num_shards)]
        for gid, graph in db.items():
            owner = self.partitioner.owner(gid, self.seed_shards)
            if owner >= num_shards:  # pragma: no cover - guarded by manifest
                raise ConfigurationError(
                    f"graph {gid} belongs to shard {owner} but only "
                    f"{num_shards} shards are configured"
                )
            partitions[owner].add_graph_with_id(gid, graph)
        from repro.matching.plan import PlanCache

        #: One plan cache shared by every shard: plans depend only on the
        #: query graph, so a query planned once is planned for the fleet.
        #: (Process host: each worker keeps its own cache instead — a
        #: compiled plan cannot be shared across a pipe cheaply.)
        self.plans = PlanCache(plan_cache) if plan_cache else None
        #: Process host only: the frozen seed partitions.  A respawned
        #: worker with a store must be shipped its *base* partition — the
        #: slice its WAL base fingerprint is anchored to — so recovery
        #: can replay the journal on top.  Never mutated after this.
        self._base_partitions: list[GraphDatabase] | None = (
            partitions if shard_host == "process" else None
        )
        self._host: ShardProcessHost | None = None
        if shard_host == "process":
            self._host = ShardProcessHost(
                pipeline_factory,
                plan_cache=plan_cache,
                cache=cache,
            )
        self._shards: list[_Shard] = [
            self._make_shard(i, partitions[i]) for i in range(num_shards)
        ]
        host = self._host
        self.router = ShardRouter(
            self._shards,
            runner=(
                None if host is None
                else lambda shard, queries, time_limit: host.query_many(
                    shard.index, queries, time_limit
                )
            ),
        )
        self.db = _ShardedDbView(self._shards)
        self.executor = ShardedExecutor(self._shards)
        self._index_built = False
        self.indexing_time = 0.0
        self.compactions = 0
        # Aggregates mirroring SubgraphQueryEngine's post-build attributes.
        self.degraded = False
        self.degraded_reason: str | None = None
        self.index_source: str | None = None
        self.store_recovery: str | None = None
        self.store_save_error: str | None = None
        self.wal_recovery: dict | None = None
        self.recovered_request_keys: list[tuple[str, str, int]] = []
        #: ``(ticket, query, time_limit)`` submitted since the last collect.
        self._queued: list[tuple[int, "Graph", float | None]] = []
        self._tickets = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _make_shard(self, index: int, db: GraphDatabase) -> _Shard:
        if self._host is not None:
            # Process host: ``db`` is (or becomes) the frozen base
            # partition; the parent-side engine is only a mirror, so it
            # gets its own database copy and never builds an index.
            mirror = GraphDatabase(name=f"shard-{index}")
            for gid, graph in db.items():
                mirror.add_graph_with_id(gid, graph)
            db = mirror
        health = self._health()
        # The shard's one Health: a pool the factory builds is armed with
        # it, so the router and the pool count into the same object.
        executor = (
            self._executor_factory(health)
            if self._executor_factory is not None else None
        )
        engine = SubgraphQueryEngine(
            db,
            self._pipeline_factory(),
            executor=executor,
            cache=self._cache_capacity,
            plan_cache=0,
        )
        engine.plans = self.plans
        return _Shard(
            index=index,
            engine=engine,
            health=health,
            histogram=LatencyHistogram(),
            store_dir=self._shard_dir(index),
        )

    def _shard_dir(self, index: int) -> Path | None:
        if self._store_root is None:
            return None
        return self._store_root / f"shard-{index:02d}"

    # ------------------------------------------------------------------
    # Process-host plumbing
    # ------------------------------------------------------------------

    def _register_shard_worker(self, shard: _Shard) -> None:
        """Spawn (and adopt the ready state of) one shard's worker.

        The database supplier decides what a fresh worker is shipped:
        with a store, the frozen *base* partition — the worker's WAL is
        anchored to its fingerprint, and in-child recovery replays every
        acknowledged mutation on top; without a store, the parent's live
        mirror, which already holds every mutation applied so far.
        """
        assert self._host is not None and self._base_partitions is not None
        index = shard.index
        if shard.store_dir is not None:
            supplier = lambda: self._base_partitions[index]  # noqa: E731
        else:
            supplier = lambda: shard.engine.db  # noqa: E731
        self._host.register(
            index,
            db_supplier=supplier,
            store_dir=shard.store_dir,
            on_ready=lambda info: self._adopt_ready(shard, info),
            health=shard.health,
        )

    def _adopt_ready(self, shard: _Shard, info: dict) -> None:
        """Reconcile the parent mirror from a worker's ready message.

        Runs on every (re)spawn: the child's WAL recovery is the source
        of truth for the shard's contents, so the mirror database is
        replaced wholesale and the engine's post-build attributes are
        copied over for ``shard_stats``/aggregation to read as usual.
        """
        shard.engine.db.restore(list(info["graphs"]), info["next_id"])
        shard.wal_depth = info["wal_depth"]
        shard.wal_last_seq = info["wal_last_seq"]
        engine = shard.engine
        engine.indexing_time = info["indexing_time"]
        engine.degraded = info["degraded"]
        engine.degraded_reason = info["degraded_reason"]
        engine.index_source = info["index_source"]
        engine.store_recovery = info["store_recovery"]
        engine.store_save_error = info["store_save_error"]
        engine.wal_recovery = info["wal_recovery"]
        engine.recovered_request_keys = list(info["recovered_request_keys"])

    def _require_workers(self) -> None:
        if self._host is not None and not self._index_built:
            raise ConfigurationError(
                "the process shard host spawns its workers in "
                "build_index(); build before mutating"
            )

    # ------------------------------------------------------------------
    # Host-agnostic single-shard mutations
    # ------------------------------------------------------------------

    def _shard_add(
        self,
        shard: _Shard,
        gid: int,
        graph: "Graph",
        request_key: str | None = None,
    ) -> None:
        if self._host is not None:
            # The worker journals + applies + indexes; only after its ack
            # does the parent mirror the insertion.
            state = self._host.add_graph(
                shard.index, gid, graph, request_key=request_key
            )
            shard.engine.db.add_graph_with_id(gid, graph)
            shard.wal_depth = state["wal_depth"]
            shard.wal_last_seq = state["wal_last_seq"]
        else:
            shard.engine.add_graph_with_id(gid, graph, request_key=request_key)

    def _shard_remove(
        self, shard: _Shard, gid: int, request_key: str | None = None
    ) -> "Graph":
        if self._host is None:
            return shard.engine.remove_graph(gid, request_key=request_key)
        state = self._host.remove_graph(shard.index, gid, request_key=request_key)
        shard.engine.db.remove_graph(gid)
        shard.wal_depth = state["wal_depth"]
        shard.wal_last_seq = state["wal_last_seq"]
        return state["graph"]

    def _load_or_create_manifest(self, num_shards: int) -> int:
        """Returns ``seed_shards``; validates or writes the manifest."""
        if self._store_root is None:
            return num_shards
        path = self._store_root / MANIFEST_NAME
        if path.exists():
            try:
                manifest = json.loads(path.read_text())
            except ValueError as exc:
                raise ConfigurationError(
                    f"unreadable shard manifest {path}: {exc}"
                ) from exc
            if manifest.get("version") != MANIFEST_VERSION:
                raise ConfigurationError(
                    f"shard manifest {path} has unsupported version "
                    f"{manifest.get('version')!r}"
                )
            if manifest.get("partitioner") != self.partitioner.name:
                raise ConfigurationError(
                    f"store {self._store_root} was sharded with the "
                    f"{manifest.get('partitioner')!r} partitioner; "
                    f"requested {self.partitioner.name!r}"
                )
            if manifest.get("num_shards") != num_shards:
                raise ConfigurationError(
                    f"store {self._store_root} is sharded "
                    f"{manifest.get('num_shards')} ways; restart with "
                    f"--shards {manifest.get('num_shards')} (or rebalance "
                    "to the new count first)"
                )
            return int(manifest["seed_shards"])
        self._write_manifest(num_shards, num_shards)
        return num_shards

    def _write_manifest(self, num_shards: int, seed_shards: int) -> None:
        if self._store_root is None:
            return
        self._store_root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self._store_root / MANIFEST_NAME,
            json.dumps(
                {
                    "version": MANIFEST_VERSION,
                    "num_shards": num_shards,
                    "seed_shards": seed_shards,
                    "partitioner": self.partitioner.name,
                },
                indent=2,
                sort_keys=True,
            ) + "\n",
        )

    # ------------------------------------------------------------------
    # Engine surface
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._shards[0].engine.name

    @property
    def pipeline(self):
        """First shard's pipeline (all shards run identical pipelines);
        gives callers the usual ``engine.pipeline.uses_index`` surface."""
        return self._shards[0].engine.pipeline

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def cache(self):
        """First shard's containment cache (None when caching is off)."""
        return self._shards[0].engine.cache

    @property
    def store(self) -> "_ShardStoreView | None":
        if self._store_root is None:
            return None
        return _ShardStoreView(self._store_root, self._shards)

    def build_index(
        self,
        time_limit: float | None = None,
        fallback: bool = False,
        store: "IndexStore | None" = None,
    ) -> float:
        """Build or warm-start every shard's index **independently**.

        Each shard recovers on its own: a corrupt snapshot or quarantined
        journal on one shard triggers that shard's rebuild without
        touching its siblings.  Per-shard recovery counters are summed
        into ``wal_recovery`` (per-shard rows stay available through
        :meth:`store_stats`).
        """
        if store is not None:
            raise ConfigurationError(
                "a sharded engine manages one store per shard; construct "
                "it with store_root=... instead of passing a store here"
            )
        total = 0.0
        keys: list[tuple[str, str, int]] = []
        recovery_total: dict | None = None
        sources: set[str | None] = set()
        for shard in self._shards:
            if self._host is not None:
                self._register_shard_worker(shard)
                total += shard.engine.indexing_time
            else:
                shard_store = (
                    IndexStore(shard.store_dir) if shard.store_dir is not None
                    else None
                )
                total += shard.engine.build_index(
                    time_limit, fallback, store=shard_store
                )
            keys.extend(shard.engine.recovered_request_keys)
            sources.add(shard.engine.index_source)
            if shard.engine.degraded and not self.degraded:
                self.degraded = True
                self.degraded_reason = shard.engine.degraded_reason
            if shard.engine.store_recovery and self.store_recovery is None:
                self.store_recovery = shard.engine.store_recovery
            if shard.engine.store_save_error and self.store_save_error is None:
                self.store_save_error = shard.engine.store_save_error
            if shard.engine.wal_recovery is not None:
                if recovery_total is None:
                    recovery_total = {
                        "folded_seq": 0, "log_records": 0, "replayed": 0,
                        "truncated": 0, "reason": None, "quarantined": False,
                    }
                rec = shard.engine.wal_recovery
                recovery_total["folded_seq"] = max(
                    recovery_total["folded_seq"], rec["folded_seq"]
                )
                for key in ("log_records", "replayed", "truncated"):
                    recovery_total[key] += rec[key]
                if rec["reason"] and recovery_total["reason"] is None:
                    recovery_total["reason"] = rec["reason"]
                recovery_total["quarantined"] = (
                    recovery_total["quarantined"] or rec["quarantined"]
                )
        self.wal_recovery = recovery_total
        self.recovered_request_keys = keys
        real_sources = {s for s in sources if s is not None}
        if real_sources:
            self.index_source = (
                real_sources.pop() if len(real_sources) == 1 else "mixed"
            )
        self.indexing_time = total
        self._index_built = True
        return total

    def query(
        self, query: "Graph", time_limit: float | None = None
    ) -> "QueryResult":
        return self.query_many([query], time_limit=time_limit)[0]

    def query_many(
        self, queries: "list[Graph]", time_limit: float | None = None
    ) -> "list[QueryResult]":
        for q in queries:
            if q.num_vertices == 0:
                raise ConfigurationError(
                    "query graph must have at least one vertex"
                )
        if not self._index_built:
            raise ConfigurationError(
                f"{self.name} requires build_index() before querying"
            )
        return self.router.query_many(queries, time_limit=time_limit)

    def submit(self, query: "Graph", time_limit: float | None = None) -> int:
        """Queue one query for the next :meth:`collect`; returns its ticket
        (the engine's streaming surface, see :meth:`SubgraphQueryEngine.
        submit <repro.core.engine.SubgraphQueryEngine.submit>`)."""
        self._tickets += 1
        self._queued.append((self._tickets, query, time_limit))
        return self._tickets

    def collect(
        self, timeout: float | None = None, also: Sequence = ()
    ) -> "list[tuple[int, QueryResult]]":
        """Scatter-gather everything queued since the last collect.

        Fan-out stays per batch: one :meth:`query_many` per run of queued
        queries sharing a time limit (normally one), so the router and its
        merge are the batch path's, unchanged.
        """
        queued, self._queued = self._queued, []
        done: "list[tuple[int, QueryResult]]" = []
        for time_limit, run in groupby(queued, key=lambda job: job[2]):
            jobs = list(run)
            results = self.query_many([job[1] for job in jobs], time_limit)
            done.extend(zip((job[0] for job in jobs), results))
        return done

    # ------------------------------------------------------------------
    # Shard-targeted mutations
    # ------------------------------------------------------------------

    @property
    def next_id(self) -> int:
        return self.db.next_id

    def owner_of(self, gid: int) -> int:
        """The shard placement says should hold ``gid`` (current fleet)."""
        return self.partitioner.owner(gid, len(self._shards))

    def add_graph(
        self,
        graph: "Graph",
        store: "IndexStore | None" = None,
        request_key: str | None = None,
    ) -> int:
        """Insert on the owning shard only (journal, index, pool — all
        scoped to that one partition)."""
        if store is not None:
            raise ConfigurationError(
                "sharded mutations journal through per-shard stores"
            )
        self._require_workers()
        gid = self.next_id
        shard = self._shards[self.owner_of(gid)]
        self._shard_add(shard, gid, graph, request_key=request_key)
        return gid

    def remove_graph(
        self,
        gid: int,
        store: "IndexStore | None" = None,
        request_key: str | None = None,
    ) -> "Graph":
        """Delete ``gid`` from every shard holding it.

        Normally exactly one shard holds a graph; a crash between the two
        phases of a rebalance move can briefly leave a duplicate, and a
        removal must take *both* copies out or the graph would resurrect.
        Raises :class:`KeyError` when no shard holds ``gid``.
        """
        if store is not None:
            raise ConfigurationError(
                "sharded mutations journal through per-shard stores"
            )
        self._require_workers()
        removed: "Graph | None" = None
        for shard in self._shards:
            if gid in shard.engine.db:
                removed = self._shard_remove(shard, gid, request_key=request_key)
        if removed is None:
            raise KeyError(f"no graph with id {gid}")
        return removed

    # ------------------------------------------------------------------
    # Rebalance (the two-phase move)
    # ------------------------------------------------------------------

    def rebalance(self, target_shards: int | None = None) -> dict:
        """Migrate graphs so every one sits on its owning shard.

        With ``target_shards`` the fleet first grows (new empty shards,
        manifest updated up front) or shrinks (manifest updated after the
        migration; refuses to drop below ``seed_shards`` while a store is
        attached).  Every move is the journaled two-phase protocol from
        the module docstring; duplicates left by an interrupted move are
        healed.  Idempotent: a second call moves nothing.
        """
        target = target_shards if target_shards is not None else len(self._shards)
        if target < 1:
            raise ConfigurationError("target shard count must be at least 1")
        if self._store_root is not None and target < self.seed_shards:
            raise ConfigurationError(
                f"cannot shrink below the seed shard count "
                f"({self.seed_shards}): every shard journal is anchored to "
                "its seed partition of the base database"
            )
        grown = target - len(self._shards)
        if grown > 0:
            self._write_manifest(target, self.seed_shards)
            for i in range(len(self._shards), target):
                base = GraphDatabase(name=f"shard-{i}")
                if self._base_partitions is not None:
                    # A grown shard's WAL anchors to its empty base slice.
                    self._base_partitions.append(base)
                shard = self._make_shard(i, base)
                self._shards.append(shard)
                if self._index_built:
                    if self._host is not None:
                        self._register_shard_worker(shard)
                    else:
                        shard.engine.build_index(
                            store=IndexStore(shard.store_dir)
                            if shard.store_dir is not None else None
                        )
        moved = healed = 0
        for shard in list(self._shards):
            for gid in list(shard.engine.db.ids()):
                owner = self.partitioner.owner(gid, target)
                if owner == shard.index:
                    continue
                dest = self._shards[owner]
                if gid in dest.engine.db:
                    # The destination half of an interrupted move already
                    # landed; deleting the stray source copy heals it.
                    self._shard_remove(shard, gid)
                    healed += 1
                    continue
                graph = shard.engine.db[gid]
                self._shard_add(dest, gid, graph)
                self._shard_remove(shard, gid)
                moved += 1
        dropped = 0
        if target < len(self._shards):
            dying = self._shards[target:]
            del self._shards[target:]
            if self._base_partitions is not None:
                del self._base_partitions[target:]
            self._write_manifest(target, self.seed_shards)
            for shard in dying:
                dropped += 1
                if self._host is not None:
                    self._host.stop(shard.index)
                shard.engine.close()
        return {
            "num_shards": len(self._shards),
            "moved": moved,
            "healed": healed,
            "grown": max(0, grown),
            "dropped": dropped,
            "graphs": [len(s.engine.db) for s in self._shards],
        }

    # ------------------------------------------------------------------
    # Maintenance / accounting
    # ------------------------------------------------------------------

    def compact_store(self) -> dict:
        """Compact every shard's journal; returns a merged summary."""
        if self._store_root is None:
            raise ConfigurationError(
                "compact_store requires a sharded engine built with "
                "store_root=..."
            )
        per_shard = []
        for shard in self._shards:
            if self._host is not None:
                state = self._host.compact(shard.index)
                summary = state["result"]
                shard.wal_depth = state["wal_depth"]
                shard.wal_last_seq = state["wal_last_seq"]
                shard.engine.compactions += 1
            else:
                summary = shard.engine.compact_store()
            per_shard.append({"shard": shard.index, **summary})
        self.compactions += 1
        return {
            "log_depth": sum(row["log_depth"] for row in per_shard),
            "folded": sum(row["folded"] for row in per_shard),
            "compactions": self.compactions,
            "shards": per_shard,
        }

    def executor_stats(self) -> dict:
        return self.executor.worker_stats()

    def store_stats(self) -> dict | None:
        if self._store_root is None:
            return None
        rows = []
        for shard in self._shards:
            row = shard.engine.store_stats()
            if row is None and self._host is not None:
                # Mirror view: the store is open in the worker process.
                row = {
                    "directory": str(shard.store_dir),
                    "wal_depth": shard.wal_depth,
                    "wal_last_seq": shard.wal_last_seq,
                    "compactions": shard.engine.compactions,
                }
                if shard.engine.wal_recovery is not None:
                    row["recovery"] = dict(shard.engine.wal_recovery)
            rows.append({"shard": shard.index, **(row or {})})
        stats: dict = {
            "directory": str(self._store_root),
            "wal_depth": self.store.wal.depth,
            "wal_last_seq": self.store.wal.last_seq,
            "compactions": self.compactions,
            "shards": rows,
        }
        if self.wal_recovery is not None:
            stats["recovery"] = dict(self.wal_recovery)
        return stats

    def shard_stats(self) -> list[dict]:
        """Per-shard health rows for the service's ``stats`` verb."""
        return [
            {
                "shard": shard.index,
                "graphs": len(shard.engine.db),
                "algorithm": shard.engine.name,
                "degraded": shard.engine.degraded,
                "index_source": shard.engine.index_source,
                "breaker": shard.health.snapshot(),
                "latency": shard.histogram.summary(),
                "store": (
                    str(shard.store_dir) if shard.store_dir is not None
                    else None
                ),
                "host": (
                    self._host.worker_row(shard.index)
                    if self._host is not None else None
                ),
            }
            for shard in self._shards
        ]

    def prune_stats(self) -> dict:
        """Router pruning counters for the service's ``stats`` verb.

        ``shard_queries`` counts every (shard, query) pair the router
        considered; ``shards_pruned`` the pairs it soundly skipped.
        """
        considered, pruned = self.router.prune_counters()
        return {
            "shard_host": self.shard_host,
            "shard_queries": considered,
            "shards_pruned": pruned,
            "prune_rate": (pruned / considered) if considered else 0.0,
        }

    def index_memory_bytes(self) -> int:
        return sum(s.engine.index_memory_bytes() for s in self._shards)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._host is not None:
            self._host.close()
        for shard in self._shards:
            shard.engine.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<ShardedEngine {self.name!r} shards={len(self._shards)} "
            f"graphs={len(self.db)}>"
        )
