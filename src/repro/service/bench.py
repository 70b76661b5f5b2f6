"""Closed- and open-loop load benchmark for the query service.

Answers the serving-side questions the per-query microbenchmarks cannot:
what throughput does a *resident* engine sustain under concurrent
clients, what do tail latencies look like once queue wait is included,
and how much the result cache buys on repeated workloads.

Two load models, both driven through real sockets and the real client
library:

* **closed loop** — ``concurrency`` clients, each with one connection,
  each sending its next query the moment the previous answer arrives.
  Throughput scales with client count until the service saturates;
  latency hides queueing (each client only ever has one request in
  flight).
* **open loop** — requests depart on a fixed schedule (``rate`` per
  second) regardless of completions, the way independent users arrive.
  Latency is measured from the *scheduled* departure time, so queue
  buildup shows up in the tail instead of being silently absorbed
  (no coordinated omission).

A **sharding sweep** (always on) prices scatter-gather routing: the same
workload is served at every count in ``shard_counts`` (1/2/4 by default)
and each cell's answers are asserted bit-identical to an unsharded
reference engine before its throughput is recorded.

Each cell runs against a fresh service (fresh cache, fresh counters) on a
Unix socket.  Per-thread latencies land in private
:class:`~repro.utils.timing.LatencyHistogram` s merged at reporting time
— the same mergeable histogram the service itself uses.  Results are
written to ``BENCH_serve.json`` by ``repro bench-serve``.

``repro bench-serve --chaos`` additionally runs the **resilience suite**
(:func:`run_resilience_bench`): supervised-vs-in-process overhead cells,
a scripted breaker lifecycle of the pool's ``Health`` (crash storm →
``degraded`` rejections → recovery probe), and a chaos cell that
injects ``worker.query`` crashes into ~10 % of executions under
closed-loop load, and a durability cell
that prices the write-ahead mutation log and proves recovery replays
every journaled mutation bit-identically.  The chaos and durability
cells are self-asserting — the service must survive, every request must
receive a terminal response, the pool must show restarts, and recovery
must reproduce the mutated database exactly — so a regression fails the
run instead of silently skewing a number.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, replace

from repro.core.algorithms import create_engine
from repro.exec import Health, create_executor, executor_factory, faults
from repro.graph.database import GraphDatabase
from repro.graph.generators import generate_database
from repro.service.client import ServiceClient, ServiceError, wait_for_service
from repro.service.server import QueryService, ServiceConfig
from repro.store import IndexStore, database_fingerprint
from repro.utils.fsio import atomic_write_text
from repro.utils.timing import LatencyHistogram
from repro.workloads.querysets import generate_query_set

__all__ = [
    "BenchServeConfig",
    "run_bench_serve",
    "run_resilience_bench",
    "write_report",
]


@dataclass(frozen=True)
class BenchServeConfig:
    """Workload and matrix knobs for one ``bench-serve`` run."""

    algorithm: str = "CFQL"
    num_graphs: int = 60
    num_vertices: int = 24
    avg_degree: float = 2.8
    num_labels: int = 5
    query_edges: int = 5
    num_queries: int = 12
    requests_per_client: int = 40
    concurrency: tuple[int, ...] = (1, 2, 4)
    jobs: int = 1
    time_limit: float = 60.0
    capacity: int = 64
    batch_max: int = 8
    cache_capacity: int = 128
    #: Open-loop arrival rate in requests/s; None derives ~75 % of the
    #: measured closed-loop throughput so the queue is loaded but stable.
    open_loop_rate: float | None = None
    open_loop_requests: int = 80
    seed: int = 0
    #: Resilience-suite knobs (``--chaos``): client fan-out for the
    #: supervised-vs-in-process overhead cells, pool width for the
    #: supervised cells, and the deterministic crash rate of the chaos
    #: cell (every N-th worker execution crashes; 10 = 10 %).
    resilience_concurrency: tuple[int, ...] = (1, 4)
    resilience_jobs: int = 2
    chaos_crash_every: int = 10
    chaos_requests_per_client: int = 25
    #: Shard counts for the scatter-gather scaling sweep; every cell is
    #: asserted bit-identical to an unsharded reference engine.
    shard_counts: tuple[int, ...] = (1, 2, 4)

    @classmethod
    def quick(cls) -> "BenchServeConfig":
        """CI-sized variant: seconds, not minutes."""
        # Fewer distinct queries than requests per client, so even the
        # single-client cell repeats queries and exercises the cache.
        return cls(
            num_graphs=24,
            num_queries=6,
            requests_per_client=12,
            concurrency=(1, 2),
            open_loop_requests=24,
            resilience_concurrency=(1, 2),
            chaos_crash_every=6,
            chaos_requests_per_client=15,
            shard_counts=(1, 2),
        )


def _make_workload(config: BenchServeConfig):
    db = generate_database(
        num_graphs=config.num_graphs,
        num_vertices=config.num_vertices,
        avg_degree=config.avg_degree,
        num_labels=config.num_labels,
        seed=config.seed,
        name="bench-serve",
    )
    queries = list(
        generate_query_set(
            db,
            num_edges=config.query_edges,
            dense=False,
            size=config.num_queries,
            seed=config.seed + 1,
        )
    )
    return db, queries


class _ServiceUnderTest:
    """A service on a temp Unix socket, drained and checked on exit.

    ``executor`` overrides the default choice (``parallel`` when
    ``config.jobs > 1``, in-process otherwise): the resilience suite
    passes ``"supervised"``/``"inprocess"`` explicitly, and arms that
    pool with ``health``.
    """

    def __init__(self, config: BenchServeConfig, cache_on: bool, *,
                 executor: str | None = None, jobs: int | None = None,
                 health: Health | None = None,
                 shards: int | None = None,
                 shard_host: str = "thread",
                 partitioner: str = "hash",
                 database=None) -> None:
        self._config = config
        self._cache_on = cache_on
        self._executor = executor
        self._jobs = config.jobs if jobs is None else jobs
        self._health = health
        self._shards = shards
        self._shard_host = shard_host
        self._partitioner = partitioner
        self._database = database
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-bench-serve-")
        self.address = f"unix:{os.path.join(self._tmp.name, 'serve.sock')}"
        self._exit_code: int | None = None
        self._thread: threading.Thread | None = None
        self.service: QueryService | None = None

    def __enter__(self) -> "_ServiceUnderTest":
        config = self._config
        if self._database is not None:
            db = self._database
        else:
            db, _ = _make_workload(config)
        if self._shards is not None:
            # Sharded cells always route through the ShardedEngine, even
            # at one shard, so the sweep prices the router itself.
            from repro.core.algorithms import create_pipeline
            from repro.shard import ShardedEngine

            engine = ShardedEngine(
                db,
                self._shards,
                lambda: create_pipeline(config.algorithm),
                executor_factory=executor_factory(jobs=self._jobs),
                shard_host=self._shard_host,
                partitioner=self._partitioner,
            )
        else:
            name = self._executor or (
                "parallel" if self._jobs > 1 else "inprocess"
            )
            executor = None if name == "inprocess" else create_executor(
                name, jobs=self._jobs, health=self._health
            )
            engine = create_engine(db, config.algorithm, executor=executor)
        engine.build_index()
        self.service = QueryService(
            engine,
            ServiceConfig(
                capacity=config.capacity,
                batch_max=config.batch_max,
                cache_capacity=config.cache_capacity if self._cache_on else 0,
                default_time_limit=config.time_limit,
            ),
        )

        def run() -> None:
            self._exit_code = self.service.serve(self.address)

        self._thread = threading.Thread(
            target=run, name="bench-serve-server", daemon=True
        )
        self._thread.start()
        wait_for_service(self.address)
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            if exc_info[0] is None:
                with ServiceClient(self.address) as client:
                    client.shutdown()
            else:
                self.service.request_shutdown()
            self._thread.join(timeout=30.0)
            if exc_info[0] is None and self._exit_code != 0:
                raise RuntimeError(
                    f"service exited with code {self._exit_code}, expected 0"
                )
        finally:
            self._tmp.cleanup()


class _ClientTally:
    """One load-generating thread's private counters (merged at the end)."""

    def __init__(self) -> None:
        self.histogram = LatencyHistogram()
        self.attempts = 0
        self.terminal = 0
        self.completed = 0
        self.cache_hits = 0
        self.failures = 0
        self.crashes = 0
        self.overloaded = 0
        self.degraded = 0


def _send_one(client: ServiceClient, query, tally: _ClientTally,
              latency_origin: float, time_limit: float,
              no_cache: bool = False) -> None:
    tally.attempts += 1
    try:
        result = client.query(query, time_limit=time_limit, no_cache=no_cache)
    except ServiceError as exc:
        # Fast rejections are *terminal* answers — the request's fate is
        # settled, nothing was silently dropped.
        if exc.code == "overloaded":
            tally.overloaded += 1
            tally.terminal += 1
            return
        if exc.code == "degraded":
            tally.degraded += 1
            tally.terminal += 1
            return
        raise
    tally.terminal += 1
    tally.histogram.record(time.perf_counter() - latency_origin)
    tally.completed += 1
    if result.get("cache") == "hit":
        tally.cache_hits += 1
    if result.get("timed_out") or result.get("failure"):
        tally.failures += 1
        failure = result.get("failure") or {}
        if failure.get("kind") == "crash":
            tally.crashes += 1


def _run_closed_loop(address: str, queries, config: BenchServeConfig,
                     concurrency: int) -> dict:
    tallies = [_ClientTally() for _ in range(concurrency)]
    barrier = threading.Barrier(concurrency + 1)
    errors: list[Exception] = []

    def worker(thread_index: int) -> None:
        tally = tallies[thread_index]
        try:
            with ServiceClient(address) as client:
                barrier.wait()
                for r in range(config.requests_per_client):
                    # Stagger starting offsets so clients do not move in
                    # lockstep through the query list.
                    query = queries[(thread_index * 3 + r) % len(queries)]
                    _send_one(client, query, tally, time.perf_counter(),
                              config.time_limit)
        except Exception as exc:  # surfaced after the join
            errors.append(exc)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(concurrency)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return _fold(tallies, wall, {"concurrency": concurrency, "mode": "closed"})


def _run_open_loop(address: str, queries, config: BenchServeConfig,
                   rate: float, connections: int) -> dict:
    tallies = [_ClientTally() for _ in range(connections)]
    next_index = [0]
    index_lock = threading.Lock()
    start_holder = [0.0]
    barrier = threading.Barrier(connections + 1)
    errors: list[Exception] = []

    def worker(thread_index: int) -> None:
        tally = tallies[thread_index]
        try:
            with ServiceClient(address) as client:
                barrier.wait()
                while True:
                    with index_lock:
                        i = next_index[0]
                        if i >= config.open_loop_requests:
                            return
                        next_index[0] += 1
                    departure = start_holder[0] + i / rate
                    delay = departure - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    # Latency from the scheduled departure: a late send
                    # (all connections busy) counts against the service.
                    _send_one(client, queries[i % len(queries)], tally,
                              departure, config.time_limit)
        except Exception as exc:
            errors.append(exc)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(connections)
    ]
    for t in threads:
        t.start()
    start_holder[0] = time.perf_counter() + 0.05
    barrier.wait()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start_holder[0]
    if errors:
        raise errors[0]
    return _fold(tallies, wall, {
        "mode": "open", "rate_qps": rate, "connections": connections,
    })


def _fold(tallies: list[_ClientTally], wall: float, extra: dict) -> dict:
    merged = LatencyHistogram()
    attempts = terminal = completed = cache_hits = 0
    failures = crashes = overloaded = degraded = 0
    for tally in tallies:
        merged.merge(tally.histogram)
        attempts += tally.attempts
        terminal += tally.terminal
        completed += tally.completed
        cache_hits += tally.cache_hits
        failures += tally.failures
        crashes += tally.crashes
        overloaded += tally.overloaded
        degraded += tally.degraded
    return {
        **extra,
        "attempts": attempts,
        "terminal_responses": terminal,
        "completed": completed,
        "cache_hits": cache_hits,
        "failures": failures,
        "crashes": crashes,
        "overloaded": overloaded,
        "degraded": degraded,
        "wall_s": wall,
        "throughput_qps": completed / wall if wall > 0 else 0.0,
        "latency_ms": {
            "mean": merged.mean * 1000.0,
            "p50": merged.percentile(50) * 1000.0,
            "p95": merged.percentile(95) * 1000.0,
            "p99": merged.percentile(99) * 1000.0,
            "max": merged.max_value * 1000.0,
        },
    }


def _server_digest(address: str) -> dict:
    with ServiceClient(address) as client:
        stats = client.stats()
    return {
        "batches": stats["batches"],
        "cache": stats["cache"],
        "queue_wait_p99_ms": stats["latency"]["queue_wait"]["p99_s"] * 1000.0,
        "requests": stats["requests"],
    }


# ----------------------------------------------------------------------
# Resilience suite (``--chaos``)
# ----------------------------------------------------------------------

def _overhead_cells(config: BenchServeConfig, queries) -> list[dict]:
    """Supervised-vs-in-process isolation tax, closed loop, cache off."""
    cells: list[dict] = []
    p50_baseline: dict[int, float] = {}
    for executor in ("inprocess", "supervised"):
        for concurrency in config.resilience_concurrency:
            with _ServiceUnderTest(
                config, cache_on=False,
                executor=executor, jobs=config.resilience_jobs,
            ) as under_test:
                cell = _run_closed_loop(
                    under_test.address, queries, config, concurrency
                )
            cell["executor"] = executor
            if executor == "inprocess":
                p50_baseline[concurrency] = cell["latency_ms"]["p50"]
            else:
                base = p50_baseline.get(concurrency)
                if base:
                    cell["p50_overhead_pct"] = (
                        (cell["latency_ms"]["p50"] / base - 1.0) * 100.0
                    )
            cells.append(cell)
    return cells


def _breaker_lifecycle(config: BenchServeConfig, queries) -> dict:
    """Drive the pool's Health through closed → open → half-open → closed.

    Phase A arms a 100 % ``worker.query`` crash (a storm, not the chaos
    cell's background rate — consecutive failures are what open it) and
    queries until a ``degraded`` rejection proves it open.  Phase B
    disarms the fault and probes until a clean answer proves the
    half-open probe closed it again.  ``stats.breaker`` and
    ``stats.workers`` read the same Health, so the cell reports the
    pool's ``storm_trips`` beside the breaker's ``transitions``.
    """
    threshold, cooldown = 3, 0.4
    with _ServiceUnderTest(
        config, cache_on=False,
        executor="supervised", jobs=config.resilience_jobs,
        health=Health(threshold, cooldown),
    ) as under_test:
        try:
            faults.inject("worker.query", "crash")
            opened = False
            with ServiceClient(under_test.address) as client:
                for i in range(threshold * 10):
                    try:
                        client.query(
                            queries[i % len(queries)],
                            time_limit=config.time_limit,
                        )
                    except ServiceError as exc:
                        if exc.code == "degraded":
                            opened = True
                            break
                        raise
                state_open = client.stats()["breaker"]["state"]
                faults.clear()
                reclosed = False
                for _ in range(50):
                    time.sleep(cooldown / 2)
                    try:
                        result = client.query(
                            queries[0], time_limit=config.time_limit
                        )
                    except ServiceError as exc:
                        if exc.code == "degraded":
                            continue  # probe not admitted yet, or failed
                        raise
                    if not result.get("failure"):
                        reclosed = True
                        break
                final = client.stats()
        finally:
            faults.clear()
    transitions = final["breaker"]["transitions"]
    cell = {
        "opened": opened,
        "reclosed": reclosed,
        "state_while_open": state_open,
        "state_final": final["breaker"]["state"],
        "transitions": transitions,
        "storm_trips": (final["workers"] or {}).get("storm_trips", 0),
        "worker_restarts": (final["workers"] or {}).get("restarts", 0),
    }
    for required in ("closed->open", "open->half_open", "half_open->closed"):
        if not opened or not reclosed or transitions.get(required, 0) < 1:
            raise RuntimeError(
                "breaker lifecycle incomplete: expected closed→open→"
                f"half-open→closed, observed {cell!r}"
            )
    return cell


def _chaos_cell(config: BenchServeConfig, queries) -> dict:
    """Closed-loop load with crashes injected into ~1/N executions.

    Self-asserting: the service must survive the storm (clean drain on
    exit), every request must get a terminal response, the supervised
    pool must show restarts, and the non-success rate must stay bounded.
    """
    load = replace(
        config, requests_per_client=config.chaos_requests_per_client
    )
    concurrency = max(config.resilience_concurrency)
    with _ServiceUnderTest(
        config, cache_on=False,
        executor="supervised", jobs=config.resilience_jobs,
        health=Health(5, 0.25),
    ) as under_test:
        try:
            faults.inject(
                "worker.query", "crash", every=config.chaos_crash_every
            )
            cell = _run_closed_loop(
                under_test.address, queries, load, concurrency
            )
            with ServiceClient(under_test.address) as client:
                stats = client.stats()
        finally:
            faults.clear()
    workers = stats["workers"] or {}
    injected_pct = 100.0 / config.chaos_crash_every
    error_pct = (
        100.0 * (cell["crashes"] + cell["degraded"]) / max(1, cell["attempts"])
    )
    cell.update({
        "concurrency": concurrency,
        "crash_every": config.chaos_crash_every,
        "injected_rate_pct": injected_pct,
        "error_rate_pct": error_pct,
        "worker_restarts": workers.get("restarts", 0),
        "breaker": stats["breaker"],
    })
    if cell["terminal_responses"] != cell["attempts"]:
        raise RuntimeError(
            f"chaos cell lost responses: {cell['attempts']} requests, "
            f"{cell['terminal_responses']} terminal responses"
        )
    if cell["crashes"] + cell["degraded"] == 0:
        raise RuntimeError(
            "chaos cell injected crashes but observed none — the fault "
            "site is dead or the load never reached the workers"
        )
    if cell["worker_restarts"] < 1:
        raise RuntimeError("chaos cell killed workers but the pool shows "
                           "zero restarts")
    # Crashes surface as structured answers at roughly the injected rate;
    # 3× + 10pt leaves room for breaker-open bursts on slow hosts.
    bound_pct = min(95.0, 3.0 * injected_pct + 10.0)
    if error_pct > bound_pct:
        raise RuntimeError(
            f"chaos error rate {error_pct:.1f}% exceeds the "
            f"{bound_pct:.1f}% bound for an injected {injected_pct:.1f}%"
        )
    return cell


def _durability_cell(config: BenchServeConfig) -> dict:
    """Durable-mutation tax and recovery proof.

    Streams one mutation batch through a plain engine and through a
    WAL-backed one (a durable journal append + fsync per mutation),
    reports the throughput cost, then warm-starts a fresh engine from
    the store and requires every mutation to replay bit-identically —
    answers included — before compaction folds the journal to zero.
    Self-asserting, like the chaos cell: a broken recovery path fails
    the run instead of skewing a number.
    """
    _, queries = _make_workload(config)

    def ops():
        db, _ = _make_workload(config)
        adds = [graph for _, graph in list(db.items())[:12]]
        return db, adds

    def apply(engine, adds):
        start = time.perf_counter()
        for graph in adds:
            engine.add_graph(graph)
        for gid in range(4):
            engine.remove_graph(gid)
        return time.perf_counter() - start

    db, adds = ops()
    with create_engine(db, config.algorithm) as baseline:
        baseline.build_index()
        base_elapsed = apply(baseline, adds)
        total = len(adds) + 4
        with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as tmp:
            store_dir = os.path.join(tmp, "store")
            durable_db, durable_adds = ops()
            with create_engine(durable_db, config.algorithm) as durable:
                durable.build_index(store=IndexStore(store_dir))
                durable_elapsed = apply(durable, durable_adds)
                wal_bytes = IndexStore(store_dir).wal.path.stat().st_size
                mutated_fingerprint = database_fingerprint(durable.db)
                expected = [
                    sorted(r.answers) for r in durable.query_many(queries)
                ]
            warm_db, _ = ops()
            with create_engine(warm_db, config.algorithm) as warm:
                warm.build_index(store=IndexStore(store_dir))
                replayed = warm.wal_recovery["replayed"]
                if replayed != total:
                    raise RuntimeError(
                        f"durability cell journaled {total} mutations but "
                        f"recovery replayed {replayed}"
                    )
                if database_fingerprint(warm.db) != mutated_fingerprint:
                    raise RuntimeError(
                        "durability cell recovered a database that is not "
                        "bit-identical to the mutated original"
                    )
                got = [sorted(r.answers) for r in warm.query_many(queries)]
                if got != expected:
                    raise RuntimeError(
                        "durability cell answers diverged after recovery"
                    )
                summary = warm.compact_store()
                if summary["log_depth"] != 0:
                    raise RuntimeError(
                        f"compaction left {summary['log_depth']} journal "
                        "records behind"
                    )
    return {
        "mutations": total,
        "baseline_mut_per_s": total / max(base_elapsed, 1e-9),
        "durable_mut_per_s": total / max(durable_elapsed, 1e-9),
        "overhead_pct": 100.0 * (durable_elapsed / max(base_elapsed, 1e-9) - 1.0),
        "wal_bytes": wal_bytes,
        "replayed": replayed,
        "folded": summary["folded"],
    }


def _sharding_cells(config: BenchServeConfig, queries) -> dict:
    """Scatter-gather shard-scaling sweep, asserted against an unsharded
    reference.

    For every shard count the service's answer to every query must be
    bit-identical to a plain single-engine run — the partition-then-merge
    route may change timings, never answers — and no cell may report a
    degraded or partial result (every shard is up).  A violation raises
    instead of skewing the numbers.
    """
    db, _ = _make_workload(config)
    with create_engine(db, config.algorithm) as reference:
        reference.build_index()
        expected = [sorted(r.answers) for r in reference.query_many(queries)]
    cells: list[dict] = []
    concurrency = max(config.concurrency)
    for shards in config.shard_counts:
        # The host axis: identical fleet, identical answers — the only
        # difference is where the shard engines run.  The thread host
        # serialises CPU-bound matching on the GIL; the process host is
        # the same scatter-gather over per-shard worker processes.
        for shard_host in ("thread", "process"):
            if shards == 1 and shard_host == "process":
                continue  # one process behind a pipe prices nothing new
            with _ServiceUnderTest(
                config, cache_on=False, shards=shards, shard_host=shard_host
            ) as under_test:
                with ServiceClient(under_test.address) as client:
                    for query, answers in zip(queries, expected):
                        result = client.query(
                            query, time_limit=config.time_limit
                        )
                        if result.get("failure") or result.get("timed_out"):
                            raise RuntimeError(
                                f"sharding cell n={shards} "
                                f"host={shard_host} failed a query with "
                                f"every shard up: {result.get('failure')!r}"
                            )
                        if sorted(result["answers"]) != answers:
                            raise RuntimeError(
                                f"sharding cell n={shards} "
                                f"host={shard_host} diverged from the "
                                "unsharded reference: "
                                f"{sorted(result['answers'])} != {answers}"
                            )
                cell = _run_closed_loop(
                    under_test.address, queries, config, concurrency
                )
                with ServiceClient(under_test.address) as client:
                    shard_rows = client.stats()["shards"] or []
            if cell["failures"] or cell["crashes"]:
                raise RuntimeError(
                    f"sharding cell n={shards} host={shard_host} saw "
                    f"{cell['failures']} failures under load with every "
                    "shard up"
                )
            cell.update({
                "shards": shards,
                "shard_host": shard_host,
                "parity": "identical",
                "per_shard_graphs": [row["graphs"] for row in shard_rows],
            })
            cells.append(cell)
    return {"queries": len(expected), "cells": cells}


def _skewed_workload(config: BenchServeConfig):
    """A label-skewed copy of the bench workload for the pruning cells.

    Odd-id graphs get their labels offset past the base label range, so
    modulo placement over two shards gives each shard a disjoint label
    family — every query (a subgraph of one data graph, so single-family
    by construction) is then prunable on exactly one shard.
    """
    from repro.graph.labeled_graph import Graph

    base = generate_database(
        num_graphs=config.num_graphs,
        num_vertices=config.num_vertices,
        avg_degree=config.avg_degree,
        num_labels=config.num_labels,
        seed=config.seed + 7,
        name="bench-serve-skewed",
    )
    db = GraphDatabase(name="bench-serve-skewed")
    for gid, graph in base.items():
        offset = 0 if gid % 2 == 0 else config.num_labels
        db.add_graph_with_id(gid, Graph(
            [label + offset for label in graph.labels],
            [list(graph.neighbors(v)) for v in graph.vertices()],
            name=graph.name,
        ))
    queries = list(
        generate_query_set(
            db,
            num_edges=config.query_edges,
            dense=False,
            size=config.num_queries,
            seed=config.seed + 8,
        )
    )
    return db, queries


def _pruning_cells(config: BenchServeConfig) -> dict:
    """Seed-screen shard pruning over the skewed workload.

    The cell must answer bit-identically to the unsharded reference and
    must actually skip shards (``shards_pruned`` in the service's
    counters), or the sweep is measuring nothing.
    """
    db, queries = _skewed_workload(config)
    with create_engine(db, config.algorithm) as reference:
        reference.build_index()
        expected = [sorted(r.answers) for r in reference.query_many(queries)]
    with _ServiceUnderTest(
        config, cache_on=False, shards=2, partitioner="modulo", database=db,
    ) as under_test:
        with ServiceClient(under_test.address) as client:
            for query, answers in zip(queries, expected):
                result = client.query(query, time_limit=config.time_limit)
                if result.get("failure") or result.get("timed_out"):
                    raise RuntimeError(
                        f"pruning cell failed a query: "
                        f"{result.get('failure')!r}"
                    )
                if sorted(result["answers"]) != answers:
                    raise RuntimeError(
                        f"pruning cell diverged from the unsharded "
                        f"reference: {sorted(result['answers'])} != {answers}"
                    )
        cell = _run_closed_loop(
            under_test.address, queries, config, max(config.concurrency)
        )
        with ServiceClient(under_test.address) as client:
            prune_stats = client.stats()["pruning"]
    if cell["failures"] or cell["crashes"]:
        raise RuntimeError(
            f"pruning cell saw {cell['failures']} failures under load with "
            "every shard up"
        )
    if prune_stats["shards_pruned"] < 1:
        raise RuntimeError(
            "pruning cell skipped no shards on the label-skewed workload — "
            "the seed screen is not firing"
        )
    cell.update({
        "pruning": True,
        "parity": "identical",
        "shard_queries": prune_stats["shard_queries"],
        "shards_pruned": prune_stats["shards_pruned"],
        "prune_rate": prune_stats["prune_rate"],
    })
    return {"queries": len(expected), "shards": 2, "cells": [cell]}


def run_resilience_bench(config: BenchServeConfig | None = None) -> dict:
    """The ``--chaos`` suite: isolation tax, breaker lifecycle, crash
    storm under load, durable-mutation recovery.  Raises on any
    survivability violation."""
    config = config or BenchServeConfig()
    _, queries = _make_workload(config)
    return {
        "overhead": _overhead_cells(config, queries),
        "breaker_lifecycle": _breaker_lifecycle(config, queries),
        "chaos": _chaos_cell(config, queries),
        "durability": _durability_cell(config),
    }


def run_bench_serve(
    config: BenchServeConfig | None = None, chaos: bool = False
) -> dict:
    """Run the full matrix: {cache off, on} × concurrency levels, closed
    loop, plus one open-loop cell per cache setting.  ``chaos=True``
    appends the self-asserting resilience suite as a ``resilience``
    section."""
    config = config or BenchServeConfig()
    _, queries = _make_workload(config)
    closed: list[dict] = []
    open_loop: list[dict] = []
    for cache_on in (False, True):
        cache_label = "on" if cache_on else "off"
        peak_throughput = 0.0
        for concurrency in config.concurrency:
            with _ServiceUnderTest(config, cache_on) as under_test:
                cell = _run_closed_loop(
                    under_test.address, queries, config, concurrency
                )
                cell["cache"] = cache_label
                cell["server"] = _server_digest(under_test.address)
                closed.append(cell)
                peak_throughput = max(peak_throughput, cell["throughput_qps"])
        rate = config.open_loop_rate or max(1.0, 0.75 * peak_throughput)
        connections = max(config.concurrency)
        with _ServiceUnderTest(config, cache_on) as under_test:
            cell = _run_open_loop(
                under_test.address, queries, config, rate, connections
            )
            cell["cache"] = cache_label
            cell["server"] = _server_digest(under_test.address)
            open_loop.append(cell)
    report = {
        "schema": "repro-bench-serve/1",
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "workload": asdict(config),
        "closed_loop": closed,
        "open_loop": open_loop,
        "sharding": _sharding_cells(config, queries),
        "pruning": _pruning_cells(config),
    }
    if chaos:
        report["resilience"] = run_resilience_bench(config)
    return report


def write_report(report: dict, path: str) -> None:
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
