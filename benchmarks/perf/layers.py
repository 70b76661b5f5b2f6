"""The traced run's second half: the sampled operations, replayed in-process.

Each function builds one layer from its public constructors
(``create_engine``, ``ShardedEngine``, ``QueryService``, ``IndexStore``,
...), calls the layer's public functions on the sampled queries under a
span, and returns that layer's metrics.  A layer that is not on a
workload's request path (``index`` under CFQL, ``shard`` unsharded, ...)
is not replayed; its metrics print as 0.
"""

from __future__ import annotations

import pickle
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core import create_engine, create_pipeline
from repro.exec import create_executor
from repro.graph.io import read_graph_database
from repro.graph.labeled_graph import Graph
from repro.matching.enumeration import enumerate_embeddings
from repro.matching.plan import PlanCache, canonical_query_key, compile_plan
from repro.service.protocol import (
    decode_line,
    encode_message,
    graph_from_wire,
    graph_key,
    graph_to_wire,
)
from repro.service.server import QueryService, ServiceConfig
from repro.shard import ShardedEngine
from repro.store import IndexStore

from spans import Recorder
from workloads import Workload

#: Most sampled queries replayed through the engine and the matcher.
REPLAY_CAP = 80

_clock = time.perf_counter


@dataclass
class Sample:
    """One traced query: what was sent, what came back, how long it took."""

    request: int
    graph: Graph
    line: bytes
    response: dict
    roundtrip_s: float


def _us(seconds: float) -> float:
    return seconds * 1e6


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _timed(function, *args):
    started = _clock()
    result = function(*args)
    return _clock() - started, result


# ----------------------------------------------------------------------
# service.protocol
# ----------------------------------------------------------------------

def protocol_layer(samples: list[Sample]) -> dict[str, float]:
    encode, decode, key, respond = [], [], [], []
    for s in samples:
        encode.append(_timed(
            lambda: encode_message(
                {"id": s.request, "op": "query", "graph": graph_to_wire(s.graph)}
            )
        )[0])
        decode.append(_timed(
            lambda: graph_from_wire(decode_line(s.line)["graph"])
        )[0])
        key.append(_timed(graph_key, s.graph)[0])
        respond.append(_timed(encode_message, s.response)[0])
    return {
        "protocol.encode_request_us": _us(_median(encode)),
        "protocol.decode_request_us": _us(_median(decode)),
        "protocol.graph_key_us": _us(_median(key)),
        "protocol.encode_response_us": _us(_median(respond)),
        "protocol.request_bytes_mean": _mean(len(s.line) for s in samples),
        "protocol.response_bytes_mean": _mean(
            len(encode_message(s.response)) for s in samples
        ),
    }


# ----------------------------------------------------------------------
# graph, core.engine, matching.plan
# ----------------------------------------------------------------------

def graph_layer(database_file: Path, samples: list[Sample]):
    """Returns the metrics and a freshly parsed database for later layers."""
    load_s, db = _timed(read_graph_database, database_file)
    # Bitmap profiles are built lazily, the first time a kernel touches a
    # graph; with the plan cache off, first pass - second pass is that.
    engine = create_engine(db, "CFQL", plan_cache=0)
    probe = [s.graph for s in samples[:8]]
    first = _timed(lambda: [engine.query(q) for q in probe])[0]
    second = _timed(lambda: [engine.query(q) for q in probe])[0]
    return {
        "graph.load_db_s": load_s,
        "graph.profile_build_ms": _ms(first - second),
    }, db


def engine_layer(workload: Workload, db, samples: list[Sample], recorder: Recorder):
    """Returns the metrics and the built engine."""
    engine = create_engine(db, workload.algorithm)
    build_s = engine.build_index()
    results = []
    for s in samples:
        with recorder.span("engine.query", request=s.request):
            results.append(engine.query(s.graph))
    times = [r.query_time for r in results]
    metrics = {
        "engine.query_ms_p50": _ms(_median(times)),
        "engine.query_ms_mean": _ms(_mean(times)),
    }
    if engine.pipeline.uses_index:
        metrics["index.build_s"] = build_s
    return metrics, engine


def plan_layer(samples: list[Sample]) -> dict[str, float]:
    distinct = list({graph_key(s.graph): s.graph for s in samples}.values())
    cache = PlanCache(max(256, len(distinct)))
    for graph in distinct:
        cache.get(graph)
    return {
        "plan.compile_us": _us(_median(_timed(compile_plan, g)[0] for g in distinct)),
        "plan.canonical_key_us": _us(_median(
            _timed(canonical_query_key, g)[0] for g in distinct
        )),
        "plan.cache_get_hit_us": _us(_median(
            _timed(cache.get, g)[0] for g in distinct
        )),
    }


# ----------------------------------------------------------------------
# core.pipeline / matching (and the index in front of it, when there is one)
# ----------------------------------------------------------------------

def matching_layer(engine, samples: list[Sample], recorder: Recorder) -> dict[str, float]:
    """Replay filter -> order -> enumerate per (query, graph), as the
    vcFV/IvcFV pipelines call them, timing each phase on its own."""
    pipeline = engine.pipeline
    matcher = pipeline.matcher
    index = pipeline.index if pipeline.uses_index else None
    db = engine.db
    filter_s = order_s = enumerate_s = index_s = 0.0
    scanned = candidate_graphs = answers = index_candidates = 0
    candidate_vertices = recursion_calls = 0
    for s in samples:
        query = s.graph
        plan = compile_plan(query)
        parent = recorder.begin("matching.replay", request=s.request)
        q_index = q_filter = q_order = q_enumerate = 0.0
        if index is None:
            graphs = list(db.items())
        else:
            q_index, survivors = _timed(index.candidates, query)
            graphs = [(gid, db[gid]) for gid in sorted(survivors) if gid in db]
            index_candidates += len(graphs)
        scanned += len(graphs)
        for gid, graph in graphs:
            elapsed, candidates = _timed(
                lambda: matcher.build_candidates(query, graph, plan=plan)
            )
            q_filter += elapsed
            if candidates is None or not candidates.all_nonempty:
                continue
            candidate_graphs += 1
            candidate_vertices += candidates.total_candidates
            elapsed, order = _timed(
                lambda: matcher.matching_order(query, graph, candidates, plan=plan)
            )
            q_order += elapsed
            elapsed, found = _timed(
                lambda: enumerate_embeddings(
                    query, graph, candidates, order, limit=1, plan=plan
                )
            )
            q_enumerate += elapsed
            recursion_calls += found.recursion_calls
            answers += found.found
        # One child span per phase and query (its duration the sum over
        # graphs): a span per (query, graph) would be ~100k spans.
        at = recorder.spans[parent][1]
        for name, duration in (("index.candidates", q_index),
                               ("matching.filter", q_filter),
                               ("matching.order", q_order),
                               ("matching.enumerate", q_enumerate)):
            if duration:
                recorder.add(name, at, duration, parent=parent, request=s.request)
                at += duration
        recorder.end(parent)
        index_s += q_index
        filter_s += q_filter
        order_s += q_order
        enumerate_s += q_enumerate
    n = max(1, len(samples))
    metrics = {
        "matching.filter_ms_per_query": _ms(filter_s / n),
        "matching.order_ms_per_query": _ms(order_s / n),
        "matching.enumerate_ms_per_query": _ms(enumerate_s / n),
        "matching.filter_us_per_graph": _us(filter_s / max(1, scanned)),
        "matching.enumerate_us_per_candidate": _us(
            (order_s + enumerate_s) / max(1, candidate_graphs)
        ),
        "matching.graphs_scanned_per_query": scanned / n,
        "matching.candidate_graphs_per_query": candidate_graphs / n,
        "matching.answer_graphs_per_query": answers / n,
        "matching.filtering_precision": answers / max(1, candidate_graphs),
        "matching.candidate_vertices_mean": candidate_vertices / max(1, candidate_graphs),
        "matching.recursion_calls_per_query": recursion_calls / n,
    }
    if index is not None:
        metrics["index.candidates_ms"] = _ms(index_s / n)
        metrics["index.precision"] = answers / max(1, index_candidates)
        metrics["index.memory_bytes"] = float(index.memory_bytes())
    return metrics


def index_maintenance(workload: Workload, engine) -> dict[str, float]:
    """Incremental Grapes maintenance: insert, then delete again, graphs
    the index has not seen (it ends as it started)."""
    index = engine.pipeline.index
    first = engine.db.next_id
    graphs = workload.insertable[:16]
    add = [_timed(index.add_graph, first + i, g)[0] for i, g in enumerate(graphs)]
    remove = [_timed(index.remove_graph, first + i)[0] for i in range(len(graphs))]
    return {
        "index.add_graph_ms": _ms(_median(add)),
        "index.remove_graph_ms": _ms(_median(remove)),
    }


# ----------------------------------------------------------------------
# exec
# ----------------------------------------------------------------------

def exec_layer(workload: Workload, db, samples: list[Sample],
               recorder: Recorder) -> dict[str, float]:
    """The supervised pool as ``serve --supervised --jobs 2`` builds it,
    fed the sampled queries in the service's batches of (window) four."""
    engine = create_engine(
        db, workload.algorithm, executor=create_executor("supervised", jobs=2)
    )
    try:
        engine.query_many(workload.warmup[:4])  # both workers spawned
        overheads, wall_total, work_total = [], 0.0, 0.0
        for start in range(0, len(samples), 4):
            batch = samples[start:start + 4]
            with recorder.span("exec.query_many", request=batch[0].request) as span:
                wall, results = _timed(engine.query_many, [s.graph for s in batch])
            per_worker: dict[object, float] = {}
            for r in results:
                pid = r.metadata.get("worker_pid")
                per_worker[pid] = per_worker.get(pid, 0.0) + r.query_time
            busiest = max(per_worker.values())
            recorder.add("exec.busiest_worker", recorder.spans[span][1], busiest,
                         parent=span, request=batch[0].request)
            overheads.append(wall - busiest)
            wall_total += wall
            work_total += sum(r.query_time for r in results)
        return {
            "exec.run_many_overhead_ms": _ms(_median(overheads)),
            "exec.pool_speedup": work_total / wall_total if wall_total else 0.0,
        }
    finally:
        engine.close()


# ----------------------------------------------------------------------
# shard
# ----------------------------------------------------------------------

def shard_layer(workload: Workload, db, samples: list[Sample],
                recorder: Recorder, scratch: Path) -> dict[str, float]:
    engine = ShardedEngine(
        db, 2, lambda: create_pipeline(workload.algorithm),
        shard_host="process", store_root=scratch / "shards",
    )
    try:
        engine.build_index()
        walls, slowest, imbalance, sizes = [], [], [], []
        for s in samples:
            with recorder.span("shard.query_many", request=s.request) as span:
                wall, (result,) = _timed(engine.query_many, [s.graph])
            times = [
                row["time_s"] for row in result.metadata["shards"]["per_shard"]
                if "time_s" in row
            ]
            walls.append(wall)
            sizes.append(len(pickle.dumps(result)))
            if times:
                slowest.append(max(times))
                imbalance.append(max(times) / statistics.fmean(times))
                recorder.add("shard.slowest", recorder.spans[span][1], max(times),
                             parent=span, request=s.request)
        return {
            "shard.query_many_ms": _ms(_median(walls)),
            "shard.slowest_shard_ms": _ms(_median(slowest)),
            "shard.route_overhead_ms": _ms(_median(
                w - t for w, t in zip(walls, slowest)
            )),
            "shard.imbalance": _median(imbalance),
            "shard.result_pickle_bytes": _mean(sizes),
        }
    finally:
        engine.close()


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------

def store_layer(workload: Workload, database_file: Path, scratch: Path) -> dict[str, float]:
    """Journal, compact and warm-start one store, as the served engine
    does per shard.  Flush policy: every journal append is fsynced before
    it returns, as in the served run."""
    directory = scratch / "store"
    db = read_graph_database(database_file)
    engine = create_engine(db, workload.algorithm)
    store = IndexStore(directory)
    engine.build_index(store=store)
    pipeline = engine.pipeline
    graphs = workload.insertable[:24]
    user_bytes = sum(len(encode_message(graph_to_wire(g))) for g in graphs)

    journal_add, journal_remove, gids = [], [], []
    for graph in graphs[:16]:
        journal_add.append(_timed(store.journal_add, db, graph)[0])
        gid = db.add_graph(graph)
        pipeline.on_graph_added(gid, graph)
        gids.append(gid)
    for gid in gids[:8]:
        journal_remove.append(_timed(store.journal_remove, db, gid)[0])
        pipeline.on_graph_removed(gid, db.remove_graph(gid))
    records = store.wal.depth
    wal_bytes = store.wal.path.stat().st_size
    compact_s, summary = _timed(engine.compact_store)
    snapshot_bytes = sum(Path(p).stat().st_size for p in summary["snapshots"])
    for graph in graphs[16:]:
        engine.add_graph(graph)  # left in the journal for the warm start
    written = wal_bytes + snapshot_bytes + store.wal.path.stat().st_size

    fresh = create_engine(read_graph_database(database_file), workload.algorithm)
    warm_s = fresh.build_index(store=IndexStore(directory))
    if fresh.index_source != "store" or len(fresh.db) != len(db):
        raise RuntimeError(
            f"warm start did not reproduce the store: source "
            f"{fresh.index_source}, {len(fresh.db)} graphs vs {len(db)}"
        )
    return {
        "store.journal_add_ms": _ms(_median(journal_add)),
        "store.journal_remove_ms": _ms(_median(journal_remove)),
        "store.wal_bytes_per_mutation": wal_bytes / records,
        "store.compact_ms": _ms(compact_s),
        "store.bytes_written_per_user_byte": written / user_bytes,
        "store.warm_start_s": warm_s,
        "store.replayed_records": float(fresh.wal_recovery["replayed"]),
    }


# ----------------------------------------------------------------------
# service.server, in-process
# ----------------------------------------------------------------------

def service_layer(engine, samples: list[Sample]) -> dict[str, float]:
    """``QueryService.submit`` -> ``respond`` on a cached query: decode,
    key, queue, scheduler wake-up, cache lookup — no socket."""
    service = QueryService(engine, ServiceConfig())
    scheduler = threading.Thread(target=service.run_scheduler, daemon=True)
    scheduler.start()
    try:
        message = {"id": 0, "op": "query", "graph": graph_to_wire(samples[0].graph)}
        answered = threading.Event()
        durations = []
        for i in range(201):
            answered.clear()
            started = _clock()
            service.submit(message, lambda _response: answered.set())
            if not answered.wait(timeout=60.0):
                raise RuntimeError("in-process service did not answer")
            if i:  # the first submit is the cache miss that primes it
                durations.append(_clock() - started)
        return {"service.submit_cached_us": _us(_median(durations))}
    finally:
        service.request_shutdown()
        scheduler.join(timeout=10.0)
