"""The traced run: where the end-to-end time goes, layer by layer.

End-to-end metrics come from an untraced run.  This module makes the
separate traced one, on the same generated inputs at half length:

1. an untraced served run, for the latency tracing is compared against;
2. the same schedule against a fresh server with every
   :data:`SAMPLE_EVERY`-th operation traced — encoded at send time and
   decoded on receipt under client-side spans, joined to the
   ``queue_wait_s``/``execution_s`` the server reports for it;
3. the sampled queries replayed in-process through each layer's public
   functions (:mod:`layers`), a span around each call.

Spans stay in memory and are written to ``cache/trace-<workload>.json``
at the end.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path

from repro.graph.io import write_graph_database
from repro.service.client import ServiceClient
from repro.service.protocol import encode_message, graph_from_wire, graph_to_wire

import layers
import loadgen
from catalog import PER_LAYER
from oracle import CACHE_DIR, Oracle
from served import ServedRun, percentile, run_served
from spans import Recorder
from workloads import Workload

#: One operation in this many is traced: a fifth of the half-length traced
#: run, i.e. a tenth of a full-length run's operations.
SAMPLE_EVERY = 5


def _samples(run: ServedRun) -> list[layers.Sample]:
    samples = []
    for outcome in run.phases:
        if not {"latency", "throughput"} & outcome.phase.measures:
            continue
        record = outcome.record
        for i in range(0, len(outcome.phase.ops), SAMPLE_EVERY):
            op = outcome.phase.ops[i]
            if op.kind != "query" or not outcome.responses[i].get("ok"):
                continue
            samples.append(layers.Sample(
                request=outcome.request_base + i,
                graph=graph_from_wire(op.message["graph"]),
                line=outcome.lines[i],
                response=outcome.responses[i],
                roundtrip_s=record.received[i] - record.sent[i],
            ))
    return samples


def _spread(samples: list, cap: int) -> list:
    """At most ``cap`` samples, evenly spaced over the run."""
    if len(samples) <= cap:
        return samples
    step = len(samples) / cap
    return [samples[int(i * step)] for i in range(cap)]


def _live_layer(server, sock, samples: list[layers.Sample]) -> dict[str, float]:
    """Measurements that need the live server: the bare transport, and
    what ``ServiceClient`` adds to a pre-encoded round trip."""
    ping = [encode_message({"id": i, "op": "ping"}) for i in range(200)]
    transport = loadgen.drive(sock, ping, window=1).latencies()

    distinct = list({s.line: s for s in samples}.values())[:32]
    lines = [
        encode_message({"id": i, "op": "query", "graph": graph_to_wire(s.graph)})
        for i, s in enumerate(distinct)
    ]
    loadgen.drive(sock, lines, window=1)  # every one cached from here on
    raw, through_client = [], []
    with ServiceClient(server.address) as client:
        for _ in range(3):
            raw += loadgen.drive(sock, lines, window=1).latencies()
            for s in distinct:
                started = time.perf_counter()
                client.query(s.graph)
                through_client.append(time.perf_counter() - started)
    return {
        "service.transport_us": statistics.median(transport) * 1e6,
        "client.query_overhead_us": (
            statistics.median(through_client) - statistics.median(raw)
        ) * 1e6,
    }


def _served_layer(run: ServedRun, recorder: Recorder) -> dict[str, float]:
    """What the responses and the ``stats`` verb say about the service."""
    queue_wait, execution, overhead, plan_outcomes = [], [], [], []
    queries = cpu_s = 0.0
    previous_cpu = run.cpu_before_s
    for outcome in run.phases:
        measured = {"latency", "throughput"} & outcome.phase.measures
        if measured:
            cpu_s += outcome.cpu_s - previous_cpu
        previous_cpu = outcome.cpu_s
        record = outcome.record
        for i, (op, response) in enumerate(zip(outcome.phase.ops, outcome.responses)):
            if not measured or op.kind != "query" or not response.get("ok"):
                continue
            queries += 1
            if "latency" not in measured:
                continue  # queueing at saturation is the throughput, not a wait
            result = response["result"]
            metrics = result["metrics"]
            queue_wait.append(metrics["queue_wait_s"])
            if result["cache"] != "hit":
                execution.append(metrics["execution_s"])
                plan_outcomes.append(result["metadata"].get("plan_cache") == "hit")
            overhead.append(
                record.received[i] - record.sent[i]
                - metrics["queue_wait_s"] - metrics["execution_s"]
            )
    # Server-reported times become child spans of the traced round trips.
    by_request = {
        span[4]: span_id for span_id, span in enumerate(recorder.spans)
        if span[0] == "client.roundtrip"
    }
    for outcome in run.phases:
        for i, response in enumerate(outcome.responses):
            span_id = by_request.get(outcome.request_base + i)
            metrics = (response.get("result") or {}).get("metrics")
            if span_id is None or not metrics or outcome.phase.ops[i].kind != "query":
                continue
            start = recorder.spans[span_id][1]
            request = outcome.request_base + i
            recorder.add("server.queue_wait", start, metrics["queue_wait_s"],
                         parent=span_id, request=request)
            recorder.add("server.execution", start + metrics["queue_wait_s"],
                         metrics["execution_s"], parent=span_id, request=request)

    stats = run.stats
    mutations = stats["requests"].get("mutations", 0)
    workers = stats.get("workers") or {}
    return {
        "service.roundtrip_overhead_ms": statistics.median(overhead) * 1e3,
        "service.queue_wait_ms_p50": percentile(queue_wait, 50) * 1e3,
        "service.queue_wait_ms_p95": percentile(queue_wait, 95) * 1e3,
        "service.execution_ms_p50": percentile(execution, 50) * 1e3,
        "service.batch_size_mean": stats["batches"]["mean_size"],
        "service.result_cache_hit_rate": stats["cache"]["hit_rate"],
        "service.result_cache_dropped_per_mutation": (
            stats["cache"]["entries_dropped"] / mutations if mutations else 0.0
        ),
        "service.overloaded": float(stats["requests"].get("rejected_overloaded", 0)),
        "plan.cache_hit_rate": (
            sum(plan_outcomes) / len(plan_outcomes) if plan_outcomes else 0.0
        ),
        "exec.worker_restarts": float(workers.get("restarts", 0)),
        "shard.prune_rate": (stats.get("pruning") or {}).get("prune_rate", 0.0),
        "store.compactions": float((stats.get("store") or {}).get("compactions", 0)),
        "proc.cpu_ms_per_query": cpu_s * 1e3 / queries if queries else 0.0,
    }


def _query_latencies(run: ServedRun) -> list[float]:
    return [
        latency
        for outcome in run.measured("latency")
        for op, latency in zip(outcome.phase.ops, outcome.latencies)
        if op.kind == "query"
    ]


def _unattributed_share(workload: Workload, metrics: dict[str, float],
                        traced: ServedRun, samples: list[layers.Sample]) -> float:
    """The part of the median round trip no layer measurement explains.

    Explained, per traced query of the latency phase: the bare transport
    and the codec work (measured on their own), the queue wait and the
    execution time the server reports for this request, and — when the
    result cache missed — the plan lookup and the shard routing as their
    layers measured them.  (Not the pool dispatch: ``exec`` measures it
    per batch of four, the latency phase sends one query at a time.)
    """
    always_s = (
        metrics["service.transport_us"] + metrics["protocol.decode_request_us"]
        + metrics["protocol.graph_key_us"] + metrics["protocol.encode_response_us"]
    ) / 1e6
    plan_s = {
        "hit": metrics["plan.cache_get_hit_us"] / 1e6,
        "miss": (metrics["plan.canonical_key_us"] + metrics["plan.compile_us"]) / 1e6,
    }
    route_s = metrics["shard.route_overhead_ms"] / 1e3
    latency_phase = {
        outcome.request_base + i
        for outcome in traced.measured("latency")
        for i in range(len(outcome.phase.ops))
    }
    unexplained, roundtrips = [], []
    for s in samples:
        if s.request not in latency_phase:
            continue
        result = s.response["result"]
        explained = (
            always_s + result["metrics"]["queue_wait_s"]
            + result["metrics"]["execution_s"]
        )
        if result["cache"] != "hit":
            explained += route_s + plan_s.get(
                result["metadata"].get("plan_cache"), 0.0
            )
        roundtrips.append(s.roundtrip_s)
        unexplained.append(s.roundtrip_s - explained)
    return statistics.median(unexplained) / statistics.median(roundtrips)


def run_traced(workload: Workload, seed: int, seconds: float,
               oracle: Oracle, prepare_s: float) -> tuple[dict[str, float], list[ServedRun], Path]:
    """Returns every per-layer metric, the two served runs (for their
    failure counts), and the path of the written trace."""
    half = seconds / 2.0
    untraced = run_served(workload, seed, half, oracle, setup_repeats=1, crash=False)

    recorder = Recorder()
    samples: list[layers.Sample] = []
    live: dict[str, float] = {}

    def hook(server, sock, run: ServedRun) -> None:
        samples.extend(_samples(run))
        live.update(_live_layer(server, sock, samples))

    traced = run_served(
        workload, seed, half, oracle, setup_repeats=1, crash=False,
        recorder=recorder, sample_every=SAMPLE_EVERY, live_hook=hook,
    )
    replayed = _spread(samples, layers.REPLAY_CAP)

    metrics = {m.name: 0.0 for m in PER_LAYER}
    metrics.update(live)
    metrics.update(_served_layer(traced, recorder))
    metrics.update(layers.protocol_layer(samples))

    scratch = Path(tempfile.mkdtemp(prefix="replay-", dir=CACHE_DIR))
    try:
        database_file = scratch / "db.txt"
        write_graph_database(workload.database, database_file)
        graph_metrics, db = layers.graph_layer(database_file, replayed)
        metrics.update(graph_metrics)
        engine_metrics, engine = layers.engine_layer(workload, db, replayed, recorder)
        metrics.update(engine_metrics)
        metrics.update(layers.plan_layer(replayed))
        metrics.update(layers.matching_layer(engine, replayed, recorder))
        metrics.update(layers.service_layer(engine, replayed))
        if workload.server_uses("--supervised"):
            metrics.update(layers.exec_layer(workload, db, replayed, recorder))
        if workload.server_uses("--shards"):
            metrics.update(layers.shard_layer(workload, db, replayed, recorder, scratch))
        if workload.server_uses("--index-store"):
            metrics.update(layers.index_maintenance(workload, engine))
            metrics.update(layers.store_layer(workload, database_file, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    late = untraced.lateness_s
    metrics["loadgen.late_ms_p50"] = percentile(late, 50) * 1e3
    metrics["loadgen.late_ms_p95"] = percentile(late, 95) * 1e3
    metrics["harness.prepare_s"] = prepare_s
    metrics["trace.query_ms_p50"] = traced.metrics["query_ms_p50"]
    # Same schedule, same requests, traced against untraced, paired: the
    # median difference, as a share of the untraced median.  (A ratio of
    # medians or of sums moves 20 % between two untraced runs when a loop
    # of four, or a Poisson burst, makes a latency depend on its
    # neighbours'.)
    plain = _query_latencies(untraced)
    metrics["trace.overhead_share"] = statistics.median(
        t - u for t, u in zip(_query_latencies(traced), plain)
    ) / statistics.median(plain)
    metrics["trace.unattributed_share"] = _unattributed_share(
        workload, metrics, traced, samples
    )

    path = CACHE_DIR / f"trace-{workload.name}.json"
    recorder.write(path, workload=workload.name, seed=seed, seconds=seconds,
                   sample_every=SAMPLE_EVERY)
    return metrics, [untraced, traced], path
