"""Every metric the benchmark prints: name, unit, direction, and why.

``BENCHMARK.json`` lists the same names; ``test_smoke.py`` fails when the
two disagree.  ``moves`` on a per-layer metric is the prediction written
down before measuring: which end-to-end metric it should move, on which
workload (README has the full table, with what must *not* move).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str          # "lower" | "higher"
    what: str
    moves: str = ""


END_TO_END = [
    Metric("setup_s", "s", "lower",
           "server spawn -> first ping -> warm-up answered; median of 3 set-ups"),
    Metric("queries_per_s", "1/s", "higher",
           "correct query answers / wall of the throughput phase"),
    Metric("query_ms_p50", "ms", "lower",
           "median query round trip (open loop: from the due time)"),
    Metric("query_ms_p90", "ms", "lower",
           "90th percentile: the highest with >=10 samples beyond it on the "
           "smallest workload (152 queries)"),
    Metric("mutation_ms_p50", "ms", "lower",
           "median acknowledged add_graph/remove_graph round trip "
           "(journal-before-ack included where a store is attached)"),
    Metric("recovery_s", "s", "lower",
           "kill -9 of the server's session -> restarted server answers ping"),
    Metric("peak_rss_mb", "MB", "lower",
           "sum of VmHWM over the server and its children after the last "
           "measured query"),
]

_L, _H = "lower", "higher"

PER_LAYER = [
    # service.protocol / service.client
    Metric("protocol.encode_request_us", "us", _L, "graph_to_wire + encode_message per sampled request",
           "query_ms_p50, queries_per_s on hot-repeat"),
    Metric("protocol.decode_request_us", "us", _L, "decode_line + graph_from_wire per sampled request",
           "query_ms_p50, queries_per_s on hot-repeat"),
    Metric("protocol.graph_key_us", "us", _L, "graph_key per sampled request",
           "query_ms_p50, queries_per_s on hot-repeat"),
    Metric("protocol.encode_response_us", "us", _L, "encode_message of the sampled responses",
           "query_ms_p50, queries_per_s on hot-repeat"),
    Metric("protocol.request_bytes_mean", "B", _L, "mean request line length"),
    Metric("protocol.response_bytes_mean", "B", _L, "mean response line length"),
    Metric("client.query_overhead_us", "us", _L,
           "ServiceClient.query round trip - pre-encoded round trip, same cached requests",
           "query_ms_p50 on hot-repeat"),
    # service.server
    Metric("service.transport_us", "us", _L, "ping round trip: socket both ways, line framing, no queue",
           "query_ms_p50 on hot-repeat"),
    Metric("service.roundtrip_overhead_ms", "ms", _L,
           "median of round trip - queue_wait_s - execution_s over traced queries",
           "query_ms_p50 on hot-repeat"),
    Metric("service.queue_wait_ms_p50", "ms", _L, "response metrics.queue_wait_s, median",
           "query_ms_p90 on hot-repeat"),
    Metric("service.queue_wait_ms_p95", "ms", _L, "response metrics.queue_wait_s, p95",
           "query_ms_p90 on hot-repeat"),
    Metric("service.execution_ms_p50", "ms", _L, "response metrics.execution_s over cache misses, median"),
    Metric("service.batch_size_mean", "count", _H, "stats batches.mean_size",
           "queries_per_s on hot-repeat"),
    Metric("service.result_cache_hit_rate", "ratio", _H, "stats cache.hit_rate",
           "query_ms_p50 on hot-repeat, sharded-rw"),
    Metric("service.result_cache_dropped_per_mutation", "count", _L,
           "stats cache.entries_dropped / mutations", "query_ms_p50 on sharded-rw"),
    Metric("service.overloaded", "count", _L, "stats requests.rejected_overloaded"),
    Metric("service.submit_cached_us", "us", _L,
           "in-process QueryService.submit -> respond on a cached query, no socket",
           "queries_per_s on hot-repeat"),
    # core.engine / matching.plan
    Metric("engine.query_ms_p50", "ms", _L, "in-process engine.query over the sample, median"),
    Metric("engine.query_ms_mean", "ms", _L, "in-process engine.query over the sample, mean (Eq. 1)",
           "queries_per_s on aids-scan, dense-verify"),
    Metric("plan.cache_hit_rate", "ratio", _H, "share of executed queries whose metadata.plan_cache is hit",
           "query_ms_p50 on hot-repeat misses, dense-verify pass 2"),
    Metric("plan.compile_us", "us", _L, "compile_plan per sampled query"),
    Metric("plan.canonical_key_us", "us", _L, "canonical_query_key per sampled query"),
    Metric("plan.cache_get_hit_us", "us", _L, "PlanCache.get on a primed cache"),
    # core.pipeline / matching
    Metric("matching.filter_ms_per_query", "ms", _L, "sum of matcher.build_candidates over the graphs a query scans",
           "queries_per_s, query_ms_p50 on aids-scan"),
    Metric("matching.order_ms_per_query", "ms", _L, "sum of matcher.matching_order over candidate graphs",
           "query_ms_p90, queries_per_s on dense-verify"),
    Metric("matching.enumerate_ms_per_query", "ms", _L, "sum of enumerate_embeddings(limit=1) over candidate graphs",
           "query_ms_p90, queries_per_s on dense-verify"),
    Metric("matching.filter_us_per_graph", "us", _L, "build_candidates per (query, graph)"),
    Metric("matching.enumerate_us_per_candidate", "us", _L, "order + enumerate per candidate graph (Fig. 5)"),
    Metric("matching.graphs_scanned_per_query", "count", _L, "graphs handed to the vcFV filter per query"),
    Metric("matching.candidate_graphs_per_query", "count", _L, "graphs with every candidate set non-empty"),
    Metric("matching.answer_graphs_per_query", "count", _H, "graphs with an embedding"),
    Metric("matching.filtering_precision", "ratio", _H, "answers / candidates (Eq. 3)"),
    Metric("matching.candidate_vertices_mean", "count", _L, "mean total candidate vertices per candidate graph"),
    Metric("matching.recursion_calls_per_query", "count", _L, "sum of EnumerationResult.recursion_calls; an exact count"),
    # index
    Metric("index.build_s", "s", _L, "Grapes index.build over the database", "setup_s on sharded-rw"),
    Metric("index.candidates_ms", "ms", _L, "index.candidates per sampled query", "query_ms_p50 on sharded-rw"),
    Metric("index.precision", "ratio", _H, "answers / index candidates"),
    Metric("index.memory_bytes", "B", _L, "index.memory_bytes()", "peak_rss_mb on sharded-rw"),
    Metric("index.add_graph_ms", "ms", _L, "index.add_graph per inserted graph", "mutation_ms_p50 on sharded-rw"),
    Metric("index.remove_graph_ms", "ms", _L, "index.remove_graph", "mutation_ms_p50 on sharded-rw"),
    # exec
    Metric("exec.run_many_overhead_ms", "ms", _L,
           "supervised query_many wall - busiest worker's summed query_time, per batch of 4",
           "queries_per_s on dense-verify"),
    Metric("exec.pool_speedup", "ratio", _H, "summed query_time / wall over the batches",
           "queries_per_s on dense-verify"),
    Metric("exec.worker_restarts", "count", _L, "stats workers.restarts"),
    # shard
    Metric("shard.query_many_ms", "ms", _L, "in-process ShardedEngine.query_many([q]), median",
           "query_ms_p50 on sharded-rw"),
    Metric("shard.slowest_shard_ms", "ms", _L, "max metadata.shards.per_shard[*].time_s, median"),
    Metric("shard.route_overhead_ms", "ms", _L, "query_many wall - slowest shard: threads, pipe, pickle, merge",
           "query_ms_p50 on sharded-rw"),
    Metric("shard.imbalance", "ratio", _L, "slowest / mean shard time: the slowest part sets the result's time",
           "query_ms_p90 on sharded-rw"),
    Metric("shard.result_pickle_bytes", "B", _L, "pickle size of the merged QueryResult, mean"),
    Metric("shard.prune_rate", "ratio", _H, "stats pruning.prune_rate", "queries_per_s on sharded-rw"),
    # store
    Metric("store.journal_add_ms", "ms", _L, "IndexStore.journal_add, fsync included", "mutation_ms_p50 on sharded-rw"),
    Metric("store.journal_remove_ms", "ms", _L, "IndexStore.journal_remove, fsync included", "mutation_ms_p50 on sharded-rw"),
    Metric("store.wal_bytes_per_mutation", "B", _L, "journal bytes / records"),
    Metric("store.compact_ms", "ms", _L, "engine.compact_store()", "query_ms_p90 on sharded-rw"),
    Metric("store.compactions", "count", _L, "stats store.compactions of the served run"),
    Metric("store.bytes_written_per_user_byte", "ratio", _L,
           "(journal + snapshots written) / wire bytes of the inserted graphs"),
    Metric("store.warm_start_s", "s", _L, "build_index(store=) on the used store", "recovery_s on sharded-rw"),
    Metric("store.replayed_records", "count", _L, "wal_recovery.replayed of that warm start"),
    # graph
    Metric("graph.load_db_s", "s", _L, "read_graph_database of the workload's database", "setup_s"),
    Metric("graph.profile_build_ms", "ms", _L, "first minus second in-process pass over fresh graphs", "setup_s"),
    # process / harness
    Metric("proc.cpu_ms_per_query", "ms", _L, "server tree utime+stime over the measured phases / queries"),
    Metric("loadgen.late_ms_p50", "ms", _L, "open loop: send time - due time, median"),
    Metric("loadgen.late_ms_p95", "ms", _L, "open loop: send time - due time, p95"),
    Metric("harness.prepare_s", "s", _L, "databases, pools, schedules and oracle built (not set-up)"),
    Metric("trace.query_ms_p50", "ms", _L, "query_ms_p50 of the traced run itself"),
    Metric("trace.overhead_share", "ratio", _L, "traced / untraced query_ms_p50 of the same schedule - 1"),
    Metric("trace.unattributed_share", "ratio", _L,
           "median over traced queries of (round trip - transport - codec - queue_wait - execution) / round trip"),
]

NAMES = {m.name for m in END_TO_END + PER_LAYER}
if len(NAMES) != len(END_TO_END) + len(PER_LAYER):
    raise ValueError("duplicate metric name in the catalogue")
