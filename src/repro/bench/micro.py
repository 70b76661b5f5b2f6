"""Microbenchmarks for the hot matching path.

Times the kernels the matching algorithms spend their lives in —
candidate generation, bitset intersection, single-query latency per
matcher — plus the worker pool's overlap, and writes the lot to
``BENCH_micro.json``.  Run via ``python -m repro bench-micro`` or
:mod:`benchmarks.microbench`.

The pool section is a sleep-bound workload (fault-injected delays): it
isolates the pool's *overlap* from the core count — it approaches
``jobs``× on any machine and catches serialisation bugs in the pool
itself.  What the pool buys on CPU-bound queries is measured where it is
served, by ``exec.pool_speedup`` in ``benchmarks/perf``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from typing import Callable

from repro.core.algorithms import create_pipeline
from repro.exec import faults
from repro.exec.parallel import ParallelExecutor
from repro.graph.generators import generate_database
from repro.matching import (
    CFLMatcher,
    CFQLMatcher,
    GraphQLMatcher,
    ldf_candidate_bits,
    nlf_candidate_bits,
)
from repro.utils.fsio import atomic_write_text
from repro.workloads.querysets import generate_query_set

__all__ = ["run_microbench", "write_report"]

_MATCHERS = {
    "GraphQL": GraphQLMatcher,
    "CFL": CFLMatcher,
    "CFQL": CFQLMatcher,
}


def _time_repeated(fn: Callable[[], object], repeats: int) -> dict:
    """Median/min seconds over ``repeats`` calls (after one warmup)."""
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {
        "median_s": statistics.median(samples),
        "min_s": min(samples),
        "repeats": repeats,
    }


def _bitset_kernels(db, queries, repeats: int) -> dict:
    """Raw bitmap-kernel timings over every (query, data graph) pair."""
    graphs = db.graphs()
    pairs = [(q, g) for q in queries for g in graphs]

    def ldf_all():
        for q, g in pairs:
            ldf_candidate_bits(q, g)

    def nlf_all():
        for q, g in pairs:
            nlf_candidate_bits(q, g)

    # Pure intersection/popcount over prebuilt candidate bitmaps.
    prebuilt = [
        (nlf_candidate_bits(q, g), g) for q, g in pairs
    ]

    def intersect_all():
        total = 0
        for bitmaps, g in prebuilt:
            for bits in bitmaps:
                for v in range(min(8, g.num_vertices)):
                    total += (bits & g.neighbor_bitmap(v)).bit_count()
        return total

    return {
        "pairs": len(pairs),
        "ldf_candidate_bits": _time_repeated(ldf_all, repeats),
        "nlf_candidate_bits": _time_repeated(nlf_all, repeats),
        "bitset_and_popcount": _time_repeated(intersect_all, repeats),
    }


def _candidate_generation(db, queries, repeats: int) -> dict:
    """Filter-phase latency per matcher (build_candidates only)."""
    graphs = db.graphs()
    pairs = [(q, g) for q in queries for g in graphs]
    out: dict = {}
    for name, cls in _MATCHERS.items():
        matcher = cls()

        def build_all(m=matcher):
            for q, g in pairs:
                m.build_candidates(q, g)

        out[name] = _time_repeated(build_all, repeats)
        out[name]["pairs"] = len(pairs)
    return out


def _enumeration_kernels(db, queries, repeats: int) -> dict:
    """Recursive reference vs the kernel on identical inputs.

    Each case is a (query, graph) pair with all-non-empty CFQL candidate
    sets, run from the same candidates and matching order twice: to
    completion (full counting, no limit) and with ``limit=1`` (the shape
    of a vcFV verification).  ``parity_ok`` asserts both kernels returned
    the same embedding counts on every case — a speedup with wrong answers
    is not a speedup.  ``recursion_calls`` (and the kernel's ``pruned``)
    are summed over the full-count runs: the failing sets show as fewer
    search nodes, not as faster ones.
    """
    from repro.matching.enumeration import (
        enumerate_embeddings_iterative,
        enumerate_embeddings_recursive,
    )
    from repro.matching.plan import compile_plan

    matcher = CFQLMatcher()
    cases = []
    for q in queries:
        plan = compile_plan(q)
        for g in db.graphs():
            candidates = matcher.build_candidates(q, g, plan=plan)
            if candidates is None or not candidates.all_nonempty:
                continue
            order = tuple(matcher.matching_order(q, g, candidates, plan=plan))
            cases.append((q, g, candidates, order, plan))

    kernels = {
        "recursive": enumerate_embeddings_recursive,
        "iterative": enumerate_embeddings_iterative,
    }
    results: dict = {}

    def run_kernel(kind: str, limit: int | None):
        results[kind, limit] = [
            kernels[kind](q, g, candidates, order, limit=limit, plan=plan)
            for q, g, candidates, order, plan in cases
        ]

    out: dict = {"cases": len(cases)}
    for kind in kernels:
        entry = _time_repeated(lambda: run_kernel(kind, None), repeats)
        entry["limit_1"] = _time_repeated(lambda: run_kernel(kind, 1), repeats)
        entry["recursion_calls"] = sum(r.recursion_calls for r in results[kind, None])
        out[kind] = entry
    reference, kernel = out["recursive"], out["iterative"]
    kernel["pruned"] = sum(r.pruned for r in results["iterative", None])
    for timing, baseline in (
        (kernel, reference),
        (kernel["limit_1"], reference["limit_1"]),
    ):
        if timing["median_s"] > 0:
            timing["speedup_vs_recursive"] = baseline["median_s"] / timing["median_s"]
    out["total_embeddings"] = sum(r.num_embeddings for r in results["recursive", None])
    out["parity_ok"] = all(
        [r.num_embeddings for r in results["recursive", limit]]
        == [r.num_embeddings for r in results["iterative", limit]]
        for limit in (None, 1)
    )
    return out


def _plan_cache_bench(queries, repeats: int) -> dict:
    """Cold plan compilation vs cached lookup, plus the isomorphic hit.

    ``isomorphic_hit`` feeds a vertex-relabeled copy of a benchmark query
    to a warm cache and records whether the canonical key matched — the
    observable that distinguishes a plan cache from a dict of exact keys.
    """
    from repro.matching.plan import PlanCache, compile_plan

    def cold_compile():
        for q in queries:
            compile_plan(q)

    warm = PlanCache()
    for q in queries:
        warm.get(q)

    def cached_lookup():
        for q in queries:
            warm.get(q)

    cold = _time_repeated(cold_compile, repeats)
    cached = _time_repeated(cached_lookup, repeats)

    # Relabel the first query (reverse its vertex ids) and probe a cache
    # warmed only with the original.
    probe = PlanCache()
    query = queries[0]
    probe.get(query)
    n = query.num_vertices
    perm = [n - 1 - v for v in query.vertices()]
    labels = [0] * n
    for v in query.vertices():
        labels[perm[v]] = query.label(v)
    relabeled = type(query).from_edge_list(
        labels, [(perm[u], perm[v]) for u, v in query.edges()]
    )
    _, outcome = probe.get(relabeled)

    return {
        "queries": len(queries),
        "cold_compile": cold,
        "cached_lookup": cached,
        "speedup": (
            cold["median_s"] / cached["median_s"] if cached["median_s"] > 0 else None
        ),
        "isomorphic_hit": outcome == "hit",
    }


def _query_latency(db, queries, repeats: int) -> dict:
    """End-to-end single-query latency per matcher pipeline (in process)."""
    out: dict = {}
    for name in _MATCHERS:
        pipeline = create_pipeline(name)

        def run_all(p=pipeline):
            for q in queries:
                p.execute(q, db)

        out[name] = _time_repeated(run_all, repeats)
        out[name]["queries"] = len(queries)
    return out


def _timed_pool(pipeline, queries, db, jobs):
    """Seconds one ``jobs``-wide pool takes for the batch."""
    executor = ParallelExecutor(jobs=jobs)
    try:
        t0 = time.perf_counter()
        executor.run_many(pipeline, queries, db, None)
        return time.perf_counter() - t0
    finally:
        executor.close()


def _overlap_speedup(db, jobs: int, delay_s: float, count: int) -> dict:
    """Pool-overlap check with sleep-bound queries (core-count agnostic).

    Every query sleeps ``delay_s`` via an injected fault before doing its
    (tiny) real work, so a correctly overlapping pool finishes the batch
    in ~``count / jobs`` sleeps.  This isolates the pool machinery from
    the machine's core count.
    """
    queries = generate_query_set(db, 4, False, size=count, seed=5).queries
    pipeline = create_pipeline("CFQL")
    faults.clear()
    try:
        faults.inject("query:start", "delay", arg=delay_s)
        serial_s = _timed_pool(pipeline, queries, db, 1)
        parallel_s = _timed_pool(pipeline, queries, db, jobs)
    finally:
        faults.clear()
    return {
        "queries": count,
        "jobs": jobs,
        "injected_delay_s": delay_s,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else None,
    }


def _warm_start(db, queries, repeats: int) -> dict:
    """Snapshot load vs cold index build, per persisted index family.

    The store's reason for existing: loading a verified snapshot (framing,
    CRCs, parameters, database fingerprint all checked) should be much
    cheaper than rebuilding the index from the graphs.  The load timing
    includes the fingerprint verification — that is what a real warm
    start pays.  ``identical_candidates`` cross-checks that the warm-
    started index filters every benchmark query exactly like the cold-
    built one.
    """
    import shutil
    import tempfile

    from repro.store import IndexStore

    out: dict = {}
    tmp = tempfile.mkdtemp(prefix="repro-warmstart-")
    store = IndexStore(tmp)
    try:
        for name in ("Grapes", "GGSX"):
            cold = create_pipeline(name).index
            cold.build(db)
            store.save(cold, db)

            def cold_build(n=name):
                index = create_pipeline(n).index
                index.build(db)
                return index

            def warm_load(n=name):
                index = create_pipeline(n).index
                store.load_into(index, db)
                return index

            warm = warm_load(name)
            identical = all(
                cold.candidates(q) == warm.candidates(q) for q in queries
            )
            cold_t = _time_repeated(cold_build, repeats)
            warm_t = _time_repeated(warm_load, repeats)
            speedup = (
                cold_t["median_s"] / warm_t["median_s"]
                if warm_t["median_s"] > 0
                else None
            )
            out[name] = {
                "cold_build": cold_t,
                "snapshot_load": warm_t,
                "speedup": speedup,
                "snapshot_bytes": store.snapshot_path(cold.name).stat().st_size,
                "identical_candidates": identical,
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def run_microbench(jobs: int = 4, quick: bool = False) -> dict:
    """Run every microbenchmark section; returns the report dict."""
    if quick:
        db = generate_database(
            num_graphs=10, num_vertices=30, avg_degree=4, num_labels=4, seed=11
        )
        queries = generate_query_set(db, 6, False, size=4, seed=13).queries
        repeats, delay_s, delay_count = 3, 0.2, 6
    else:
        db = generate_database(
            num_graphs=30, num_vertices=60, avg_degree=6, num_labels=4, seed=11
        )
        queries = generate_query_set(db, 8, False, size=8, seed=13).queries
        repeats, delay_s, delay_count = 5, 0.5, 8

    report = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "workload": {
            "quick": quick,
            "kernel_db": f"{len(db)} graphs x ~{db.stats().avg_vertices:.0f} vertices",
        },
        "bitset_kernels": _bitset_kernels(db, queries, repeats),
        "candidate_generation": _candidate_generation(db, queries, repeats),
        "enumeration": _enumeration_kernels(db, queries, repeats),
        "plan_cache": _plan_cache_bench(queries, repeats),
        "query_latency": _query_latency(db, queries, repeats),
        "pool_overlap": _overlap_speedup(db, jobs, delay_s, delay_count),
        "warm_start": _warm_start(db, queries, repeats),
    }
    return report


def write_report(report: dict, path: str) -> None:
    # Atomic so a crash mid-dump never leaves a truncated BENCH file
    # where a previous complete one stood.
    atomic_write_text(path, json.dumps(report, indent=2) + "\n")
