"""One workload against one live server: set-up, traffic, checks, crash.

:func:`run_served` is the only place the end-to-end metrics come from.
In order: spawn ``repro serve`` and warm it up (``setup_s``, several
times, median), drive the workload's phases through the single pipelined
connection, check every response against the oracle, then ``kill -9``
the server's session and restart it on the same store (``recovery_s``).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.graph.io import write_graph_database
from repro.service.protocol import encode_message

import loadgen
from oracle import CACHE_DIR, Oracle
from procs import ServerError, ServerProcess, session_pids
from spans import Recorder
from workloads import Op, Phase, Workload

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile, ``p`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


@dataclass
class PhaseOutcome:
    phase: Phase
    record: loadgen.PhaseRecord
    #: Request lines as sent, and the run-wide id of the phase's first
    #: operation (span ``request`` ids are ``request_base + position``).
    lines: list[bytes]
    request_base: int
    #: Decoded responses, in schedule order.
    responses: list[dict]
    #: Server tree CPU seconds and peak RSS when the phase ended.
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0

    @property
    def latencies(self) -> list[float]:
        """Round trip per operation (open loop: from the due time), seconds."""
        return self.record.latencies()


@dataclass
class ServedRun:
    """Everything one served run observed."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: First few failures, as text, for the report.
    failures: list[str] = field(default_factory=list)
    samples: dict[str, int] = field(default_factory=dict)
    phases: list[PhaseOutcome] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    command: list[str] = field(default_factory=list)
    cpu_before_s: float = 0.0
    lateness_s: list[float] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(why)

    def measured(self, what: str) -> list[PhaseOutcome]:
        return [p for p in self.phases if what in p.phase.measures]


def _encode(ops: list[Op]) -> list[bytes]:
    return [encode_message({"id": i, **op.message}) for i, op in enumerate(ops)]


def _drive(sock, phase: Phase, server: ServerProcess,
           recorder: Recorder | None = None, sample_every: int = 0,
           request_base: int = 0) -> PhaseOutcome:
    traced = None
    if recorder is not None and phase.measures:
        traced = {
            i: {"id": i, **op.message}
            for i, op in enumerate(phase.ops) if i % sample_every == 0
        }
    lines = _encode(phase.ops)
    record = loadgen.drive(
        sock, lines, window=phase.window, due=phase.due,
        traced=traced, spans=recorder, request_base=request_base,
    )
    outcome = PhaseOutcome(
        phase, record, lines, request_base,
        responses=[r if isinstance(r, dict) else json.loads(r)
                   for r in record.responses],
    )
    outcome.cpu_s = server.cpu_seconds()
    outcome.peak_rss_mb = server.peak_rss_mb()
    return outcome


def _check(run: ServedRun, outcome: PhaseOutcome, oracle: Oracle) -> None:
    """Count failures: transport and protocol errors, failed or timed-out
    results, and answers that differ from the oracle's."""
    phase = outcome.phase
    for op, response in zip(phase.ops, outcome.responses):
        run.attempted += 1
        tag = f"{phase.name}/{op.kind}"
        if not response.get("ok"):
            code = (response.get("error") or {}).get("code", "no response")
            if op.kind != "query":
                oracle.apply(op)  # keep later expectations aligned
            run.fail(f"{tag}: {code}")
            continue
        result = response["result"]
        if op.kind == "query":
            if result.get("timed_out") or result.get("failure"):
                run.fail(f"{tag}: {result.get('failure') or 'timed out'}")
            elif op.ref >= 0 and result["answers"] != oracle.expected(op.ref):
                run.fail(
                    f"{tag}: pool query {op.ref} answered "
                    f"{len(result['answers'])} graphs, oracle says "
                    f"{len(oracle.expected(op.ref))}"
                )
            continue
        gid = oracle.apply(op)
        if result.get("gid") != gid or result.get("num_graphs") != oracle.num_graphs:
            run.fail(
                f"{tag}: acknowledged gid {result.get('gid')} with "
                f"{result.get('num_graphs')} graphs, expected gid {gid} "
                f"with {oracle.num_graphs}"
            )


def _warm_server(server: ServerProcess, warmup: Phase):
    """Spawn, wait for ``ping``, run the warm-up; returns (socket, seconds
    from spawn to the last warm-up answer)."""
    server.start()
    sock = server.connect()
    if warmup.ops:
        loadgen.drive(sock, _encode(warmup.ops), window=warmup.window)
    return sock, time.perf_counter() - server.spawned_at


def run_served(
    workload: Workload,
    seed: int,
    seconds: float,
    oracle: Oracle,
    *,
    setup_repeats: int = SETUP_REPEATS,
    crash: bool = True,
    recorder: Recorder | None = None,
    sample_every: int = 10,
    live_hook=None,
) -> ServedRun:
    """Run ``workload`` once against a fresh server.

    With ``recorder`` every ``sample_every``-th measured operation is
    traced.  ``crash=False`` (the traced run) skips the mutation tail of
    the read-only workloads and the kill/restart.  ``live_hook(server,
    sock, run)`` runs against the still-live server after the last phase.
    """
    run = ServedRun()
    oracle.reset()
    # The generator keeps one CPU to itself.  Whether generator and server
    # share a core changed the cached round trip between 0.16 and 0.23 ms
    # from one server instance to the next; a single-process server
    # therefore gets the other CPUs, a server with worker processes gets
    # all of them (the generator sleeps while it waits on those).
    allowed = os.sched_getaffinity(0)
    mine = {min(allowed)}
    server_cpus = allowed
    if workload.needs_cores == 1 and len(allowed) > 1:
        server_cpus = allowed - mine
    os.sched_setaffinity(0, mine)
    warmup, *phases = workload.phases(seed, seconds)
    if not crash:
        phases = [p for p in phases if p.measures != {"mutation"}]
    CACHE_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=CACHE_DIR))
    servers: list[ServerProcess] = []
    try:
        database = workdir / "db.txt"
        write_graph_database(workload.database, database)

        def spawn(store: Path) -> ServerProcess:
            store.mkdir(exist_ok=True)
            server = ServerProcess(store, database,
                                   workload.server_flags(store / "index"),
                                   cpus=server_cpus)
            servers.append(server)
            return server

        setups = []
        for repeat in range(setup_repeats):
            server = spawn(workdir / f"server-{repeat}")
            sock, setup = _warm_server(server, warmup)
            setups.append(setup)
            if repeat < setup_repeats - 1:
                sock.close()
                server.kill()
        run.metrics["setup_s"] = statistics.median(setups)
        run.command = server.command
        run.cpu_before_s = server.cpu_seconds()

        request_base = 0
        for phase in phases:
            run.phases.append(
                _drive(sock, phase, server, recorder, sample_every, request_base)
            )
            request_base += len(phase.ops)
        for outcome in run.phases:
            _check(run, outcome, oracle)
        run.stats = loadgen.call(sock, {"id": "stats", "op": "stats"})["result"]
        if live_hook is not None:
            live_hook(server, sock, run)
        sock.close()

        if crash:
            _crash_and_recover(run, workload, server, oracle, seed)
        # No graceful drain: it is not measured, and ``serve`` spends five
        # seconds of it joining an accept thread that close() cannot wake.
        server.kill()
        _summarise(run)
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)
        os.sched_setaffinity(0, allowed)
    leaked = [pid for server in servers for pid in session_pids(server.proc.pid)]
    if leaked:
        raise ServerError(f"processes outlived the run: {leaked}")
    return run


def _crash_and_recover(run: ServedRun, workload: Workload,
                       server: ServerProcess, oracle: Oracle, seed: int) -> None:
    """``kill -9`` the whole session, restart on the same store, and time
    kill → first ``ping``.  A durable workload must come back with every
    acknowledged mutation; the others come back as the database file."""
    killed_at = time.perf_counter()
    server.kill()
    server.start()
    sock = server.connect()
    run.metrics["recovery_s"] = time.perf_counter() - killed_at
    if not workload.durable:
        oracle.live.clear()
    stats = loadgen.call(sock, {"id": "stats", "op": "stats"})["result"]
    run.attempted += 1
    if stats["engine"]["num_graphs"] != oracle.num_graphs:
        run.fail(
            f"recovery: {stats['engine']['num_graphs']} graphs after restart, "
            f"{oracle.num_graphs} were acknowledged"
        )
    _check(run, _drive(sock, workload.recovery_check(seed), server), oracle)
    sock.close()


def _summarise(run: ServedRun) -> None:
    """Fold the phase records into the end-to-end metrics."""
    def of_kind(outcomes: list[PhaseOutcome], *kinds: str) -> list[float]:
        return [
            latency
            for outcome in outcomes
            for op, latency in zip(outcome.phase.ops, outcome.latencies)
            if op.kind in kinds
        ]

    latency = of_kind(run.measured("latency"), "query")
    run.samples["query_ms"] = len(latency)
    run.metrics["query_ms_p50"] = _ms(percentile(latency, 50))
    run.metrics["query_ms_p90"] = _ms(percentile(latency, 90))

    throughput = run.measured("throughput")
    answered = sum(
        1
        for outcome in throughput
        for op, response in zip(outcome.phase.ops, outcome.responses)
        if op.kind == "query" and response.get("ok")
        and not response["result"].get("failure")
    )
    run.metrics["queries_per_s"] = answered / sum(o.record.wall for o in throughput)

    # Inserting and deleting cost differently (on aids-scan a delete scans
    # the cached answer lists, an insert does not), and a schedule holds as
    # many of one as of the other, so the median of the mix would sit on
    # the edge between the two populations.  Median of each, averaged.
    adds = of_kind(run.measured("mutation"), "add")
    removes = of_kind(run.measured("mutation"), "remove")
    run.samples["mutation_ms"] = len(adds) + len(removes)
    run.metrics["mutation_ms_p50"] = _ms(
        (percentile(adds, 50) + percentile(removes, 50)) / 2.0
    )

    queries = [o for o in run.phases if {"latency", "throughput"} & o.phase.measures]
    run.metrics["peak_rss_mb"] = queries[-1].peak_rss_mb
    run.lateness_s = [
        late for o in run.measured("latency") for late in o.record.lateness()
    ]
