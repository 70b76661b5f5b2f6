"""Property tests for sharded execution.

The contract under test: partitioning a database across N shards and
merging the scatter-gathered per-shard results is *invisible* — answers,
candidates, and failure flags are bit-identical to the unsharded engine
for every N, serial or parallel, and a downed shard degrades the result
to a flagged partial that is never silently wrong (every reported answer
is a true answer; every missing answer lives on the downed shard).
"""

from __future__ import annotations

import os
import signal
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import create_engine, create_pipeline
from repro.exec import Health, ParallelExecutor, create_executor, faults
from repro.exec.worker import hard_deadline
from repro.graph import GraphDatabase, generate_database, random_walk_query
from repro.graph.labeled_graph import Graph
from repro.shard import Partitioner, ShardedEngine
from repro.shard.host import ShardWorkerError
from repro.utils.errors import ConfigurationError
from repro.workloads.querysets import generate_query_set
from strategies import connected_graphs

ALGORITHM = "Grapes"


@pytest.fixture(scope="module")
def workload():
    db = generate_database(
        num_graphs=24, num_vertices=14, avg_degree=2.8, num_labels=4, seed=13,
        name="shard-prop",
    )
    queries = list(generate_query_set(db, 4, False, size=6, seed=14))
    queries += list(generate_query_set(db, 8, True, size=3, seed=15))
    return db, queries


@pytest.fixture(scope="module")
def reference(workload):
    db, queries = workload
    with create_engine(db, ALGORITHM) as engine:
        engine.build_index()
        results = engine.query_many(queries)
        return [
            (sorted(r.answers), sorted(r.candidates)) for r in results
        ]


def sharded(db, num_shards, executor_factory=None):
    return ShardedEngine(
        db,
        num_shards,
        lambda: create_pipeline(ALGORITHM),
        executor_factory=executor_factory,
    )


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_bit_identical_serial(workload, reference, num_shards):
    db, queries = workload
    with sharded(db, num_shards) as engine:
        engine.build_index()
        results = engine.query_many(queries)
    for result, (answers, candidates) in zip(results, reference):
        assert result.failure is None
        assert not result.timed_out
        assert not result.metadata.get("partial")
        assert not result.metadata["degraded"]
        assert sorted(result.answers) == answers
        assert sorted(result.candidates) == candidates
        assert result.metadata["shards"]["count"] == num_shards
        assert result.metadata["shards"]["missing"] == []


def test_bit_identical_parallel_workers(workload, reference):
    db, queries = workload
    with sharded(
        db, 2, executor_factory=lambda i: create_executor("parallel", jobs=2)
    ) as engine:
        engine.build_index()
        results = engine.query_many(queries)
    for result, (answers, candidates) in zip(results, reference):
        assert result.failure is None
        assert sorted(result.answers) == answers
        assert sorted(result.candidates) == candidates


@pytest.mark.parametrize("num_shards", [2, 4])
def test_downed_shard_degrades_but_never_lies(workload, reference, num_shards):
    db, queries = workload
    down = num_shards - 1
    with sharded(db, num_shards) as engine:
        engine.build_index()
        downed_gids = set(engine._shards[down].engine.db.ids())
        faults.inject("shard.query", "error", match=f"shard-{down}")
        try:
            results = engine.query_many(queries)
        finally:
            faults.clear()
        for result, (answers, _) in zip(results, reference):
            assert result.failure is None  # partial, not failed
            assert result.metadata["partial"]
            assert result.metadata["degraded"]
            assert result.metadata["missing_shards"] == [down]
            got = set(result.answers)
            # Nothing invented...
            assert got <= set(answers)
            # ...and nothing lost except what the downed shard owned.
            assert set(answers) - got <= downed_gids
        # The fleet heals once the fault is gone: full answers again.
        healed = engine.query_many(queries)
        assert [sorted(r.answers) for r in healed] == [a for a, _ in reference]
        assert not any(r.metadata.get("partial") for r in healed)


def test_all_shards_down_is_failure_not_empty(workload):
    db, queries = workload
    with sharded(db, 2) as engine:
        engine.build_index()
        faults.inject("shard.query", "error", match="shard-")
        try:
            results = engine.query_many(queries[:2])
        finally:
            faults.clear()
    for result in results:
        assert result.failure is not None
        assert result.failure.stage == "route"
        assert "2 shards unavailable" in result.failure.message


def test_repeated_crashes_open_breaker(workload):
    db, queries = workload
    with ShardedEngine(
        db, 2, lambda: create_pipeline(ALGORITHM),
        health=lambda: Health(threshold=2, cooldown=60.0),
    ) as engine:
        engine.build_index()
        faults.inject("shard.query", "error", match="shard-1")
        try:
            engine.query_many(queries[:1])
            engine.query_many(queries[:1])
        finally:
            faults.clear()
        # Two consecutive shard failures tripped the breaker; with the
        # fault cleared the shard is still skipped until the cooldown.
        assert engine._shards[1].health.snapshot()["state"] == "open"
        result = engine.query(queries[0])
        assert result.metadata["partial"]
        row = result.metadata["shards"]["per_shard"][1]
        assert row["down"] == "breaker_open"


# ---------------------------------------------------------------------------
# The process host
# ---------------------------------------------------------------------------


def process_sharded(db, num_shards, **kwargs):
    return ShardedEngine(
        db,
        num_shards,
        lambda: create_pipeline(ALGORITHM),
        shard_host="process",
        **kwargs,
    )


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_process_host_bit_identical(workload, reference, num_shards):
    db, queries = workload
    with process_sharded(db, num_shards) as engine:
        engine.build_index()
        results = engine.query_many(queries)
        rows = engine.shard_stats()
    for result, (answers, candidates) in zip(results, reference):
        assert result.failure is None
        assert not result.metadata.get("partial")
        assert sorted(result.answers) == answers
        assert sorted(result.candidates) == candidates
    for row in rows:
        assert row["host"]["alive"]
        assert row["host"]["restarts"] == 0


def test_process_host_rejects_worker_pools(workload):
    db, _ = workload
    with pytest.raises(ConfigurationError, match="thread host"):
        process_sharded(
            db, 2,
            executor_factory=lambda i: create_executor("parallel", jobs=2),
        )


def test_process_host_requires_build_before_mutation(workload):
    db, _ = workload
    with process_sharded(db, 2) as engine:
        with pytest.raises(ConfigurationError, match="build"):
            engine.add_graph(db[db.ids()[0]])


def test_process_host_crash_respawns_bit_identical(
    workload, reference, tmp_path
):
    """A shard process dying mid-batch degrades that batch to a flagged
    partial (never silently wrong); the next dispatch respawns the worker
    and answers go back to bit-identical."""
    db, queries = workload
    latch = str(tmp_path / "crash.latch")
    faults.inject("shard.worker.query", "crash", match="shard-1", latch=latch)
    try:
        with process_sharded(db, 2) as engine:
            engine.build_index()
            downed_gids = set(engine._shards[1].engine.db.ids())
            results = engine.query_many(queries)
            for result, (answers, _) in zip(results, reference):
                assert result.failure is None
                assert result.metadata["partial"]
                assert result.metadata["missing_shards"] == [1]
                got = set(result.answers)
                assert got <= set(answers)
                assert set(answers) - got <= downed_gids
            time.sleep(0.3)  # clear the respawn backoff window
            healed = engine.query_many(queries)
            for result, (answers, candidates) in zip(healed, reference):
                assert not result.metadata.get("partial")
                assert sorted(result.answers) == answers
                assert sorted(result.candidates) == candidates
            assert engine.shard_stats()[1]["host"]["restarts"] >= 1
    finally:
        faults.clear()


def test_process_host_backoff_refusals_are_not_failures(workload, tmp_path):
    """One shard-process death is one failure of that shard's Health.

    Queries that arrive while the respawn backs off find the shard down
    (flagged partial) but are not counted as more failures, so they
    cannot open the shard: once the backoff has run out, the next query
    respawns the worker and gets the full answer.
    """
    db, queries = workload
    faults.inject(
        "shard.worker.query", "crash", match="shard-1",
        latch=str(tmp_path / "crash.latch"),
    )
    try:
        with process_sharded(db, 2) as engine:
            engine.build_index()
            for _ in range(3):  # the death, then two refusals
                assert engine.query(queries[0]).metadata["partial"]
            time.sleep(0.3)  # past the respawn backoff
            row = engine.shard_stats()[1]
            assert row["breaker"]["consecutive_failures"] == 1
            assert row["breaker"]["state"] == "closed"
            healed = engine.query(queries[0])
            assert not healed.metadata.get("partial")
    finally:
        faults.clear()


@pytest.mark.parametrize("with_store", [False, True])
def test_process_host_hung_worker_is_killed_at_the_hard_deadline(
    workload, tmp_path, with_store
):
    """A shard worker that stops polling its deadline must not hold the
    scatter-gather past the query's time limit: the host SIGKILLs it at
    the pool's hard deadline, the batch degrades to a flagged partial with
    the sibling's answers intact, and the next dispatch respawns the shard
    — replaying its journal when it has one — to bit-identical answers."""
    db, queries = workload
    extra = generate_database(
        num_graphs=3, num_vertices=10, avg_degree=2.5, num_labels=4, seed=78,
    )
    mirror = GraphDatabase(name="mutated")
    for gid, graph in db.items():
        mirror.add_graph_with_id(gid, graph)
    faults.inject(
        "shard.worker.query", "spin", arg=8.0, match="shard-1",
        latch=str(tmp_path / "spin.latch"),
    )
    limit = 0.2
    try:
        with process_sharded(
            db, 2, store_root=(tmp_path / "store") if with_store else None
        ) as engine:
            engine.build_index()
            for _, graph in extra.items():  # acknowledged before the hang
                mirror.add_graph_with_id(engine.add_graph(graph), graph)
            with create_engine(mirror, ALGORITHM) as ref:
                ref.build_index()
                expected = ref.query_many(queries)
            downed_gids = set(engine._shards[1].engine.db.ids())

            started = time.perf_counter()
            result = engine.query(queries[0], time_limit=limit)
            elapsed = time.perf_counter() - started
            assert elapsed < 2 * hard_deadline(limit)  # not the 8 s spin
            assert result.failure is None
            assert result.metadata["partial"]
            assert result.metadata["missing_shards"] == [1]
            got, want = set(result.answers), set(expected[0].answers)
            assert got <= want
            assert want - got <= downed_gids  # the sibling's are all there
            row = engine._host.worker_row(1)
            assert not row["alive"] and row["restarts"] == 0

            time.sleep(0.3)  # clear the respawn backoff window
            healed = engine.query_many(queries, time_limit=30.0)
            for result, ref_result in zip(healed, expected):
                assert not result.metadata.get("partial")
                assert sorted(result.answers) == sorted(ref_result.answers)
                assert sorted(result.candidates) == sorted(ref_result.candidates)
            row = engine._host.worker_row(1)
            assert row["alive"] and row["restarts"] == 1 and row["spawns"] == 2
    finally:
        faults.clear()


def test_process_host_hard_deadline_kills_never_open_the_breaker(workload):
    """A worker killed at its hard deadline ran its query: the shard is
    slow, not broken.  However many such kills in a row, its Health stays
    closed, so the shard is retried (and answers whole once the hang is
    gone) instead of being skipped as ``breaker_open`` for a cooldown."""
    db, queries = workload
    faults.inject("shard.worker.query", "spin", arg=8.0, match="shard-1")
    try:
        with process_sharded(
            db, 2, health=lambda: Health(threshold=2)
        ) as engine:
            engine.build_index()
            health = engine._shards[1].health
            for attempt in range(3):
                result = engine.query(queries[0], time_limit=0.2)
                assert result.metadata["partial"]
                assert result.metadata["missing_shards"] == [1]
                assert health.snapshot()["state"] == "closed"
                row = engine._host.worker_row(1)
                assert not row["alive"] and row["spawns"] == attempt + 1

            faults.clear()  # the next respawn runs without the hang
            whole = engine.query(queries[0], time_limit=30.0)
            assert not whole.metadata.get("partial")
            assert engine._host.worker_row(1)["spawns"] == 4
    finally:
        faults.clear()


def test_process_host_parity_after_mutations(workload):
    """Mutations route through the workers; answers afterwards match an
    unsharded engine built over the same mutated database."""
    db, queries = workload
    extra = generate_database(
        num_graphs=4, num_vertices=10, avg_degree=2.5, num_labels=4, seed=77,
    )
    mirror = GraphDatabase(name="mutated")
    for gid, graph in db.items():
        mirror.add_graph_with_id(gid, graph)
    with process_sharded(db, 2) as engine:
        engine.build_index()
        for _, graph in extra.items():
            gid = engine.add_graph(graph)
            mirror.add_graph_with_id(gid, graph)
        victim = sorted(engine.db.ids())[0]
        engine.remove_graph(victim)
        mirror.remove_graph(victim)
        results = engine.query_many(queries)
    with create_engine(mirror, ALGORITHM) as ref:
        ref.build_index()
        expected = ref.query_many(queries)
    for result, want in zip(results, expected):
        assert sorted(result.answers) == sorted(want.answers)
        assert sorted(result.candidates) == sorted(want.candidates)


class SpyHealth(Health):
    """A Health that counts the failures reported to it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.failure_calls = 0

    def failure(self) -> float:
        self.failure_calls += 1
        return super().failure()


def test_process_host_idle_death_is_one_failure(workload, reference):
    """A shard worker that dies between exchanges is reaped by the same
    rule as the pool's: one failure of the shard's Health, counted when
    the next exchange finds it dead.  That exchange lost nothing, so it
    waits the respawn backoff out, as the pool does inside ``collect``,
    and the first query after the death is answered whole."""
    db, queries = workload
    with process_sharded(
        db, 2, health=lambda: SpyHealth(threshold=3)
    ) as engine:
        engine.build_index()
        spy = engine._shards[1].health
        os.kill(engine._host.worker_row(1)["pid"], signal.SIGKILL)
        deadline = time.perf_counter() + 10.0
        while engine._host.worker_row(1)["alive"]:
            assert time.perf_counter() < deadline
            time.sleep(0.01)
        assert spy.failure_calls == 0
        result = engine.query(queries[0])
        assert not result.metadata.get("partial")
        assert sorted(result.answers) == reference[0][0]
        assert spy.failure_calls == 1
        assert engine._host.worker_row(1)["spawns"] == 2


def test_mutation_to_an_open_shard_is_refused_unsent(workload, tmp_path):
    """Queries and mutations pass one gate: a mutation owned by an open
    process-host shard spawns no worker and is refused with the shard's
    retry-after, leaving the Health open; the first exchange after the
    cooldown is the half-open probe, and its success closes the shard."""
    db, queries = workload
    extra = generate_database(
        num_graphs=6, num_vertices=10, avg_degree=2.5, num_labels=4, seed=79,
    )
    graphs = [graph for _, graph in extra.items()]
    faults.inject(
        "shard.worker.query", "crash", match="shard-1",
        latch=str(tmp_path / "crash.latch"),
    )
    try:
        with process_sharded(
            db, 2, health=lambda: Health(threshold=1, cooldown=1.0)
        ) as engine:
            engine.build_index()
            while engine.owner_of(engine.next_id) != 1:
                engine.add_graph(graphs.pop())  # lands on shard 0
            assert engine.query(queries[0]).metadata["missing_shards"] == [1]
            health = engine._shards[1].health
            assert health.state == "open"
            time.sleep(0.2)  # past the backoff, well inside the cooldown
            graph = graphs.pop()
            with pytest.raises(ShardWorkerError) as refused:
                engine.add_graph(graph)
            assert 0.0 < refused.value.retry_after <= health.cooldown
            assert engine._host.worker_row(1)["spawns"] == 1
            assert health.state == "open"
            assert engine.owner_of(engine.next_id) == 1  # no id was spent

            time.sleep(refused.value.retry_after)
            gid = engine.add_graph(graph)  # the half-open probe
            assert health.transitions["open->half_open"] == 1
            assert health.state == "closed"
            assert engine._host.worker_row(1)["spawns"] == 2
            assert engine.db[gid] is graph
    finally:
        faults.clear()


def test_thread_host_shard_and_its_pool_share_one_health(workload):
    """A thread-host shard with its own pool has one Health, the pool's:
    each worker crash is counted once, so the shard opens within
    ``threshold`` crashes and the router then skips it; after one
    cooldown the next query is the pool's half-open probe and comes back
    whole — the router only reads the Health, so it never spends that
    probe itself."""
    db, queries = workload
    cooldown = 0.5
    with ShardedEngine(
        db, 2, lambda: create_pipeline(ALGORITHM),
        executor_factory=lambda health: ParallelExecutor(jobs=1, health=health),
        health=lambda: Health(threshold=2, cooldown=cooldown),
    ) as engine:
        engine.build_index()
        shards = engine._shards
        for shard in shards:
            assert shard.health is shard.engine.executor.health
        assert not engine.query(queries[0]).metadata.get("partial")
        # Only shard 1's respawned workers carry the crash.
        faults.inject("worker.query", "crash")
        shards[1].engine.executor.invalidate()
        try:
            for _ in range(2):
                result = engine.query(queries[0], time_limit=30.0)
                assert result.metadata["missing_shards"] == [1]
            health = shards[1].health
            assert health.state == "open"
            result = engine.query(queries[0], time_limit=30.0)
            assert result.metadata["shards"]["per_shard"][1]["down"] == (
                "breaker_open"
            )
            row = engine.shard_stats()[1]["breaker"]
            pool = shards[1].engine.executor.worker_stats()
            assert row["consecutive_failures"] == pool["consecutive_failures"]
            assert row["consecutive_failures"] == 2
        finally:
            faults.clear()
        time.sleep(cooldown)
        whole = engine.query(queries[0], time_limit=30.0)
        assert not whole.metadata.get("partial")
        assert health.state == "closed"


# ---------------------------------------------------------------------------
# Seed-screen pruning
# ---------------------------------------------------------------------------


def skewed_workload():
    """Even gids carry labels {0, 1}; odd gids labels {2, 3}.  Modulo
    placement over two shards puts each label family on its own shard,
    so each query below is prunable on exactly one shard."""
    db = GraphDatabase(name="skewed")
    for gid in range(8):
        base = 0 if gid % 2 == 0 else 2
        db.add_graph_with_id(gid, Graph.from_edge_list(
            [base, base + 1, base, base + 1],
            [(0, 1), (1, 2), (2, 3), (3, 0)],
            name=f"g{gid}",
        ))
    queries = [
        Graph.from_edge_list([0, 1], [(0, 1)], name="q-even"),
        Graph.from_edge_list([2, 3], [(0, 1)], name="q-odd"),
    ]
    return db, queries


@pytest.mark.parametrize("shard_host", ["thread", "process"])
def test_pruning_bit_identical_with_counters(shard_host):
    db, queries = skewed_workload()
    with create_engine(db, ALGORITHM) as ref:
        ref.build_index()
        expected = ref.query_many(queries)
    with ShardedEngine(
        db, 2, lambda: create_pipeline(ALGORITHM),
        partitioner="modulo", shard_host=shard_host,
    ) as engine:
        engine.build_index()
        results = engine.query_many(queries)
        stats = engine.prune_stats()
    for result, want in zip(results, expected):
        assert not result.metadata.get("partial")
        assert sorted(result.answers) == sorted(want.answers)
        assert sorted(result.candidates) == sorted(want.candidates)
        pruned_rows = [
            row for row in result.metadata["shards"]["per_shard"]
            if row.get("pruned")
        ]
        assert len(pruned_rows) == 1
    assert stats["shard_queries"] == 4
    assert stats["shards_pruned"] == 2
    assert stats["prune_rate"] == pytest.approx(0.5)


@pytest.mark.parametrize("shard_host", ["thread", "process"])
def test_pruning_tracks_label_changing_mutations(shard_host):
    """A mutation that changes a shard's label population immediately
    changes what the router may prune — and answers stay bit-identical
    to a fresh unsharded engine at every step."""
    db, queries = skewed_workload()
    q_odd = queries[1]
    with ShardedEngine(
        db, 2, lambda: create_pipeline(ALGORITHM),
        partitioner="modulo", shard_host=shard_host,
    ) as engine:
        engine.build_index()
        before = engine.query(q_odd)
        assert any(
            row.get("pruned")
            for row in before.metadata["shards"]["per_shard"]
        )
        # next_id = 8 -> modulo places the new graph on shard 0, which
        # until now held no {2, 3}-labeled graph.
        odd_graph = Graph.from_edge_list(
            [2, 3, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)], name="late-odd",
        )
        gid = engine.add_graph(odd_graph)
        assert engine.owner_of(gid) == 0
        after_add = engine.query(q_odd)
        assert gid in after_add.answers
        assert not any(
            row.get("pruned")
            for row in after_add.metadata["shards"]["per_shard"]
        )
        engine.remove_graph(gid)
        after_remove = engine.query(q_odd)
        assert sorted(after_remove.answers) == sorted(before.answers)
        assert any(
            row.get("pruned")
            for row in after_remove.metadata["shards"]["per_shard"]
        )


def test_pruned_shard_down_is_not_partial():
    """A query the screen rules out on the downed shard stays complete:
    the shard's contribution is provably empty whether it is up or not."""
    db, queries = skewed_workload()
    q_even, q_odd = queries
    with ShardedEngine(
        db, 2, lambda: create_pipeline(ALGORITHM), partitioner="modulo",
    ) as engine:
        engine.build_index()
        faults.inject("shard.query", "error", match="shard-1")
        try:
            even_result, odd_result = engine.query_many([q_even, q_odd])
        finally:
            faults.clear()
        # q_odd needed shard 1: partial.  q_even was pruned there: whole.
        assert odd_result.metadata.get("partial")
        assert not even_result.metadata.get("partial")
        assert sorted(even_result.answers) == [0, 2, 4, 6]


def pruned_pairs(results) -> set[tuple[int, int]]:
    """The (query position, shard) pairs the router pruned."""
    return {
        (position, row["shard"])
        for position, result in enumerate(results)
        for row in result.metadata["shards"]["per_shard"]
        if row.get("pruned")
    }


@pytest.mark.parametrize("shard_host", ["thread", "process"])
def test_pruning_survives_warm_start(shard_host, tmp_path):
    """A durable fleet reopened from its store prunes the same pairs it
    pruned before the close — the screen is rebuilt from the recovered
    shard databases, so no pruning state is persisted beside them."""
    db, queries = skewed_workload()
    store_root = tmp_path / "store"

    def open_fleet() -> ShardedEngine:
        return ShardedEngine(
            db, 2, lambda: create_pipeline(ALGORITHM),
            partitioner="modulo", store_root=store_root,
            shard_host=shard_host,
        )

    with open_fleet() as engine:
        engine.build_index()
        # next_id = 8 lands an odd-family graph on shard 0, 9 an
        # even-family one on shard 1; only the second is removed again,
        # after a compaction, so recovery folds a snapshot and replays.
        engine.add_graph(Graph.from_edge_list(
            [2, 3, 2], [(0, 1), (1, 2)], name="late-odd",
        ))
        even = engine.add_graph(Graph.from_edge_list(
            [0, 1, 0], [(0, 1), (1, 2)], name="late-even",
        ))
        engine.compact_store()
        engine.remove_graph(even)
        before = engine.query_many(queries)
    assert pruned_pairs(before) == {(0, 1)}

    with open_fleet() as engine:
        engine.build_index()
        after = engine.query_many(queries)
    assert pruned_pairs(after) == pruned_pairs(before)
    for a, b in zip(after, before):
        assert sorted(a.answers) == sorted(b.answers)
        assert sorted(a.candidates) == sorted(b.candidates)
    assert not list(store_root.rglob("summary.json"))


# The pipelines the prune rule is neutral for: each rejects a graph that
# misses a query label, so a shard where no graph holds every query label
# yields neither answers nor candidates.  CT-Index is left out: its
# features are hashed into a fixed-width fingerprint, so a collision can
# make a graph missing a query label a candidate — pruning that shard
# keeps the answers but can shrink CT-Index's candidate set.  The naive
# ``*-FV`` baselines are out too: they report every graph as a candidate.
PRUNE_NEUTRAL = [
    "CFQL", "GraphQL", "CFL", "TurboIso",
    "Grapes", "GGSX", "vcGrapes", "vcGGSX",
]


class _DrawnPlacement(Partitioner):
    """Places each graph id on the shard hypothesis drew for it."""

    name = "drawn"

    def __init__(self, owners: list[int]) -> None:
        self._owners = owners

    def owner(self, gid: int, num_shards: int) -> int:
        return self._owners[gid]


@st.composite
def prune_instances(draw):
    """(database, shard owner per graph id, shard count, query drawn from
    one of the graphs)."""
    graphs = draw(st.lists(
        connected_graphs(min_vertices=2, max_vertices=7, max_labels=5),
        min_size=2, max_size=8,
    ))
    db = GraphDatabase(name="prune-prop")
    db.add_graphs(graphs)
    num_shards = draw(st.integers(2, 4))
    owners = draw(st.lists(
        st.integers(0, num_shards - 1),
        min_size=len(graphs), max_size=len(graphs),
    ))
    source = draw(st.sampled_from(graphs))
    seed = draw(st.integers(0, 2**32 - 1))
    query = (
        random_walk_query(source, draw(st.integers(1, 4)), seed=seed)
        or random_walk_query(source, 1, seed=seed)
    )
    return db, owners, num_shards, query


def _star_beside_chain():
    """A degree-3 star query whose source sits on shard 0, and a chain on
    shard 1 that holds every 1- and 2-edge label path of the star, but at
    vertices of degree 2.  The path indexes keep the chain as a candidate,
    so a prune rule that also asks for degrees would drop a candidate."""
    star = Graph.from_edge_list([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    chain = Graph.from_edge_list(
        [1, 0, 2, 0, 3, 0, 1], [(i, i + 1) for i in range(6)]
    )
    db = GraphDatabase(name="star-chain")
    db.add_graphs([star, chain])
    return db, [0, 1], 2, star


@settings(max_examples=60, deadline=None)
@given(prune_instances())
@example(_star_beside_chain())
def test_pruned_shards_hold_no_answers_or_candidates(instance):
    """Every shard the router prunes, queried unpruned, gives empty
    answers and empty candidates under every label-rejecting pipeline."""
    db, owners, num_shards, query = instance
    with ShardedEngine(
        db, num_shards, lambda: create_pipeline("CFQL"),
        partitioner=_DrawnPlacement(owners),
    ) as engine:
        engine.build_index()
        pruned = {shard for _, shard in pruned_pairs([engine.query(query)])}
    for shard in pruned:
        shard_db = GraphDatabase(name=f"pruned-{shard}")
        for gid, graph in db.items():
            if owners[gid] == shard:
                shard_db.add_graph_with_id(gid, graph)
        for algorithm in PRUNE_NEUTRAL:
            with create_engine(shard_db, algorithm) as unpruned:
                unpruned.build_index()
                result = unpruned.query(query)
            assert result.failure is None, (algorithm, shard)
            assert not result.answers, (algorithm, shard)
            assert not result.candidates, (algorithm, shard)
