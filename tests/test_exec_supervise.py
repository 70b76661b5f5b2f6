"""The supervised pool: watchdog, restart backoff, storm fuse, stats.

The contract: a :class:`ParallelExecutor` armed with a :class:`Health`
that opens (what ``create_executor("supervised")`` and ``serve
--supervised`` build) answers exactly like an unarmed pool on healthy and
singly-faulted batches (the Health is not failure classification), while
a pool that cannot hold workers stops respawning — backoff between
attempts, the Health opening under sustained death (the storm fuse) —
and heals on the first success.
"""

from __future__ import annotations

import time

import pytest

from helpers import nx_contains
from repro.core import create_engine
from repro.exec import EXECUTOR_NAMES, Health, create_executor, faults
from repro.exec.base import InProcessExecutor
from repro.exec.parallel import ParallelExecutor
from repro.graph import Graph


def named_square(name: str) -> Graph:
    return Graph.from_edge_list(
        [0, 1, 0, 1], [(0, 1), (1, 2), (2, 3), (3, 0)], name=name
    )


def expected_answers(query, db):
    return {gid for gid, graph in db.items() if nx_contains(query, graph)}


def supervised_pool(jobs=2, health=None):
    """The supervised pool: one whose Health opens."""
    return ParallelExecutor(
        jobs=jobs, health=health if health is not None else Health(threshold=5)
    )


def run_supervised(small_db, queries, time_limit=30.0, jobs=2, **kwargs):
    executor = supervised_pool(jobs=jobs, **kwargs)
    with create_engine(small_db, "CFQL", executor=executor) as eng:
        eng.build_index()
        return eng.query_many(queries, time_limit=time_limit), executor


class TestRegistry:
    def test_supervised_is_a_named_executor(self):
        assert "supervised" in EXECUTOR_NAMES
        executor = create_executor("supervised", jobs=2)
        try:
            assert type(executor) is ParallelExecutor
            assert executor.health.threshold == 5
        finally:
            executor.close()

    def test_storm_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            create_executor("supervised", jobs=1, health=Health(threshold=0))


class TestHealthyParity:
    def test_clean_batch_matches_parallel_answers(self, small_db):
        queries = [named_square(f"q{i}") for i in range(5)]
        results, executor = run_supervised(small_db, queries)
        assert all(r.failure is None for r in results)
        expected = expected_answers(queries[0], small_db)
        assert all(r.answers == expected for r in results)
        assert executor.worker_deaths == 0 and executor.worker_kills == 0

    def test_success_resets_the_backoff(self, small_db):
        faults.inject("worker.query", "crash", match="q1")
        executor = supervised_pool(jobs=2)
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            results = eng.query_many(
                [named_square(f"q{i}") for i in range(4)], time_limit=30.0
            )
            kinds = [r.failure.kind if r.failure else None for r in results]
            assert kinds == [None, "crash", None, None]
            assert executor.worker_deaths == 1
            # The crash bumped the failure counter; a later clean batch
            # always resets it (within the first batch, the reap may race
            # the tail results, so assert on the follow-up).
            recovered = eng.query_many([named_square("r0")], time_limit=30.0)
            assert recovered[0].failure is None
            assert executor.health.failures == 0
            assert executor.health.backoff_until == 0.0


class TestWorkerStats:
    def test_inprocess_executor_has_no_worker_stats(self):
        assert InProcessExecutor().worker_stats() is None

    def test_stats_shape_and_liveness_rows(self, small_db):
        executor = supervised_pool(jobs=2)
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            eng.query_many([named_square(f"q{i}") for i in range(4)],
                           time_limit=30.0)
            stats = executor.worker_stats()
            assert stats["executor"] == "ParallelExecutor"
            assert stats["supervised"] is True
            assert stats["jobs"] == 2
            assert stats["spawns"] == 2
            assert stats["restarts"] == 0
            assert stats["storm_trips"] == 0
            assert stats["storm_active"] is False
            assert len(stats["live"]) == 2
            for row in stats["live"]:
                assert row["alive"] and row["ready"]
                assert isinstance(row["pid"], int)
                assert row["age_s"] >= 0.0
            # 4 queries across 2 workers: every query is accounted for.
            assert sum(row["queries"] for row in stats["live"]) == 4
            assert any(row["last_batch_latency_s"] is not None
                       for row in stats["live"])

    def test_restarts_count_deaths_and_kills(self, small_db):
        queries = [named_square(f"q{i}") for i in range(4)]
        faults.inject("worker.query", "crash", match="q2")
        results, executor = run_supervised(small_db, queries)
        assert results[2].failure is not None
        stats = executor.worker_stats()
        assert stats["deaths"] == 1
        assert stats["restarts"] == 1
        # No respawn needed when the batch already drained: spawns only
        # exceed the pool width if work was still pending at the death.
        assert stats["spawns"] >= 2

    def test_hard_timeout_kill_counts_as_kill(self, small_db):
        queries = [named_square(f"q{i}") for i in range(3)]
        faults.inject("worker.query", "spin", arg=30.0, match="q1")
        results, executor = run_supervised(
            small_db, queries, time_limit=0.3, jobs=2
        )
        assert results[1].failure is not None
        assert results[1].failure.kind == "oot"
        assert executor.worker_kills == 1
        assert executor.worker_stats()["kills"] == 1


class TestStormFuse:
    def test_sustained_crash_trips_the_storm_fuse(self, small_db):
        """With every execution crashing its worker, the pool must stop
        respawning after ``storm_threshold`` deaths and fail the rest of
        the batch fast — bounded spawns, not a fork bomb."""
        faults.inject("worker.query", "crash")
        queries = [named_square(f"q{i}") for i in range(10)]
        started = time.perf_counter()
        results, executor = run_supervised(
            small_db, queries, jobs=2,
            health=Health(threshold=3, cooldown=30.0, base=0.01, cap=0.05),
        )
        elapsed = time.perf_counter() - started
        assert all(r.failure is not None and r.failure.kind == "crash"
                   for r in results)
        assert executor.health.transitions["closed->open"] >= 1
        stats = executor.worker_stats()
        assert stats["storm_active"] is True
        # The fuse capped respawns: nowhere near one spawn per query.
        assert executor.spawn_total <= 2 + executor.health.threshold
        assert elapsed < 30.0

    def test_pool_recovers_after_the_storm_cooldown(self, small_db):
        faults.inject("worker.query", "crash")
        executor = supervised_pool(
            jobs=2,
            health=Health(threshold=3, cooldown=0.2, base=0.01, cap=0.05),
        )
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            stormed = eng.query_many(
                [named_square(f"q{i}") for i in range(8)], time_limit=30.0
            )
            assert all(r.failure is not None for r in stormed)
            assert executor.health.transitions["closed->open"] >= 1
            faults.clear()
            time.sleep(executor.health.cooldown)
            recovered = eng.query_many([named_square("r0")], time_limit=30.0)
            assert recovered[0].failure is None
            assert recovered[0].answers == expected_answers(
                named_square("r0"), small_db
            )
            assert executor.health.failures == 0
