"""Hard containment in a pool of one worker (kills, caps, retries).

These are the tentpole's acceptance tests: a busy loop that never polls
the cooperative deadline is SIGKILLed and recorded OOT, a crashing query
is contained to its own result, and a worker that dies before starting a
query is retried with backoff.
"""

from __future__ import annotations

import pytest

from helpers import nx_contains
from repro.core import create_engine
from repro.exec import Health, faults
from repro.exec.parallel import ParallelExecutor
from repro.graph import Graph


def named_square(name: str) -> Graph:
    return Graph.from_edge_list(
        [0, 1, 0, 1], [(0, 1), (1, 2), (2, 3), (3, 0)], name=name
    )


def expected_answers(query, db):
    return {gid for gid, graph in db.items() if nx_contains(query, graph)}


@pytest.fixture()
def engine(small_db):
    eng = create_engine(small_db, "CFQL", executor=ParallelExecutor(jobs=1))
    eng.build_index()
    yield eng
    eng.close()


class TestBasics:
    def test_answers_match_inprocess(self, small_db, engine):
        query = named_square("q0")
        reference = create_engine(small_db, "CFQL")
        reference.build_index()
        subprocess_result = engine.query(query, time_limit=30.0)
        inprocess_result = reference.query(query, time_limit=30.0)
        assert subprocess_result.failure is None
        assert subprocess_result.answers == inprocess_result.answers
        assert subprocess_result.candidates == inprocess_result.candidates

    def test_worker_is_reused_across_queries(self, engine):
        engine.query(named_square("q0"), time_limit=30.0)
        first_pid = engine.executor.worker_stats()["live"][0]["pid"]
        engine.query(named_square("q1"), time_limit=30.0)
        assert engine.executor.worker_stats()["live"][0]["pid"] == first_pid

    def test_unlimited_time_works(self, engine):
        result = engine.query(named_square("q0"))
        assert result.failure is None

    def test_close_is_idempotent(self, small_db):
        engine = create_engine(
            small_db, "CFQL", executor=ParallelExecutor(jobs=1)
        )
        engine.build_index()
        engine.query(named_square("q0"), time_limit=30.0)
        engine.close()
        engine.close()

    def test_ifv_pipeline_runs_in_worker(self, small_db):
        query = named_square("q0")
        with create_engine(
            small_db, "Grapes", executor=ParallelExecutor(jobs=1),
            index_max_path_edges=2,
        ) as engine:
            engine.build_index()
            result = engine.query(query, time_limit=30.0)
            assert result.failure is None
            assert result.answers == expected_answers(query, small_db)


class TestHardTimeout:
    def test_busy_loop_is_killed_within_twice_the_limit(self, engine):
        """The acceptance bound: a query that never polls its Deadline is
        SIGKILLed within ~2x its time limit and recorded as OOT."""
        import time

        faults.inject("query:start", "spin", arg=30.0)
        started = time.perf_counter()
        result = engine.query(named_square("q0"), time_limit=1.0)
        elapsed = time.perf_counter() - started
        assert result.failure is not None and result.failure.kind == "oot"
        assert result.timed_out
        assert result.query_time == 1.0  # the paper records the limit
        assert elapsed < 2.0

    def test_next_query_succeeds_after_a_kill(self, small_db, engine):
        faults.inject("query:start", "spin", arg=30.0, times=1)
        killed = engine.query(named_square("q0"), time_limit=0.5)
        assert killed.failure is not None and killed.failure.kind == "oot"
        faults.clear()
        engine.executor.invalidate()  # drop the worker armed with the fault
        query = named_square("q1")
        result = engine.query(query, time_limit=30.0)
        assert result.failure is None
        assert result.answers == expected_answers(query, small_db)


class TestCrashContainment:
    def test_middle_query_crash_leaves_others_intact(self, small_db, engine):
        """An injected hard crash (os._exit) in one query must not disturb
        the results of the queries around it."""
        queries = [named_square(f"q{i}") for i in range(3)]
        faults.inject("query:start", "crash", match="q1")
        results = engine.query_many(queries, time_limit=30.0)
        assert results[1].failure is not None
        assert results[1].failure.kind == "crash"
        assert "exit code" in results[1].failure.message
        expected = expected_answers(queries[0], small_db)
        assert results[0].failure is None and results[0].answers == expected
        assert results[2].failure is None and results[2].answers == expected

    def test_crash_before_ack_is_retried_and_recovers(self, small_db, tmp_path):
        """A worker that dies before starting any query is transient: the
        latch makes the fault one-shot, so the respawned worker succeeds."""
        faults.inject(
            "worker:start", "crash", latch=str(tmp_path / "latch")
        )
        query = named_square("q0")
        with create_engine(
            small_db, "CFQL",
            executor=ParallelExecutor(jobs=1, health=Health(base=0.01)),
        ) as engine:
            engine.build_index()
            result = engine.query(query, time_limit=30.0)
            assert result.failure is None
            assert result.answers == expected_answers(query, small_db)

    def test_persistent_startup_crash_exhausts_retries(self, small_db):
        faults.inject("worker:start", "crash")
        with create_engine(
            small_db, "CFQL",
            executor=ParallelExecutor(
                jobs=1, max_retries=2, health=Health(base=0.01)
            ),
        ) as engine:
            engine.build_index()
            result = engine.query(named_square("q0"), time_limit=30.0)
            assert result.failure is not None
            assert result.failure.kind == "crash"
            assert result.failure.retries == 2
            assert "before starting" in result.failure.message


class TestMemoryCap:
    def test_allocation_spike_is_recorded_oom(self, small_db):
        """Under a worker RLIMIT_AS cap a runaway allocation raises
        MemoryError inside the worker and comes back as an OOM failure."""
        faults.inject("query:start", "alloc", arg=8192.0)  # 8 GiB
        with create_engine(
            small_db, "CFQL",
            executor=ParallelExecutor(jobs=1, memory_limit_mb=2048),
        ) as engine:
            engine.build_index()
            result = engine.query(named_square("q0"), time_limit=30.0)
            assert result.failure is not None
            assert result.failure.kind == "oom"
            assert not result.timed_out

    def test_query_set_survives_one_oom(self, small_db):
        faults.inject("query:start", "alloc", arg=8192.0, match="q1")
        with create_engine(
            small_db, "CFQL",
            executor=ParallelExecutor(jobs=1, memory_limit_mb=2048),
        ) as engine:
            engine.build_index()
            results = engine.query_many(
                [named_square(f"q{i}") for i in range(3)], time_limit=30.0
            )
            kinds = [r.failure.kind if r.failure else None for r in results]
            assert kinds == [None, "oom", None]
