"""The parallel executor: serial-identical results, containment, resume.

The contract under test is the tentpole's: a ``jobs``-wide pool returns
the exact per-query outcome sequence a pool of one worker returns —
including injected OOT/crash faults — while one pathological query never
stalls the rest of the batch, and journaled benchmark runs resume across
serial/parallel boundaries.

Faults here are ``match``-based (never ``times``-based): ``times``
counters are per process, so a pool of N workers would fire such a fault
N times and diverge from the serial run by construction.
"""

from __future__ import annotations

import time

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


def signature(result):
    """The deterministic part of a QueryResult (timings excluded)."""
    return (
        result.algorithm,
        result.query_name,
        tuple(sorted(result.answers)),
        tuple(sorted(result.candidates)),
        result.index_candidates,
        result.timed_out,
        result.failure.kind if result.failure is not None else None,
    )


def run_serial(small_db, queries, time_limit=30.0):
    executor = ParallelExecutor(jobs=1)
    with create_engine(small_db, "CFQL", executor=executor) as eng:
        eng.build_index()
        return eng.query_many(queries, time_limit=time_limit)


def run_inprocess(small_db, queries, time_limit=30.0):
    """The reference no worker process touches: same engine, no pool."""
    with create_engine(small_db, "CFQL") as eng:
        eng.build_index()
        return eng.query_many(queries, time_limit=time_limit)


def run_parallel(small_db, queries, time_limit=30.0, jobs=3, **kwargs):
    executor = ParallelExecutor(jobs=jobs, **kwargs)
    with create_engine(small_db, "CFQL", executor=executor) as eng:
        eng.build_index()
        return eng.query_many(queries, time_limit=time_limit)


class TestSerialParity:
    def test_clean_batch_is_identical_to_serial(self, small_db):
        queries = [named_square(f"q{i}") for i in range(6)]
        serial = run_serial(small_db, queries)
        parallel = run_parallel(small_db, queries)
        assert [signature(r) for r in parallel] == [signature(r) for r in serial]
        assert all(r.failure is None for r in parallel)
        # The serial arm is the same pool with one worker, so pin both to
        # a reference that shares none of its code.
        reference = run_inprocess(small_db, queries)
        assert [signature(r) for r in parallel] == [signature(r) for r in reference]

    def test_results_keep_input_order(self, small_db):
        queries = [named_square(f"q{i}") for i in range(8)]
        results = run_parallel(small_db, queries, jobs=4)
        assert [r.query_name for r in results] == [q.name for q in queries]

    def test_faulted_batch_is_identical_to_serial(self, small_db):
        """Injected OOT (busy spin) and crash on specific queries must be
        classified exactly as the serial executor classifies them."""
        queries = [named_square(f"q{i}") for i in range(5)]
        faults.inject("query:start", "spin", arg=30.0, match="q1")
        faults.inject("query:start", "crash", match="q3")
        serial = run_serial(small_db, queries, time_limit=0.5)
        parallel = run_parallel(small_db, queries, time_limit=0.5)
        kinds = [r.failure.kind if r.failure else None for r in parallel]
        assert kinds == [None, "oot", None, "crash", None]
        assert [signature(r) for r in parallel] == [signature(r) for r in serial]

    def test_single_query_run_delegates(self, small_db):
        executor = ParallelExecutor(jobs=2)
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            query = named_square("q0")
            result = eng.query(query, time_limit=30.0)
            assert result.failure is None
            assert result.answers == expected_answers(query, small_db)


class TestStream:
    """The submit/collect stream ``run_many`` is built on."""

    @pytest.mark.parametrize("jobs", [1, 2, 3, 5])
    def test_run_many_keeps_input_order_through_a_mid_batch_crash(
        self, small_db, jobs
    ):
        """Whatever order the workers finish in — and a worker dying under
        one query reshuffles it — every result lands at its input position,
        for any pool width."""
        queries = [named_square(f"q{i}") for i in range(7)]
        faults.inject("worker.query", "crash", match="q3")
        results = run_parallel(small_db, queries, jobs=jobs)
        assert [r.query_name for r in results] == [q.name for q in queries]
        kinds = [r.failure.kind if r.failure else None for r in results]
        assert kinds == [None, None, None, "crash", None, None, None]
        reference = run_inprocess(small_db, queries)
        for i in (0, 1, 2, 4, 5, 6):
            assert signature(results[i]) == signature(reference[i])

    def test_collect_reports_in_completion_order(self, small_db):
        """Three fast queries submitted after a slow one come back first."""
        faults.inject("worker.query", "delay", arg=1.0, match="slow")
        executor = ParallelExecutor(jobs=2)
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            slow = eng.submit(named_square("slow"), time_limit=30.0)
            fast = [eng.submit(named_square(f"fast{i}"), time_limit=30.0)
                    for i in range(3)]
            order = []
            while len(order) < 4:
                order += [ticket for ticket, _ in eng.collect()]
            assert order[-1] == slow and sorted(order[:3]) == fast
            assert eng.collect() == []  # nothing in flight: no blocking

    def test_collect_wakes_on_an_extra_waitable(self, small_db):
        """``also`` turns the one wait into "a result or a new request"."""
        import socket

        faults.inject("worker.query", "delay", arg=1.0, match="slow")
        executor = ParallelExecutor(jobs=1)
        ours, theirs = socket.socketpair()
        with ours, theirs, create_engine(
            small_db, "CFQL", executor=executor
        ) as eng:
            eng.build_index()
            ticket = eng.submit(named_square("slow"), time_limit=30.0)
            theirs.send(b"x")
            assert eng.collect(also=(ours,)) == []  # woken, nothing done yet
            ours.recv(1)
            (done,) = eng.collect(also=(ours,))
            assert done[0] == ticket and done[1].failure is None

    def test_hard_deadline_is_per_job(self, small_db):
        """Two jobs in flight together, each killed (or not) on its own
        time limit: the short-limit hang dies as OOT while its
        long-limit neighbour, slower than that kill, completes."""
        faults.inject("worker.query", "spin", arg=30.0, match="hang")
        faults.inject("worker.query", "delay", arg=1.2, match="steady")
        executor = ParallelExecutor(jobs=2)
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            steady = eng.submit(named_square("steady"), time_limit=30.0)
            hang = eng.submit(named_square("hang"), time_limit=0.2)
            results = {}
            while len(results) < 2:
                results.update(eng.collect())
        assert results[hang].failure.kind == "oot"
        assert results[steady].failure is None
        assert results[steady].answers == expected_answers(
            named_square("steady"), small_db
        )

    def test_rebinding_with_jobs_in_flight_is_an_error(self, small_db):
        faults.inject("worker.query", "delay", arg=0.5, match="slow")
        executor = ParallelExecutor(jobs=1)
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            ticket = eng.submit(named_square("slow"), time_limit=30.0)
            with pytest.raises(RuntimeError, match="in flight"):
                executor.invalidate()
            graphs = len(eng.db)
            with pytest.raises(RuntimeError, match="not yet collected"):
                eng.add_graph(named_square("new"))
            assert len(eng.db) == graphs  # refused before anything changed
            ((done, result),) = eng.collect()
            assert done == ticket and result.failure is None
            executor.invalidate()  # idle again: allowed


class TestContainment:
    def test_one_oot_query_does_not_stall_the_pool(self, small_db):
        """A sleeping query is hard-killed on its own worker while the
        other workers drain the batch; the batch must finish in roughly
        the hard-kill bound, nowhere near the sleep duration."""
        queries = [named_square(f"q{i}") for i in range(6)]
        faults.inject("query:start", "delay", arg=30.0, match="q2")
        started = time.perf_counter()
        results = run_parallel(small_db, queries, time_limit=1.0, jobs=3)
        elapsed = time.perf_counter() - started
        kinds = [r.failure.kind if r.failure else None for r in results]
        assert kinds == [None, None, "oot", None, None, None]
        assert results[2].timed_out and results[2].query_time == 1.0
        assert elapsed < 10.0  # hard kill at ~1.75s, not the 30s sleep

    def test_mid_batch_crash_leaves_neighbors_intact(self, small_db):
        queries = [named_square(f"q{i}") for i in range(4)]
        faults.inject("query:start", "crash", match="q1")
        results = run_parallel(small_db, queries, jobs=2)
        assert results[1].failure is not None
        assert results[1].failure.kind == "crash"
        assert "exit code" in results[1].failure.message
        expected = expected_answers(queries[0], small_db)
        for i in (0, 2, 3):
            assert results[i].failure is None
            assert results[i].answers == expected

    def test_startup_crash_with_latch_recovers(self, small_db, tmp_path):
        """One worker dies at startup (one-shot via latch); the pool
        re-dispatches its queued query to a respawned worker."""
        faults.inject("worker:start", "crash", latch=str(tmp_path / "latch"))
        queries = [named_square(f"q{i}") for i in range(4)]
        results = run_parallel(
            small_db, queries, jobs=2, health=Health(base=0.01)
        )
        assert all(r.failure is None for r in results)
        expected = expected_answers(queries[0], small_db)
        assert all(r.answers == expected for r in results)

    def test_persistent_startup_crash_fails_batch_bounded(self, small_db):
        """Every spawn dies before ready: the pool-wide fuse must fail the
        batch as crashes instead of respawning forever."""
        faults.inject("worker:start", "crash")
        started = time.perf_counter()
        results = run_parallel(
            small_db,
            [named_square(f"q{i}") for i in range(3)],
            jobs=2,
            max_retries=2,
            health=Health(base=0.01),
        )
        elapsed = time.perf_counter() - started
        assert all(r.failure is not None for r in results)
        assert all(r.failure.kind == "crash" for r in results)
        assert elapsed < 30.0

    def test_persistent_startup_crash_spends_every_retry_budget(self, small_db):
        """The ``jobs=2`` twin of the pool-of-one test in
        ``test_exec_subprocess``: every start-up death that held a query
        costs that query exactly one retry — however the deaths interleave
        across workers, and whether the parent met them as a dead pipe on
        send or as an EOF — so every query of the batch (more queries than
        workers) fails stamped with its full budget."""
        faults.inject("worker:start", "crash")
        executor = ParallelExecutor(
            jobs=2, max_retries=2, health=Health(base=0.01)
        )
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            results = eng.query_many(
                [named_square(f"q{i}") for i in range(3)], time_limit=30.0
            )
            for result in results:
                assert result.failure is not None
                assert result.failure.kind == "crash"
                assert result.failure.retries == executor.max_retries
                assert "before starting" in result.failure.message
            # One spawn per dispatch, none to idle beside a backing-off query.
            assert executor.spawn_total == 3 * (executor.max_retries + 1)
            assert executor._workers == []


class TestWorkerReuse:
    def test_workers_persist_across_batches(self, small_db):
        """A second batch against the same (pipeline, db) must reuse the
        live workers instead of respawning the pool."""
        executor = ParallelExecutor(jobs=2)
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            eng.query_many([named_square(f"q{i}") for i in range(4)],
                           time_limit=30.0)
            first_pids = {w.proc.pid for w in executor._workers}
            assert first_pids
            eng.query_many([named_square(f"r{i}") for i in range(4)],
                           time_limit=30.0)
            second_pids = {w.proc.pid for w in executor._workers}
        assert first_pids & second_pids

    def test_invalidate_drops_the_pool(self, small_db):
        executor = ParallelExecutor(jobs=2)
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            eng.query_many([named_square("q0")], time_limit=30.0)
            executor.invalidate()
            assert executor._workers == []
            result = eng.query(named_square("q1"), time_limit=30.0)
            assert result.failure is None

    def test_new_binding_starts_without_the_last_backoff(self, small_db):
        """A closed pool's backoff belongs to the binding that earned it:
        after an invalidation the next query spawns at once, while an
        open pool stays open."""
        executor = ParallelExecutor(jobs=1, health=Health(base=30.0, cap=30.0))
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            eng.query_many([named_square("q0")], time_limit=30.0)
            executor.invalidate()
            executor.health.failure()  # the old binding lost a worker
            started = time.perf_counter()
            result = eng.query(named_square("q1"), time_limit=30.0)
            assert result.failure is None
            assert time.perf_counter() - started < 10.0
            assert executor.health.failures == 0
        opened = Health(threshold=1, cooldown=60.0)
        opened.failure()
        executor = ParallelExecutor(jobs=1, health=opened)
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            result = eng.query(named_square("q2"), time_limit=30.0)
            assert result.failure.kind == "crash"
            assert opened.state == "open"

    def test_close_is_idempotent(self, small_db):
        executor = ParallelExecutor(jobs=2)
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            eng.query_many([named_square("q0")], time_limit=30.0)
        executor.close()
        executor.close()

    def test_empty_batch(self, small_db):
        executor = ParallelExecutor(jobs=2)
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            assert eng.query_many([], time_limit=30.0) == []

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)


class TestJournalResume:
    """Journal interop between serial and parallel matrix runs."""

    DATASETS = ("AIDS",)
    ALGORITHMS = ("CFQL",)

    def tiny_config(self, journal_path, jobs=1):
        from repro.bench.harness import BenchConfig

        return BenchConfig(
            dataset_scale=0.02,
            queries_per_set=2,
            edge_counts=(4,),
            query_time_limit=2.0,
            index_time_limit=10.0,
            journal=str(journal_path),
            jobs=jobs,
        )

    def run_matrix(self, config):
        from repro.bench.harness import real_world_matrix

        real_world_matrix.cache_clear()
        return real_world_matrix(
            config, datasets=self.DATASETS, algorithms=self.ALGORITHMS
        )

    @staticmethod
    def report_dicts(matrix):
        return {
            key: (None if report is None else report.to_dict())
            for key, report in matrix.reports.items()
        }

    # Fields a recomputed cell reproduces exactly; the timing averages
    # legitimately differ run to run.
    STABLE = (
        "algorithm",
        "num_queries",
        "num_timeouts",
        "filtering_precision",
        "avg_candidates",
        "num_failures",
        "degraded",
    )

    @classmethod
    def stable_reports(cls, matrix):
        return {
            key: (
                None
                if report is None
                else {f: report.to_dict()[f] for f in cls.STABLE}
            )
            for key, report in matrix.reports.items()
        }

    def test_serial_journal_resumes_under_parallel(self, tmp_path):
        """--jobs must not invalidate a journal: parallel and serial runs
        produce identical results, so the fingerprint normalises jobs."""
        import dataclasses

        path = tmp_path / "run.jsonl"
        serial_cfg = self.tiny_config(path, jobs=1)
        first = self.run_matrix(serial_cfg)
        parallel_cfg = dataclasses.replace(serial_cfg, jobs=2)
        resumed = self.run_matrix(parallel_cfg)
        assert self.report_dicts(resumed) == self.report_dicts(first)

    def test_kill_and_resume_mid_parallel_run(self, tmp_path, monkeypatch):
        """Truncating the journal reproduces a parallel run killed
        mid-matrix; the rerun replays journaled cells and recomputes only
        the missing ones — still under the pool executor."""
        from repro.bench import harness

        path = tmp_path / "run.jsonl"
        config = self.tiny_config(path, jobs=2)
        first = self.run_matrix(config)
        lines = path.read_text().splitlines()
        # 1 config stamp + 1 index cell + 2 report cells.
        assert len(lines) == 4
        path.write_text("\n".join(lines[:3]) + "\n")  # drop the last report

        recomputed = []
        original = harness.run_query_set

        def counting(engine, query_set, cfg):
            recomputed.append(query_set.name)
            return original(engine, query_set, cfg)

        monkeypatch.setattr(harness, "run_query_set", counting)
        resumed = self.run_matrix(config)
        assert len(recomputed) == 1  # only the truncated cell re-ran
        # The recomputed cell reproduces everything but wall-clock noise.
        assert self.stable_reports(resumed) == self.stable_reports(first)

    def test_parallel_matrix_matches_serial_matrix(self, tmp_path):
        serial = self.run_matrix(self.tiny_config(tmp_path / "a.jsonl", jobs=1))
        parallel = self.run_matrix(self.tiny_config(tmp_path / "b.jsonl", jobs=2))
        assert self.stable_reports(parallel) == self.stable_reports(serial)


class TestShutdownDrain:
    """Satellite coverage: pool teardown leaves nothing behind.

    Worker pids are captured while the pool is live and checked for
    liveness with ``os.kill(pid, 0)`` after teardown — scrap joins each
    process, so a reaped worker raises ``ProcessLookupError``.
    """

    @staticmethod
    def pid_alive(pid: int) -> bool:
        import os

        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:  # pragma: no cover - exists, other owner
            return True
        return True

    @classmethod
    def assert_all_reaped(cls, pids, timeout: float = 10.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            alive = [pid for pid in pids if cls.pid_alive(pid)]
            if not alive:
                return
            time.sleep(0.05)
        raise AssertionError(f"orphaned worker processes survive: {alive}")

    def test_close_reaps_every_worker_process(self, small_db):
        executor = ParallelExecutor(jobs=3)
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            eng.query_many([named_square(f"q{i}") for i in range(6)],
                           time_limit=30.0)
            workers = list(executor._workers)
            pids = [w.proc.pid for w in workers]
            assert len(pids) == 3
        # create_engine.__exit__ closed the executor.
        assert executor._workers == []
        self.assert_all_reaped(pids)
        # The stop message let every worker exit cleanly, not by kill.
        assert [w.exitcode for w in workers] == [0, 0, 0]

    def test_respawn_fuse_exhaustion_empties_pool_then_recovers(self, small_db):
        """After the fuse blows, the pool must be fully drained (no
        half-spawned workers parked in the list) — and once the fault
        goes away, the same executor must serve the next batch."""
        executor = ParallelExecutor(
            jobs=2, max_retries=1, health=Health(base=0.01)
        )
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            faults.inject("worker:start", "crash")
            results = eng.query_many([named_square(f"q{i}") for i in range(3)],
                                     time_limit=30.0)
            assert all(r.failure is not None and r.failure.kind == "crash"
                       for r in results)
            assert executor._workers == []
            assert executor.health.failures > executor.max_retries

            faults.clear()
            executor.invalidate()  # the fuse resets with the pool
            recovered = eng.query_many([named_square("r0")], time_limit=30.0)
            assert recovered[0].failure is None
            pids = [w.proc.pid for w in executor._workers]
        self.assert_all_reaped(pids)

    def test_no_orphans_after_exception_mid_batch(self, small_db, monkeypatch):
        """An exception escaping run_many while jobs are in flight must
        not leak the pool: close() still stops and reaps every worker."""
        from repro.exec import parallel as parallel_module

        executor = ParallelExecutor(jobs=2)
        engine = create_engine(small_db, "CFQL", executor=executor)
        engine.build_index()
        engine.query_many([named_square("warm")], time_limit=30.0)
        pids = [w.proc.pid for w in executor._workers]
        assert pids

        calls = []
        original_wait = parallel_module._conn_wait

        def exploding_wait(conns, timeout=None):
            calls.append(1)
            if len(calls) > 1:
                raise RuntimeError("synthetic failure mid-batch")
            return original_wait(conns, timeout=timeout)

        monkeypatch.setattr(parallel_module, "_conn_wait", exploding_wait)
        with pytest.raises(RuntimeError, match="synthetic failure"):
            engine.query_many([named_square(f"q{i}") for i in range(4)],
                              time_limit=30.0)
        monkeypatch.setattr(parallel_module, "_conn_wait", original_wait)

        engine.close()
        assert executor._workers == []
        self.assert_all_reaped(pids)

    def test_no_orphans_after_crash_fault_then_close(self, small_db):
        """A worker hard-crashing mid-query is reaped by the batch loop;
        the close afterwards reaps the respawned replacements too."""
        executor = ParallelExecutor(jobs=2)
        all_pids = set()
        with create_engine(small_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            faults.inject("query:start", "crash", match="q1")
            results = eng.query_many([named_square(f"q{i}") for i in range(4)],
                                     time_limit=30.0)
            assert results[1].failure is not None
            all_pids.update(w.proc.pid for w in executor._workers)
        assert all_pids
        self.assert_all_reaped(all_pids)
