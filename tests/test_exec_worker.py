"""The worker-process primitive, tested once for every supervisor.

:class:`WorkerProcess` and :class:`Health` are what the query pool and
the shard process host are both built on, so the rules they share —
drain a result written just before death, tell a silent child from a
dead one, reap without zombies, back off the same way — are pinned here
against real child processes.  The last
tests are structural: they keep the duplication from growing back.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import time
from pathlib import Path

import repro
from repro.exec import faults
from repro.exec.faults import CRASH_EXIT_CODE, FaultSpec
from repro.exec.worker import (
    DEAD,
    TIMEOUT,
    Health,
    WorkerProcess,
    hard_deadline,
    preferred_context,
)


def _answer_then_die(conn) -> None:
    conn.send(("result", 42))
    os._exit(0)


def _silent(conn) -> None:
    time.sleep(60.0)


def _echo(conn) -> None:
    while True:
        msg = conn.recv()
        if msg == "stop":
            break
        conn.send(("echo", msg))


def _crash_fault(conn, specs) -> None:
    faults.clear()
    faults.install(*specs)
    faults.trip("worker:start")
    conn.send(("ready", None))  # unreachable: the fault is os._exit


def spawn(target, *args) -> WorkerProcess:
    return WorkerProcess(preferred_context(), target, args, name="test-worker")


def wait_until_dead(worker: WorkerProcess, timeout: float = 10.0) -> None:
    deadline = time.perf_counter() + timeout
    while worker.alive and time.perf_counter() < deadline:
        time.sleep(0.01)
    assert not worker.alive


def pid_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestRecv:
    def test_result_written_just_before_death_is_drained(self):
        worker = spawn(_answer_then_die)
        try:
            wait_until_dead(worker)
            assert worker.recv(5.0) == ("result", 42)
            assert worker.recv(5.0) is DEAD
        finally:
            worker.scrap(kill=True)

    def test_silent_live_child_is_timeout_not_dead(self):
        worker = spawn(_silent)
        try:
            started = time.perf_counter()
            assert worker.recv(0.2) is TIMEOUT
            assert time.perf_counter() - started < 5.0
            assert worker.alive
        finally:
            worker.scrap(kill=True)

    def test_round_trip_and_send_after_scrap(self):
        worker = spawn(_echo)
        try:
            assert worker.send("hello")
            assert worker.recv(5.0) == ("echo", "hello")
            assert worker.recv(0) is TIMEOUT  # one poll step, nothing queued
        finally:
            worker.scrap(kill=True)
        assert not worker.send("anyone?")


class TestScrap:
    def test_kill_reaps_without_a_zombie_and_is_idempotent(self):
        worker = spawn(_silent)
        pid = worker.pid
        assert isinstance(pid, int) and pid_exists(pid)
        worker.scrap(kill=True)
        assert worker.exitcode == -9
        assert worker.proc is None and worker.conn is None
        assert not worker.alive
        assert not pid_exists(pid)  # joined: not even a zombie is left
        worker.scrap(kill=True)
        worker.scrap()
        assert worker.pid == pid and worker.exitcode == -9

    def test_crash_fault_exit_code_is_reported(self):
        worker = spawn(_crash_fault, [FaultSpec(site="worker:start", kind="crash")])
        pid = worker.pid
        assert worker.recv(10.0) is DEAD
        worker.scrap()
        assert worker.exitcode == CRASH_EXIT_CODE
        assert not pid_exists(pid)

    def test_clean_exit_without_kill(self):
        worker = spawn(_echo)
        assert worker.send("stop")
        worker.scrap()  # kill=False: the child is given time to exit
        assert worker.exitcode == 0


class TestRestartBackoff:
    """The backoff half of :class:`Health`."""

    def test_doubles_then_saturates_at_the_cap(self):
        backoff = Health(base=0.5, cap=6.0)
        assert [backoff.failure() for _ in range(6)] == [
            0.5, 1.0, 2.0, 4.0, 6.0, 6.0
        ]
        assert backoff.failures == 6

    def test_exponent_never_exceeds_six_doublings(self):
        backoff = Health(base=1.0, cap=1e9)
        delays = [backoff.failure() for _ in range(12)]
        assert delays[:7] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        assert set(delays[7:]) == {64.0}

    def test_failure_holds_ready_back_and_success_resets(self):
        backoff = Health(base=30.0, cap=60.0)
        assert backoff.ready()
        backoff.failure()
        backoff.failure()
        assert not backoff.ready()
        assert backoff.backoff_until > time.monotonic()
        backoff.success()
        assert backoff.ready()
        assert backoff.failures == 0 and backoff.backoff_until == 0.0
        assert backoff.failure() == 30.0  # back to the first step

    def test_short_delay_elapses(self):
        backoff = Health(base=0.01, cap=0.01)
        backoff.failure()
        time.sleep(0.05)
        assert backoff.ready()


def test_health_counts_every_concurrent_failure():
    """A shard's Health is fed by its fan-out thread and by mutations on
    the scheduler thread while ``stats`` reads it: no update may be lost,
    and the breaker opens exactly once."""
    health = Health(threshold=100, base=0.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(
                target=lambda: [health.failure() for _ in range(2000)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert health.failures == 8 * 2000
    assert health.transitions == {"closed->open": 1}


def test_hard_deadline_rule():
    assert hard_deadline(None) is None
    assert hard_deadline(1.0) == 1.75
    assert hard_deadline(0.2, factor=2.0, grace=0.5) == 0.9


def test_only_the_primitive_creates_pipes_and_processes():
    """Every supervisor spawns through ``WorkerProcess``: a second
    ``ctx.Pipe(...)`` / ``ctx.Process(...)`` call anywhere in ``src/repro``
    is a second copy of the spawn/recv/scrap machinery waiting to drift."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("Pipe", "Process")
            ):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders and all(
        where.startswith("exec/worker.py:") for where in offenders
    ), offenders


def test_one_dispatch_loop():
    """``run_many`` is "submit all, collect all", written once over the
    stream in ``exec/base.py`` — no executor grows its own batch loop back
    — and the service feeds that stream request by request: a
    ``query_many`` call in ``service/server.py`` would be the batch
    barrier again."""
    root = Path(repro.__file__).parent
    definitions = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions += [
            str(path.relative_to(root))
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "run_many"
        ]
    assert definitions == ["exec/base.py"], definitions
    server = ast.parse((root / "service" / "server.py").read_text())
    barrier_calls = [
        node.lineno
        for node in ast.walk(server)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "query_many"
    ]
    assert not barrier_calls, barrier_calls


def test_one_pool_class():
    """``subprocess`` and ``supervised`` are names for the one pool, not
    subclasses of it, and the reap rule — which losses are failures — is
    written once, where both reap paths (the pool and the shard process
    host) call it."""
    root = Path(repro.__file__).parent
    subclasses, reap_rules, reap_calls = [], [], set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reap"
            ):
                reap_calls.add(str(path.relative_to(root)))
            if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", getattr(base, "attr", None))
                == "ParallelExecutor"
                for base in node.bases
            ):
                subclasses.append(f"{path.relative_to(root)}:{node.name}")
            if isinstance(node, ast.FunctionDef) and node.name == "reap":
                reap_rules.append(str(path.relative_to(root)))
    assert not subclasses, subclasses
    assert reap_rules == ["exec/worker.py"], reap_rules
    assert reap_calls == {"exec/parallel.py", "shard/host.py"}, reap_calls
