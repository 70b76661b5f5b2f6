"""Resilience layer tests: breaker, deadlines, dedup, client retries.

Unit tests drive the pure state machines (the breaker half of
:class:`Health`, :class:`MutationDedup`) and the service's
submit/scheduler path directly;
the client-retry tests script a fake NDJSON server on a real socket so
transport failures and retryable rejections are produced on demand.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core import create_engine
from repro.exec import Health, ParallelExecutor, create_executor, faults
from repro.graph import Graph, generate_database
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    wait_for_service,
)
from repro.service.protocol import decode_line, encode_message, graph_to_wire
from repro.service.resilience import MutationDedup
from repro.service.server import QueryService, ServiceConfig
from repro.workloads.querysets import generate_query_set


def named_square(name: str) -> Graph:
    return Graph.from_edge_list(
        [0, 1, 0, 1], [(0, 1), (1, 2), (2, 3), (3, 0)], name=name
    )


@pytest.fixture()
def service_db():
    return generate_database(
        num_graphs=20, num_vertices=12, avg_degree=2.8, num_labels=4, seed=42,
        name="small",
    )


@pytest.fixture()
def engine(service_db):
    with create_engine(service_db, "CFQL") as eng:
        eng.build_index()
        yield eng


class Responses:
    def __init__(self) -> None:
        self.items: list[dict] = []
        self._lock = threading.Lock()

    def __call__(self, payload: dict) -> None:
        with self._lock:
            self.items.append(payload)

    def by_id(self, request_id) -> dict:
        matches = [r for r in self.items if r.get("id") == request_id]
        assert len(matches) == 1, f"expected one response for {request_id}"
        return matches[0]


def query_message(request_id, graph, **extra) -> dict:
    return {"id": request_id, "op": "query", "graph": graph_to_wire(graph),
            **extra}


def drain(service: QueryService) -> None:
    service.request_shutdown()
    service.run_scheduler()


def pump(service: QueryService) -> None:
    """Answer everything currently queued by running turns of the real
    scheduler loop until it reports idle, without putting the service
    into its terminal drain."""
    while service._turn(0.0):
        pass


class TestCircuitBreaker:
    """The breaker half of :class:`Health`."""

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = Health(threshold=3, cooldown=60.0)
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert 0.0 < breaker.retry_after() <= 60.0

    def test_success_resets_the_consecutive_count(self):
        breaker = Health(threshold=2, cooldown=60.0)
        breaker.failure()
        breaker.success()
        breaker.failure()
        assert breaker.state == "closed"

    def test_half_open_admits_one_probe_then_closes_on_success(self):
        breaker = Health(threshold=1, cooldown=0.05)
        breaker.failure()
        assert breaker.state == "open"
        time.sleep(0.06)
        assert breaker.allow()  # the probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # only one probe at a time
        breaker.success()
        assert breaker.state == "closed"
        assert breaker.allow()
        assert breaker.transitions == {
            "closed->open": 1, "open->half_open": 1, "half_open->closed": 1,
        }

    def test_failed_probe_reopens(self):
        breaker = Health(threshold=1, cooldown=0.05)
        breaker.failure()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.failure()
        assert breaker.state == "open"
        assert breaker.transitions["half_open->open"] == 1

    def test_zero_threshold_disables(self):
        breaker = Health(threshold=0)
        for _ in range(100):
            breaker.failure()
        assert breaker.allow() and breaker.state == "closed"
        assert breaker.snapshot()["enabled"] is False

    def test_validation(self):
        with pytest.raises(ValueError):
            Health(threshold=-1)
        with pytest.raises(ValueError):
            Health(cooldown=0.0)


class TestMutationDedup:
    def test_lookup_miss_then_replay(self):
        dedup = MutationDedup(capacity=4)
        assert dedup.lookup("k1") is None
        dedup.store("k1", {"ok": True, "result": {"gid": 7}})
        assert dedup.lookup("k1") == {"ok": True, "result": {"gid": 7}}
        assert dedup.hits == 1

    def test_replay_is_a_copy(self):
        dedup = MutationDedup(capacity=4)
        dedup.store("k1", {"ok": True, "result": {"gid": 7}})
        first = dedup.lookup("k1")
        first["id"] = 99
        assert "id" not in dedup.lookup("k1")

    def test_lru_eviction(self):
        dedup = MutationDedup(capacity=2)
        dedup.store("a", {"ok": True})
        dedup.store("b", {"ok": True})
        dedup.store("c", {"ok": True})
        assert dedup.lookup("a") is None
        assert dedup.lookup("b") is not None

    def test_zero_capacity_disables(self):
        dedup = MutationDedup(capacity=0)
        dedup.store("a", {"ok": True})
        assert dedup.lookup("a") is None and len(dedup) == 0


class TestDeadlines:
    def test_expired_in_queue_is_shed_as_structured_oot(self, engine):
        service = QueryService(engine, ServiceConfig())
        responses = Responses()
        service.submit(
            query_message(1, named_square("a"), deadline_ms=1), responses
        )
        time.sleep(0.02)  # the deadline passes while "queued"
        pump(service)
        result = responses.by_id(1)["result"]
        assert result["timed_out"] is True
        assert result["failure"]["kind"] == "oot"
        assert "never executed" in result["failure"]["message"]
        assert result["metadata"]["shed"] == "deadline"
        assert result["cache"] == "shed"
        assert service._counters["shed_deadline"] == 1

    def test_generous_deadline_executes_normally(self, engine):
        service = QueryService(engine, ServiceConfig())
        responses = Responses()
        service.submit(
            query_message(1, named_square("a"), deadline_ms=60_000), responses
        )
        pump(service)
        result = responses.by_id(1)["result"]
        assert result["failure"] is None
        assert result["timed_out"] is False

    def test_deadline_clips_the_kernel_budget(self, engine, monkeypatch):
        captured = {}
        original = engine.submit

        def spy(query, time_limit=None):
            captured["time_limit"] = time_limit
            return original(query, time_limit)

        monkeypatch.setattr(engine, "submit", spy)
        service = QueryService(engine, ServiceConfig(default_time_limit=600.0))
        responses = Responses()
        service.submit(
            query_message(1, named_square("a"), deadline_ms=5_000,
                          no_cache=True),
            responses,
        )
        pump(service)
        assert captured["time_limit"] <= 5.0

    def test_deadline_clips_only_its_own_request(self, engine, monkeypatch):
        """A deadline'd query must not drag its neighbours' budget down:
        every job carries its own limit, so the three share one flight
        and only the middle one is clipped."""
        limits = []
        original = engine.submit

        def spy(query, time_limit=None):
            limits.append(time_limit)
            return original(query, time_limit)

        monkeypatch.setattr(engine, "submit", spy)
        service = QueryService(engine, ServiceConfig(cache_capacity=0))
        responses = Responses()
        service.submit(query_message(1, named_square("a")), responses)
        service.submit(
            query_message(2, named_square("b"), deadline_ms=60_000), responses
        )
        service.submit(query_message(3, named_square("c")), responses)
        pump(service)
        assert limits[0] == limits[2] == 600.0
        assert limits[1] <= 60.0
        assert all(responses.by_id(i)["ok"] for i in (1, 2, 3))
        assert {responses.by_id(i)["result"]["metrics"]["batch_size"]
                for i in (1, 2, 3)} == {3}

    def test_invalid_deadline_is_bad_request(self, engine):
        service = QueryService(engine, ServiceConfig())
        responses = Responses()
        service.submit(
            query_message(1, named_square("a"), deadline_ms=-5), responses
        )
        assert responses.by_id(1)["error"]["code"] == "bad_request"


@pytest.fixture()
def supervised_service(service_db):
    """Builds services over supervised pools (each armed with the given
    Health), and closes their engines afterwards."""
    engines = []

    def make(health=None, executor="supervised", **config):
        engine = create_engine(
            service_db, "CFQL",
            executor=create_executor(executor, jobs=1, health=health),
        )
        engines.append(engine)
        engine.build_index()
        return QueryService(engine, ServiceConfig(**config))

    yield make
    for engine in engines:
        engine.close()


class TestBreakerIntegration:
    def make_crashing_service(self, supervised_service, threshold=2,
                              cooldown=0.1):
        """A supervised pool whose every dispatch crashes its worker:
        each death is a failure of the pool's Health, the state the
        service's ``degraded`` mode reads."""
        faults.inject("worker.query", "crash")
        return supervised_service(
            Health(threshold, cooldown, base=0.01), cache_capacity=0,
        )

    def test_consecutive_crashes_open_and_reject_degraded(
        self, supervised_service
    ):
        service = self.make_crashing_service(supervised_service)
        responses = Responses()
        for i in range(1, 4):
            service.submit(query_message(i, named_square(f"q{i}")), responses)
            pump(service)
        # First two crashes answered structurally; the third rejected fast.
        assert responses.by_id(1)["result"]["failure"]["kind"] == "crash"
        assert responses.by_id(2)["result"]["failure"]["kind"] == "crash"
        error = responses.by_id(3)["error"]
        assert error["code"] == "degraded"
        assert error["retry_after_s"] >= 0.0
        assert service.health.state == "open"
        assert service._counters["rejected_degraded"] == 1
        assert service._counters["worker_crashes"] == 2

    def test_half_open_probe_recovers_the_service(self, supervised_service):
        service = self.make_crashing_service(supervised_service)
        responses = Responses()
        for i in range(1, 3):
            service.submit(query_message(i, named_square(f"q{i}")), responses)
            pump(service)
        assert service.health.state == "open"
        # The fault clears: respawned workers run clean; wait the cooldown.
        faults.clear()
        time.sleep(0.12)
        service.submit(query_message(10, named_square("probe")), responses)
        pump(service)
        assert responses.by_id(10)["result"]["failure"] is None
        assert service.health.state == "closed"
        transitions = service.health.transitions
        assert transitions["closed->open"] == 1
        assert transitions["open->half_open"] == 1
        assert transitions["half_open->closed"] == 1

    def test_half_open_admits_only_the_probe(self, supervised_service):
        """After the cooldown the first miss is the probe; the misses that
        arrive while it runs are rejected ``degraded`` (retryable), not
        failed with it as a terminal ``crash``."""
        service = self.make_crashing_service(supervised_service)
        responses = Responses()
        for i in range(1, 3):
            service.submit(query_message(i, named_square(f"q{i}")), responses)
            pump(service)
        assert service.health.state == "open"
        time.sleep(0.12)
        for i in range(10, 13):
            service.submit(query_message(i, named_square(f"p{i}")), responses)
        pump(service)
        assert responses.by_id(10)["result"]["failure"]["kind"] == "crash"
        for i in (11, 12):
            error = responses.by_id(i)["error"]
            assert error["code"] == "degraded"
            assert 0.05 < error["retry_after_s"] <= 0.1
        assert service.health.state == "open"
        assert service.health.transitions["half_open->open"] == 1

    def test_hard_deadline_kills_do_not_open_the_pool(
        self, supervised_service
    ):
        """A query killed at its hard deadline ran on a healthy worker: a
        plain pool armed as ``serve`` arms it keeps answering ``oot``."""
        faults.inject("worker.query", "spin", arg=30.0)
        service = supervised_service(
            Health(threshold=2, cooldown=60.0), executor="parallel",
            cache_capacity=0,
        )
        responses = Responses()
        for i in range(1, 5):
            service.submit(
                query_message(i, named_square(f"q{i}"), time_limit=0.05),
                responses,
            )
            pump(service)
        for i in range(1, 5):
            assert responses.by_id(i)["result"]["failure"]["kind"] == "oot"
        assert service.engine.executor.worker_kills == 4
        assert service.health.state == "closed"
        assert service.health.failures == 0

    def test_open_breaker_still_answers_from_cache(self, supervised_service):
        """Degraded mode serves what it can: a cached answer beats a
        rejection."""
        service = supervised_service(Health(threshold=1, cooldown=60.0))
        responses = Responses()
        service.submit(query_message(1, named_square("a")), responses)
        pump(service)
        assert responses.by_id(1)["ok"]
        # Force the breaker open, then repeat the cached query.
        service.health.failure()
        assert service.health.state == "open"
        service.submit(query_message(2, named_square("a")), responses)
        pump(service)
        assert responses.by_id(2)["result"]["cache"] == "hit"
        # An uncached query is rejected.
        service.submit(query_message(3, named_square("a"), no_cache=True),
                       responses)
        pump(service)
        assert responses.by_id(3)["error"]["code"] == "degraded"

    def test_service_and_pool_report_one_state(self, supervised_service):
        """A crash storm through the service on a default supervised pool:
        ``stats.breaker`` and ``stats.workers`` describe one state, so a
        storm trip is exactly the breaker opening."""
        faults.inject("worker.query", "crash")
        service = supervised_service(cache_capacity=0)
        responses = Responses()
        for i in range(1, 8):
            service.submit(query_message(i, named_square(f"q{i}")), responses)
            pump(service)
        stats = service.stats()
        breaker, workers = stats["breaker"], stats["workers"]
        assert breaker["state"] == "open"
        assert breaker["consecutive_failures"] == workers["consecutive_failures"]
        assert breaker["transitions"]["closed->open"] == workers["storm_trips"]
        assert responses.by_id(7)["error"]["code"] == "degraded"


class TestChaosUnderLoad:
    def test_crash_storm_gets_every_request_a_terminal_answer(
        self, service_db, tmp_path
    ):
        """Two clients load a served 2-worker pool whose workers crash on
        every 6th query: each request gets exactly one terminal response
        (an answer, a ``crash`` failure, or ``degraded``), the crashes are
        seen and the workers restarted, and the service still drains."""
        queries = list(generate_query_set(service_db, 4, False, size=6, seed=5))
        address = f"unix:{tmp_path / 'serve.sock'}"
        outcomes: list[list[str]] = [[], []]
        errors: list[BaseException] = []

        def load(index: int) -> None:
            try:
                with ServiceClient(address) as client:
                    for r in range(15):
                        query = queries[(index * 3 + r) % len(queries)]
                        try:
                            result = client.query(query, time_limit=10.0)
                        except ServiceError as exc:
                            outcomes[index].append(exc.code)
                            continue
                        failure = result["failure"]
                        outcomes[index].append(
                            "answer" if failure is None else failure["kind"]
                        )
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

        with create_engine(
            service_db, "CFQL",
            executor=ParallelExecutor(jobs=2, health=Health(5, 0.25)),
        ) as engine:
            engine.build_index()
            service = QueryService(engine, ServiceConfig(cache_capacity=0))
            exit_code = []
            server = threading.Thread(
                target=lambda: exit_code.append(service.serve(address)),
                daemon=True,
            )
            server.start()
            try:
                wait_for_service(address)
                faults.inject("worker.query", "crash", every=6)
                clients = [
                    threading.Thread(target=load, args=(i,), daemon=True)
                    for i in range(2)
                ]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=20.0)
                with ServiceClient(address) as client:
                    restarts = client.stats()["workers"]["restarts"]
                    client.shutdown()
            finally:
                service.request_shutdown()
                server.join(timeout=10.0)
        assert not errors, errors
        sent = outcomes[0] + outcomes[1]
        assert len(sent) == 30
        assert set(sent) <= {"answer", "crash", "degraded"}, sent
        assert "crash" in sent
        assert restarts >= 1
        assert exit_code == [0]


class TestMutationDedupIntegration:
    def test_retried_mutation_applies_once(self, engine):
        service = QueryService(engine, ServiceConfig())
        responses = Responses()
        graphs_before = len(engine.db)
        wire = graph_to_wire(named_square("new"))
        for request_id in (1, 2):
            service.submit(
                {"id": request_id, "op": "add_graph", "graph": wire,
                 "request_key": "retry-abc"},
                responses,
            )
        pump(service)
        first = responses.by_id(1)["result"]
        second = responses.by_id(2)["result"]
        assert len(engine.db) == graphs_before + 1
        assert second["gid"] == first["gid"]
        assert second["deduplicated"] is True
        assert "deduplicated" not in first
        assert service._counters["dedup_hits"] == 1

    def test_failed_mutation_is_not_deduplicated(self, engine):
        service = QueryService(engine, ServiceConfig())
        responses = Responses()
        for request_id in (1, 2):
            service.submit(
                {"id": request_id, "op": "remove_graph", "gid": 99_999,
                 "request_key": "retry-def"},
                responses,
            )
        pump(service)
        # Both attempts really ran (and really failed): a failed mutation
        # changed nothing, so the retry must be allowed through.
        assert responses.by_id(1)["error"]["code"] == "not_found"
        assert responses.by_id(2)["error"]["code"] == "not_found"

    def test_bad_request_key_type_rejected(self, engine):
        service = QueryService(engine, ServiceConfig())
        responses = Responses()
        service.submit(
            {"id": 1, "op": "remove_graph", "gid": 0, "request_key": 5},
            responses,
        )
        assert responses.by_id(1)["error"]["code"] == "bad_request"


class ScriptedServer:
    """A fake NDJSON service: each accepted connection runs one behaviour
    from the script, in order."""

    def __init__(self, behaviours) -> None:
        self.behaviours = list(behaviours)
        self.requests: list[dict] = []
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.address = "127.0.0.1:%d" % self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        for behaviour in self.behaviours:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            try:
                behaviour(self, conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)

    # Behaviours ---------------------------------------------------------

    @staticmethod
    def drop_after_read(server, conn) -> None:
        with conn.makefile("rb") as rfile:
            line = rfile.readline()
            if line:
                server.requests.append(decode_line(line.strip()))
        # Close without answering: the client sees a dead transport.

    @staticmethod
    def answer_all(server, conn) -> None:
        with conn.makefile("rb") as rfile:
            while True:
                line = rfile.readline()
                if not line:
                    return
                message = decode_line(line.strip())
                server.requests.append(message)
                conn.sendall(encode_message(
                    {"id": message["id"], "ok": True, "result": {"echo": True}}
                ))

    @staticmethod
    def degraded_then_answer(server, conn) -> None:
        with conn.makefile("rb") as rfile:
            for n in range(100):
                line = rfile.readline()
                if not line:
                    return
                message = decode_line(line.strip())
                server.requests.append(message)
                if n == 0:
                    conn.sendall(encode_message({
                        "id": message["id"], "ok": False,
                        "error": {"code": "degraded", "message": "open",
                                  "retry_after_s": 0.01},
                    }))
                else:
                    conn.sendall(encode_message({
                        "id": message["id"], "ok": True,
                        "result": {"echo": True},
                    }))


class TestClientRetries:
    def test_transport_loss_raises_service_unavailable_without_retries(self):
        server = ScriptedServer([ScriptedServer.drop_after_read])
        try:
            with ServiceClient(server.address, timeout=5.0) as client:
                with pytest.raises(ServiceUnavailable) as excinfo:
                    client.ping()
                assert excinfo.value.code == "unavailable"
                assert isinstance(excinfo.value, ServiceError)
        finally:
            server.close()

    def test_connect_failure_raises_service_unavailable(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nobody listens here now
        with pytest.raises(ServiceUnavailable):
            ServiceClient(f"127.0.0.1:{port}", timeout=0.5)

    def test_retry_reconnects_after_transport_loss(self):
        server = ScriptedServer([
            ScriptedServer.drop_after_read, ScriptedServer.answer_all,
        ])
        try:
            with ServiceClient(server.address, timeout=5.0, retries=2,
                               retry_backoff=0.01) as client:
                assert client.ping() == {"echo": True}
            assert len(server.requests) == 2  # the drop, then the retry
        finally:
            server.close()

    def test_retry_honours_degraded_retry_after(self):
        server = ScriptedServer([ScriptedServer.degraded_then_answer])
        try:
            with ServiceClient(server.address, timeout=5.0, retries=2,
                               retry_backoff=0.01) as client:
                assert client.ping() == {"echo": True}
        finally:
            server.close()

    def test_non_retryable_errors_fail_fast(self):
        def bad_request(server, conn):
            with conn.makefile("rb") as rfile:
                line = rfile.readline()
                message = decode_line(line.strip())
                server.requests.append(message)
                conn.sendall(encode_message({
                    "id": message["id"], "ok": False,
                    "error": {"code": "bad_request", "message": "nope"},
                }))

        server = ScriptedServer([bad_request])
        try:
            with ServiceClient(server.address, timeout=5.0, retries=3,
                               retry_backoff=0.01) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.ping()
                assert excinfo.value.code == "bad_request"
            assert len(server.requests) == 1  # never retried
        finally:
            server.close()

    def test_mutation_retries_carry_one_request_key(self):
        server = ScriptedServer([
            ScriptedServer.drop_after_read, ScriptedServer.answer_all,
        ])
        try:
            with ServiceClient(server.address, timeout=5.0, retries=2,
                               retry_backoff=0.01) as client:
                # answer_all echoes {"echo": True}; add_graph only needs
                # a 'gid' key to index, so answer via a custom behaviour
                # is overkill — tolerate the KeyError-free .get path by
                # calling _call directly.
                client._call({
                    "op": "add_graph",
                    "graph": graph_to_wire(named_square("g")),
                    "request_key": "fixed-key",
                })
            keys = [m.get("request_key") for m in server.requests]
            assert len(keys) == 2 and len(set(keys)) == 1
        finally:
            server.close()

    def test_not_found_removal_is_terminal(self):
        """``not_found`` is a structured, terminal rejection: retrying a
        removal of a gid the database does not hold can only fail the
        same way, so the client must send the request exactly once even
        when generous retries are configured."""
        def not_found(server, conn):
            with conn.makefile("rb") as rfile:
                message = decode_line(rfile.readline().strip())
                server.requests.append(message)
                conn.sendall(encode_message({
                    "id": message["id"], "ok": False,
                    "error": {"code": "not_found",
                              "message": "no graph with id 424242"},
                }))

        server = ScriptedServer([not_found])
        try:
            with ServiceClient(server.address, timeout=5.0, retries=5,
                               retry_backoff=0.01) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.remove_graph(424242)
                assert excinfo.value.code == "not_found"
            assert len(server.requests) == 1  # never retried
            assert server.requests[0]["op"] == "remove_graph"
        finally:
            server.close()

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient("unix:/nonexistent.sock", retries=-1)


class TestStatsSurface:
    def test_oldest_wait_reflects_the_queue_head(self, engine):
        service = QueryService(engine, ServiceConfig())
        responses = Responses()
        service.submit(query_message(1, named_square("a")), responses)
        time.sleep(0.03)
        stats = service.stats()
        assert stats["queue"]["depth"] == 1
        assert stats["queue"]["oldest_wait_s"] >= 0.03
        assert stats["breaker"]["state"] == "closed"
        assert stats["dedup"]["capacity"] == 512
        pump(service)
        assert service.stats()["queue"]["oldest_wait_s"] is None
