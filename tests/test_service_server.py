"""Tests for repro.service.server (admission, batching, cache, drain).

Two layers, mirroring the server's own split between mechanism and
transport: the unit tests drive :meth:`QueryService.submit` /
:meth:`run_scheduler` directly with plain callables (no sockets, fully
deterministic), and the end-to-end tests run :meth:`serve` on a real
Unix socket through the blocking client — including the in-flight-drain
and signal-exit-code contracts, and ``repro serve`` as a subprocess.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from helpers import nx_contains
from repro.core import create_engine
from repro.graph import Graph, generate_database
from repro.service.client import ServiceClient, ServiceError, wait_for_service
from repro.service.protocol import decode_line, encode_message, graph_to_wire
from repro.service.server import QueryService, ServiceConfig
from repro.store import IndexStore

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def named_square(name: str) -> Graph:
    return Graph.from_edge_list(
        [0, 1, 0, 1], [(0, 1), (1, 2), (2, 3), (3, 0)], name=name
    )


def expected_answers(query, db):
    return sorted(gid for gid, graph in db.items() if nx_contains(query, graph))


@pytest.fixture()
def service_db():
    """A private copy of the workhorse database: the mutation tests
    add/remove graphs, which must not leak into the session-scoped
    ``small_db`` other files share."""
    return generate_database(
        num_graphs=20, num_vertices=12, avg_degree=2.8, num_labels=4, seed=42,
        name="small",
    )


@pytest.fixture()
def engine(service_db):
    with create_engine(service_db, "CFQL") as eng:
        eng.build_index()
        yield eng


def make_service(engine, **config) -> QueryService:
    return QueryService(engine, ServiceConfig(**config))


class Responses:
    """Collects responses delivered by the service, in arrival order."""

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
    """Run the scheduler to completion (shutdown first so it returns)."""
    service.request_shutdown()
    service.run_scheduler()


def pump(service: QueryService) -> None:
    """Answer everything currently queued by running turns of the real
    scheduler loop until it reports idle, without putting the service
    into its terminal drain."""
    while service._turn(0.0):
        pass


class TestInlineVerbs:
    def test_ping(self, engine):
        service = make_service(engine)
        responses = Responses()
        service.submit({"id": 1, "op": "ping"}, responses)
        response = responses.by_id(1)
        assert response["ok"] and response["result"]["pid"] == os.getpid()

    def test_unknown_op_is_bad_request(self, engine):
        service = make_service(engine)
        responses = Responses()
        service.submit({"id": 2, "op": "frobnicate"}, responses)
        response = responses.by_id(2)
        assert not response["ok"]
        assert response["error"]["code"] == "bad_request"

    def test_malformed_graph_is_bad_request(self, engine):
        service = make_service(engine)
        responses = Responses()
        service.submit(
            {"id": 3, "op": "query", "graph": {"labels": []}}, responses
        )
        assert responses.by_id(3)["error"]["code"] == "bad_request"

    @pytest.mark.parametrize("limit", [0, -1.5, "fast", True])
    def test_bad_time_limit_is_bad_request(self, engine, limit):
        service = make_service(engine)
        responses = Responses()
        message = query_message(4, named_square("q"), time_limit=limit)
        service.submit(message, responses)
        assert responses.by_id(4)["error"]["code"] == "bad_request"

    def test_bad_gid_is_bad_request(self, engine):
        service = make_service(engine)
        responses = Responses()
        service.submit({"id": 5, "op": "remove_graph", "gid": "zero"}, responses)
        assert responses.by_id(5)["error"]["code"] == "bad_request"


class TestQueriesAndCache:
    def test_query_round_trip(self, engine, service_db):
        service = make_service(engine)
        responses = Responses()
        service.submit(query_message(1, named_square("q")), responses)
        drain(service)
        result = responses.by_id(1)["result"]
        assert result["answers"] == expected_answers(named_square("q"), service_db)
        assert result["cache"] == "miss"
        assert result["failure"] is None and not result["timed_out"]
        assert result["metrics"]["batch_size"] == 1
        assert result["metrics"]["queue_wait_s"] >= 0.0

    def test_repeat_query_hits_cache(self, engine):
        """The acceptance-criterion path: an identical repeat is answered
        from the cache — same answers, ``cache: "hit"``, and the
        zero-execution fast path (no engine dispatch)."""
        service = make_service(engine)
        responses = Responses()
        service.submit(query_message(1, named_square("a")), responses)
        service.submit(query_message(2, named_square("b")), responses)
        drain(service)
        first, second = responses.by_id(1)["result"], responses.by_id(2)["result"]
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert second["answers"] == first["answers"]
        assert second["metrics"]["execution_s"] == 0.0
        assert second["metrics"]["worker_pid"] == "cache"
        assert service.cache.hits == 1 and service.cache.misses == 1

    def test_no_cache_bypasses_lookup_and_admission(self, engine):
        service = make_service(engine)
        responses = Responses()
        service.submit(query_message(1, named_square("a")), responses)
        service.submit(query_message(2, named_square("a"), no_cache=True),
                       responses)
        drain(service)
        assert responses.by_id(2)["result"]["cache"] == "bypass"
        # The bypass neither consulted nor polluted the cache counters.
        assert service.cache.hits == 0 and service.cache.misses == 1

    def test_cache_disabled_reports_off(self, engine):
        service = make_service(engine, cache_capacity=0)
        responses = Responses()
        service.submit(query_message(1, named_square("a")), responses)
        service.submit(query_message(2, named_square("a")), responses)
        drain(service)
        assert responses.by_id(1)["result"]["cache"] == "off"
        assert responses.by_id(2)["result"]["cache"] == "off"
        assert len(service.cache) == 0

    def test_cache_lru_eviction(self, engine):
        service = make_service(engine, cache_capacity=2)
        responses = Responses()
        distinct = [
            Graph.from_edge_list([label, label], [(0, 1)]) for label in range(3)
        ]
        for i, graph in enumerate(distinct):
            service.submit(query_message(i, graph), responses)
            pump(service)  # one batch per request: real LRU ordering
        # Re-query the oldest entry: it must have been evicted (miss).
        service.submit(query_message(99, distinct[0]), responses)
        drain(service)
        assert responses.by_id(99)["result"]["cache"] == "miss"
        assert len(service.cache) == 2

    def test_batches_coalesce_up_to_batch_max(self, engine):
        service = make_service(engine, batch_max=4)
        responses = Responses()
        for i in range(6):
            service.submit(
                query_message(i, named_square(f"q{i}"), no_cache=True), responses
            )
        drain(service)
        stats = service.stats()
        assert stats["batches"]["max_size"] == 4
        assert stats["requests"]["answered"] == 6
        sizes = {r["result"]["metrics"]["batch_size"] for r in responses.items}
        assert sizes == {4, 2}

    def test_mixed_time_limits_share_a_flight(self, engine, monkeypatch):
        """Every request carries its own time limit down to the engine,
        so differing limits no longer split the flight."""
        limits = []
        original = engine.submit

        def spy(query, time_limit=None):
            limits.append(time_limit)
            return original(query, time_limit)

        monkeypatch.setattr(engine, "submit", spy)
        service = make_service(engine)
        responses = Responses()
        service.submit(query_message(1, named_square("a"), time_limit=30.0),
                       responses)
        service.submit(query_message(2, named_square("b"), time_limit=5.0,
                                     no_cache=True), responses)
        drain(service)
        assert responses.by_id(1)["ok"] and responses.by_id(2)["ok"]
        assert limits == [30.0, 5.0]
        assert [responses.by_id(i)["result"]["metrics"]["batch_size"]
                for i in (1, 2)] == [2, 2]


class TestCompletionOrder:
    """Each request is answered when *it* completes.  Properties over
    orderings, with fault-injected delays far longer than anything they
    are compared against — no tight clocks."""

    @pytest.fixture()
    def pooled(self, service_db):
        """A 2-worker pool; inject faults *before* the first query, the
        workers take their fault specs along when they spawn."""
        from repro.exec import create_executor

        executor = create_executor("supervised", jobs=2)
        with create_engine(service_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            yield eng

    def test_fast_requests_overtake_a_slow_one(self, pooled):
        from repro.exec import faults

        faults.inject("worker.query", "delay", arg=1.0, match="slow")
        service = make_service(pooled, cache_capacity=0)
        responses = Responses()
        service.submit(query_message("slow", named_square("slow")), responses)
        for i in range(3):
            service.submit(query_message(i, named_square(f"fast{i}")), responses)
        drain(service)
        order = [r["id"] for r in responses.items]
        assert order[3] == "slow" and sorted(order[:3]) == [0, 1, 2]
        assert all(r["result"]["failure"] is None for r in responses.items)
        # They were in flight together; nobody waited for a batch to end.
        assert {r["result"]["metrics"]["batch_size"]
                for r in responses.items} == {4}

    def test_mutation_is_a_barrier_with_a_slow_query_in_flight(
        self, pooled, service_db
    ):
        """Read-your-writes in both directions: what was admitted before
        ``add_graph`` never sees the new graph, what came after always
        does — also when the mutation arrives mid-flight."""
        from repro.exec import faults

        faults.inject("worker.query", "delay", arg=0.6, match="slow")
        service = make_service(pooled, cache_capacity=0)
        responses = Responses()
        service.submit(query_message("slow", named_square("slow")), responses)
        service.submit(query_message("before", named_square("before")), responses)
        service.submit({"id": "add", "op": "add_graph",
                        "graph": graph_to_wire(named_square("new"))}, responses)
        service.submit(query_message("after", named_square("after")), responses)
        drain(service)
        gid = responses.by_id("add")["result"]["gid"]
        old = expected_answers(named_square("q"), service_db)
        assert gid in old  # service_db already holds the insertion by now
        old.remove(gid)
        assert responses.by_id("slow")["result"]["answers"] == old
        assert responses.by_id("before")["result"]["answers"] == old
        assert responses.by_id("after")["result"]["answers"] == old + [gid]
        order = [r["id"] for r in responses.items]
        assert order.index("slow") < order.index("add") < order.index("after")

    def test_identical_queries_in_flight_cost_one_dispatch(
        self, engine, monkeypatch
    ):
        submitted = []
        original = engine.submit

        def spy(query, time_limit=None):
            submitted.append(query.name)
            return original(query, time_limit)

        monkeypatch.setattr(engine, "submit", spy)
        service = make_service(engine)
        responses = Responses()
        service.submit(query_message(1, named_square("a")), responses)
        service.submit(query_message(2, named_square("a")), responses)
        drain(service)
        assert submitted == ["a"]
        first, second = responses.by_id(1)["result"], responses.by_id(2)["result"]
        assert (first["cache"], second["cache"]) == ("miss", "hit")
        assert second["answers"] == first["answers"]
        assert (service.cache.hits, service.cache.misses) == (1, 1)
        assert service.stats()["requests"]["answered"] == 2

    def test_failed_leader_answers_its_followers_and_admits_nothing(
        self, engine
    ):
        from repro.exec import faults

        faults.inject("query:start", "error", match="boom")
        service = make_service(engine)
        responses = Responses()
        service.submit(query_message(1, named_square("boom")), responses)
        service.submit(query_message(2, named_square("boom")), responses)
        drain(service)
        for request_id in (1, 2):
            result = responses.by_id(request_id)["result"]
            assert result["failure"]["kind"] == "error"
            assert result["cache"] == "miss"
        assert len(service.cache) == 0
        assert (service.cache.hits, service.cache.misses) == (0, 2)
        assert service.stats()["requests"]["query_failures"] == 2

    def test_deadline_clips_only_its_own_job(self, pooled, service_db):
        """``hang`` never polls its 0.3 s budget and is hard-killed on it;
        ``steady``, in the same flight and slower than that kill, has no
        deadline and runs to completion."""
        from repro.exec import faults

        faults.inject("worker.query", "spin", arg=30.0, match="hang")
        faults.inject("worker.query", "delay", arg=1.2, match="steady")
        service = make_service(pooled, cache_capacity=0)
        responses = Responses()
        service.submit(query_message(1, named_square("steady")), responses)
        service.submit(
            query_message(2, named_square("hang"), deadline_ms=300), responses
        )
        drain(service)
        steady, hang = responses.by_id(1)["result"], responses.by_id(2)["result"]
        assert hang["failure"]["kind"] == "oot" and hang["timed_out"]
        assert steady["failure"] is None
        assert steady["answers"] == expected_answers(
            named_square("steady"), service_db
        )
        assert steady["metrics"]["batch_size"] == 2
        assert hang["metrics"]["batch_size"] == 2

    def test_shutdown_answers_in_flight_and_queued(self, pooled):
        from repro.exec import faults

        faults.inject("worker.query", "delay", arg=0.2)
        service = make_service(pooled, batch_max=4, cache_capacity=0)
        responses = Responses()
        for i in range(8):
            service.submit(query_message(i, named_square(f"q{i}")), responses)
        scheduler = threading.Thread(target=service.run_scheduler, daemon=True)
        scheduler.start()
        deadline = time.perf_counter() + 10.0
        while service._in_flight < 4 and time.perf_counter() < deadline:
            time.sleep(0.005)
        assert service._in_flight == 4 and service._queue.qsize() == 4
        service.request_shutdown()
        scheduler.join(timeout=30.0)
        assert not scheduler.is_alive()
        assert all(responses.by_id(i)["result"]["failure"] is None
                   for i in range(8))
        assert service.stats()["batches"]["max_size"] == 4


class TestAdmissionControl:
    def test_overfull_queue_rejects_immediately(self, engine):
        """With no scheduler running, requests past ``capacity`` must be
        rejected synchronously with the structured ``overloaded`` error —
        never queued, never hung."""
        service = make_service(engine, capacity=2)
        responses = Responses()
        for i in range(5):
            service.submit(query_message(i, named_square(f"q{i}")), responses)
        # The two admitted requests have no responses yet; the other
        # three were answered immediately.
        assert len(responses.items) == 3
        for response in responses.items:
            assert not response["ok"]
            assert response["error"]["code"] == "overloaded"
            assert "back off" in response["error"]["message"]
        assert service.stats()["requests"]["rejected_overloaded"] == 3
        drain(service)  # the two admitted ones still get answers
        assert responses.by_id(0)["ok"] and responses.by_id(1)["ok"]

    def test_draining_service_rejects_new_work(self, engine):
        service = make_service(engine)
        service.request_shutdown()
        responses = Responses()
        service.submit(query_message(1, named_square("q")), responses)
        response = responses.by_id(1)
        assert not response["ok"]
        assert response["error"]["code"] == "shutting_down"

    def test_drain_answers_everything_already_admitted(self, engine):
        """Requests admitted before the drain began are all answered
        before run_scheduler returns — even ones enqueued after the
        drain flag was set (the leftover sweep)."""
        service = make_service(engine)
        responses = Responses()
        for i in range(3):
            service.submit(query_message(i, named_square(f"q{i}")), responses)
        service._draining.set()  # drain begins with the queue non-empty
        service.run_scheduler()
        assert all(responses.by_id(i)["ok"] for i in range(3))
        assert service._drained.is_set()


class TestMutations:
    def test_add_graph_extends_answers_and_invalidates_cache(
        self, service_db, engine
    ):
        service = make_service(engine)
        responses = Responses()
        query = named_square("q")
        service.submit(query_message(1, query), responses)
        service.submit({"id": 2, "op": "add_graph",
                        "graph": graph_to_wire(named_square("new"))}, responses)
        service.submit(query_message(3, query), responses)
        drain(service)
        before = responses.by_id(1)["result"]
        added = responses.by_id(2)["result"]
        after = responses.by_id(3)["result"]
        assert added["gid"] == max(service_db.ids())
        assert added["num_graphs"] == len(service_db)
        # The post-mutation repeat is NOT a cache hit: the mutation
        # invalidated every cached answer set, and the fresh answer now
        # includes the inserted graph (a square contains itself).
        assert after["cache"] == "miss"
        assert after["answers"] == sorted(before["answers"] + [added["gid"]])
        assert service.cache.invalidations == 1

    def test_remove_graph_shrinks_answers(self, service_db, engine):
        service = make_service(engine)
        responses = Responses()
        # A single labeled edge taken from a data graph: guaranteed hits.
        gid0, graph0 = next(iter(service_db.items()))
        u, v = next(iter(graph0.edges()))
        query = Graph.from_edge_list(
            [graph0.labels[u], graph0.labels[v]], [(0, 1)], name="edge"
        )
        service.submit(query_message(1, query), responses)
        drain(service)
        victim = responses.by_id(1)["result"]["answers"][0]

        service2 = make_service(engine)
        service2.submit({"id": 2, "op": "remove_graph", "gid": victim},
                        responses)
        service2.submit(query_message(3, query), responses)
        drain(service2)
        assert responses.by_id(2)["ok"]
        assert victim not in responses.by_id(3)["result"]["answers"]

    def test_remove_unknown_gid_is_not_found(self, engine):
        service = make_service(engine)
        responses = Responses()
        service.submit({"id": 1, "op": "remove_graph", "gid": 10_000}, responses)
        drain(service)
        error = responses.by_id(1)["error"]
        assert error["code"] == "not_found"
        assert "10000" in error["message"].replace("_", "")


class TestDurableMutationsAndCompaction:
    def fresh_db(self):
        return generate_database(
            num_graphs=20, num_vertices=12, avg_degree=2.8, num_labels=4,
            seed=42, name="small",
        )

    def durable_service(self, db, store_dir, **config):
        engine = create_engine(db, "CFQL")
        engine.build_index(store=IndexStore(store_dir))
        return QueryService(engine, ServiceConfig(**config))

    def test_served_mutation_survives_restart(self, tmp_path):
        service = self.durable_service(self.fresh_db(), tmp_path / "store")
        responses = Responses()
        service.submit({"id": 1, "op": "add_graph",
                        "graph": graph_to_wire(named_square("durable"))},
                       responses)
        drain(service)
        gid = responses.by_id(1)["result"]["gid"]

        # A brand-new process over the base database replays the journal.
        with create_engine(self.fresh_db(), "CFQL") as warm:
            warm.build_index(store=IndexStore(tmp_path / "store"))
            assert warm.wal_recovery["replayed"] == 1
            assert gid in warm.db.ids()
            assert warm.db[gid].name == "durable"

    def test_compact_verb_folds_the_journal(self, tmp_path):
        service = self.durable_service(self.fresh_db(), tmp_path / "store")
        responses = Responses()
        service.submit({"id": 1, "op": "add_graph",
                        "graph": graph_to_wire(named_square("a"))}, responses)
        service.submit({"id": 2, "op": "compact"}, responses)
        drain(service)
        summary = responses.by_id(2)["result"]
        assert summary["folded"] == 1
        assert summary["log_depth"] == 0
        assert summary["compactions"] == 1
        stats = service.stats()
        assert stats["requests"]["compactions"] == 1
        assert stats["store"]["wal_depth"] == 0
        assert stats["store"]["wal_last_seq"] == 1

    def test_compact_without_store_is_bad_request(self, engine):
        service = make_service(engine)
        responses = Responses()
        service.submit({"id": 1, "op": "compact"}, responses)
        drain(service)
        assert responses.by_id(1)["error"]["code"] == "bad_request"
        assert "store" in responses.by_id(1)["error"]["message"]

    def test_threshold_triggers_auto_compaction(self, tmp_path):
        service = self.durable_service(
            self.fresh_db(), tmp_path / "store", wal_compact_threshold=2
        )
        responses = Responses()
        service.submit({"id": 1, "op": "add_graph",
                        "graph": graph_to_wire(named_square("a"))}, responses)
        pump(service)
        assert service.engine.store.wal.depth == 1  # below threshold
        service.submit({"id": 2, "op": "add_graph",
                        "graph": graph_to_wire(named_square("b"))}, responses)
        drain(service)
        assert service.engine.store.wal.depth == 0  # folded at depth 2
        stats = service.stats()
        assert stats["requests"]["compactions"] == 1
        assert stats["store"]["compactions"] == 1

    def test_stats_surface_recovery_counters(self, tmp_path):
        service = self.durable_service(self.fresh_db(), tmp_path / "store")
        responses = Responses()
        service.submit({"id": 1, "op": "add_graph",
                        "graph": graph_to_wire(named_square("a"))}, responses)
        drain(service)

        warm = self.durable_service(self.fresh_db(), tmp_path / "store")
        store_stats = warm.stats()["store"]
        assert store_stats["wal_depth"] == 1
        assert store_stats["recovery"]["replayed"] == 1
        assert store_stats["recovery"]["reason"] is None
        drain(warm)


class TestScopedInvalidation:
    def disjoint_square(self, name="disjoint"):
        # Labels {2, 3}: disjoint from named_square's {0, 1}.
        return Graph.from_edge_list(
            [2, 3, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)], name=name
        )

    def test_disjoint_label_add_keeps_cached_answers(self, engine):
        service = make_service(engine)
        responses = Responses()
        query = named_square("q")
        service.submit(query_message(1, query), responses)
        service.submit({"id": 2, "op": "add_graph",
                        "graph": graph_to_wire(self.disjoint_square())},
                       responses)
        service.submit(query_message(3, query), responses)
        drain(service)
        # The added graph cannot contain any {0,1}-labeled query, so the
        # cached entry survives and the repeat is a hit.
        assert responses.by_id(3)["result"]["cache"] == "hit"
        assert service.cache.invalidations == 0
        stats = service.stats()
        assert stats["cache"]["entries_dropped"] == 0

    def test_superset_label_add_drops_cached_answers(self, engine):
        service = make_service(engine)
        responses = Responses()
        query = named_square("q")
        service.submit(query_message(1, query), responses)
        service.submit({"id": 2, "op": "add_graph",
                        "graph": graph_to_wire(named_square("super"))},
                       responses)
        service.submit(query_message(3, query), responses)
        drain(service)
        after = responses.by_id(3)["result"]
        assert after["cache"] == "miss"
        assert responses.by_id(2)["result"]["gid"] in after["answers"]
        assert service.stats()["cache"]["entries_dropped"] == 1

    def test_remove_drops_only_entries_naming_the_victim(
        self, service_db, engine
    ):
        service = make_service(engine)
        responses = Responses()
        # An edge query guaranteed to answer with data graphs.
        gid0, graph0 = next(iter(service_db.items()))
        u, v = next(iter(graph0.edges()))
        hit_query = Graph.from_edge_list(
            [graph0.labels[u], graph0.labels[v]], [(0, 1)], name="edge"
        )
        miss_query = self.disjoint_square("other")  # a second cached entry
        service.submit(query_message(1, hit_query), responses)
        service.submit(query_message(2, miss_query), responses)
        pump(service)
        hit_answers = responses.by_id(1)["result"]["answers"]
        miss_answers = set(responses.by_id(2)["result"]["answers"])
        # A victim the second entry does not name, so only one drops.
        victim = next(a for a in hit_answers if a not in miss_answers)
        service.submit({"id": 3, "op": "remove_graph", "gid": victim},
                       responses)
        service.submit(query_message(4, hit_query), responses)
        service.submit(query_message(5, miss_query), responses)
        drain(service)
        # The entry naming the victim was recomputed without it; the
        # entry that never contained it was served straight from cache.
        assert responses.by_id(4)["result"]["cache"] == "miss"
        assert victim not in responses.by_id(4)["result"]["answers"]
        assert responses.by_id(5)["result"]["cache"] == "hit"
        assert service.stats()["cache"]["entries_dropped"] == 1


class TestStats:
    def test_stats_shape(self, engine):
        service = make_service(engine)
        responses = Responses()
        service.submit(query_message(1, named_square("a")), responses)
        service.submit(query_message(2, named_square("a")), responses)
        # The service's own result cache short-circuits the exact repeat,
        # so only an isomorphic relabeling (the same square under rotated
        # vertex ids — a different exact key) exercises a plan-cache hit.
        rotated = Graph.from_edge_list(
            [1, 0, 1, 0], [(1, 2), (2, 3), (3, 0), (0, 1)], name="a-rot"
        )
        service.submit(query_message(3, rotated), responses)
        drain(service)
        stats = service.stats()
        assert stats["protocol"] == 1
        assert stats["engine"]["algorithm"] == "CFQL"
        assert stats["engine"]["num_graphs"] == 20
        assert stats["queue"] == {
            "capacity": 64, "depth": 0, "oldest_wait_s": None,
        }
        assert stats["breaker"]["state"] == "closed"
        assert stats["workers"] is None  # in-process engine: no pool
        assert stats["requests"]["answered"] == 3
        assert stats["cache"]["hits"] == 1
        assert stats["latency"]["total"]["count"] == 3
        # Plan-cache counters surface next to the result cache's: the
        # rotated square compiled nothing — its canonical key hit the
        # plan cached for the original.
        assert stats["plan_cache"]["misses"] >= 1
        assert stats["plan_cache"]["hits"] >= 1
        # The raw histograms round-trip through LatencyHistogram.
        from repro.utils.timing import LatencyHistogram

        hist = LatencyHistogram.from_dict(stats["histograms"]["total"])
        assert hist.count == 3


def start_serving(service, address):
    exit_code = []

    def run():
        exit_code.append(service.serve(address))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    wait_for_service(address)
    return thread, exit_code


class TestSocketEndToEnd:
    def test_full_session(self, engine, service_db, tmp_path):
        """Ping, cold query, cached repeat, stats, mutation, shutdown —
        one scripted session over a real Unix socket."""
        service = make_service(engine)
        address = f"unix:{tmp_path / 'serve.sock'}"
        thread, exit_code = start_serving(service, address)

        with ServiceClient(address) as client:
            assert client.ping()["protocol"] == 1
            query = named_square("q")
            first = client.query(query)
            assert first["answers"] == expected_answers(query, service_db)
            assert first["cache"] == "miss"
            second = client.query(query)
            assert second["cache"] == "hit"
            assert second["answers"] == first["answers"]
            stats = client.stats()
            assert stats["cache"]["hits"] == 1
            gid = client.add_graph(named_square("added"))
            assert client.query(query)["answers"] == sorted(
                first["answers"] + [gid]
            )
            client.remove_graph(gid)
            client.shutdown()

        thread.join(timeout=10.0)
        assert exit_code == [0]  # shutdown verb, not a signal

    def test_burst_gets_structured_overloaded_rejections(
        self, service_db, tmp_path
    ):
        """A pipelined burst far past queue capacity: the overflow is
        rejected immediately with ``overloaded`` while admitted requests
        are still answered."""
        with create_engine(service_db, "CFQL") as eng:
            eng.build_index()
            original = eng.collect

            def slow_collect(timeout=None, also=()):
                time.sleep(0.25)
                return original(timeout, also)

            eng.collect = slow_collect
            service = make_service(eng, capacity=2, batch_max=1)
            address = f"unix:{tmp_path / 'serve.sock'}"
            thread, exit_code = start_serving(service, address)

            burst = 10
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(str(tmp_path / "serve.sock"))
            try:
                wire = graph_to_wire(named_square("q"))
                for i in range(burst):
                    sock.sendall(encode_message(
                        {"id": i, "op": "query", "graph": wire, "no_cache": True}
                    ))
                responses = []
                with sock.makefile("rb") as rfile:
                    for _ in range(burst):
                        responses.append(decode_line(rfile.readline().strip()))
            finally:
                sock.close()

            rejected = [r for r in responses if not r["ok"]]
            answered = [r for r in responses if r["ok"]]
            assert rejected, "burst should overflow the 2-slot queue"
            assert all(
                r["error"]["code"] == "overloaded" for r in rejected
            )
            # At minimum the two queue slots are answered; the scheduler
            # may also have pulled one into flight before the burst hit.
            assert len(answered) >= 2
            assert all(r["result"]["failure"] is None for r in answered)

            with ServiceClient(address) as client:
                assert client.stats()["requests"]["rejected_overloaded"] == len(
                    rejected
                )
                client.shutdown()
            thread.join(timeout=10.0)
            assert exit_code == [0]

    def test_signal_drain_finishes_in_flight_work(self, service_db, tmp_path):
        """A SIGTERM-style shutdown arriving mid-query: the in-flight
        request is still answered, then serve returns 128+signum."""
        with create_engine(service_db, "CFQL") as eng:
            eng.build_index()
            original = eng.collect
            started = threading.Event()

            def slow_collect(timeout=None, also=()):
                started.set()
                time.sleep(0.3)
                return original(timeout, also)

            eng.collect = slow_collect
            service = make_service(eng)
            address = f"unix:{tmp_path / 'serve.sock'}"
            thread, exit_code = start_serving(service, address)

            with ServiceClient(address) as client:
                answer: list = []
                waiter = threading.Thread(
                    target=lambda: answer.append(client.query(named_square("q"))),
                    daemon=True,
                )
                waiter.start()
                assert started.wait(timeout=5.0)
                service.request_shutdown(signal.SIGTERM)  # as the handler would
                waiter.join(timeout=10.0)
            thread.join(timeout=10.0)
            assert answer and answer[0]["failure"] is None
            assert exit_code == [128 + signal.SIGTERM]

    def test_bad_line_does_not_kill_the_connection(self, engine, tmp_path):
        service = make_service(engine)
        address = f"unix:{tmp_path / 'serve.sock'}"
        thread, _ = start_serving(service, address)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(str(tmp_path / "serve.sock"))
        try:
            sock.sendall(b"this is not json\n")
            with sock.makefile("rb") as rfile:
                error = decode_line(rfile.readline().strip())
                assert error["error"]["code"] == "bad_request"
                # The same connection still works afterwards.
                sock.sendall(encode_message({"id": 1, "op": "ping"}))
                assert decode_line(rfile.readline().strip())["ok"]
        finally:
            sock.close()
        with ServiceClient(address) as client:
            client.shutdown()
        thread.join(timeout=10.0)


class TestServeSubprocess:
    """``repro serve`` as a real child process: signals and exit codes."""

    def start(self, db_path, sock_path, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(db_path),
             "--listen", f"unix:{sock_path}", "-a", "CFQL"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, cwd=str(tmp_path), text=True,
        )
        try:
            wait_for_service(f"unix:{sock_path}", timeout=30.0)
        except Exception:
            proc.kill()
            raise AssertionError(
                f"serve did not come up; output:\n{proc.communicate()[0]}"
            )
        return proc

    @pytest.fixture()
    def db_path(self, service_db, tmp_path):
        from repro.graph.io import write_graph_database

        path = tmp_path / "db.txt"
        write_graph_database(service_db, path)
        return path

    def test_sigterm_drains_and_exits_143(self, db_path, tmp_path):
        sock_path = tmp_path / "serve.sock"
        proc = self.start(db_path, sock_path, tmp_path)
        address = f"unix:{sock_path}"
        with ServiceClient(address) as client:
            result = client.query(named_square("q"))
            assert result["failure"] is None
        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=30.0)
        assert proc.returncode == 128 + signal.SIGTERM, output
        assert "# drained:" in output
        assert not os.path.exists(sock_path)

    def test_shutdown_verb_exits_zero(self, db_path, tmp_path):
        sock_path = tmp_path / "serve.sock"
        proc = self.start(db_path, sock_path, tmp_path)
        with ServiceClient(f"unix:{sock_path}") as client:
            client.query(named_square("q"))
            client.shutdown()
        output, _ = proc.communicate(timeout=30.0)
        assert proc.returncode == 0, output
        assert "# drained:" in output
        assert not os.path.exists(sock_path)

    @pytest.mark.parametrize("how", ["shutdown-verb", "sigterm"])
    def test_idle_drain_takes_under_a_second(self, db_path, tmp_path, how):
        """The drain must wake the thread blocked in ``accept()``, not sit
        out serve()'s five-second join on it."""
        sock_path = tmp_path / "serve.sock"
        proc = self.start(db_path, sock_path, tmp_path)
        with ServiceClient(f"unix:{sock_path}") as client:
            client.query(named_square("q"))
            began = time.perf_counter()
            if how == "sigterm":
                proc.send_signal(signal.SIGTERM)
            else:
                client.shutdown()
        output, _ = proc.communicate(timeout=30.0)
        elapsed = time.perf_counter() - began
        assert proc.returncode == (143 if how == "sigterm" else 0), output
        assert "# drained:" in output
        assert elapsed < 1.0, f"drain took {elapsed:.2f} s\n{output}"


class TestSupervisedDrain:
    """Graceful drain while a *supervised* batch is in flight: the
    in-flight request is answered from the crash-isolated pool, serve
    exits 128+signum, and no worker process outlives the service."""

    @staticmethod
    def pid_alive(pid: int) -> bool:
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

    def test_sigterm_mid_supervised_batch_answers_then_drains(
        self, service_db, tmp_path
    ):
        from repro.exec import create_executor, faults

        executor = create_executor("supervised", jobs=2)
        with create_engine(service_db, "CFQL", executor=executor) as eng:
            eng.build_index()
            # The batch dawdles inside the worker, long enough for the
            # signal to land while it is in flight.
            faults.inject("worker.query", "delay", arg=0.4)
            service = make_service(eng)
            address = f"unix:{tmp_path / 'serve.sock'}"
            thread, exit_code = start_serving(service, address)

            with ServiceClient(address) as client:
                answer: list = []
                waiter = threading.Thread(
                    target=lambda: answer.append(
                        client.query(named_square("q"), no_cache=True)
                    ),
                    daemon=True,
                )
                waiter.start()
                deadline = time.perf_counter() + 5.0
                while time.perf_counter() < deadline:
                    # Admitted and pulled by the scheduler: in flight.
                    if service._counters.get("received") and \
                            service._queue.empty():
                        break
                    time.sleep(0.01)
                time.sleep(0.05)  # let the dispatch reach the pool
                service.request_shutdown(signal.SIGTERM)
                waiter.join(timeout=15.0)
            thread.join(timeout=15.0)
            worker_pids = [
                row["pid"] for row in executor.worker_stats()["live"]
            ]
            assert answer and answer[0]["failure"] is None
            assert exit_code == [128 + signal.SIGTERM]
        self.assert_all_reaped(worker_pids)

    def test_supervised_serve_subprocess_leaves_no_orphans(
        self, service_db, tmp_path
    ):
        from repro.graph.io import write_graph_database

        db_path = tmp_path / "db.txt"
        write_graph_database(service_db, db_path)
        sock_path = tmp_path / "serve.sock"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(db_path),
             "--listen", f"unix:{sock_path}", "-a", "CFQL",
             "--supervised", "-j", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, cwd=str(tmp_path), text=True,
        )
        try:
            wait_for_service(f"unix:{sock_path}", timeout=30.0)
            with ServiceClient(f"unix:{sock_path}") as client:
                result = client.query(named_square("q"), no_cache=True)
                assert result["failure"] is None
                stats = client.stats()
                workers = stats["workers"]
                assert workers["supervised"] is True
                worker_pids = [row["pid"] for row in workers["live"]]
                assert worker_pids, "supervised pool should be populated"
                assert all(self.pid_alive(pid) for pid in worker_pids)
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.communicate(timeout=10.0)
        assert proc.returncode == 128 + signal.SIGTERM, output
        assert "# drained:" in output
        self.assert_all_reaped(worker_pids)
