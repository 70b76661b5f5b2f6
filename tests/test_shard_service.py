"""Tests for the service layer over a sharded engine.

Covers the wiring the unit tests of :mod:`repro.shard` cannot: per-shard
rows in the ``stats`` verb, the ``rebalance`` admin verb (including its
rejection on an unsharded engine), the dedup window reseeding from
recovered request keys after a restart, and the no-caching rule for
partial (shard-down) answers.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import create_engine, create_pipeline
from repro.exec import Health, faults
from repro.graph import generate_database
from repro.service.client import ServiceClient, ServiceError, wait_for_service
from repro.service.server import QueryService, ServiceConfig
from repro.shard import ShardedEngine
from repro.workloads.querysets import generate_query_set

ALGORITHM = "Grapes"


def make_db():
    return generate_database(
        num_graphs=20, num_vertices=12, avg_degree=2.8, num_labels=4, seed=21,
        name="shard-svc",
    )


def make_engine(db, num_shards=2, store_root=None):
    engine = ShardedEngine(
        db, num_shards, lambda: create_pipeline(ALGORITHM),
        store_root=store_root,
    )
    engine.build_index()
    return engine


@pytest.fixture()
def queries():
    return list(generate_query_set(make_db(), 4, False, size=3, seed=22))


class running_service:
    """A QueryService on a temp Unix socket, shut down on exit."""

    def __init__(self, engine, tmp_path, config=None, tag="svc"):
        self.service = QueryService(engine, config or ServiceConfig())
        self.address = f"unix:{tmp_path / f'{tag}.sock'}"

    def __enter__(self):
        self._thread = threading.Thread(
            target=self.service.serve, args=(self.address,), daemon=True
        )
        self._thread.start()
        wait_for_service(self.address)
        return self

    def __exit__(self, *exc_info):
        try:
            with ServiceClient(self.address) as client:
                client.shutdown()
        except Exception:
            self.service.request_shutdown()
        self._thread.join(timeout=30.0)


class TestStatsVerb:
    def test_per_shard_rows_and_store_recovery(self, tmp_path, queries):
        engine = make_engine(make_db(), 2, store_root=tmp_path / "store")
        with running_service(engine, tmp_path) as under_test:
            with ServiceClient(under_test.address) as client:
                client.query(queries[0])
                stats = client.stats()
        rows = stats["shards"]
        assert [row["shard"] for row in rows] == [0, 1]
        assert sum(row["graphs"] for row in rows) == 20
        assert all(row["breaker"]["state"] == "closed" for row in rows)
        # Satellite: wal_recovery counters per store, one row per shard.
        store = stats["store"]
        assert store["recovery"]["replayed"] == 0
        assert [row["shard"] for row in store["shards"]] == [0, 1]
        workers = stats["workers"]
        assert workers["executor"] == "ShardedExecutor"

    def test_unsharded_stats_has_no_shard_rows(self, tmp_path, queries):
        engine = create_engine(make_db(), ALGORITHM)
        engine.build_index()
        with running_service(engine, tmp_path) as under_test:
            with ServiceClient(under_test.address) as client:
                stats = client.stats()
        assert stats["shards"] is None


class TestRebalanceVerb:
    def test_split_and_heal_over_the_wire(self, tmp_path, queries):
        engine = make_engine(make_db(), 2)
        with running_service(engine, tmp_path) as under_test:
            with ServiceClient(under_test.address) as client:
                expected = [
                    sorted(client.query(q)["answers"]) for q in queries
                ]
                summary = client.rebalance(shards=4)
                assert summary["num_shards"] == 4
                assert summary["grown"] == 2
                assert sum(summary["graphs"]) == 20
                assert client.rebalance()["moved"] == 0
                assert len(client.stats()["shards"]) == 4
                got = [
                    sorted(
                        client.query(q, no_cache=True)["answers"]
                    ) for q in queries
                ]
        assert got == expected

    def test_rejected_on_unsharded_engine(self, tmp_path):
        from repro.service.client import ServiceError

        engine = create_engine(make_db(), ALGORITHM)
        engine.build_index()
        with running_service(engine, tmp_path) as under_test:
            with ServiceClient(under_test.address) as client:
                with pytest.raises(ServiceError, match="not sharded"):
                    client.rebalance()

    def test_bad_shard_count_rejected(self, tmp_path):
        from repro.service.client import ServiceError

        engine = make_engine(make_db(), 2, store_root=tmp_path / "store")
        with running_service(engine, tmp_path) as under_test:
            with ServiceClient(under_test.address) as client:
                with pytest.raises(ServiceError):
                    client.rebalance(shards=0)
                # Below the seed count with a store attached: structured
                # bad_request, service stays up.
                with pytest.raises(ServiceError, match="seed shard count"):
                    client.rebalance(shards=1)
                assert client.ping()


class TestDedupPersistence:
    def test_window_survives_restart(self, tmp_path, queries):
        root = tmp_path / "store"
        db = make_db()
        extra = db[db.ids()[0]]
        engine = make_engine(db, 2, store_root=root)
        with running_service(engine, tmp_path, tag="first") as under_test:
            with ServiceClient(under_test.address) as client:
                gid = client.add_graph(extra)
                assert client.stats()["dedup"]["size"] == 1

        revived = make_engine(make_db(), 2, store_root=root)
        assert gid in revived.db
        with running_service(revived, tmp_path, tag="second") as under_test:
            with ServiceClient(under_test.address) as client:
                stats = client.stats()["dedup"]
                assert stats["seeded"] == 1
                assert stats["size"] == 1

    def test_seeding_respects_disabled_dedup(self, tmp_path):
        root = tmp_path / "store"
        db = make_db()
        engine = make_engine(db, 2, store_root=root)
        engine.add_graph(db[db.ids()[0]], request_key="k1")
        engine.close()
        revived = make_engine(make_db(), 2, store_root=root)
        assert revived.recovered_request_keys
        service = QueryService(revived, ServiceConfig(dedup_capacity=0))
        assert service.dedup_seeded == 0
        revived.close()


class TestPartialResults:
    def test_partial_answers_are_not_cached(self, tmp_path, queries):
        engine = make_engine(make_db(), 2)
        with running_service(engine, tmp_path) as under_test:
            with ServiceClient(under_test.address) as client:
                full = sorted(client.query(queries[0])["answers"])
                client_stats = client.stats()
                assert client_stats["cache"]["size"] == 1
                # Take shard 1 down for exactly one routed batch; use a
                # different query so the cache cannot answer it.
                faults.inject(
                    "shard.query", "error", match="shard-1", times=1
                )
                try:
                    partial = client.query(queries[1])
                finally:
                    faults.clear()
                assert partial["metadata"]["partial"]
                assert partial["metadata"]["missing_shards"] == [1]
                # The degraded answer must not have been admitted: the
                # same query now misses the cache and gets full answers.
                again = client.query(queries[1])
                assert again["cache"] == "miss"
                assert not again["metadata"].get("partial")
                assert set(partial["answers"]) <= set(again["answers"])
                # And the untouched cached entry still serves hits.
                hit = client.query(queries[0])
                assert hit["cache"] == "hit"
                assert sorted(hit["answers"]) == full


class TestRefusedMutation:
    def test_mutation_to_an_open_shard_answers_degraded(self, tmp_path, queries):
        """A mutation its process-host shard refused unsent never ran:
        the service answers it ``degraded`` with the shard's retry-after
        (not a terminal ``bad_request``), and a client that honours the
        hint lands it once the shard's half-open probe succeeds."""
        db = make_db()
        extra = generate_database(
            num_graphs=6, num_vertices=10, avg_degree=2.5, num_labels=4,
            seed=23,
        )
        graphs = [graph for _, graph in extra.items()]
        faults.inject(
            "shard.worker.query", "crash", match="shard-1",
            latch=str(tmp_path / "crash.latch"),
        )
        try:
            engine = ShardedEngine(
                db, 2, lambda: create_pipeline(ALGORITHM),
                shard_host="process",
                health=lambda: Health(threshold=1, cooldown=1.0),
            )
            engine.build_index()
            with running_service(engine, tmp_path) as under_test:
                with ServiceClient(under_test.address) as client:
                    while engine.owner_of(engine.next_id) != 1:
                        client.add_graph(graphs.pop())  # lands on shard 0
                    partial = client.query(queries[0])
                    assert partial["metadata"]["missing_shards"] == [1]
                    with pytest.raises(ServiceError) as refused:
                        client.add_graph(graphs[-1])
                    assert refused.value.code == "degraded"
                    assert 0.0 < refused.value.retry_after <= 1.0
                with ServiceClient(under_test.address, retries=1) as client:
                    gid = client.add_graph(graphs[-1])
                assert engine.owner_of(gid) == 1
                counters = under_test.service._counters
                assert counters["rejected_degraded"] >= 1
                assert counters["bad_requests"] == 0
        finally:
            faults.clear()
