"""Stateful property test: a random add/remove/query interleaving.

Hypothesis drives an arbitrary sequence of database mutations and queries
against three engines at once — an index-based one (Grapes), an index-free
one (CFQL) and a cached one — comparing every answer set against a
brute-force VF2 scan of the model state.  This is the strongest
consistency check in the suite: it exercises index maintenance, cache
invalidation and query processing under interleavings no example-based
test would think of.

A second machine pins the database-level seed screen: under any sequence
of adds, removals, re-used ids and restores, the screened ids must cover
exactly the graphs LDF seeding lets through (a superset once an id was
re-used), and every vcFV/IvcFV pipeline must return the same answers *and*
candidates as a scan with the screen switched off — directly, through a
:class:`DatabaseView`, and on a pickled copy of the database.  Scripted
tests below repeat the comparison through a real pool worker and through
sharded engines on both shard hosts.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import (
    CachingPipeline,
    DatabaseView,
    SubgraphQueryEngine,
    create_engine,
    create_pipeline,
)
from repro.exec import create_executor
from repro.graph import (
    GraphDatabase,
    generate_database,
    generate_graph,
    random_walk_query,
)
from repro.matching import VF2Matcher, compile_plan, ldf_candidate_bits
from repro.shard import ShardedEngine
from repro.utils.bitset import iter_bits, pack_bits


class DatabaseMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.db = GraphDatabase()
        self.engines = {
            "Grapes": SubgraphQueryEngine(
                self.db, create_pipeline("Grapes", index_max_path_edges=2)
            ),
            "CFQL": SubgraphQueryEngine(self.db, create_pipeline("CFQL")),
            "cached-CFQL": SubgraphQueryEngine(
                self.db, CachingPipeline(create_pipeline("CFQL"), capacity=4)
            ),
        }
        for engine in self.engines.values():
            engine.build_index()
        self.vf2 = VF2Matcher()
        # Mutations must go through every engine, so route them manually.
        self._mutate_seed = 0

    def _add(self, graph) -> None:
        gid = self.db.add_graph(graph)
        for engine in self.engines.values():
            engine.pipeline.on_graph_added(gid, graph)

    def _remove(self, gid: int) -> None:
        self.db.remove_graph(gid)
        for engine in self.engines.values():
            engine.pipeline.on_graph_removed(gid)

    @rule(seed=st.integers(0, 2**32 - 1), size=st.integers(4, 10))
    def add_graph(self, seed: int, size: int) -> None:
        self._add(generate_graph(size, 2.5, 3, seed=seed))

    @rule(pick=st.integers(0, 2**31))
    def remove_graph(self, pick: int) -> None:
        ids = self.db.ids()
        if ids:
            self._remove(ids[pick % len(ids)])

    @rule(pick=st.integers(0, 2**31), edges=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def query(self, pick: int, edges: int, seed: int) -> None:
        ids = self.db.ids()
        if not ids:
            return
        source = self.db[ids[pick % len(ids)]]
        query = random_walk_query(source, edges, seed=seed)
        if query is None:
            return
        expected = {gid for gid, g in self.db.items() if self.vf2.exists(query, g)}
        for name, engine in self.engines.items():
            assert engine.query(query).answers == expected, name

    @invariant()
    def engines_share_the_database(self) -> None:
        for engine in self.engines.values():
            assert engine.db is self.db


TestDatabaseMachine = DatabaseMachine.TestCase
TestDatabaseMachine.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None
)


# ----------------------------------------------------------------------
# The database-level seed screen
# ----------------------------------------------------------------------

#: Every pipeline that scans behind the screen: the four vcFV matchers and
#: the two IvcFV configurations.
SCREENED = ("GraphQL", "CFL", "CFQL", "TurboIso", "vcGrapes", "vcGGSX")


def screened_pipeline(name: str):
    if name.startswith("vc"):
        return create_pipeline(name, index_max_path_edges=2)
    return create_pipeline(name)


class Unscreened(DatabaseView):
    """A view whose seed screen lets every one of its graphs through —
    what the scan visited before the screen existed."""

    def seed_screen(self, pairs) -> int:
        return pack_bits(self.ids())


def screen_invariant(db: GraphDatabase, query, exact: bool) -> None:
    screened = set(iter_bits(db.seed_screen(compile_plan(query).seed_pairs)))
    passes_ldf = {
        gid for gid, g in db.items() if all(ldf_candidate_bits(query, g))
    }
    assert screened <= set(db.ids())
    assert screened >= passes_ldf
    if exact:
        assert screened == passes_ldf


def assert_same_scan(pipeline, query, screened_db, unscreened_db) -> None:
    got = pipeline.execute(query, screened_db)
    want = pipeline.execute(query, unscreened_db)
    assert got.failure is None and want.failure is None
    assert got.answers == want.answers, pipeline.name
    assert got.candidates == want.candidates, pipeline.name
    assert got.index_candidates == want.index_candidates, pipeline.name


class ScreenMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.db = GraphDatabase()
        self._fresh_pipelines()

    def _fresh_pipelines(self) -> None:
        self.pipelines = {name: screened_pipeline(name) for name in SCREENED}
        for pipeline in self.pipelines.values():
            pipeline.build_index(self.db)
        self.removed: list[int] = []
        #: Whether a removed id was handed to another graph since the
        #: screen was last built from scratch (stale bits may remain).
        self.reused = False

    def _added(self, gid: int, graph) -> None:
        for pipeline in self.pipelines.values():
            pipeline.on_graph_added(gid, graph)

    @rule(seed=st.integers(0, 2**32 - 1), size=st.integers(3, 9),
          labels=st.integers(1, 4))
    def add_graph(self, seed: int, size: int, labels: int) -> None:
        graph = generate_graph(size, 2.5, labels, seed=seed)
        self._added(self.db.add_graph(graph), graph)

    @rule(pick=st.integers(0, 2**31))
    def remove_graph(self, pick: int) -> None:
        ids = self.db.ids()
        if not ids:
            return
        gid = ids[pick % len(ids)]
        graph = self.db.remove_graph(gid)
        self.removed.append(gid)
        for pipeline in self.pipelines.values():
            pipeline.on_graph_removed(gid, graph)

    @rule(seed=st.integers(0, 2**32 - 1), size=st.integers(3, 9))
    def reuse_removed_id(self, seed: int, size: int) -> None:
        if not self.removed:
            return
        gid = self.removed.pop()
        if gid in self.db:
            return
        graph = generate_graph(size, 2.0, 2, seed=seed)
        self.db.add_graph_with_id(gid, graph)
        self._added(gid, graph)
        self.reused = True

    @rule(drop=st.integers(0, 2**31))
    def restore(self, drop: int) -> None:
        """Snapshot recovery replaces the contents wholesale."""
        contents = list(self.db.items())
        if contents:
            contents.pop(drop % len(contents))
        self.db.restore(contents, self.db.next_id)
        self._fresh_pipelines()

    @rule(pick=st.integers(0, 2**31), edges=st.integers(0, 4),
          seed=st.integers(0, 2**32 - 1), sampled=st.booleans(),
          through=st.sampled_from(["db", "view", "pickle"]))
    def query(self, pick, edges, seed, sampled, through) -> None:
        ids = self.db.ids()
        if sampled and ids and edges:
            query = random_walk_query(self.db[ids[pick % len(ids)]], edges, seed=seed)
            if query is None:
                return
        else:
            query = generate_graph(edges + 1, 2.0, 4, seed=seed)
        screen_invariant(self.db, query, exact=not self.reused)
        if through == "view":
            subset = {gid for gid in ids if (gid + pick) % 3}
            target = DatabaseView(self.db, subset)
            baseline = Unscreened(self.db, subset)
        elif through == "pickle":
            # What a pool worker receives: the screen does not travel.
            target = pickle.loads(pickle.dumps(self.db))
            assert target._screen is None
            baseline = Unscreened(self.db, set(ids))
        else:
            target = self.db
            baseline = Unscreened(self.db, set(ids))
        for pipeline in self.pipelines.values():
            assert_same_scan(pipeline, query, target, baseline)


TestScreenMachine = ScreenMachine.TestCase
TestScreenMachine.settings = settings(
    max_examples=25, stateful_step_count=14, deadline=None
)


def mutation_script():
    """A fixed database, the graphs to insert, and queries that hit, miss
    and straddle them (label 5 exists only in the inserted graphs)."""
    db = generate_database(
        num_graphs=14, num_vertices=10, avg_degree=2.6, num_labels=3, seed=21,
        name="screen-script",
    )
    extra = [generate_graph(9, 2.6, 3, seed=100 + i) for i in range(3)]
    extra.append(generate_graph(6, 2.0, 6, seed=200))
    queries = [
        random_walk_query(db[gid], edges, seed=gid)
        for gid, edges in ((0, 2), (3, 3), (5, 4), (9, 1))
    ]
    queries += [random_walk_query(extra[-1], 2, seed=1), generate_graph(4, 2.0, 2, seed=9)]
    return db, extra, [q for q in queries if q is not None]


def expected_rounds(name: str, snapshots, queries) -> list:
    """The same rounds from a fresh pipeline scanning with no screen."""
    rounds = []
    for snapshot in snapshots:
        pipeline = screened_pipeline(name)
        pipeline.build_index(snapshot)
        everything = Unscreened(snapshot, set(snapshot.ids()))
        rounds.append([pipeline.execute(q, everything) for q in queries])
    return rounds


def scripted_parity(name: str, make_engine, reuse_id: bool) -> None:
    """Query, mutate (add, remove, add again — under the removed id when
    the engine can choose ids), query again, and compare each round with
    an unscreened scan of the same state."""
    db, extra, queries = mutation_script()
    mirror = GraphDatabase()
    for gid, graph in db.items():
        mirror.add_graph_with_id(gid, graph)
    snapshots: list[GraphDatabase] = []

    def snapshot() -> None:
        snapshots.append(pickle.loads(pickle.dumps(mirror)))

    with make_engine(db) as engine:
        engine.build_index()
        snapshot()
        got = [engine.query_many(queries)]
        for graph in extra[:-1]:
            mirror.add_graph_with_id(engine.add_graph(graph), graph)
        victim = sorted(mirror.ids())[2]
        engine.remove_graph(victim)
        mirror.remove_graph(victim)
        snapshot()
        got.append(engine.query_many(queries))
        if reuse_id:
            engine.add_graph_with_id(victim, extra[-1])
            mirror.add_graph_with_id(victim, extra[-1])
        else:
            mirror.add_graph_with_id(engine.add_graph(extra[-1]), extra[-1])
        snapshot()
        got.append(engine.query_many(queries))
    for got_round, want_round in zip(got, expected_rounds(name, snapshots, queries)):
        for result, want in zip(got_round, want_round):
            assert result.failure is None
            assert result.answers == want.answers, name
            assert result.candidates == want.candidates, name


@pytest.mark.parametrize("name", SCREENED)
@pytest.mark.parametrize("shard_host", ["thread", "process"])
@pytest.mark.parametrize("num_shards", [1, 2])
def test_screen_parity_through_shards(name, num_shards, shard_host):
    scripted_parity(
        name,
        lambda db: ShardedEngine(
            db, num_shards, lambda: screened_pipeline(name), shard_host=shard_host
        ),
        reuse_id=False,
    )


@pytest.mark.parametrize("name", ["CFQL", "vcGrapes"])
def test_screen_parity_through_pool_workers(name):
    """The database reaches pool workers pickled, after the parent built
    and mutated its own screen."""

    def make_engine(db):
        db.seed_screen(())
        kwargs = {"index_max_path_edges": 2} if name.startswith("vc") else {}
        return create_engine(
            db, name, executor=create_executor("parallel", jobs=2), **kwargs
        )

    scripted_parity(name, make_engine, reuse_id=True)
