"""The compiled CFL/GraphQL filters and join order against their references.

``reference_filters`` holds the pre-compilation implementations (per-graph
visit ranks, one LDF AND per query vertex, set/lambda join order).  The
shipped code must return bit-identical Φ bitmaps, the same ``None``-vs-sets
outcome, the same CFL root and the same matching orders — with and without
a compiled plan.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import create_pipeline
from repro.exec import faults
from repro.graph import Graph, GraphDatabase, generate_database, generate_graph
from repro.matching import (
    CandidateSets,
    CFLMatcher,
    CFQLMatcher,
    GraphQLMatcher,
    compile_plan,
    join_based_order,
)
from repro.utils.errors import TimeLimitExceeded
from repro.utils.timing import Deadline

from helpers import path_graph, star_graph, triangle
from reference_filters import (
    cfl_filter_reference,
    cfl_order_reference,
    graphql_filter_reference,
    join_based_order_reference,
)
from strategies import connected_graphs, matching_instances


def phi_bitmaps(candidates: CandidateSets | None) -> list[int] | None:
    if candidates is None:
        return None
    return list(candidates.bitmaps)


def assert_parity(query: Graph, data: Graph, with_plan: bool) -> None:
    """CFL, CFQL and GraphQL against the references on one (query, data)."""
    plan = compile_plan(query) if with_plan else None

    want_phi, want_root = cfl_filter_reference(query, data)
    for matcher in (CFLMatcher(), CFQLMatcher()):
        got = matcher.build_candidates(query, data, plan=plan)
        assert phi_bitmaps(got) == want_phi, matcher.name
        if got is None:
            continue
        got_order = matcher.matching_order(query, data, got, plan=plan)
        if matcher.name == "CFL":
            assert got_order == cfl_order_reference(query, want_root, got)
        else:
            assert got_order == join_based_order_reference(query, got)
    if want_root is not None:
        checked = compile_plan(query)
        assert (
            CFLMatcher._select_root(checked, CFLMatcher._seed_bits(checked, data))
            == want_root
        )

    want_gql = graphql_filter_reference(query, data)
    got_gql = GraphQLMatcher().build_candidates(query, data, plan=plan)
    assert phi_bitmaps(got_gql) == want_gql
    if got_gql is not None:
        assert GraphQLMatcher().matching_order(
            query, data, got_gql, plan=plan
        ) == join_based_order_reference(query, got_gql)


@given(matching_instances(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_sampled_and_independent_queries(instance, with_plan):
    query, data = instance
    assert_parity(query, data, with_plan)


@given(connected_graphs(max_vertices=7), connected_graphs(min_vertices=3, max_vertices=9))
@settings(max_examples=120, deadline=None)
def test_arbitrary_connected_queries(query, data):
    """Hypothesis-built shapes: trees, dense cyclic queries, single
    vertices, queries larger than the data graph."""
    assert_parity(query, data, with_plan=True)


@pytest.mark.parametrize("with_plan", [True, False])
@pytest.mark.parametrize(
    "query",
    [
        Graph.from_edge_list([1], []),                    # single vertex
        path_graph([0, 1, 0, 1]),                         # tree
        star_graph(0, [1, 1, 2]),                         # tree, repeated pairs
        triangle(0),                                      # cyclic
        Graph.from_edge_list([0, 1, 0, 1], [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        path_graph([0, 9]),                               # label absent from data
    ],
    ids=["vertex", "path", "star", "triangle", "chorded-square", "absent-label"],
)
def test_named_shapes(query, with_plan):
    for seed in range(6):
        data = generate_graph(14, 3.0, 3, seed=seed)
        assert_parity(query, data, with_plan)


@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
@settings(max_examples=150, deadline=None)
def test_join_order_ties_break_by_vertex_id(seed, num_vertices):
    """Few distinct sizes force ties at every step; the order must still be
    the reference's (a changed tie-break is a 6x slowdown on dense data)."""
    query = generate_graph(num_vertices, 2.5, 2, seed=seed)
    sizes = [1 + (seed >> u) % 3 for u in range(num_vertices)]
    candidates = CandidateSets([range(s) for s in sizes])
    want = join_based_order_reference(query, candidates)
    assert join_based_order(query, candidates) == want
    assert join_based_order(query, candidates, compile_plan(query)) == want


def test_join_order_rejects_disconnected_queries():
    query = Graph.from_edge_list([0, 0, 0], [(0, 1)])
    candidates = CandidateSets([[0], [0], [0]])
    with pytest.raises(ValueError, match="connected"):
        join_based_order(query, candidates)


@pytest.mark.parametrize("matcher", [CFLMatcher(), CFQLMatcher(), GraphQLMatcher()])
def test_expired_deadline_raises_within_one_stride(matcher):
    """The clock is read at least once per 256 charged units; an already
    expired deadline must surface after at most that much filtering."""
    data = generate_graph(30, 3.0, 2, seed=1)
    query = generate_graph(6, 2.0, 2, seed=2)
    plan = compile_plan(query)
    deadline = Deadline(0.0)
    with pytest.raises(TimeLimitExceeded):
        for _ in range(256):
            matcher.build_candidates(query, data, deadline=deadline, plan=plan)


class TestFaultSitesStillFire:
    """The per-graph ``filter``/``verify`` sites moved behind the seed
    screen and take a per-query tag; rates and tag matching still work."""

    @pytest.fixture()
    def db(self) -> GraphDatabase:
        return generate_database(
            num_graphs=12, num_vertices=10, avg_degree=2.5, num_labels=1, seed=5
        )

    @pytest.mark.parametrize("site", ["filter", "verify"])
    @pytest.mark.parametrize("algorithm", ["CFQL", "vcGrapes"])
    def test_every_nth_trip_fires(self, db, site, algorithm):
        pipeline = create_pipeline(algorithm)
        pipeline.build_index(db)
        query = path_graph([0, 0])
        query.name = "q1"
        clean = pipeline.execute(query, db)
        assert clean.failure is None and len(clean.answers) == len(db)
        spec = faults.inject(site, "error", every=5)
        result = pipeline.execute(query, db)
        assert result.failure is not None and result.failure.kind == "error"
        assert spec._seen == 5

    def test_match_filters_on_the_query_tag(self, db):
        pipeline = create_pipeline("CFQL")
        query = path_graph([0, 0])
        query.name = "q7"
        faults.inject("filter", "error", match="q3")
        assert pipeline.execute(query, db).failure is None
        faults.inject("filter", "error", match="CFQL:q7")
        assert pipeline.execute(query, db).failure is not None
