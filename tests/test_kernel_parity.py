"""Parity suite: the enumeration kernel vs the recursive reference.

The explicit-stack kernel (``enumerate_embeddings``) prunes with failing
sets, so it visits fewer search nodes than the retained recursive
reference — and must still agree with it on every observable: embedding
counts, collected embedding sets (order-insensitive), ``limit``
early-exit behavior, and deadline expiry mid-enumeration.  Cases are
seeded query/data pairs spanning the matchers' candidate sets and orders,
hypothesis-drawn pairs under *arbitrary* connected orders, every caller
that brings its own order or candidates, and hand-built graphs for the
two ways the pruning could go wrong.  The thrash guards at the end pin
the pruning itself with exact node counts, never a clock.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import create_engine
from repro.graph.generators import generate_database, generate_graph, random_walk_query
from repro.graph.labeled_graph import Graph
from repro.matching.candidates import CandidateSets, ldf_candidate_bits
from repro.matching.cfl import CFLMatcher
from repro.matching.cfql import CFQLMatcher
from repro.matching.enumeration import (
    _ENUM_STRIDE,
    enumerate_embeddings,
    enumerate_embeddings_recursive,
)
from repro.matching.graphql import GraphQLMatcher
from repro.matching.plan import compile_plan
from repro.matching.quicksi import QuickSIMatcher
from repro.matching.spath import SPathMatcher
from repro.matching.turboiso import TurboIsoMatcher
from repro.utils.errors import TimeLimitExceeded
from repro.utils.timing import _CHECK_STRIDE, Deadline
from repro.workloads.querysets import generate_query_set

from tests.strategies import matching_instances


def _embedding_set(embeddings):
    return {frozenset(e.items()) for e in embeddings}


def _ldf(query, data):
    return CandidateSets.from_bitmaps(ldf_candidate_bits(query, data))


def _connected_order(query, preference=None):
    """A connected order: repeatedly the first vertex of ``preference``
    (default: by id) adjacent to what is already placed."""
    preference = list(preference if preference is not None else query.vertices())
    order = [preference[0]]
    while len(order) < len(preference):
        placed = set(order)
        order.append(
            next(
                u
                for u in preference
                if u not in placed and placed & set(query.neighbors(u))
            )
        )
    return tuple(order)


def _reference(query, data, **kwargs):
    """Ground truth: the recursive kernel over the loosest candidates."""
    return enumerate_embeddings_recursive(
        query, data, _ldf(query, data), _connected_order(query), **kwargs
    )


def _random_cases(num: int, seed: int):
    """Seeded (query, data, candidates, order, plan) cases with non-empty
    candidate sets, drawn through real matcher filter/order phases."""
    rng = random.Random(seed)
    matchers = [CFQLMatcher(), GraphQLMatcher()]
    cases = []
    attempts = 0
    while len(cases) < num and attempts < num * 30:
        attempts += 1
        data = generate_graph(
            num_vertices=rng.randint(12, 40),
            avg_degree=rng.uniform(3.0, 6.0),
            num_labels=rng.randint(2, 4),
            seed=rng.randint(0, 10**6),
        )
        query = random_walk_query(
            data, num_edges=rng.randint(2, 7), seed=rng.randint(0, 10**6)
        )
        if query is None:
            continue
        matcher = rng.choice(matchers)
        candidates = matcher.build_candidates(query, data)
        if candidates is None or not candidates.all_nonempty:
            continue
        order = matcher.matching_order(query, data, candidates)
        cases.append((query, data, candidates, tuple(order), compile_plan(query)))
    assert len(cases) == num, "could not generate enough parity cases"
    return cases


CASES = _random_cases(25, seed=20260806)


@pytest.mark.parametrize("case_index", range(len(CASES)))
def test_counts_match_reference(case_index):
    query, data, candidates, order, plan = CASES[case_index]
    reference = enumerate_embeddings_recursive(query, data, candidates, order)
    iterative = enumerate_embeddings(
        query, data, candidates, order, plan=plan
    )
    assert iterative.num_embeddings == reference.num_embeddings
    assert iterative.completed == reference.completed
    assert iterative.found == reference.found
    assert iterative.recursion_calls <= reference.recursion_calls


@pytest.mark.parametrize("case_index", range(0, len(CASES), 3))
def test_collected_embeddings_match_reference(case_index):
    query, data, candidates, order, plan = CASES[case_index]
    reference = enumerate_embeddings_recursive(
        query, data, candidates, order, collect=True
    )
    iterative = enumerate_embeddings(
        query, data, candidates, order, collect=True, plan=plan
    )
    assert _embedding_set(iterative.embeddings) == _embedding_set(
        reference.embeddings
    )
    # Every collected embedding is a valid, injective, edge-preserving map.
    for emb in iterative.embeddings:
        assert len(set(emb.values())) == len(emb)
        for u, v in query.edges():
            assert data.has_edge(emb[u], emb[v])


@pytest.mark.parametrize("limit", [1, 2, 7])
@pytest.mark.parametrize("case_index", range(0, len(CASES), 5))
def test_limit_early_exit_matches_reference(case_index, limit):
    query, data, candidates, order, plan = CASES[case_index]
    reference = enumerate_embeddings_recursive(
        query, data, candidates, order, limit=limit, collect=True
    )
    iterative = enumerate_embeddings(
        query, data, candidates, order, limit=limit, collect=True, plan=plan
    )
    assert iterative.num_embeddings == reference.num_embeddings
    assert iterative.completed == reference.completed
    assert len(iterative.embeddings) == len(reference.embeddings)
    total = enumerate_embeddings_recursive(query, data, candidates, order)
    assert iterative.num_embeddings == min(limit, total.num_embeddings)


@settings(max_examples=150, deadline=None)
@given(
    instance=matching_instances(),
    preference=st.permutations(range(8)),
    limit=st.integers(1, 4),
)
def test_arbitrary_connected_orders_match_reference(instance, preference, limit):
    """Failing sets are sound for *any* connected order over *any* complete
    candidate sets: loose LDF candidates (many injectivity conflicts) under
    a drawn order must count, collect and stop exactly like the reference."""
    query, data = instance
    candidates = _ldf(query, data)
    order = _connected_order(
        query, [u for u in preference if u < query.num_vertices]
    )
    reference = enumerate_embeddings_recursive(
        query, data, candidates, order, collect=True
    )
    kernel = enumerate_embeddings(query, data, candidates, order, collect=True)
    assert kernel.num_embeddings == reference.num_embeddings
    assert _embedding_set(kernel.embeddings) == _embedding_set(reference.embeddings)
    assert kernel.recursion_calls <= reference.recursion_calls
    stopped = enumerate_embeddings(query, data, candidates, order, limit=limit)
    assert stopped.num_embeddings == min(limit, reference.num_embeddings)
    assert stopped.completed == (reference.num_embeddings < limit)


class _CountingDeadline(Deadline):
    """A deadline that records the work units the kernel reports."""

    __slots__ = ("units",)

    def __init__(self, seconds):
        super().__init__(seconds)
        self.units = 0

    def check_every(self, k):
        self.units += k
        super().check_every(k)


def test_deadline_expiry_raises_in_both_kernels():
    # A dense case with enough work that both kernels poll the clock past
    # their strides before finishing.
    data = generate_graph(num_vertices=24, avg_degree=12.0, num_labels=1, seed=3)
    query = random_walk_query(data, num_edges=5, seed=4)
    assert query is not None
    candidates = CandidateSets.from_bitmaps(ldf_candidate_bits(query, data))
    matcher = CFQLMatcher()
    order = matcher.matching_order(query, data, candidates)
    plan = compile_plan(query)
    with pytest.raises(TimeLimitExceeded):
        enumerate_embeddings_recursive(
            query, data, candidates, order, deadline=Deadline(0.0)
        )
    with pytest.raises(TimeLimitExceeded):
        enumerate_embeddings(
            query, data, candidates, order, deadline=Deadline(0.0), plan=plan
        )
    # ... and within one stride of work: an expired deadline is noticed
    # before the kernel has accounted a clock stride, one of its own
    # batches and one leaf popcount — of a run that is far longer.
    unhurried = _CountingDeadline(None)
    enumerate_embeddings(query, data, candidates, order, deadline=unhurried, plan=plan)
    expired = _CountingDeadline(0.0)
    with pytest.raises(TimeLimitExceeded):
        enumerate_embeddings(query, data, candidates, order, deadline=expired, plan=plan)
    assert expired.units <= _CHECK_STRIDE + _ENUM_STRIDE + data.num_vertices
    assert unhurried.units > 10 * expired.units


def test_single_vertex_and_empty_orders():
    db = generate_database(num_graphs=1, num_vertices=20, avg_degree=4, num_labels=2, seed=9)
    data = db[0]

    single = Graph.from_edge_list([data.label(0)], [])
    candidates = CandidateSets.from_bitmaps(ldf_candidate_bits(single, data))
    for limit in (None, 1, 3):
        ref = enumerate_embeddings_recursive(
            single, data, candidates, (0,), limit=limit, collect=True
        )
        it = enumerate_embeddings(
            single, data, candidates, (0,), limit=limit, collect=True
        )
        assert it.num_embeddings == ref.num_embeddings
        assert it.completed == ref.completed
        assert _embedding_set(it.embeddings) == _embedding_set(ref.embeddings)

    empty = Graph.from_edge_list([], [])
    ref = enumerate_embeddings_recursive(
        empty, data, CandidateSets.from_bitmaps([]), (), collect=True
    )
    it = enumerate_embeddings(
        empty, data, CandidateSets.from_bitmaps([]), (), collect=True
    )
    assert it.num_embeddings == ref.num_embeddings == 1
    assert it.embeddings == ref.embeddings == [{}]


def test_iterative_validates_order_like_reference():
    data = generate_graph(num_vertices=10, avg_degree=3.0, num_labels=2, seed=7)

    # A disconnected order must be rejected identically by both kernels.
    path = Graph.from_edge_list([0, 0, 0, 0], [(0, 1), (1, 2), (2, 3)])
    bad_candidates = CandidateSets.from_bitmaps(ldf_candidate_bits(path, data))
    with pytest.raises(ValueError, match="permutation"):
        enumerate_embeddings(path, data, bad_candidates, (0, 0, 1))
    with pytest.raises(ValueError, match="not connected"):
        enumerate_embeddings(path, data, bad_candidates, (0, 3, 1, 2))
    with pytest.raises(ValueError, match="not connected"):
        enumerate_embeddings_recursive(path, data, bad_candidates, (0, 3, 1, 2))


# ----------------------------------------------------------------------
# Every caller that brings its own order or candidates
# ----------------------------------------------------------------------

# Two labels and dense: candidates overlap, so injectivity conflicts (and
# failing-set cuts) are the common case rather than the exception.
DENSE_DB = generate_database(
    num_graphs=6, num_vertices=28, avg_degree=4.0, num_labels=2, seed=11
)
DENSE_QUERIES = [
    q
    for num_edges, dense in ((5, False), (8, False), (6, True))
    for q in generate_query_set(DENSE_DB, num_edges, dense, size=3, seed=num_edges).queries
]

MATCHERS = [
    CFQLMatcher,  # GraphQL's join order over CFL's candidates
    GraphQLMatcher,
    CFLMatcher,  # path-based order
    TurboIsoMatcher,  # one kernel call per candidate region
    QuickSIMatcher,  # QI-sequence order over LDF candidates
    SPathMatcher,  # signature candidates, selectivity order
]


@pytest.mark.parametrize("matcher_cls", MATCHERS, ids=lambda cls: cls.name)
def test_every_matcher_agrees_with_the_reference(matcher_cls):
    matcher = matcher_cls()
    pruned = 0
    for query in DENSE_QUERIES:
        plan = compile_plan(query)
        for data in DENSE_DB.graphs():
            reference = _reference(query, data, collect=True)
            outcome = matcher.run(query, data, collect=True, plan=plan)
            assert outcome.num_embeddings == reference.num_embeddings
            assert _embedding_set(outcome.embeddings) == _embedding_set(
                reference.embeddings
            )
            assert matcher.exists(query, data, plan=plan) == reference.found
            stopped = matcher.run(query, data, limit=2, plan=plan)
            assert stopped.num_embeddings == min(2, reference.num_embeddings)
            pruned += outcome.pruned
    assert pruned > 0, "the workload never exercised a failing-set cut"


@settings(max_examples=40, deadline=None)
@given(instance=matching_instances())
def test_every_matcher_agrees_on_drawn_instances(instance):
    query, data = instance
    reference = _reference(query, data, collect=True)
    for matcher_cls in MATCHERS:
        found = matcher_cls().find_all(query, data)
        assert _embedding_set(found) == _embedding_set(reference.embeddings)


@pytest.mark.parametrize("algorithm", ["CFQL", "GraphQL", "CFL"])
def test_engine_answers_and_embeddings_end_to_end(algorithm):
    engine = create_engine(DENSE_DB, algorithm)
    for query in DENSE_QUERIES:
        references = {
            gid: _reference(query, data, collect=True) for gid, data in DENSE_DB.items()
        }
        assert engine.query(query).answers == {
            gid for gid, reference in references.items() if reference.found
        }
        for gid, reference in references.items():
            assert _embedding_set(engine.find_embeddings(query, gid)) == _embedding_set(
                reference.embeddings
            )
            assert len(engine.find_embeddings(query, gid, limit=1)) == int(
                reference.found
            )


# ----------------------------------------------------------------------
# The two ways the pruning could be unsound, as hand-built graphs
# ----------------------------------------------------------------------

K, L, M, N = 0, 1, 2, 3


def test_child_conflicting_with_its_parents_own_candidate():
    """Trap (a).  Order a, b, c, d where c hangs off a, *not* off its
    parent position b.  With b -> y, c's only local candidate is y itself:
    the failure is a conflict with the parent's current candidate, so its
    failing set must name b.  Blaming only the positions below the parent
    would cut b's sibling z — the one choice that leaves y free for c."""
    query = Graph.from_edge_list([K, L, L, M], [(0, 1), (0, 2), (2, 3)])
    #        x(K)
    #       /    \
    #   y(L)      z(L)       Φ(b) = {y, z}; Φ(c) = {y} (c needs degree 2)
    #     |
    #   w(M)
    data = Graph.from_edge_list([K, L, L, M], [(0, 1), (0, 2), (1, 3)])
    candidates = _ldf(query, data)
    assert candidates[1] == (1, 2) and candidates[2] == (1,)
    order = (0, 1, 2, 3)
    assert not compile_plan(query).compiled_order(order).extends_previous[2]
    result = enumerate_embeddings(query, data, candidates, order, collect=True)
    assert result.embeddings == [{0: 0, 1: 2, 2: 1, 3: 3}]
    assert enumerate_embeddings(query, data, candidates, order, limit=1).found


def test_subtree_with_embeddings_and_a_failure_counts_exactly():
    """Trap (b).  Under b -> y1 the frame of c finds an embedding (c -> z1)
    *and* a failure (c -> z2 has no d) whose failing set {a, c, d} does
    not name b.  The frame must report "found", not that set: returned as
    a failure it would cut b -> y2 and its embedding with it."""
    query = Graph.from_edge_list([K, L, M, N], [(0, 1), (0, 2), (2, 3)])
    #   y1(L)   y2(L)---.
    #       \   /       |
    #        x(K)       |
    #       /   \       |
    #   z1(M)   z2(M)---'    z1 has the N-neighbor d needs; z2 has none
    #     |
    #   w(N)
    data = Graph.from_edge_list(
        [K, L, L, M, M, N], [(0, 1), (0, 2), (0, 3), (0, 4), (3, 5), (4, 2)]
    )
    candidates = _ldf(query, data)
    assert candidates[1] == (1, 2) and candidates[2] == (3, 4)
    order = (0, 1, 2, 3)
    counted = enumerate_embeddings(query, data, candidates, order)
    assert counted.num_embeddings == 2
    collected = enumerate_embeddings(query, data, candidates, order, collect=True)
    assert _embedding_set(collected.embeddings) == _embedding_set(
        [{0: 0, 1: 1, 2: 3, 3: 5}, {0: 0, 1: 2, 2: 3, 3: 5}]
    )
    assert enumerate_embeddings(query, data, candidates, order, limit=2).num_embeddings == 2


# ----------------------------------------------------------------------
# Thrash guards: exact node budgets, no clock
# ----------------------------------------------------------------------

#: Search nodes either guard may visit.  The reference needs thousands
#: (hundreds of thousands on the recorded pair); the kernel, dozens.
NODE_BUDGET = 2_000


def test_star_into_too_few_neighbours_fails_once_not_per_sibling():
    """A centre with k equal leaves cannot fit a data vertex with k-1 such
    neighbours.  Matched *after* an unrelated branch with hundreds of
    embeddings, plain backtracking rediscovers that under every one of
    them; the failing set {centre, leaves} names none of the branch, so
    the first failure cuts the whole branch."""
    k, clique = 4, 8
    # query: centre 0; path 1-2-3 (label 1) off the centre; leaves 4..7
    query = Graph.from_edge_list(
        [0, 1, 1, 1] + [2] * k,
        [(0, 1), (1, 2), (2, 3)] + [(0, 4 + i) for i in range(k)],
    )
    # data: centre 0; a clique of label-1 vertices, all adjacent to the
    # centre (8*7*6 paths); only k-1 label-2 leaves
    members = range(1, 1 + clique)
    leaves = range(1 + clique, clique + k)
    data = Graph.from_edge_list(
        [0] + [1] * clique + [2] * (k - 1),
        [(0, v) for v in (*members, *leaves)]
        + [(u, v) for u in members for v in members if u < v],
    )
    candidates = _ldf(query, data)
    order = tuple(range(query.num_vertices))
    reference = enumerate_embeddings_recursive(query, data, candidates, order)
    assert not reference.found and reference.recursion_calls > NODE_BUDGET
    result = enumerate_embeddings(query, data, candidates, order)
    assert not result.found and result.completed
    assert result.recursion_calls <= 64
    assert result.pruned > 0


def test_recorded_dense_pair_stays_under_its_node_budget():
    """``dense-verify`` pool query 25 against graph 22: a 21-vertex tree
    that took 577 880 search nodes before the first embedding, every
    failure an injectivity conflict rediscovered under sibling after
    sibling.  CFL's candidates and CFQL's order, as the pipeline runs it."""
    db = generate_database(40, 120, 4.0, 2, seed=7)
    query = generate_query_set(db, 20, False, size=19, seed=740).queries[6]
    assert (query.num_vertices, query.num_edges) == (21, 20)
    data = db[22]
    matcher = CFQLMatcher()
    plan = compile_plan(query)
    candidates = matcher.build_candidates(query, data, plan=plan)
    order = matcher.matching_order(query, data, candidates, plan=plan)
    result = enumerate_embeddings(query, data, candidates, order, limit=1, plan=plan)
    assert result.found
    assert result.recursion_calls <= NODE_BUDGET
    assert result.pruned > 0
