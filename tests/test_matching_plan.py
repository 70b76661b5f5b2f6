"""Compiled query plans, canonical keys, and the engine-level plan cache."""

from __future__ import annotations

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import create_engine
from repro.graph.generators import generate_database, generate_graph, random_walk_query
from repro.graph.labeled_graph import Graph
from repro.matching.cfql import CFQLMatcher
from repro.matching import plan as plan_module
from repro.matching.enumeration import enumerate_embeddings
from repro.matching.plan import (
    PlanCache,
    canonical_query_key,
    compile_order,
    compile_plan,
    exact_query_key,
)


def _relabel(graph: Graph, perm: list[int]) -> Graph:
    """The same graph with vertex ``v`` renamed to ``perm[v]``."""
    labels = [0] * graph.num_vertices
    for v in graph.vertices():
        labels[perm[v]] = graph.label(v)
    edges = [(perm[u], perm[v]) for u, v in graph.edges()]
    return Graph.from_edge_list(labels, edges)


def _random_query(seed: int, edges: int = 5) -> Graph:
    data = generate_graph(num_vertices=30, avg_degree=5.0, num_labels=3, seed=seed)
    query = random_walk_query(data, num_edges=edges, seed=seed + 1)
    assert query is not None
    return query


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(42)
    distinct = 0
    for seed in range(8):
        query = _random_query(seed)
        key, _ = canonical_query_key(query)
        perm = list(query.vertices())
        rng.shuffle(perm)
        relabeled = _relabel(query, perm)
        key2, _ = canonical_query_key(relabeled)
        assert key == key2
        # The exact key is byte-exact: equal iff the relabeled query has
        # the same label array and edge list under the identity numbering
        # (an automorphic permutation, or the identity itself).
        same_numbering = (
            relabeled.labels == query.labels
            and sorted(relabeled.edges()) == sorted(query.edges())
        )
        exact_equal = exact_query_key(query) == exact_query_key(relabeled)
        assert exact_equal == same_numbering
        distinct += not exact_equal
        identity = _relabel(query, list(query.vertices()))
        assert exact_query_key(identity) == exact_query_key(query)
    assert distinct > 0


def test_canonical_key_distinguishes_non_isomorphic():
    path = Graph.from_edge_list([0, 0, 0, 0], [(0, 1), (1, 2), (2, 3)])
    star = Graph.from_edge_list([0, 0, 0, 0], [(0, 1), (0, 2), (0, 3)])
    cycle = Graph.from_edge_list([0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (3, 0)])
    keys = {canonical_query_key(g)[0] for g in (path, star, cycle)}
    assert len(keys) == 3
    # Same structure, different labels: distinct too.
    labeled = Graph.from_edge_list([1, 0, 0, 0], [(0, 1), (1, 2), (2, 3)])
    assert canonical_query_key(labeled)[0] != canonical_query_key(path)[0]


def connected_labeled_graphs(max_vertices: int, num_labels: int = 2):
    """Every connected graph on 1..``max_vertices`` numbered vertices,
    under every labeling with ``num_labels`` labels."""
    for n in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            reached, frontier = {0}, [0]
            while frontier:
                u = frontier.pop()
                for a, b in edges:
                    for x, y in ((a, b), (b, a)):
                        if x == u and y not in reached:
                            reached.add(y)
                            frontier.append(y)
            if len(reached) < n:
                continue
            for labels in itertools.product(range(num_labels), repeat=n):
                yield Graph.from_edge_list(list(labels), edges)


def brute_canonical_form(graph: Graph) -> tuple:
    """The smallest (labels, edges) encoding over every vertex numbering."""
    n = graph.num_vertices
    labels, edges = graph.labels, list(graph.edges())
    best = None
    for perm in itertools.permutations(range(n)):
        lab = [0] * n
        for v in range(n):
            lab[perm[v]] = labels[v]
        cert = (tuple(lab), tuple(sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
        )))
        if best is None or cert < best:
            best = cert
    return best


def check_canonical_keys(max_vertices: int) -> tuple[int, int]:
    """Check ``canonical_query_key`` against :func:`brute_canonical_form`
    on every connected 2-label graph with at most ``max_vertices``
    vertices: ``c|`` keys are equal exactly when the canonical forms are,
    and an ``x|`` fallback key is equal only for the identical numbering.
    Returns (graphs checked, fallbacks).  Tier-1 runs it at 4 vertices;
    the 5-vertex sweep (23 942 graphs) is a manual check, see
    docs/PERFORMANCE.md."""
    forms: dict[str, set] = {}
    keys: dict[tuple, set] = {}
    numberings: dict[str, set] = {}
    count = 0
    for graph in connected_labeled_graphs(max_vertices):
        count += 1
        key, _ = canonical_query_key(graph)
        if key.startswith("c|"):
            form = brute_canonical_form(graph)
            forms.setdefault(key, set()).add(form)
            keys.setdefault(form, set()).add(key)
        else:
            assert key.startswith("x|"), key
            numberings.setdefault(key, set()).add(
                (graph.labels, tuple(sorted(graph.edges())))
            )
    assert all(len(v) == 1 for v in forms.values()), "c| key collision"
    assert all(len(v) == 1 for v in keys.values()), "c| key split"
    assert all(len(v) == 1 for v in numberings.values()), "x| key collision"
    return count, sum(len(v) for v in numberings.values())


def test_canonical_keys_are_exact_on_every_small_graph():
    """Bounded-exhaustive: every connected graph with at most 4 vertices
    and 2 labels.  Two of the 646 (uniformly labeled K4s) exceed the
    symmetry budget and take the sound ``x|`` fallback; more would mean
    the refinement lost discriminating power."""
    assert check_canonical_keys(4) == (646, 2)


def test_canonical_positions_are_an_isomorphism_witness():
    query = _random_query(7)
    _, positions = canonical_query_key(query)
    assert positions is not None
    assert sorted(positions) == list(query.vertices())


# ----------------------------------------------------------------------
# The canonicalisation work bound
# ----------------------------------------------------------------------

#: Vertex signatures the search may compute, per query vertex.
CAP = plan_module._CANON_SIGNATURES_PER_VERTEX

#: ``pool[73]`` of the benchmark's ``dense-verify`` workload —
#: ``generate_query_set(generate_database(40, 120, 4.0, 2, seed=7), 16,
#: True, size=19, seed=733).queries[16]`` — a hub with seven
#: interchangeable label-0 leaves: 7! = 5040 discrete colorings, 245 ms
#: under the old leaf budget, which it then exceeded anyway.
DENSE_POOL_73 = Graph.from_edge_list(
    [0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0],
    [(0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9),
     (0, 10), (0, 11), (0, 12), (0, 13), (0, 14), (1, 2), (2, 8), (2, 15)],
)


@pytest.fixture()
def signatures_computed(monkeypatch):
    """Total vertex signatures ``_refine`` computed, clock-free: what each
    call took out of the search's budget."""
    spent = [0]
    original = plan_module._refine

    def counting(n, adj, colors, budget):
        before = budget[0]
        try:
            return original(n, adj, colors, budget)
        finally:
            spent[0] += before - budget[0]

    monkeypatch.setattr(plan_module, "_refine", counting)
    return spent


def test_canonical_work_is_capped_on_the_dense_pool_outlier(signatures_computed):
    key, positions = canonical_query_key(DENSE_POOL_73)
    assert signatures_computed[0] <= CAP * DENSE_POOL_73.num_vertices
    assert key == "x|" + exact_query_key(DENSE_POOL_73)
    assert positions is None


@pytest.mark.parametrize("n", [6, 17])
def test_canonical_cap_scales_with_query_size(signatures_computed, n):
    """A symmetric query of any size stops at *its own* cap: a star whose
    ``n - 1`` leaves are interchangeable spends all it may and no more."""
    star = Graph.from_edge_list([0] * n, [(0, leaf) for leaf in range(1, n)])
    key, _ = canonical_query_key(star)
    assert key.startswith("x|")
    # Out of budget means fewer than one more round (n signatures) was left.
    assert CAP * n - n < signatures_computed[0] <= CAP * n


def test_small_queries_still_canonicalise_exactly(signatures_computed):
    for seed in range(8):
        query = _random_query(seed)
        key, positions = canonical_query_key(query)
        assert key.startswith("c|") and positions is not None
    assert signatures_computed[0] <= 8 * CAP * 6


_DENSE_DB = generate_database(
    num_graphs=6, num_vertices=24, avg_degree=4.0, num_labels=2, seed=7
)


def _neighbourhood_star(graph: Graph, hub: int) -> Graph:
    """``hub`` and its neighbours as a star: with two labels most of the
    leaves are interchangeable, the shape that exhausts the budget."""
    leaves = list(graph.neighbors(hub))
    return Graph.from_edge_list(
        [graph.label(hub)] + [graph.label(v) for v in leaves],
        [(0, i + 1) for i in range(len(leaves))],
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_edges=st.integers(3, 14),
    star=st.booleans(),
    data=st.data(),
)
def test_plan_cache_is_sound_whichever_key_it_used(seed, num_edges, star, data):
    """Isomorphic renumberings of dense two-label queries — random walks
    canonicalise (``c|``), high-degree stars fall back (``x|``): either
    way the plan handed back is for the graph submitted, and the engine
    answers exactly as it does without plans."""
    source = _DENSE_DB[seed % len(_DENSE_DB)]
    if star:
        query = _neighbourhood_star(source, seed % source.num_vertices)
    else:
        query = random_walk_query(source, num_edges=num_edges, seed=seed)
    if query is None:
        return
    perm = data.draw(st.permutations(list(query.vertices())))
    relabeled = _relabel(query, perm)
    cache = PlanCache()
    for graph in (query, relabeled):
        plan, _ = cache.get(graph)
        # The submitted numbering (the same object, unless the renumbering
        # happened to be an automorphism and hit the exact-key index).
        assert exact_query_key(plan.query) == exact_query_key(graph)
        assert plan.canonical_key[:2] in ("c|", "x|")
    planned = create_engine(_DENSE_DB, "CFQL")
    planless = create_engine(_DENSE_DB, "CFQL", plan_cache=0)
    expected = planless.query(query).answers
    assert planned.query(query).answers == expected
    assert planned.query(relabeled).answers == expected
    assert planless.query(relabeled).answers == expected


# ----------------------------------------------------------------------
# Compiled orders
# ----------------------------------------------------------------------


def test_compile_order_validates_like_legacy():
    path = Graph.from_edge_list([0, 0, 0, 0], [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="permutation"):
        compile_order(path, (0, 1, 2))
    with pytest.raises(ValueError, match="not connected"):
        compile_order(path, (0, 3, 1, 2))
    compiled = compile_order(path, (1, 0, 2, 3))
    assert compiled.order == (1, 0, 2, 3)
    assert compiled.backward[0] == ()
    # vertex 2 at depth 2 neighbors vertex 1 (depth 0): prefix, not extend.
    assert compiled.backward[2] == (0,)
    assert compiled.extends_previous[2] is False
    assert compiled.prefix_positions[2] == (0,)


def test_plan_memoizes_orders_and_structures():
    query = _random_query(11)
    plan = compile_plan(query)
    order = tuple(query.vertices())
    try:
        c1 = plan.compiled_order(order)
    except ValueError:
        # identity order may be disconnected for this query; use a BFS one
        tree = plan.bfs_tree(0)
        order = tuple(tree.order)
        c1 = plan.compiled_order(order)
    assert plan.compiled_order(order) is c1
    assert plan.two_core() is plan.two_core()
    assert plan.bfs_tree(0) is plan.bfs_tree(0)


def test_plan_is_picklable():
    query = _random_query(13)
    plan = compile_plan(query)
    plan.two_core()
    restored = pickle.loads(pickle.dumps(plan))
    assert restored.exact_key == plan.exact_key


# ----------------------------------------------------------------------
# PlanCache
# ----------------------------------------------------------------------


def test_plan_cache_exact_repeat_hits():
    cache = PlanCache()
    query = _random_query(17)
    _, outcome1 = cache.get(query)
    _, outcome2 = cache.get(query)
    assert (outcome1, outcome2) == ("miss", "hit")
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1


def test_plan_cache_isomorphic_relabeled_query_hits():
    cache = PlanCache()
    query = _random_query(19)
    plan, outcome = cache.get(query)
    assert outcome == "miss"
    perm = list(query.vertices())
    random.Random(3).shuffle(perm)
    relabeled = _relabel(query, perm)
    plan2, outcome2 = cache.get(relabeled)
    assert outcome2 == "hit"
    assert plan2.query is relabeled
    assert plan2.canonical_key == plan.canonical_key


def test_plan_cache_rebound_plan_produces_correct_orders():
    """A rebound plan's translated orders enumerate the same answers."""
    cache = PlanCache()
    query = _random_query(23)
    data = generate_graph(num_vertices=40, avg_degree=5.0, num_labels=3, seed=99)
    matcher = CFQLMatcher()

    plan, _ = cache.get(query)
    candidates = matcher.build_candidates(query, data, plan=plan)
    if candidates is not None and candidates.all_nonempty:
        order = matcher.matching_order(query, data, candidates, plan=plan)
        baseline = enumerate_embeddings(
            query, data, candidates, order, plan=plan
        ).num_embeddings
    else:
        baseline = 0

    perm = list(query.vertices())
    random.Random(5).shuffle(perm)
    relabeled = _relabel(query, perm)
    plan2, outcome = cache.get(relabeled)
    assert outcome == "hit"
    candidates2 = matcher.build_candidates(relabeled, data, plan=plan2)
    if candidates2 is not None and candidates2.all_nonempty:
        order2 = matcher.matching_order(relabeled, data, candidates2, plan=plan2)
        count2 = enumerate_embeddings(
            relabeled, data, candidates2, order2, plan=plan2
        ).num_embeddings
    else:
        count2 = 0
    assert count2 == baseline


def test_plan_cache_lru_eviction():
    cache = PlanCache(capacity=2)
    queries = [_random_query(s, edges=3 + s % 3) for s in (31, 37, 41)]
    for q in queries:
        cache.get(q)
    assert len(cache) <= 2
    # The oldest entry was evicted: a repeat of it misses again.
    _, outcome = cache.get(queries[0])
    assert outcome == "miss"


def test_symmetric_query_falls_back_soundly():
    # K5: 5! discrete colorings collapse to one certificate; whatever path
    # the search takes, lookups must stay consistent.
    k5 = Graph.from_edge_list(
        [0] * 5, [(u, v) for u in range(5) for v in range(u + 1, 5)]
    )
    cache = PlanCache()
    _, outcome1 = cache.get(k5)
    _, outcome2 = cache.get(k5)
    assert outcome1 == "miss"
    assert outcome2 == "hit"


# ----------------------------------------------------------------------
# Engine and service surfacing
# ----------------------------------------------------------------------


def test_engine_stamps_plan_cache_metadata():
    db = generate_database(num_graphs=4, num_vertices=25, avg_degree=4, num_labels=3, seed=51)
    query = random_walk_query(db[0], num_edges=4, seed=52)
    assert query is not None
    engine = create_engine(db, "CFQL")
    first = engine.query(query)
    second = engine.query(query)
    assert first.metadata["plan_cache"] == "miss"
    assert second.metadata["plan_cache"] == "hit"
    perm = list(query.vertices())
    random.Random(7).shuffle(perm)
    third = engine.query(_relabel(query, perm))
    assert third.metadata["plan_cache"] == "hit"
    assert engine.plans is not None
    assert engine.plans.stats()["hits"] == 2


def test_engine_plan_cache_disabled():
    db = generate_database(num_graphs=2, num_vertices=20, avg_degree=4, num_labels=2, seed=61)
    query = random_walk_query(db[0], num_edges=3, seed=62)
    assert query is not None
    engine = create_engine(db, "CFQL", plan_cache=0)
    assert engine.plans is None
    result = engine.query(query)
    assert result.metadata["plan_cache"] == "off"


def test_engine_results_identical_with_and_without_plan_cache():
    db = generate_database(num_graphs=6, num_vertices=30, avg_degree=5, num_labels=3, seed=71)
    queries = []
    for s in range(4):
        q = random_walk_query(db[s % len(db)], num_edges=4 + s, seed=80 + s)
        if q is not None:
            queries.append(q)
    assert queries
    with_cache = create_engine(db, "CFQL")
    without = create_engine(db, "CFQL", plan_cache=0)
    for q in queries:
        assert with_cache.query(q).answers == without.query(q).answers
