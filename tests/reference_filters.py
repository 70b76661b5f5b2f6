"""Reference implementations the compiled filter and join order are pinned to.

These are the pre-compilation bodies of ``CFLMatcher.build_candidates``,
``GraphQLMatcher.build_candidates`` and ``join_based_order``: they re-derive
every piece of query state per data graph (visit ranks, neighbor slices,
one LDF AND per query vertex) and take the slow, obvious path on purpose.
``src/`` no longer contains them; ``test_filter_order_parity.py`` asserts
the shipped code returns bit-identical Φ, roots and matching orders.
"""

from __future__ import annotations

from repro.graph.algorithms import bfs_tree, two_core
from repro.graph.labeled_graph import Graph
from repro.matching.bipartite import has_semi_perfect_matching_bits
from repro.matching.candidates import (
    CandidateSets,
    ldf_candidate_bits,
    nlf_candidate_bits,
)
from repro.matching.ordering import path_based_order
from repro.utils.timing import Deadline


def select_root_reference(query: Graph, seed_sizes: list[int]) -> int:
    """argmin over u of |C_ini(u)| / d(u) (CFL's root rule)."""
    return min(
        query.vertices(),
        key=lambda u: (seed_sizes[u] / max(query.degree(u), 1), u),
    )


def cfl_filter_reference(
    query: Graph, data: Graph, deadline: Deadline | None = None
) -> tuple[list[int] | None, int | None]:
    """``(Φ as int bitmaps or None, BFS root or None)`` — CFL's filter."""
    seeds = ldf_candidate_bits(query, data, deadline=deadline)
    if not all(seeds):
        return None, None
    root = select_root_reference(query, [b.bit_count() for b in seeds])
    tree = bfs_tree(query, root)
    visit_rank = {u: i for i, u in enumerate(tree.order)}

    phi: list[int] = [0] * query.num_vertices
    phi[root] = seeds[root]

    def adjacency_union(bits: int) -> int:
        mask = 0
        while bits:
            low = bits & -bits
            bits ^= low
            mask |= data.neighbor_bitmap(low.bit_length() - 1)
        return mask

    # Top-down generation with backward pruning.
    union_memo: dict[int, int] = {}
    for u in tree.order[1:]:
        if deadline is not None:
            deadline.check()
        parent = tree.parent[u]
        label_u = query.label(u)
        pool = 0
        bits = phi[parent]
        while bits:
            low = bits & -bits
            bits ^= low
            pool |= data.neighbor_bitmap(low.bit_length() - 1)
        pool &= data.label_bitmap(label_u) & data.degree_bitmap(query.degree(u))
        for u2 in query.neighbors(u):
            if not pool:
                break
            if visit_rank[u2] < visit_rank[u] and u2 != parent:
                mask = union_memo.get(u2)
                if mask is None:
                    mask = union_memo[u2] = adjacency_union(phi[u2])
                pool &= mask
        if not pool:
            return None, root
        phi[u] = pool

    # Bottom-up refinement.
    union_memo = {}
    for u in reversed(tree.order):
        if deadline is not None:
            deadline.check()
        kept = phi[u]
        for u2 in query.neighbors(u):
            if visit_rank[u2] > visit_rank[u]:
                mask = union_memo.get(u2)
                if mask is None:
                    mask = union_memo[u2] = adjacency_union(phi[u2])
                kept &= mask
                if not kept:
                    return None, root
        phi[u] = kept
    return phi, root


def cfl_order_reference(
    query: Graph, root: int, candidates: CandidateSets
) -> tuple[int, ...]:
    """CFL's path-based order over the filter's own BFS tree."""
    return path_based_order(
        query, bfs_tree(query, root), candidates, core=two_core(query)
    )


def graphql_filter_reference(
    query: Graph,
    data: Graph,
    refine_iterations: int = 2,
    deadline: Deadline | None = None,
) -> list[int] | None:
    """Φ as int bitmaps or None — GraphQL's NLF seeds + pseudo-iso sweeps."""
    phi = nlf_candidate_bits(query, data, deadline=deadline)
    if not all(phi):
        return None
    for _ in range(refine_iterations):
        changed = False
        for u in query.vertices():
            if deadline is not None:
                deadline.check()
            kept = phi[u]
            pool = kept
            while pool:
                low = pool & -pool
                pool ^= low
                data_nbrs = data.neighbor_bitmap(low.bit_length() - 1)
                rows = [phi[u2] & data_nbrs for u2 in query.neighbors(u)]
                if not all(rows) or not has_semi_perfect_matching_bits(rows):
                    kept ^= low
            if kept != phi[u]:
                changed = True
                if not kept:
                    return None
                phi[u] = kept
        if not changed:
            break
    return phi


def join_based_order_reference(
    query: Graph, candidates: CandidateSets
) -> tuple[int, ...]:
    """GraphQL's greedy join order (minimum candidate count first)."""
    n = query.num_vertices
    if n == 0:
        return ()
    sizes = candidates.sizes()
    start = min(query.vertices(), key=lambda u: (sizes[u], u))
    order = [start]
    selected = {start}
    frontier = {u for u in query.neighbors(start)}
    while len(order) < n:
        if not frontier:
            raise ValueError("join_based_order requires a connected query graph")
        nxt = min(frontier, key=lambda u: (sizes[u], u))
        order.append(nxt)
        selected.add(nxt)
        frontier.discard(nxt)
        frontier.update(u for u in query.neighbors(nxt) if u not in selected)
    return tuple(order)
