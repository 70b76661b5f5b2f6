"""Matching-order strategies.

Two strategies from the paper (Section III-B):

* *join-based ordering* (GraphQL): start from the query vertex with the
  fewest candidates, then repeatedly append the neighbor of the selected
  set with the fewest candidates.
* *path-based ordering* (CFL): decompose the query's BFS tree into
  root-to-leaf paths, estimate each path's cost from the candidate set
  sizes, and emit paths in ascending cost — paths through the query's core
  structure (2-core) first, so that Cartesian products between loosely
  connected parts are postponed.

Both produce *connected* orders (a requirement of the shared enumerator)
for connected query graphs.
"""

from __future__ import annotations

from repro.graph.algorithms import BFSTree, two_core
from repro.graph.labeled_graph import Graph
from repro.matching.candidates import CandidateSets
from repro.matching.plan import QueryPlan, query_adjacency

__all__ = ["join_based_order", "path_based_order"]


def join_based_order(
    query: Graph, candidates: CandidateSets, plan: QueryPlan | None = None
) -> tuple[int, ...]:
    """GraphQL's greedy join order (minimum candidate count first).

    Ties go to the smaller vertex id.  ``(size, u)`` is compared as the
    single int ``size * n + u``, so picking the next vertex is a plain
    ``min`` over the frontier's keys.
    """
    adjacency = plan.adjacency if plan is not None else query_adjacency(query)
    n = len(adjacency)
    if n == 0:
        return ()
    keys = [size * n + u for u, size in enumerate(candidates.sizes())]
    reached = [False] * n
    order: list[int] = []
    frontier = [min(keys)]
    reached[frontier[0] % n] = True
    while frontier:
        key = min(frontier)
        frontier.remove(key)
        u = key % n
        order.append(u)
        for u2 in adjacency[u]:
            if not reached[u2]:
                reached[u2] = True
                frontier.append(keys[u2])
    if len(order) < n:
        raise ValueError("join_based_order requires a connected query graph")
    return tuple(order)


def path_based_order(
    query: Graph,
    tree: BFSTree,
    candidates: CandidateSets,
    core: frozenset[int] | None = None,
) -> tuple[int, ...]:
    """CFL's path-based, core-first order over a BFS tree of the query.

    Each root-to-leaf path is scored by the product of candidate-set sizes
    of the vertices it introduces (a coarse estimate of the number of path
    embeddings, which is what CFL computes exactly from its CPI).  Paths
    that stay in the 2-core come first; within each class, cheaper paths
    first.  Concatenating the paths and deduplicating preserves the
    parent-before-child property, so the order is connected.
    """
    if query.num_vertices == 0:
        return ()
    if core is None:
        core = two_core(query)
    sizes = candidates.sizes()

    paths: list[list[int]] = []
    stack: list[tuple[int, list[int]]] = [(tree.root, [tree.root])]
    while stack:
        vertex, path = stack.pop()
        children = tree.children[vertex]
        if not children:
            paths.append(path)
            continue
        for child in children:
            stack.append((child, path + [child]))

    def path_key(path: list[int]) -> tuple[int, float, tuple[int, ...]]:
        # The root belongs to every path; classify by the rest.
        interior = path[1:] if len(path) > 1 else path
        in_core = 0 if all(u in core for u in interior) and core else 1
        cost = 1.0
        for u in path:
            cost *= max(sizes[u], 1)
        return (in_core, cost, tuple(path))

    order: list[int] = []
    seen: set[int] = set()
    for path in sorted(paths, key=path_key):
        for u in path:
            if u not in seen:
                seen.add(u)
                order.append(u)
    return tuple(order)
