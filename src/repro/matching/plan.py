"""Compiled query plans: compile a query once, reuse it everywhere.

The enumeration path used to re-derive per-query state for *every data
graph* a query was verified against: the matching order was re-validated,
its backward-neighbor lists rebuilt, the query's 2-core and BFS tree
recomputed, and the NLF constraint dictionaries re-iterated.  None of that
depends on the data graph.  A :class:`QueryPlan` hoists all of it to
query-compile time:

* per-vertex label/degree arrays and flattened NLF constraint tuples (the
  filter-phase constants);
* the distinct ``(label, degree)`` seed pairs (what the database-level
  seed screen and the LDF seeds are evaluated on — once per distinct pair,
  not once per query vertex) and the adjacency as tuples;
* a memo of :class:`CompiledOrder` objects — each a *validated* connected
  matching order with its backward-neighbor structure expressed as flat
  position arrays the iterative enumeration kernel consumes directly;
* the query's 2-core and, per CFL root, a :class:`FilterProgram`: the BFS
  tree plus CFL's top-down and bottom-up passes flattened into one step
  list the filter just loops over.

On top sits :class:`PlanCache`, an engine/service-level LRU keyed by a
*canonical* form of the query, so a repeat of an isomorphic query — same
structure, relabeled vertex ids — hits the cache, not just a byte-identical
repeat.  Canonicalisation uses the standard individualisation-refinement
scheme (WL color refinement plus backtracking over minimal target cells),
which is exact, under a work budget proportional to the query's size — a
lookup may not cost more than the compile it saves; a symmetric query that
would exceed it falls back to an exact-form key (sound — such queries simply
only hit on identical numbering).  Cache hits on a relabeled query :meth:`rebind`
the stored plan through the canonical vertex correspondence, which is an
isomorphism whenever the certificates match.

Plans are plain picklable data (no locks, no graph-database references
beyond the query itself), so they serialize with the query when a pool
executor dispatches work — workers never recompile.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from typing import NamedTuple

from repro.graph.algorithms import BFSTree, bfs_tree, two_core
from repro.graph.labeled_graph import Graph

__all__ = [
    "CompiledOrder",
    "FilterProgram",
    "PlanCache",
    "QueryPlan",
    "canonical_query_key",
    "compile_order",
    "compile_plan",
    "exact_query_key",
    "query_adjacency",
]

#: Most compiled orders memoized per plan.  Orders vary with candidate-set
#: sizes, so a query touching many data graphs can produce many distinct
#: orders; the memo is a cache, not a registry, and overflow just compiles
#: without remembering.
_MAX_ORDER_MEMO = 64

#: Most filter programs memoized per plan (one per distinct CFL root).
_MAX_PROGRAM_MEMO = 16

#: Vertex signatures the canonical-labeling search may compute per query
#: vertex (so 64 refinement rounds, whatever the query's size) before it
#: gives up and falls back to the exact-form key.  The search exists to save
#: one ``compile_plan``; work, not leaves, is what is capped, because a leaf
#: of a 17-vertex query costs ten times a leaf of a 6-vertex one.
_CANON_SIGNATURES_PER_VERTEX = 64


class CompiledOrder:
    """One validated connected matching order in kernel-ready form.

    Everything is indexed by *depth* (position in the order), the way the
    iterative kernel walks it:

    ``backward[d]``
        positions (< d) of the query neighbors of ``order[d]`` that appear
        earlier in the order;
    ``prefix_positions[d]``
        the subset of ``backward[d]`` strictly below ``d - 1`` — the part
        of the Φ(u) ∩ N(...) intersection that is *shared by sibling
        subtrees* at depth ``d - 1`` and therefore memoizable;
    ``extends_previous[d]``
        whether ``d - 1`` itself is a backward position (the one
        intersection term that changes per sibling);
    ``ancestors[d]``
        bitmask over positions: ``d`` plus the ancestors of every backward
        position — the positions whose images can decide whether
        ``order[d]`` has a candidate (the kernel's failing sets are unions
        of these).
    """

    __slots__ = (
        "order",
        "backward",
        "prefix_positions",
        "extends_previous",
        "ancestors",
    )

    def __init__(
        self,
        order: tuple[int, ...],
        backward: tuple[tuple[int, ...], ...],
        prefix_positions: tuple[tuple[int, ...], ...],
        extends_previous: tuple[bool, ...],
        ancestors: tuple[int, ...],
    ) -> None:
        self.order = order
        self.backward = backward
        self.prefix_positions = prefix_positions
        self.extends_previous = extends_previous
        self.ancestors = ancestors

    def translated(self, mapping: dict[int, int]) -> "CompiledOrder":
        """The same order under a vertex relabeling (an isomorphism).

        Backward structure is positional, so only the order tuple changes.
        """
        return CompiledOrder(
            tuple(mapping[u] for u in self.order),
            self.backward,
            self.prefix_positions,
            self.extends_previous,
            self.ancestors,
        )


def compile_order(query: Graph, order: tuple[int, ...]) -> CompiledOrder:
    """Validate ``order`` (permutation + connectivity) and compile it.

    Raises :class:`ValueError` exactly like the legacy ``_validate_order``
    — this *is* that validation, run once per distinct order instead of
    once per data graph.
    """
    if sorted(order) != list(query.vertices()):
        raise ValueError(f"order {order!r} is not a permutation of the query vertices")
    position = {u: i for i, u in enumerate(order)}
    backward: list[tuple[int, ...]] = []
    prefix: list[tuple[int, ...]] = []
    extends: list[bool] = []
    ancestors: list[int] = []
    for i, u in enumerate(order):
        earlier = sorted(position[u2] for u2 in query.neighbors(u) if position[u2] < i)
        if i > 0 and not earlier:
            raise ValueError(
                f"matching order is not connected: {u} has no earlier neighbor"
            )
        backward.append(tuple(earlier))
        extends.append(bool(earlier) and earlier[-1] == i - 1)
        prefix.append(tuple(earlier[:-1]) if extends[-1] else tuple(earlier))
        closure = 1 << i
        for p in earlier:
            closure |= ancestors[p]
        ancestors.append(closure)
    return CompiledOrder(
        tuple(order), tuple(backward), tuple(prefix), tuple(extends), tuple(ancestors)
    )


def query_adjacency(query: Graph) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbor ids of every vertex, as tuples of tuples."""
    return tuple(tuple(query.neighbors(u)) for u in query.vertices())


class FilterProgram(NamedTuple):
    """CFL's filter for one BFS root, compiled to data-graph-free steps.

    ``steps`` lists ``(u, neighbors)`` pairs: first the top-down pass (each
    non-root ``u`` in BFS order with its *earlier*-visited neighbors — the
    tree parent and the backward non-tree ones), then the bottom-up pass
    (reverse BFS order, each ``u`` with its *later*-visited neighbors).
    Both pruning rules have the same shape — keep ``v`` in Φ(u) only if it
    is adjacent to a candidate of every listed neighbor — so the filter is
    one loop over ``steps``.  Vertices with no listed neighbor are left out.
    """

    tree: BFSTree
    steps: tuple[tuple[int, tuple[int, ...]], ...]


class QueryPlan:
    """Everything about one query that is independent of the data graph.

    Construct through :func:`compile_plan` (or :meth:`PlanCache.get`).
    The per-order / per-root memos fill in lazily as the query is verified
    against data graphs and are bounded (see ``_MAX_ORDER_MEMO``).
    """

    __slots__ = (
        "query",
        "labels",
        "degrees",
        "nlf_labels",
        "nlf_counts",
        "nlf_offsets",
        "adjacency",
        "seed_pairs",
        "seed_of",
        "seed_first",
        "exact_key",
        "canonical_key",
        "canonical_positions",
        "_orders",
        "_programs",
        "_core",
        "_nlf_items",
    )

    def __init__(
        self,
        query: Graph,
        exact_key: str | None = None,
        canonical_key: str | None = None,
        canonical_positions: tuple[int, ...] | None = None,
    ) -> None:
        self.query = query
        # Filter-phase constants as flat typed arrays: they pickle as
        # raw machine words — a compact wire form for the executor-pool
        # boundary, unlike tuples of per-vertex tuples.
        self.labels = array("q", query.labels)
        self.degrees = array("q", (query.degree(u) for u in query.vertices()))
        nlf_labels = array("q")
        nlf_counts = array("q")
        nlf_offsets = array("q", [0])
        for u in query.vertices():
            for lab, cnt in sorted(query.neighbor_label_counts(u).items()):
                nlf_labels.append(lab)
                nlf_counts.append(cnt)
            nlf_offsets.append(len(nlf_labels))
        #: CSR-style NLF constraints: vertex ``u``'s (label, min count)
        #: pairs live at ``nlf_labels/nlf_counts[nlf_offsets[u] :
        #: nlf_offsets[u + 1]]``.
        self.nlf_labels = nlf_labels
        self.nlf_counts = nlf_counts
        self.nlf_offsets = nlf_offsets
        self._nlf_items: tuple[tuple[tuple[int, int], ...], ...] | None = None
        #: Sorted neighbor ids per vertex, as tuples (no array slicing on
        #: the per-data-graph paths).
        self.adjacency = query_adjacency(query)
        #: The distinct ``(label, degree)`` pairs in first-appearance
        #: order; ``seed_of[u]`` indexes vertex ``u``'s pair and
        #: ``seed_first[i]`` is the smallest vertex carrying pair ``i``.
        first_vertex: dict[tuple[int, int], int] = {}
        for u, pair in enumerate(zip(self.labels, self.degrees)):
            first_vertex.setdefault(pair, u)
        pair_index = {pair: i for i, pair in enumerate(first_vertex)}
        self.seed_pairs = tuple(first_vertex)
        self.seed_first = tuple(first_vertex.values())
        self.seed_of = tuple(
            pair_index[pair] for pair in zip(self.labels, self.degrees)
        )
        self.exact_key = exact_key if exact_key is not None else exact_query_key(query)
        #: Isomorphism-invariant cache key (None until a PlanCache computes
        #: it; plain compile_plan callers never pay for canonicalisation).
        self.canonical_key = canonical_key
        #: vertex -> canonical position, for rebinding isomorphic repeats.
        self.canonical_positions = canonical_positions
        self._orders: dict[tuple[int, ...], CompiledOrder] = {}
        self._programs: dict[int, FilterProgram] = {}
        self._core: frozenset[int] | None = None

    @property
    def nlf_items(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex ``((label, min count), ...)`` view of the flat NLF
        arrays (compat shape, rebuilt lazily and memoized)."""
        if self._nlf_items is None:
            off = self.nlf_offsets
            self._nlf_items = tuple(
                tuple(
                    (self.nlf_labels[k], self.nlf_counts[k])
                    for k in range(off[u], off[u + 1])
                )
                for u in range(len(self.labels))
            )
        return self._nlf_items

    # ------------------------------------------------------------------
    # Memoized derivations
    # ------------------------------------------------------------------

    def compiled_order(self, order: tuple[int, ...]) -> CompiledOrder:
        """The validated, kernel-ready form of ``order`` (memoized)."""
        compiled = self._orders.get(order)
        if compiled is None:
            compiled = compile_order(self.query, order)
            if len(self._orders) < _MAX_ORDER_MEMO:
                self._orders[order] = compiled
        return compiled

    def two_core(self) -> frozenset[int]:
        """The query's 2-core (computed once, not once per data graph)."""
        if self._core is None:
            self._core = two_core(self.query)
        return self._core

    def filter_program(self, root: int) -> FilterProgram:
        """CFL's compiled filter passes from ``root`` (memoized per root)."""
        program = self._programs.get(root)
        if program is None:
            tree = bfs_tree(self.query, root)
            rank = [0] * len(tree.order)
            for i, u in enumerate(tree.order):
                rank[u] = i
            adjacency = self.adjacency
            top_down = [
                (u, tuple(u2 for u2 in adjacency[u] if rank[u2] < rank[u]))
                for u in tree.order[1:]
            ]
            bottom_up = [
                (u, tuple(u2 for u2 in adjacency[u] if rank[u2] > rank[u]))
                for u in reversed(tree.order)
            ]
            program = FilterProgram(
                tree, (*top_down, *(step for step in bottom_up if step[1]))
            )
            if len(self._programs) < _MAX_PROGRAM_MEMO:
                self._programs[root] = program
        return program

    def bfs_tree(self, root: int) -> BFSTree:
        """The query's BFS tree from ``root`` (memoized per root)."""
        return self.filter_program(root).tree

    # ------------------------------------------------------------------
    # Isomorphic rebinding
    # ------------------------------------------------------------------

    def rebind(
        self, query: Graph, positions: tuple[int, ...], exact_key: str
    ) -> "QueryPlan":
        """This plan translated onto an isomorphic ``query``.

        ``positions`` is ``query``'s canonical labeling; matching
        certificates guarantee that mapping vertices through canonical
        positions is an isomorphism, so every memoized compiled order
        stays valid after translation.
        """
        if self.canonical_positions is None:
            raise ValueError("cannot rebind a plan without a canonical labeling")
        inverse = [0] * len(positions)
        for v, pos in enumerate(positions):
            inverse[pos] = v
        mapping = {
            u: inverse[self.canonical_positions[u]] for u in self.query.vertices()
        }
        plan = QueryPlan(
            query,
            exact_key=exact_key,
            canonical_key=self.canonical_key,
            canonical_positions=positions,
        )
        for order, compiled in self._orders.items():
            plan._orders[tuple(mapping[u] for u in order)] = compiled.translated(mapping)
        if self._core is not None:
            plan._core = frozenset(mapping[u] for u in self._core)
        return plan

    def __repr__(self) -> str:
        return (
            f"<QueryPlan n={self.query.num_vertices} "
            f"orders={len(self._orders)} key={self.exact_key[:32]!r}>"
        )


def compile_plan(query: Graph, **keys) -> QueryPlan:
    """Compile a query into a :class:`QueryPlan` (no canonicalisation)."""
    return QueryPlan(query, **keys)


# ----------------------------------------------------------------------
# Query keys
# ----------------------------------------------------------------------


def exact_query_key(graph: Graph) -> str:
    """Byte-exact key: same labeled adjacency under the same numbering."""
    edges = ",".join(
        f"{u}-{v}" for u, v in sorted(min((u, v), (v, u)) for u, v in graph.edges())
    )
    return ":".join(str(l) for l in graph.labels) + "|" + edges


class _CanonBudgetExceeded(Exception):
    pass


def _refine(
    n: int, adj: list[list[int]], colors: list[int], budget: list[int]
) -> list[int]:
    """WL color refinement to a stable partition, colors renumbered densely
    in signature order (so equal partitions yield equal colorings).

    ``budget[0]`` is the number of vertex signatures the whole search may
    still compute; each round spends ``n`` of them up front.
    """
    while True:
        if budget[0] < n:
            raise _CanonBudgetExceeded
        budget[0] -= n
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        refined = [ranking[s] for s in sigs]
        if refined == colors:
            return colors
        colors = refined


def _canonical_form(graph: Graph) -> tuple[tuple, tuple[int, ...]] | None:
    """Exact canonical certificate + labeling, or None when over budget.

    Individualisation-refinement: refine to a stable partition; while some
    color class is non-singleton, branch on each vertex of the first
    smallest one (a partition-determined choice, so the minimum over all
    leaves is isomorphism-invariant); a discrete coloring *is* a vertex ->
    position assignment, whose certificate is the labels-then-edges
    encoding under that numbering.  The lexicographically smallest
    certificate over all leaves is the canonical form.
    """
    n = graph.num_vertices
    if n == 0:
        return ((), ()), ()
    adj = [list(graph.neighbors(v)) for v in range(n)]
    labels = list(graph.labels)
    edge_list = list(graph.edges())
    seed = {s: i for i, s in enumerate(sorted({(labels[v], len(adj[v])) for v in range(n)}))}
    budget = [_CANON_SIGNATURES_PER_VERTEX * n]

    best: list[tuple | None] = [None]
    best_positions: list[tuple[int, ...] | None] = [None]

    def certificate(positions: list[int]) -> tuple:
        lab = [0] * n
        for v in range(n):
            lab[positions[v]] = labels[v]
        edges = sorted(
            (positions[u], positions[v])
            if positions[u] < positions[v]
            else (positions[v], positions[u])
            for u, v in edge_list
        )
        return (tuple(lab), tuple(edges))

    def search(colors: list[int]) -> None:
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        if len(counts) == n:
            cert = certificate(colors)
            if best[0] is None or cert < best[0]:
                best[0] = cert
                best_positions[0] = tuple(colors)
            return
        target = min(
            (c for c, k in counts.items() if k > 1),
            key=lambda c: (counts[c], c),
        )
        for v in range(n):
            if colors[v] != target:
                continue
            child = list(colors)
            # Individualize: v gets a strictly smaller color than its old
            # class, then the refinement renormalizes densely.
            child[v] = -1
            search(_refine(n, adj, child, budget))

    try:
        search(
            _refine(
                n, adj, [seed[(labels[v], len(adj[v]))] for v in range(n)], budget
            )
        )
    except _CanonBudgetExceeded:
        return None
    assert best[0] is not None and best_positions[0] is not None
    return best[0], best_positions[0]


def canonical_query_key(graph: Graph) -> tuple[str, tuple[int, ...] | None]:
    """Isomorphism-invariant key + canonical labeling for ``graph``.

    Returns ``("c|...", positions)`` from the exact canonical form, or —
    when the symmetry search exceeds its budget — a sound fallback
    ``("x|" + exact key, None)`` that only matches identical numberings.
    """
    form = _canonical_form(graph)
    if form is None:
        return "x|" + exact_query_key(graph), None
    (lab, edges), positions = form
    key = (
        "c|"
        + ":".join(str(l) for l in lab)
        + "|"
        + ",".join(f"{u}-{v}" for u, v in edges)
    )
    return key, positions


# ----------------------------------------------------------------------
# The engine/service-level plan cache
# ----------------------------------------------------------------------

#: Most exact-numbering variants retained per canonical entry.
_MAX_VARIANTS = 4


class PlanCache:
    """LRU of :class:`QueryPlan` s keyed by canonical query form.

    Lookup is two-level: a cheap exact-key index answers the common case
    (a byte-identical repeat, e.g. the same wire query re-submitted to the
    service) without canonicalising at all; otherwise the canonical key is
    computed and an isomorphic entry, if present, is rebound onto the new
    numbering — still a *hit*.  ``hits``/``misses`` feed
    ``QueryResult.metadata`` and the service ``stats`` verb.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        #: canonical key -> {exact key -> plan}, LRU over canonical keys.
        self._canon: OrderedDict[str, dict[str, QueryPlan]] = OrderedDict()
        #: exact key -> canonical key (the fast path).
        self._exact: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._canon)

    def get(self, query: Graph) -> tuple[QueryPlan, str]:
        """The plan for ``query``; returns ``(plan, "hit" | "miss")``."""
        exact = exact_query_key(query)
        with self._lock:
            canon_key = self._exact.get(exact)
            if canon_key is not None:
                self._canon.move_to_end(canon_key)
                self.hits += 1
                return self._canon[canon_key][exact], "hit"
        # Canonicalisation is pure; keep it outside the lock.
        canon_key, positions = canonical_query_key(query)
        with self._lock:
            variants = self._canon.get(canon_key)
            if variants is not None:
                self._canon.move_to_end(canon_key)
                plan = variants.get(exact)
                if plan is None:
                    base = next(iter(variants.values()))
                    if positions is not None and base.canonical_positions is not None:
                        plan = base.rebind(query, positions, exact)
                    else:  # fallback-keyed entry: exact keys always match
                        plan = QueryPlan(
                            query,
                            exact_key=exact,
                            canonical_key=canon_key,
                            canonical_positions=positions,
                        )
                    if len(variants) < _MAX_VARIANTS:
                        variants[exact] = plan
                        self._exact[exact] = canon_key
                self.hits += 1
                return plan, "hit"
            self.misses += 1
            plan = QueryPlan(
                query,
                exact_key=exact,
                canonical_key=canon_key,
                canonical_positions=positions,
            )
            self._canon[canon_key] = {exact: plan}
            self._exact[exact] = canon_key
            while len(self._canon) > self.capacity:
                _, evicted = self._canon.popitem(last=False)
                for exact_key in evicted:
                    self._exact.pop(exact_key, None)
            return plan, "miss"

    def clear(self) -> None:
        with self._lock:
            self._canon.clear()
            self._exact.clear()

    def stats(self) -> dict:
        """JSON-ready counters for result metadata and the service stats."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "entries": len(self._canon),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }

    def __repr__(self) -> str:
        return f"<PlanCache {len(self._canon)}/{self.capacity} hits={self.hits}>"
