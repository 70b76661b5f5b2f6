"""SPath (Zhao & Han, PVLDB 2010) — signature-based direct enumeration.

The last member of the paper's direct-enumeration list (Section II-B2).
SPath filters candidate vertices with *neighborhood signatures*: for every
vertex, the number of vertices of each label within distance 1..k.  A data
vertex can host a query vertex only if its signature dominates the query
vertex's (an embedding maps the ≤d-neighborhood of ``u`` injectively into
the ≤d-neighborhood of ``φ(u)``, label-preserved).  Matching then proceeds
path-at-a-time; here the shared enumerator plays that role with an order
that binds the most signature-selective vertices first.

The paper (quoting the study [23]) notes that "signature-based filters are
only effective for some datasets" — the matcher ablation benchmarks
measure exactly that against the preprocessing-enumeration family.
"""

from __future__ import annotations

from collections import deque

from repro.graph.labeled_graph import Graph
from repro.matching.base import MatchOutcome, SubgraphMatcher
from repro.matching.candidates import CandidateSets
from repro.matching.enumeration import enumerate_embeddings
from repro.matching.plan import QueryPlan
from repro.utils.timing import Deadline, Timer

__all__ = ["SPathMatcher", "neighborhood_signature"]

Signature = dict[int, dict[int, int]]  # distance → {label → count}


def neighborhood_signature(graph: Graph, vertex: int, radius: int) -> Signature:
    """Label counts of the vertices within each distance 1..``radius``."""
    distance = {vertex: 0}
    queue: deque[int] = deque([vertex])
    signature: Signature = {d: {} for d in range(1, radius + 1)}
    while queue:
        current = queue.popleft()
        d = distance[current]
        if d == radius:
            continue
        for nbr in graph.neighbors(current):
            if nbr not in distance:
                distance[nbr] = d + 1
                queue.append(nbr)
                level = signature[d + 1]
                label = graph.label(nbr)
                level[label] = level.get(label, 0) + 1
    return signature


def _signature_dominates(data_sig: Signature, query_sig: Signature) -> bool:
    """Whether, cumulatively per label up to each distance, the data
    vertex has at least as many reachable vertices as the query vertex.

    Cumulative comparison is what stays sound for non-induced embeddings:
    a query vertex at distance d from ``u`` maps to a data vertex at
    distance *at most* d from ``φ(u)``.
    """
    data_cumulative: dict[int, int] = {}
    query_cumulative: dict[int, int] = {}
    for d in sorted(query_sig):
        for label, count in query_sig[d].items():
            query_cumulative[label] = query_cumulative.get(label, 0) + count
        for label, count in data_sig.get(d, {}).items():
            data_cumulative[label] = data_cumulative.get(label, 0) + count
        for label, needed in query_cumulative.items():
            if data_cumulative.get(label, 0) < needed:
                return False
    return True


class SPathMatcher(SubgraphMatcher):
    """Direct-enumeration matcher with k-hop signature filtering."""

    name = "SPath"

    def __init__(self, radius: int = 2) -> None:
        if radius < 1:
            raise ValueError("radius must be at least 1")
        self.radius = radius
        # Per-data-graph signature cache (graphs are immutable).  Entries
        # pin the graph so a recycled id() can never alias a dead graph.
        self._signature_cache: dict[int, tuple[Graph, list[Signature]]] = {}

    def _data_signatures(self, data: Graph) -> list[Signature]:
        key = id(data)
        cached = self._signature_cache.get(key)
        if cached is not None and cached[0] is data:
            return cached[1]
        signatures = [
            neighborhood_signature(data, v, self.radius)
            for v in data.vertices()
        ]
        # Keep the cache bounded: one graph at a time is typical.
        if len(self._signature_cache) > 64:
            self._signature_cache.clear()
        self._signature_cache[key] = (data, signatures)
        return signatures

    def candidate_sets(self, query: Graph, data: Graph) -> CandidateSets:
        """Signature-filtered candidates for every query vertex."""
        data_signatures = self._data_signatures(data)
        sets: list[list[int]] = []
        for u in query.vertices():
            du = query.degree(u)
            query_sig = neighborhood_signature(query, u, self.radius)
            sets.append(
                [
                    v
                    for v in data.vertices_with_label(query.label(u))
                    if data.degree(v) >= du
                    and _signature_dominates(data_signatures[v], query_sig)
                ]
            )
        return CandidateSets(sets)

    def run(
        self,
        query: Graph,
        data: Graph,
        limit: int | None = None,
        collect: bool = False,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> MatchOutcome:
        outcome = MatchOutcome()
        if query.num_vertices == 0:
            outcome.found = True
            outcome.num_embeddings = 1
            if collect:
                outcome.embeddings.append({})
            return outcome
        candidates = self.candidate_sets(query, data)
        if not candidates.all_nonempty:
            return outcome
        with Timer() as t_order:
            order = self._selective_order(query, candidates)
        outcome.order = order
        outcome.order_time = t_order.elapsed
        with Timer() as t_enum:
            result = enumerate_embeddings(
                query, data, candidates, order,
                limit=limit, collect=collect, deadline=deadline, plan=plan,
            )
        outcome.enumeration_time = t_enum.elapsed
        outcome.num_embeddings = result.num_embeddings
        outcome.embeddings = result.embeddings
        outcome.recursion_calls = result.recursion_calls
        outcome.pruned = result.pruned
        outcome.completed = result.completed
        outcome.found = result.found
        return outcome

    @staticmethod
    def _selective_order(query: Graph, candidates: CandidateSets) -> tuple[int, ...]:
        """Greedy connected order, most selective vertex first."""
        sizes = candidates.sizes()
        start = min(query.vertices(), key=lambda u: (sizes[u], u))
        order = [start]
        selected = {start}
        frontier = set(query.neighbors(start))
        while len(order) < query.num_vertices:
            if not frontier:
                raise ValueError("SPath requires a connected query graph")
            nxt = min(frontier, key=lambda u: (sizes[u], u))
            order.append(nxt)
            selected.add(nxt)
            frontier.discard(nxt)
            frontier.update(u for u in query.neighbors(nxt) if u not in selected)
        return tuple(order)
