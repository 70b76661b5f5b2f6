"""QuickSI (Shang et al., PVLDB 2008) — direct enumeration driven by a
minimum-selectivity spanning tree.

QuickSI belongs to the direct-enumeration family (Section II-B2 of the
paper): it builds no per-query candidate structure.  Its contribution is
the *QI-sequence* — a spanning tree of the query grown greedily over the
edges whose (label, label) pair is rarest in the data graph, so that the
search binds the most selective parts of the query first.  Enumeration
then follows the sequence with plain label/degree feasibility checks,
verifying non-tree edges as soon as both endpoints are bound.

This implementation realises the QI-sequence as a connected matching order
(Prim-style growth over edge-frequency weights) and reuses the shared
backtracking enumerator over label-and-degree candidate sets — the same
"cheap local filters during search" behaviour the paper attributes to the
direct-enumeration algorithms.  (The original's optional pivot/degree
extensions are omitted; they do not change the answer set.)
"""

from __future__ import annotations

from repro.graph.labeled_graph import Graph
from repro.matching.base import MatchOutcome, SubgraphMatcher
from repro.matching.candidates import CandidateSets, ldf_candidate_bits
from repro.matching.enumeration import enumerate_embeddings
from repro.matching.plan import QueryPlan
from repro.utils.timing import Deadline, Timer

__all__ = ["QuickSIMatcher", "qi_sequence_order"]


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def qi_sequence_order(query: Graph, data: Graph) -> tuple[int, ...]:
    """QuickSI's matching order: grow a spanning tree over rare edges.

    Edge weight = frequency of its label pair in the data graph (plus the
    label frequency of the endpoint as a tie-break); the first edge is the
    globally rarest, subsequent edges are the rarest touching the tree.
    """
    if query.num_vertices == 0:
        return ()
    if query.num_edges == 0:
        return (0,)
    pair_counts = data.edge_label_counts()

    def edge_weight(u: int, v: int) -> tuple[int, int, int, int]:
        pair_freq = pair_counts.get(_pair(query.label(u), query.label(v)), 0)
        vertex_freq = len(data.vertices_with_label(query.label(v)))
        return (pair_freq, vertex_freq, u, v)

    first = min(
        ((u, v) for u, v in query.edges()),
        key=lambda e: min(edge_weight(*e), edge_weight(e[1], e[0])),
    )
    u0, v0 = first
    # Orient the first edge so the rarer endpoint label is bound first.
    if len(data.vertices_with_label(query.label(v0))) < len(
        data.vertices_with_label(query.label(u0))
    ):
        u0, v0 = v0, u0
    order = [u0, v0]
    in_tree = {u0, v0}
    while len(order) < query.num_vertices:
        best: tuple[tuple[int, int, int, int], int] | None = None
        for u in order:
            for v in query.neighbors(u):
                if v in in_tree:
                    continue
                weight = edge_weight(u, v)
                if best is None or weight < best[0]:
                    best = (weight, v)
        if best is None:
            raise ValueError("qi_sequence_order requires a connected query graph")
        order.append(best[1])
        in_tree.add(best[1])
    return tuple(order)


class QuickSIMatcher(SubgraphMatcher):
    """Direct-enumeration matcher with QI-sequence ordering."""

    name = "QuickSI"

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
        with Timer() as t_order:
            order = qi_sequence_order(query, data)
        outcome.order = order
        outcome.order_time = t_order.elapsed
        # Direct enumeration: only the cheap per-vertex LDF seed, no
        # preprocessing structure (hence not counted as filter time).
        candidates = CandidateSets.from_bitmaps(ldf_candidate_bits(query, data))
        if not candidates.all_nonempty:
            return outcome
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
