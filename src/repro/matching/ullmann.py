"""Ullmann's algorithm (JACM 1976), the original direct-enumeration
subgraph isomorphism search.

Included as the historical baseline of the direct-enumeration family
(Section II-B2).  The candidate matrix M maps each query vertex to its
feasible data vertices (label + degree), and Ullmann's *refinement*
procedure runs after every tentative assignment: a candidate ``v`` for
``u`` survives only if every neighbor of ``u`` still has a candidate
adjacent to ``v``.  Refinement is applied to a copied matrix per search
level, exactly as in the original formulation (which makes the algorithm
memory-hungry and slow — the property the later literature improved on).
"""

from __future__ import annotations

from repro.graph.labeled_graph import Graph
from repro.matching.base import MatchOutcome, SubgraphMatcher
from repro.matching.plan import QueryPlan
from repro.utils.timing import Deadline, Timer

__all__ = ["UllmannMatcher"]


class UllmannMatcher(SubgraphMatcher):
    """Ullmann's candidate-matrix search with per-level refinement."""

    name = "Ullmann"

    def run(
        self,
        query: Graph,
        data: Graph,
        limit: int | None = None,
        collect: bool = False,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> MatchOutcome:
        del plan  # direct enumeration derives nothing a plan could carry
        outcome = MatchOutcome()
        if query.num_vertices == 0:
            outcome.found = True
            outcome.num_embeddings = 1
            if collect:
                outcome.embeddings.append({})
            return outcome

        nq = query.num_vertices
        matrix: list[set[int]] = []
        for u in query.vertices():
            du = query.degree(u)
            matrix.append(
                {
                    v
                    for v in data.vertices_with_label(query.label(u))
                    if data.degree(v) >= du
                }
            )
        if not all(matrix):
            return outcome

        mapping = [-1] * nq
        used: set[int] = set()

        def refine(m: list[set[int]]) -> bool:
            """Ullmann's refinement to a local fixpoint; False if some row
            becomes empty."""
            changed = True
            while changed:
                changed = False
                for u in range(nq):
                    if mapping[u] >= 0:
                        continue
                    dead = set()
                    for v in m[u]:
                        nbrs_v = data.neighbors(v)
                        for u2 in query.neighbors(u):
                            row = m[u2] if mapping[u2] < 0 else {mapping[u2]}
                            if len(nbrs_v) <= len(row):
                                ok = any(w in row for w in nbrs_v)
                            else:
                                ok = any(data.has_edge(v, w) for w in row)
                            if not ok:
                                dead.add(v)
                                break
                    if dead:
                        m[u] -= dead
                        if not m[u]:
                            return False
                        changed = True
            return True

        def recurse(u: int, m: list[set[int]]) -> bool:
            outcome.recursion_calls += 1
            if deadline is not None:
                deadline.check()
            if u == nq:
                outcome.num_embeddings += 1
                if collect:
                    outcome.embeddings.append({w: mapping[w] for w in range(nq)})
                if limit is not None and outcome.num_embeddings >= limit:
                    outcome.completed = False
                    return False
                return True
            for v in sorted(m[u]):
                if v in used:
                    continue
                mapping[u] = v
                used.add(v)
                child = [set(row) for row in m]
                child[u] = {v}
                if refine(child) and not recurse(u + 1, child):
                    mapping[u] = -1
                    used.discard(v)
                    return False
                mapping[u] = -1
                used.discard(v)
            return True

        with Timer() as t:
            if refine(matrix):
                recurse(0, matrix)
        outcome.enumeration_time = t.elapsed
        outcome.found = outcome.num_embeddings > 0
        return outcome
