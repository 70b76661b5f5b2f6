"""The GraphQL subgraph matcher (He & Singh, SIGMOD 2008), as modified by
the paper for subgraph query processing.

Filter phase (the paper, Section III-B "GraphQL"):

1. Seed each Φ(u) by the neighborhood profile — the NLF filter.
2. Prune with the *pseudo subgraph isomorphism* test: for ``v ∈ Φ(u)``,
   build the bigraph B between N(u) and N(v) with an edge (u', v') iff
   ``v' ∈ Φ(u')``; remove ``v`` unless B has a semi-perfect matching
   (every vertex of N(u) matched).  The check runs along ascending query
   vertex ids — the order the paper fixes for its implementation — and is
   repeated for a configurable number of refinement sweeps (the original
   algorithm's refinement level).

Enumeration phase: join-based ordering + the shared backtracking
enumerator.

The pruning is complete: if ``φ`` embeds the query with ``φ(u) = v``, then
matching every ``u' ∈ N(u)`` to ``φ(u')`` is a semi-perfect matching of B,
so ``v`` survives.
"""

from __future__ import annotations

from repro.graph.labeled_graph import Graph
from repro.matching.base import PreprocessingMatcher
from repro.matching.bipartite import has_semi_perfect_matching_bits
from repro.matching.candidates import CandidateSets, nlf_candidate_bits
from repro.matching.ordering import join_based_order
from repro.matching.plan import QueryPlan, compile_plan
from repro.utils.timing import Deadline

__all__ = ["GraphQLMatcher"]


class GraphQLMatcher(PreprocessingMatcher):
    """Preprocessing-enumeration matcher with GraphQL's filter and order.

    Parameters
    ----------
    refine_iterations:
        Number of pseudo-isomorphism refinement sweeps over all query
        vertices.  The default (2) mirrors the original algorithm's default
        optimization level; completeness holds for any value.
    """

    name = "GraphQL"

    def __init__(self, refine_iterations: int = 2) -> None:
        if refine_iterations < 0:
            raise ValueError("refine_iterations must be non-negative")
        self.refine_iterations = refine_iterations

    # ------------------------------------------------------------------
    # Filter phase
    # ------------------------------------------------------------------

    def build_candidates(
        self,
        query: Graph,
        data: Graph,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> CandidateSets | None:
        if plan is None:
            plan = compile_plan(query)
        phi = nlf_candidate_bits(query, data, deadline=deadline, plan=plan)
        if not all(phi):
            return None
        nbr = data.neighbor_bitmaps()
        for _ in range(self.refine_iterations):
            changed = False
            # Ascending query-vertex ids, per the paper's implementation note.
            for u, neighbors in enumerate(plan.adjacency):
                if deadline is not None:
                    deadline.check()
                kept = phi[u]
                pool = kept
                while pool:
                    low = pool & -pool
                    pool ^= low
                    if not self._pseudo_iso(phi, neighbors, nbr[low.bit_length() - 1]):
                        kept ^= low
                if kept != phi[u]:
                    changed = True
                    if not kept:
                        return None
                    phi[u] = kept
            if not changed:
                break
        return CandidateSets.from_bitmaps(phi)

    @staticmethod
    def _pseudo_iso(
        phi: list[int], query_nbrs: tuple[int, ...], data_nbrs: int
    ) -> bool:
        """The local bipartite feasibility test for mapping a query vertex
        with neighbors ``query_nbrs`` onto a data vertex whose neighbor
        bitmap is ``data_nbrs``."""
        rows: list[int] = []
        for u2 in query_nbrs:
            row_bits = phi[u2] & data_nbrs
            if not row_bits:
                return False
            rows.append(row_bits)
        return has_semi_perfect_matching_bits(rows)

    # ------------------------------------------------------------------
    # Ordering phase
    # ------------------------------------------------------------------

    def matching_order(
        self,
        query: Graph,
        data: Graph,
        candidates: CandidateSets,
        plan: QueryPlan | None = None,
    ) -> tuple[int, ...]:
        return join_based_order(query, candidates, plan)
