"""The CFL subgraph matcher (Bi et al., SIGMOD 2016), as modified by the
paper for subgraph query processing.

Filter phase — the CPI-style candidate construction (Section III-B "CFL"):

1. Pick a BFS root minimising ``|C_ini(u)| / d(u)`` (few seed candidates,
   high degree — CFL's root selection rule).
2. *Top-down generation* along the BFS tree ``q_t``: candidates of ``u``
   are data vertices with label ``L(u)`` adjacent to a candidate of ``u``'s
   tree parent, degree-feasible, and — *backward pruning* — adjacent to at
   least one candidate of every already-visited neighbor of ``u`` (this is
   where non-tree edges prune).
3. *Bottom-up refinement* in reverse BFS order: ``v`` stays in Φ(u) only if
   for every neighbor ``u'`` of ``u`` visited after ``u``, ``N(v) ∩ Φ(u')``
   is non-empty.

Both rules instantiate the paper's completeness observation — a candidate
may be dropped only when some query neighbor has no adjacent candidate —
so Φ stays complete (Definition III.1).

Enumeration phase: path-based, core-first ordering + the shared
backtracking enumerator.

Candidate sets are int bitmaps throughout (see :mod:`repro.utils.bitset`):
the "adjacent to at least one candidate" tests of both pruning rules are
single AND instructions against the data graph's memoized per-vertex
adjacency bitmaps.

Complexities match the paper: O(|E(q)|·|E(G)|) time, O(|V(q)|·|E(G)|)
space.
"""

from __future__ import annotations

from repro.graph.labeled_graph import Graph
from repro.matching.base import PreprocessingMatcher
from repro.matching.candidates import CandidateSets
from repro.matching.ordering import path_based_order
from repro.matching.plan import QueryPlan, compile_plan
from repro.utils.timing import Deadline

__all__ = ["CFLMatcher"]


class CFLMatcher(PreprocessingMatcher):
    """Preprocessing-enumeration matcher with CFL's filter and order.

    Stateless: everything the ordering phase needs from the filter phase
    (the BFS root) is recomputed from the plan and the data graph, so one
    instance can serve any number of threads.
    """

    name = "CFL"

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
        seed_of = plan.seed_of
        if deadline is not None:
            # One poll per data graph, charged like the per-vertex polls it
            # stands for: the seed filters' stride of 8 per query vertex
            # plus one per vertex in each pruning pass.
            deadline.check_every(10 * len(seed_of))
        seeds = self._seed_bits(plan, data)
        if not all(seeds):
            return None
        program = plan.filter_program(self._select_root(plan, seeds))

        # Every Φ(u) starts as its LDF seed; both passes then only ever
        # AND into it.  (The textbook top-down pool — label-``L(u)``
        # neighbors of Φ(parent) with enough degree — is exactly
        # ``seed(u) & union(parent)``.)
        phi = [seeds[i] for i in seed_of]
        # ``v`` is adjacent to some candidate of ``u2`` iff ``v`` lies in
        # the union of the neighbor bitmaps of Φ(u2)'s members, so each
        # pruning rule is one AND against that union — computed once per
        # query neighbor, not once per candidate.  ``union[u2] < 0`` means
        # "not computed for the current Φ(u2)".
        union = [-1] * len(phi)
        nbr = data.neighbor_bitmaps()
        for u, neighbors in program.steps:
            kept = pool = phi[u]
            for u2 in neighbors:
                mask = union[u2]
                if mask < 0:
                    mask = 0
                    bits = phi[u2]
                    while bits:
                        low = bits & -bits
                        bits ^= low
                        mask |= nbr[low.bit_length() - 1]
                    union[u2] = mask
                pool &= mask
                if not pool:
                    return None
            if pool != kept:
                phi[u] = pool
                union[u] = -1

        return CandidateSets.from_bitmaps(phi)

    @staticmethod
    def _seed_bits(plan: QueryPlan, data: Graph) -> list[int]:
        """LDF seed bitmap of each distinct ``(label, degree)`` pair."""
        label_bitmap, degree_bitmap = data.label_bitmap, data.degree_bitmap
        return [
            label_bitmap(label) & degree_bitmap(degree)
            for label, degree in plan.seed_pairs
        ]

    @staticmethod
    def _select_root(plan: QueryPlan, seeds: list[int]) -> int:
        """argmin over u of |C_ini(u)| / d(u), ties to the smaller u (CFL's
        root rule) — evaluated per distinct seed pair, whose vertices share
        both terms."""
        return min(
            (bits.bit_count() / (degree or 1), first)
            for bits, (_, degree), first in zip(seeds, plan.seed_pairs, plan.seed_first)
        )[1]

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
        if plan is None:
            plan = compile_plan(query)
        # The filter's own tree: same root rule on the same LDF seeds.
        root = self._select_root(plan, self._seed_bits(plan, data))
        return path_based_order(
            query, plan.bfs_tree(root), candidates, core=plan.two_core()
        )
