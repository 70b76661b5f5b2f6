"""TurboIso (Han, Lee & Lee, SIGMOD 2013) — candidate-region matching.

The third leading preprocessing-enumeration algorithm discussed by the
paper (Section II-B2).  TurboIso picks a selective start vertex, explores
one *candidate region* per start-vertex candidate — a tree-shaped
projection of the query rooted at that data vertex — and enumerates inside
each region separately, cheapest region first.  The region structure gives
accurate per-region cardinalities for the path-based matching order.

Simplification vs. the original (documented in DESIGN.md): the NEC
(neighborhood equivalence class) query-vertex merging is omitted — it is a
constant-factor optimisation for queries with symmetric leaves and does
not affect the answer set.

The matcher exposes the standard decomposition too: ``build_candidates``
returns the union of all region candidate sets (a complete candidate
vertex set in the Definition III.1 sense), which is what the vcFV pipeline
consumes, while ``run`` performs the per-region enumeration that is
TurboIso's hallmark.
"""

from __future__ import annotations

from repro.graph.algorithms import BFSTree, bfs_tree, two_core
from repro.graph.labeled_graph import Graph
from repro.matching.base import MatchOutcome, PreprocessingMatcher
from repro.matching.candidates import CandidateSets
from repro.matching.enumeration import enumerate_embeddings
from repro.matching.ordering import path_based_order
from repro.matching.plan import QueryPlan
from repro.utils.bitset import iter_bits
from repro.utils.timing import Deadline, Timer

__all__ = ["TurboIsoMatcher"]


class TurboIsoMatcher(PreprocessingMatcher):
    """Candidate-region matcher with per-region enumeration."""

    name = "TurboIso"

    # ------------------------------------------------------------------
    # Region construction
    # ------------------------------------------------------------------

    @staticmethod
    def _seed_candidates(query: Graph, data: Graph) -> list[list[int]]:
        result: list[list[int]] = []
        for u in query.vertices():
            du = query.degree(u)
            result.append(
                [
                    v
                    for v in data.vertices_with_label(query.label(u))
                    if data.degree(v) >= du
                ]
            )
        return result

    @staticmethod
    def _select_start(query: Graph, seeds: list[list[int]]) -> int:
        """argmin |C_ini(u)| / deg(u) — TurboIso's start-vertex rule."""
        return min(
            query.vertices(),
            key=lambda u: (len(seeds[u]) / max(query.degree(u), 1), u),
        )

    def _explore_region(
        self,
        query: Graph,
        data: Graph,
        tree: BFSTree,
        start_vertex: int,
        deadline: Deadline | None,
    ) -> list[int] | None:
        """Candidate region rooted at ``start_vertex`` (one bitmap per query
        vertex); None if dead."""
        nbr = data.neighbor_bitmaps()
        region = [0] * query.num_vertices
        region[tree.root] = 1 << start_vertex
        visit_rank = {u: i for i, u in enumerate(tree.order)}
        for u in tree.order[1:]:
            if deadline is not None:
                deadline.check()
            parent = tree.parent[u]
            label_u = query.label(u)
            degree_u = query.degree(u)
            earlier_nbrs = [
                u2 for u2 in query.neighbors(u)
                if visit_rank[u2] < visit_rank[u] and u2 != parent
            ]
            reach = 0
            for vp in iter_bits(region[parent]):
                reach |= nbr[vp]
            reach &= data.label_bitmap(label_u) & data.degree_bitmap(degree_u)
            survivors = 0
            for v in iter_bits(reach):
                if all(nbr[v] & region[u2] for u2 in earlier_nbrs):
                    survivors |= 1 << v
            if not survivors:
                return None
            region[u] = survivors
        return region

    def _regions(
        self,
        query: Graph,
        data: Graph,
        deadline: Deadline | None,
        plan: QueryPlan | None = None,
    ) -> tuple[BFSTree, list[list[int]]] | None:
        seeds = self._seed_candidates(query, data)
        if not all(seeds):
            return None
        start = self._select_start(query, seeds)
        tree = plan.bfs_tree(start) if plan is not None else bfs_tree(query, start)
        regions = []
        for v_s in seeds[start]:
            region = self._explore_region(query, data, tree, v_s, deadline)
            if region is not None:
                regions.append(region)
        if not regions:
            return None
        return tree, regions

    # ------------------------------------------------------------------
    # Standard decomposition (vcFV integration)
    # ------------------------------------------------------------------

    def build_candidates(
        self,
        query: Graph,
        data: Graph,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> CandidateSets | None:
        explored = self._regions(query, data, deadline, plan=plan)
        if explored is None:
            return None
        tree, regions = explored
        union = [0] * query.num_vertices
        for region in regions:
            for u, bits in enumerate(region):
                union[u] |= bits
        self._last_exploration = (query, tree, regions)
        return CandidateSets.from_bitmaps(union)

    def matching_order(
        self,
        query: Graph,
        data: Graph,
        candidates: CandidateSets,
        plan: QueryPlan | None = None,
    ) -> tuple[int, ...]:
        cached = getattr(self, "_last_exploration", None)
        if cached is not None and cached[0] is query:
            tree = cached[1]
        else:
            seeds = [list(candidates[u]) for u in query.vertices()]
            start = self._select_start(query, seeds)
            tree = plan.bfs_tree(start) if plan is not None else bfs_tree(query, start)
        core = plan.two_core() if plan is not None else two_core(query)
        return path_based_order(query, tree, candidates, core=core)

    # ------------------------------------------------------------------
    # Per-region enumeration (TurboIso's own run)
    # ------------------------------------------------------------------

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
        with Timer() as t_filter:
            explored = self._regions(query, data, deadline, plan=plan)
        outcome.filter_time = t_filter.elapsed
        if explored is None:
            outcome.filtered_out = True
            return outcome
        tree, regions = explored
        # Cheapest region first: enumeration in small regions either
        # finishes instantly or proves the region empty early.
        regions.sort(key=lambda r: sum(bits.bit_count() for bits in r))
        core = plan.two_core() if plan is not None else two_core(query)

        with Timer() as t_enum:
            for region in regions:
                if limit is not None and outcome.num_embeddings >= limit:
                    break
                phi = CandidateSets.from_bitmaps(region)
                order = path_based_order(query, tree, phi, core=core)
                remaining = (
                    None if limit is None else limit - outcome.num_embeddings
                )
                result = enumerate_embeddings(
                    query, data, phi, order,
                    limit=remaining, collect=collect, deadline=deadline, plan=plan,
                )
                outcome.num_embeddings += result.num_embeddings
                outcome.embeddings.extend(result.embeddings)
                outcome.recursion_calls += result.recursion_calls
                outcome.pruned += result.pruned
                if not result.completed:
                    outcome.completed = False
        outcome.enumeration_time = t_enum.elapsed
        outcome.found = outcome.num_embeddings > 0
        return outcome
