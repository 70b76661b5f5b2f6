"""CFQL — the paper's proposed hybrid matcher (Section III-B "CFQL").

The study observed that CFL's filter is the fastest and GraphQL's
join-based ordering is the most robust, so CFQL composes exactly those two
phases: CFL's CPI-style candidate construction feeding GraphQL's join-based
matching order and the shared enumeration.
"""

from __future__ import annotations

from repro.graph.labeled_graph import Graph
from repro.matching.base import PreprocessingMatcher
from repro.matching.candidates import CandidateSets
from repro.matching.cfl import CFLMatcher
from repro.matching.ordering import join_based_order
from repro.matching.plan import QueryPlan
from repro.utils.timing import Deadline

__all__ = ["CFQLMatcher"]


class CFQLMatcher(PreprocessingMatcher):
    """CFL filtering + GraphQL ordering: the best of both (per the paper)."""

    name = "CFQL"

    def __init__(self) -> None:
        self._cfl = CFLMatcher()

    def build_candidates(
        self,
        query: Graph,
        data: Graph,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> CandidateSets | None:
        return self._cfl.build_candidates(query, data, deadline=deadline, plan=plan)

    def matching_order(
        self,
        query: Graph,
        data: Graph,
        candidates: CandidateSets,
        plan: QueryPlan | None = None,
    ) -> tuple[int, ...]:
        return join_based_order(query, candidates, plan)
