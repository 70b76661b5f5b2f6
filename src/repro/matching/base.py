"""Matcher interfaces and the shared preprocessing-enumeration skeleton.

The paper's taxonomy (Section II-B2) splits subgraph matching into

* *direct-enumeration* algorithms (Ullmann, VF2): no per-query auxiliary
  structure; candidate pairs come from cheap local filters inside the
  search; and
* *preprocessing-enumeration* algorithms (GraphQL, CFL, CFQL): a filter
  phase builds complete candidate vertex sets, an ordering phase derives a
  matching order from them, and a generic enumeration phase does the
  backtracking.

:class:`SubgraphMatcher` is the common surface (``run`` / ``exists`` /
``count`` / ``find_all``); :class:`PreprocessingMatcher` implements ``run``
once for the whole second family so that concrete matchers only provide
``build_candidates`` and ``matching_order``.  The vcFV query pipeline later
reuses exactly those two phases as its filtering and verification steps.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.graph.labeled_graph import Graph
from repro.matching.candidates import CandidateSets
from repro.matching.enumeration import enumerate_embeddings
from repro.matching.plan import QueryPlan, compile_plan
from repro.utils.timing import Deadline, Timer

__all__ = ["MatchOutcome", "PreprocessingMatcher", "SubgraphMatcher"]


@dataclass
class MatchOutcome:
    """Everything one matching run produced, including phase timings.

    ``candidates`` and ``order`` are ``None`` for direct-enumeration
    matchers, and also when the filter phase already proved non-containment
    (an empty Φ(u)) so no order was computed.
    """

    found: bool = False
    num_embeddings: int = 0
    embeddings: list[dict[int, int]] = field(default_factory=list)
    candidates: CandidateSets | None = None
    order: tuple[int, ...] | None = None
    filter_time: float = 0.0
    order_time: float = 0.0
    enumeration_time: float = 0.0
    recursion_calls: int = 0
    pruned: int = 0  # candidates a failing-set cut skipped (see EnumerationResult)
    completed: bool = True
    filtered_out: bool = False  # True when Φ had an empty set (vcFV prune)

    @property
    def total_time(self) -> float:
        return self.filter_time + self.order_time + self.enumeration_time


class SubgraphMatcher(ABC):
    """A subgraph matching algorithm (query graph → one data graph)."""

    #: Human-readable algorithm name, used in reports.
    name: str = "matcher"

    @abstractmethod
    def run(
        self,
        query: Graph,
        data: Graph,
        limit: int | None = None,
        collect: bool = False,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> MatchOutcome:
        """Execute the matcher; see :class:`MatchOutcome`.

        ``plan`` is an optional compiled :class:`QueryPlan` for ``query``;
        matchers use its memoized per-query state (validated orders, BFS
        trees, NLF constraints) instead of recomputing it per data graph.
        Direct-enumeration matchers may ignore it.
        """

    # Convenience wrappers -------------------------------------------------

    def exists(
        self,
        query: Graph,
        data: Graph,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> bool:
        """Subgraph isomorphism test: is there at least one embedding?"""
        return self.run(query, data, limit=1, deadline=deadline, plan=plan).found

    def count(
        self,
        query: Graph,
        data: Graph,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> int:
        """Number of subgraph isomorphisms from ``query`` to ``data``."""
        return self.run(query, data, deadline=deadline, plan=plan).num_embeddings

    def find_all(
        self,
        query: Graph,
        data: Graph,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> list[dict[int, int]]:
        """All embeddings, as ``{query vertex: data vertex}`` dicts."""
        return self.run(query, data, collect=True, deadline=deadline, plan=plan).embeddings

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class PreprocessingMatcher(SubgraphMatcher):
    """Skeleton for filter → order → enumerate matchers."""

    @abstractmethod
    def build_candidates(
        self,
        query: Graph,
        data: Graph,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> CandidateSets | None:
        """The preprocessing (filter) phase.

        Returns complete candidate vertex sets, or ``None`` as soon as some
        Φ(u) is empty — by Proposition III.1 the data graph then cannot
        contain the query, and the vcFV pipeline counts it as filtered out.
        """

    @abstractmethod
    def matching_order(
        self,
        query: Graph,
        data: Graph,
        candidates: CandidateSets,
        plan: QueryPlan | None = None,
    ) -> tuple[int, ...]:
        """The ordering phase: a connected permutation of query vertices."""

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
        if plan is None:
            plan = compile_plan(query)
        with Timer() as t_filter:
            candidates = self.build_candidates(query, data, deadline=deadline, plan=plan)
        outcome.filter_time = t_filter.elapsed
        if candidates is None:
            outcome.filtered_out = True
            return outcome
        outcome.candidates = candidates
        with Timer() as t_order:
            order = self.matching_order(query, data, candidates, plan=plan)
        outcome.order = tuple(order)
        outcome.order_time = t_order.elapsed
        with Timer() as t_enum:
            result = enumerate_embeddings(
                query,
                data,
                candidates,
                order,
                limit=limit,
                collect=collect,
                deadline=deadline,
                plan=plan,
            )
        outcome.enumeration_time = t_enum.elapsed
        outcome.num_embeddings = result.num_embeddings
        outcome.embeddings = result.embeddings
        outcome.recursion_calls = result.recursion_calls
        outcome.pruned = result.pruned
        outcome.completed = result.completed
        outcome.found = result.found
        return outcome
