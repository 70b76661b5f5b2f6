"""The three query-processing pipelines of the study (Table III).

* :class:`IFVPipeline` — Algorithm 1: index-based filtering + subgraph
  isomorphism tests (classically VF2) on the candidates.
* :class:`VcFVPipeline` — Algorithm 2: per data graph, build the complete
  candidate vertex sets of a preprocessing-enumeration matcher (the
  *vertex-connectivity* filter); graphs with all Φ(u) non-empty form C(q)
  and are verified by first-match enumeration.
* :class:`IvcFVPipeline` — both: index filtering first, then the vertex-
  connectivity filter and the same verification.
* :class:`NaiveFVPipeline` — the strawman from Section III-B: no filtering,
  run a first-match matcher against every data graph.

Time accounting follows Section IV-A: for vcFV/IvcFV, extracting candidate
vertex sets counts as *filtering* time; ordering plus enumeration count as
*verification* time.  A query-level deadline turns expiry into a
``timed_out`` result rather than an exception.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from time import perf_counter

from repro.core.metrics import QueryFailure, QueryResult
from repro.exec import faults
from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import Graph
from repro.index.base import GraphIndex
from repro.matching.base import PreprocessingMatcher, SubgraphMatcher
from repro.matching.enumeration import enumerate_embeddings
from repro.matching.plan import QueryPlan, compile_plan
from repro.utils.bitset import iter_bits
from repro.utils.errors import (
    ConfigurationError,
    MemoryLimitExceeded,
    TimeLimitExceeded,
)
from repro.utils.timing import Deadline, Timer

__all__ = [
    "IFVPipeline",
    "IvcFVPipeline",
    "NaiveFVPipeline",
    "QueryPipeline",
    "VcFVPipeline",
    "fallback_pipeline",
]


class QueryPipeline(ABC):
    """One way of answering a subgraph query against a whole database."""

    #: Algorithm name reported in results (set by the engine factory).
    name: str = "pipeline"

    #: Whether the pipeline maintains an index over the database.
    uses_index: bool = False

    @abstractmethod
    def execute(
        self,
        query: Graph,
        db: GraphDatabase,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> QueryResult:
        """Run the query; never raises on deadline expiry (flags instead).

        ``plan`` is an optional pre-compiled :class:`QueryPlan` for
        ``query`` (from the engine's plan cache); pipelines compile their
        own when none is given, so the per-query work is done once rather
        than once per data graph either way.
        """

    # Index maintenance hooks (no-ops for index-free pipelines). ----------

    def build_index(self, db: GraphDatabase, deadline: Deadline | None = None) -> None:
        """Construct the supporting index, if any."""

    def on_graph_added(self, graph_id: int, graph: Graph) -> None:
        """Keep the index consistent after a database insertion."""

    def on_graph_removed(self, graph_id: int, graph: Graph | None = None) -> None:
        """Keep the index consistent after a database deletion.

        ``graph`` is the removed graph when the caller still holds it —
        wrappers (e.g. the result cache) can use its label set to scope
        their invalidation instead of flushing everything.
        """

    def index_memory_bytes(self) -> int:
        """Retained index size (0 for index-free pipelines)."""
        return 0


def _run_with_time_limit(result: QueryResult, deadline: Deadline | None, body) -> QueryResult:
    """Execute ``body()``, converting failures into flags on the result.

    Deadline expiry, memory-budget violations and unexpected exceptions
    are all *recorded* rather than raised, so one pathological query can
    never abort the rest of a query set.  On timeout the paper records the
    query's time as the full limit, so the partially filled ``result``
    gets ``query_time`` overwritten accordingly.
    """
    started = perf_counter()
    try:
        faults.trip("query:start", tag=result.query_name or "")
        body()
    except TimeLimitExceeded as exc:
        result.timed_out = True
        result.failure = QueryFailure(
            kind="oot", message=str(exc) or "deadline expired", stage="query"
        )
    except (MemoryLimitExceeded, MemoryError) as exc:
        result.failure = QueryFailure(
            kind="oom", message=str(exc) or "memory limit exceeded", stage="query"
        )
    except Exception as exc:
        result.failure = QueryFailure(
            kind="error", message=f"{type(exc).__name__}: {exc}", stage="query"
        )
    result.query_time = perf_counter() - started
    return result


class VcFVPipeline(QueryPipeline):
    """Algorithm 2: vertex-connectivity filtering-verification."""

    def __init__(self, matcher: PreprocessingMatcher) -> None:
        self.matcher = matcher
        self.name = matcher.name

    def execute(
        self,
        query: Graph,
        db: GraphDatabase,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> QueryResult:
        result = QueryResult(algorithm=self.name, query_name=query.name)
        if plan is None:
            plan = compile_plan(query)

        tag = f"{self.name}:{query.name or ''}"

        def body() -> None:
            # Only the graphs the database's seed screen lets through: the
            # others fail the matcher's own LDF seeding.
            for gid in iter_bits(db.seed_screen(plan.seed_pairs)):
                self.process_graph(query, gid, db[gid], result, deadline, plan, tag)

        return _run_with_time_limit(result, deadline, body)

    def process_graph(
        self,
        query: Graph,
        gid: int,
        graph: Graph,
        result: QueryResult,
        deadline: Deadline | None,
        plan: QueryPlan,
        tag: str,
    ) -> None:
        """Filter, then verify, one data graph; ``tag`` is the per-query
        fault tag (built once by ``execute``, not once per graph)."""
        matcher = self.matcher
        faults.trip("filter", tag=tag)
        started = perf_counter()
        candidates = matcher.build_candidates(query, graph, deadline=deadline, plan=plan)
        result.filtering_time += perf_counter() - started
        if candidates is None or not candidates.all_nonempty:
            return
        result.candidates.add(gid)
        result.auxiliary_memory_bytes = max(
            result.auxiliary_memory_bytes, candidates.memory_bytes()
        )
        faults.trip("verify", tag=tag)
        started = perf_counter()
        order = matcher.matching_order(query, graph, candidates, plan=plan)
        found = enumerate_embeddings(
            query, graph, candidates, order, limit=1, deadline=deadline, plan=plan
        ).found
        result.verification_time += perf_counter() - started
        if found:
            result.answers.add(gid)


class IFVPipeline(QueryPipeline):
    """Algorithm 1: index filtering + subgraph isomorphism verification."""

    uses_index = True

    def __init__(self, index: GraphIndex, verifier: SubgraphMatcher) -> None:
        self.index = index
        self.verifier = verifier
        self.name = index.name

    def build_index(self, db: GraphDatabase, deadline: Deadline | None = None) -> None:
        self.index.build(db, deadline=deadline)

    def on_graph_added(self, graph_id: int, graph: Graph) -> None:
        self.index.add_graph(graph_id, graph)

    def on_graph_removed(self, graph_id: int, graph: Graph | None = None) -> None:
        self.index.remove_graph(graph_id)

    def index_memory_bytes(self) -> int:
        return self.index.memory_bytes()

    def execute(
        self,
        query: Graph,
        db: GraphDatabase,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> QueryResult:
        result = QueryResult(algorithm=self.name, query_name=query.name)
        if plan is None:
            plan = compile_plan(query)

        def body() -> None:
            faults.trip("filter", tag=f"{self.name}:{query.name or ''}")
            with Timer() as t_filter:
                candidate_ids = self.index.candidates(query, deadline=deadline)
            result.filtering_time = t_filter.elapsed
            # The index may cover more graphs than the database view being
            # queried (e.g. under a cache-restricted view); only graphs
            # actually present count as candidates.
            candidate_ids = {gid for gid in candidate_ids if gid in db}
            result.candidates = set(candidate_ids)
            if candidate_ids:
                faults.trip("verify", tag=f"{self.name}:{query.name or ''}")
            for gid in sorted(candidate_ids):
                with Timer() as t_verify:
                    found = self.verifier.exists(
                        query, db[gid], deadline=deadline, plan=plan
                    )
                result.verification_time += t_verify.elapsed
                if found:
                    result.answers.add(gid)

        return _run_with_time_limit(result, deadline, body)


class IvcFVPipeline(QueryPipeline):
    """Index filtering, then vertex-connectivity filtering, then
    first-match verification (vcGrapes / vcGGSX)."""

    uses_index = True

    def __init__(self, index: GraphIndex, matcher: PreprocessingMatcher) -> None:
        self.index = index
        self.matcher = matcher
        self.name = f"vc{index.name}"
        self._vc = VcFVPipeline(matcher)

    def build_index(self, db: GraphDatabase, deadline: Deadline | None = None) -> None:
        self.index.build(db, deadline=deadline)

    def on_graph_added(self, graph_id: int, graph: Graph) -> None:
        self.index.add_graph(graph_id, graph)

    def on_graph_removed(self, graph_id: int, graph: Graph | None = None) -> None:
        self.index.remove_graph(graph_id)

    def index_memory_bytes(self) -> int:
        return self.index.memory_bytes()

    def execute(
        self,
        query: Graph,
        db: GraphDatabase,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> QueryResult:
        result = QueryResult(algorithm=self.name, query_name=query.name)
        if plan is None:
            plan = compile_plan(query)

        tag = f"{self.name}:{query.name or ''}"
        vc_tag = f"{self._vc.name}:{query.name or ''}"

        def body() -> None:
            faults.trip("filter", tag=tag)
            with Timer() as t_index:
                index_survivors = self.index.candidates(query, deadline=deadline)
            result.filtering_time = t_index.elapsed
            index_survivors = {gid for gid in index_survivors if gid in db}
            result.index_candidates = set(index_survivors)
            screened = db.seed_screen(plan.seed_pairs)
            for gid in sorted(index_survivors):
                if screened >> gid & 1:
                    self._vc.process_graph(
                        query, gid, db[gid], result, deadline, plan, vc_tag
                    )

        return _run_with_time_limit(result, deadline, body)


class NaiveFVPipeline(QueryPipeline):
    """No filtering: one first-match run of the matcher per data graph.

    This is the "naive method" of Section III-B, kept as a baseline; every
    data graph counts as a candidate.
    """

    def __init__(self, matcher: SubgraphMatcher) -> None:
        self.matcher = matcher
        self.name = f"{matcher.name}-FV"

    def execute(
        self,
        query: Graph,
        db: GraphDatabase,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> QueryResult:
        result = QueryResult(algorithm=self.name, query_name=query.name)
        if plan is None:
            plan = compile_plan(query)

        def body() -> None:
            faults.trip("verify", tag=f"{self.name}:{query.name or ''}")
            result.candidates = set(db.ids())
            for gid, graph in db.items():
                with Timer() as t_verify:
                    found = self.matcher.exists(
                        query, graph, deadline=deadline, plan=plan
                    )
                result.verification_time += t_verify.elapsed
                if found:
                    result.answers.add(gid)

        return _run_with_time_limit(result, deadline, body)


def fallback_pipeline(pipeline: QueryPipeline) -> QueryPipeline:
    """The index-free pipeline an index-based one degrades to.

    When index construction runs out of time or memory the configuration
    need not be abandoned: an IvcFV pipeline minus its index is exactly
    the vcFV pipeline of its matcher, and a plain IFV pipeline degrades to
    the paper's vcFV representative (CFQL, Section IV), which answers the
    same containment queries without any index.  The fallback keeps the
    original algorithm name so reports stay attributed to the configured
    algorithm (flagged as degraded by the caller).
    """
    from repro.core.cache import CachingPipeline

    if isinstance(pipeline, CachingPipeline):
        # Degrade the wrapped pipeline but keep caching (a fresh cache:
        # the old entries were answered by the indexed configuration).
        return CachingPipeline(
            fallback_pipeline(pipeline.inner),
            capacity=pipeline.capacity,
            containment_matcher=pipeline.containment,
        )
    if isinstance(pipeline, IvcFVPipeline):
        fallback: QueryPipeline = VcFVPipeline(pipeline.matcher)
    elif isinstance(pipeline, IFVPipeline):
        from repro.matching.cfql import CFQLMatcher

        fallback = VcFVPipeline(CFQLMatcher())
    else:
        raise ConfigurationError(
            f"pipeline {pipeline.name!r} has no index to degrade from"
        )
    fallback.name = pipeline.name
    return fallback
