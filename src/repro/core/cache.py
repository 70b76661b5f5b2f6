"""GraphCache-style query-result caching (Wang et al., EDBT 2016/2017).

The paper's Related Work describes a graph cache system that speeds up
subgraph query processing by exploiting *query-to-query* containment
against recently answered queries:

* if a cached query ``q'`` is a subgraph of the new query ``q``, every
  answer of ``q`` also contains ``q'``, so ``A(q) ⊆ A(q')`` — the cached
  answer set is an **upper bound** that prunes the database;
* if the new query is a subgraph of a cached ``q''``, then every graph
  containing ``q''`` contains ``q``, so ``A(q'') ⊆ A(q)`` — those graphs
  are **definite answers** needing no verification.

:class:`CachingPipeline` wraps any :class:`~repro.core.pipeline.
QueryPipeline`, computes both bounds with a subgraph matcher over the
(small) query graphs, and delegates only the remaining graphs to the
inner pipeline through a restricted database view.  Database updates
invalidate exactly the entries they can affect: an insertion drops only
entries whose query labels the new graph covers (it could not answer any
other cached query), and a removal drops none — cached id sets are
filtered against the live database at lookup time, and removal never
adds answers.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.core.metrics import QueryResult
from repro.core.pipeline import QueryPipeline
from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import Graph
from repro.matching.base import SubgraphMatcher
from repro.matching.plan import QueryPlan
from repro.matching.vf2 import VF2Matcher
from repro.utils.bitset import pack_bits
from repro.utils.timing import Deadline, Timer

__all__ = ["CacheStats", "CachingPipeline", "DatabaseView"]


class DatabaseView:
    """A read-only view of a database restricted to a subset of ids.

    Implements the protocol the pipelines consume (``items``, ``ids``,
    ``seed_screen``, ``__getitem__``, ``__contains__``, ``__len__``,
    ``__iter__``), keeping the parent's graph ids stable.
    """

    def __init__(self, parent: GraphDatabase, ids: set[int]) -> None:
        self._parent = parent
        self._ids = [gid for gid in parent.ids() if gid in ids]
        self._id_set = frozenset(self._ids)
        self.name = parent.name

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __contains__(self, gid: int) -> bool:
        return gid in self._id_set

    def __getitem__(self, gid: int) -> Graph:
        if gid not in self._id_set:
            raise KeyError(f"graph {gid} is not part of this view")
        return self._parent[gid]

    def ids(self) -> list[int]:
        return list(self._ids)

    def items(self) -> Iterator[tuple[int, Graph]]:
        for gid in self._ids:
            yield gid, self._parent[gid]

    def graphs(self) -> list[Graph]:
        return [self._parent[gid] for gid in self._ids]

    def seed_screen(self, pairs: Iterable[tuple[int, int]]) -> int:
        """The parent's seed screen restricted to this view's ids."""
        return self._parent.seed_screen(pairs) & pack_bits(self._ids)


@dataclass
class CacheStats:
    """Counters describing how much work the cache saved."""

    queries: int = 0
    queries_with_hits: int = 0  # queries helped by >= 1 cache entry
    subgraph_hits: int = 0      # cached q' ⊆ q (upper bound applied)
    supergraph_hits: int = 0    # q ⊆ cached q'' (definite answers)
    graphs_pruned: int = 0      # graphs never handed to the inner pipeline
    invalidations: int = 0

    def hit_rate(self) -> float:
        """Fraction of queries that benefited from the cache."""
        if self.queries == 0:
            return 0.0
        return self.queries_with_hits / self.queries


@dataclass
class _CacheEntry:
    query: Graph
    answers: frozenset[int]
    #: The query's label set, memoized at admission: insertions only need
    #: to invalidate entries whose labels the new graph could satisfy.
    labels: frozenset[int]


class CachingPipeline(QueryPipeline):
    """Wrap a pipeline with a bounded LRU cache of answered queries."""

    def __init__(
        self,
        inner: QueryPipeline,
        capacity: int = 32,
        containment_matcher: SubgraphMatcher | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.inner = inner
        self.capacity = capacity
        self.containment = containment_matcher or VF2Matcher()
        self.name = f"cached-{inner.name}"
        self.uses_index = inner.uses_index
        self.stats = CacheStats()
        self._entries: OrderedDict[int, _CacheEntry] = OrderedDict()
        self._next_key = 0

    # The wrapper must be transparent to engine-level introspection: the
    # store warm-starts whatever ``pipeline.index`` exposes, and
    # ``find_embeddings`` enumerates with ``pipeline.matcher`` — both must
    # see the *inner* pipeline's structures, not the containment matcher.

    @property
    def index(self):
        return getattr(self.inner, "index", None)

    @property
    def matcher(self):
        return getattr(self.inner, "matcher", None)

    # ------------------------------------------------------------------
    # Cache mechanics
    # ------------------------------------------------------------------

    def clear(self) -> None:
        self._entries.clear()

    def _bounds(
        self, query: Graph, db, deadline: Deadline | None
    ) -> tuple[set[int] | None, set[int]]:
        """(upper bound on A(q) or None, definite answers)."""
        upper: set[int] | None = None
        definite: set[int] = set()
        for key, entry in list(self._entries.items()):
            cached = entry.query
            if cached.num_vertices <= query.num_vertices and self.containment.exists(
                cached, query, deadline=deadline
            ):
                # cached ⊆ query  →  A(query) ⊆ A(cached)
                self.stats.subgraph_hits += 1
                self._entries.move_to_end(key)
                hits = {gid for gid in entry.answers if gid in db}
                upper = hits if upper is None else upper & hits
            elif cached.num_vertices >= query.num_vertices and self.containment.exists(
                query, cached, deadline=deadline
            ):
                # query ⊆ cached  →  A(cached) ⊆ A(query)
                self.stats.supergraph_hits += 1
                self._entries.move_to_end(key)
                definite |= {gid for gid in entry.answers if gid in db}
        return upper, definite

    def _admit(self, query: Graph, answers: set[int]) -> None:
        self._entries[self._next_key] = _CacheEntry(
            query, frozenset(answers), frozenset(query.label_set())
        )
        self._next_key += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    # Pipeline interface
    # ------------------------------------------------------------------

    def execute(
        self,
        query: Graph,
        db,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> QueryResult:
        self.stats.queries += 1
        hits_before = self.stats.subgraph_hits + self.stats.supergraph_hits
        with Timer() as t_cache:
            upper, definite = self._bounds(query, db, deadline)
        cache_hit = (
            self.stats.subgraph_hits + self.stats.supergraph_hits > hits_before
        )
        if cache_hit:
            self.stats.queries_with_hits += 1
        universe = set(db.ids())
        candidates = universe if upper is None else upper
        remaining = candidates - definite
        self.stats.graphs_pruned += len(universe) - len(remaining)

        inner_result = self.inner.execute(
            query, DatabaseView(db, remaining), deadline=deadline, plan=plan
        )
        result = QueryResult(
            algorithm=self.name,
            query_name=query.name,
            answers=definite | inner_result.answers,
            candidates=definite | inner_result.candidates,
            index_candidates=inner_result.index_candidates,
            filtering_time=t_cache.elapsed + inner_result.filtering_time,
            verification_time=inner_result.verification_time,
            timed_out=inner_result.timed_out,
            query_time=t_cache.elapsed + inner_result.query_time,
            auxiliary_memory_bytes=inner_result.auxiliary_memory_bytes,
        )
        # Per-query cache outcome, readable off the result alone (the
        # pipeline object may live in another process under a pool
        # executor, so aggregate ``stats`` are not always reachable).
        result.metadata["cache_hit"] = cache_hit
        result.metadata["cache_pruned"] = len(universe) - len(remaining)
        result.metadata["cache_definite"] = len(definite)
        if not result.timed_out:
            self._admit(query, result.answers)
        return result

    # Index hooks: delegate, and invalidate exactly the stale entries. ----

    def build_index(self, db, deadline: Deadline | None = None) -> None:
        self.inner.build_index(db, deadline=deadline)

    def on_graph_added(self, graph_id: int, graph: Graph) -> None:
        """Drop only the entries the new graph could have joined.

        A cached answer set goes stale on insertion only if the new graph
        might answer the cached query, which requires the query's labels
        to be a subset of the graph's.  Entries over disjoint labels stay
        exact: the new graph cannot contain their query, so its exclusion
        from the cached (upper-bound) answer set is correct.
        """
        self.inner.on_graph_added(graph_id, graph)
        graph_labels = graph.label_set()
        stale = [
            key
            for key, entry in self._entries.items()
            if entry.labels <= graph_labels
        ]
        for key in stale:
            del self._entries[key]
        if stale:
            self.stats.invalidations += 1

    def on_graph_removed(self, graph_id: int, graph: Graph | None = None) -> None:
        """Removal needs no cache invalidation at all.

        Cached answer sets are used as id sets filtered against the live
        database at lookup time (``gid in db`` in ``_bounds``), so a
        removed graph simply drops out of every bound; removal never
        *adds* answers, so the surviving ids stay exact.
        """
        self.inner.on_graph_removed(graph_id, graph)

    def index_memory_bytes(self) -> int:
        return self.inner.index_memory_bytes()
