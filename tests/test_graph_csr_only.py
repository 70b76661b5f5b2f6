"""The data graph is its CSR arrays plus lazily built bitmaps.

Every accessor that used to read a per-vertex container (neighbor
frozensets, neighbor-label count dicts, label-partitioned adjacency) is
now derived from the CSR rows; these tests pin each against brute force
over the edge list the graph was built from, before and after a pickle
round trip, and pin that a freshly built graph reaches no per-vertex
container at all.
"""

from __future__ import annotations

import pickle
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, generate_graph
from repro.utils.bitset import bit_list, pack_bits
from repro.utils.memory import deep_size_of

#: What a graph may retain beyond its three CSR arrays right after
#: construction: the object itself, its name and the empty per-threshold
#: memo dicts.  A per-vertex container (one frozenset or dict per vertex)
#: exceeds this on any graph of more than a couple of vertices.
_PER_GRAPH_BYTES = 512


@st.composite
def edge_list_inputs(draw, max_vertices: int = 12, max_labels: int = 3):
    """``(labels, edges)`` as ``Graph.from_edge_list`` takes them: each
    undirected edge once, in either orientation, in any order."""
    n = draw(st.integers(1, max_vertices))
    labels = draw(st.lists(st.integers(0, max_labels - 1), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kept = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(kept), max_size=len(kept)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(kept, flips)]
    return labels, edges


def _assert_matches_edge_list(g: Graph, labels: list[int], edges) -> None:
    n = len(labels)
    edge_set = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    adjacency = [sorted(w for w in range(n) if (v, w) in edge_set) for v in range(n)]
    for u in range(n):
        for v in range(n):
            assert g.has_edge(u, v) == ((u, v) in edge_set)
    assert g.neighbor_bitmaps() == [pack_bits(adj) for adj in adjacency]
    for v in range(n):
        counts: dict[int, int] = {}
        for w in adjacency[v]:
            counts[labels[w]] = counts.get(labels[w], 0) + 1
        assert g.neighbor_label_counts(v) == counts
    for label in set(labels) | {max(labels) + 1}:
        for v in range(n):
            # TurboIso's label-filtered neighbours.
            with_label = g.neighbor_bitmap(v) & g.label_bitmap(label)
            assert bit_list(with_label) == [
                w for w in adjacency[v] if labels[w] == label
            ]
        for need in (1, 2, 3):
            assert g.nlf_bitmap(label, need) == pack_bits(
                v
                for v in range(n)
                if sum(1 for w in adjacency[v] if labels[w] == label) >= need
            )


class TestDerivedViewsMatchEdgeList:
    @given(edge_list_inputs())
    @settings(max_examples=80, deadline=None)
    def test_fresh_graph(self, inputs):
        labels, edges = inputs
        _assert_matches_edge_list(Graph.from_edge_list(labels, edges), labels, edges)

    @given(edge_list_inputs())
    @settings(max_examples=80, deadline=None)
    def test_pickle_round_trip(self, inputs):
        labels, edges = inputs
        g = Graph.from_edge_list(labels, edges)
        # One copy pickled cold, one after every lazy view was built.
        _assert_matches_edge_list(pickle.loads(pickle.dumps(g)), labels, edges)
        _assert_matches_edge_list(pickle.loads(pickle.dumps(g)), labels, edges)


class TestNoPerVertexContainers:
    def _csr_bytes(self, g: Graph) -> int:
        return (
            sys.getsizeof(g._labels)
            + sys.getsizeof(g.csr_offsets())
            + sys.getsizeof(g.csr_edges())
        )

    def test_fresh_graph_is_its_csr(self):
        g = generate_graph(num_vertices=200, avg_degree=4, num_labels=5, seed=3)
        assert deep_size_of(g) <= self._csr_bytes(g) + _PER_GRAPH_BYTES

    def test_unpickled_graph_is_its_csr(self):
        g = generate_graph(num_vertices=200, avg_degree=4, num_labels=5, seed=3)
        g = pickle.loads(pickle.dumps(g))
        assert deep_size_of(g) <= self._csr_bytes(g) + _PER_GRAPH_BYTES

    def test_edge_tests_leave_nothing_behind(self):
        g = generate_graph(num_vertices=200, avg_degree=4, num_labels=5, seed=3)
        for u in g.vertices():
            for v in g.vertices():
                g.has_edge(u, v)
            g.neighbor_label_counts(u)
        assert deep_size_of(g) <= self._csr_bytes(g) + _PER_GRAPH_BYTES
