"""Tests for repro.graph.labeled_graph (the CSR Graph)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.graph import Graph
from repro.utils.bitset import bit_list

from strategies import labeled_graphs


@pytest.fixture()
def diamond() -> Graph:
    """4 vertices, labels [0,1,1,2], a 4-cycle with one chord."""
    return Graph.from_edge_list(
        [0, 1, 1, 2], [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)], name="diamond"
    )


class TestConstruction:
    def test_counts(self, diamond):
        assert diamond.num_vertices == 4
        assert diamond.num_edges == 5
        assert len(diamond) == 4

    def test_from_edge_list_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            Graph.from_edge_list([0, 0], [(0, 0)])

    def test_from_edge_list_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edge_list([0, 0], [(0, 1), (1, 0)])

    def test_from_edge_list_rejects_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            Graph.from_edge_list([0], [(0, 1)])

    def test_empty_graph(self):
        g = Graph.from_edge_list([], [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.average_degree == 0.0
        assert g.max_degree == 0

    def test_single_vertex(self):
        g = Graph.from_edge_list([5], [])
        assert g.degree(0) == 0
        assert g.label(0) == 5
        assert g.density == 0.0

    def test_repr_mentions_name_and_sizes(self, diamond):
        assert "diamond" in repr(diamond)
        assert "|V|=4" in repr(diamond)


class TestAccessors:
    def test_labels(self, diamond):
        assert diamond.labels == (0, 1, 1, 2)
        assert diamond.label(2) == 1

    def test_degree(self, diamond):
        assert [diamond.degree(v) for v in diamond.vertices()] == [2, 3, 2, 3]
        assert diamond.max_degree == 3

    def test_neighbors_sorted(self, diamond):
        assert list(diamond.neighbors(1)) == [0, 2, 3]

    def test_has_edge_symmetric(self, diamond):
        assert diamond.has_edge(1, 3) and diamond.has_edge(3, 1)
        assert not diamond.has_edge(0, 2)

    def test_edges_each_once(self, diamond):
        edges = list(diamond.edges())
        assert len(edges) == diamond.num_edges
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_average_degree_and_density(self, diamond):
        assert diamond.average_degree == pytest.approx(2.5)
        assert diamond.density == pytest.approx(5 / 6)


class TestLabelViews:
    def test_vertices_with_label(self, diamond):
        assert diamond.vertices_with_label(1) == (1, 2)
        assert diamond.vertices_with_label(99) == ()

    def test_label_set(self, diamond):
        assert diamond.label_set() == frozenset({0, 1, 2})
        assert diamond.num_labels == 3

    def test_neighbors_with_label(self, diamond):
        def with_label(v, label):
            bits = diamond.neighbor_bitmap(v) & diamond.label_bitmap(label)
            return bit_list(bits)

        assert with_label(0, 1) == [1]
        assert with_label(0, 2) == [3]
        assert with_label(0, 99) == []

    def test_neighbor_label_counts(self, diamond):
        assert diamond.neighbor_label_counts(1) == {0: 1, 1: 1, 2: 1}
        assert diamond.neighbor_label_counts(0) == {1: 1, 2: 1}


class TestMemoryAccounting:
    def test_csr_memory_formula(self, diamond):
        n, m = 4, 5
        assert diamond.csr_memory_bytes() == 4 * (n + (n + 1) + 2 * m)

    def test_word_size_scales(self, diamond):
        assert diamond.csr_memory_bytes(8) == 2 * diamond.csr_memory_bytes(4)


class TestInvariants:
    @given(labeled_graphs(max_vertices=12))
    @settings(max_examples=60)
    def test_adjacency_is_symmetric(self, graph):
        for u in graph.vertices():
            for v in graph.neighbors(u):
                assert graph.has_edge(v, u)

    @given(labeled_graphs(max_vertices=12))
    @settings(max_examples=60)
    def test_degree_sum_is_twice_edges(self, graph):
        assert sum(graph.degree(v) for v in graph.vertices()) == 2 * graph.num_edges

    @given(labeled_graphs(max_vertices=12))
    @settings(max_examples=60)
    def test_label_views_are_consistent(self, graph):
        for lab in graph.label_set():
            vs = graph.vertices_with_label(lab)
            assert all(graph.label(v) == lab for v in vs)
        assert sum(
            len(graph.vertices_with_label(lab)) for lab in graph.label_set()
        ) == graph.num_vertices

    @given(labeled_graphs(max_vertices=10))
    @settings(max_examples=60)
    def test_neighbor_label_counts_match_neighbors(self, graph):
        for v in graph.vertices():
            counts = graph.neighbor_label_counts(v)
            assert sum(counts.values()) == graph.degree(v)
            for lab, cnt in counts.items():
                with_label = graph.neighbor_bitmap(v) & graph.label_bitmap(lab)
                assert with_label.bit_count() == cnt


class TestEdgeLabelCounts:
    def test_counts_unordered_pairs(self, diamond):
        counts = diamond.edge_label_counts()
        # Edges: (0,1)=0-1, (1,2)=1-1, (2,3)=1-2, (3,0)=0-2, (1,3)=1-2.
        assert counts == {(0, 1): 1, (1, 1): 1, (1, 2): 2, (0, 2): 1}
        assert sum(counts.values()) == diamond.num_edges

    def test_empty_graph(self):
        assert Graph.from_edge_list([], []).edge_label_counts() == {}

    def test_cached_instance_reused(self, diamond):
        assert diamond.edge_label_counts() is diamond.edge_label_counts()
