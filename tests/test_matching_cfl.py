"""Tests for repro.matching.cfl (CPI-style filter, path-based order)."""

from __future__ import annotations

from hypothesis import given, settings

from repro.graph import Graph
from repro.matching import (
    CandidateSets,
    CFLMatcher,
    VF2Matcher,
    compile_plan,
    ldf_candidates,
)

from helpers import nx_monomorphism_count, paper_like_data, paper_like_query, path_graph
from strategies import matching_instances


class TestFilter:
    def test_returns_none_when_unmatchable(self):
        assert CFLMatcher().build_candidates(path_graph([9, 9]), path_graph([0, 0])) is None

    def test_candidates_at_most_ldf(self):
        q, g = paper_like_query(), paper_like_data()
        phi = CFLMatcher().build_candidates(q, g)
        assert phi is not None
        ldf = ldf_candidates(q, g)
        for u in q.vertices():
            assert set(phi[u]) <= set(ldf[u])

    def test_completeness_of_filter(self):
        q, g = paper_like_query(), paper_like_data()
        phi = CFLMatcher().build_candidates(q, g)
        assert phi is not None
        for mapping in VF2Matcher().find_all(q, g):
            for u, v in mapping.items():
                assert phi.contains(u, v)

    def test_bottom_up_refinement_prunes(self):
        # Chain query 0-1-2: the data has a dangling label-1 vertex whose
        # only neighborhood lacks label 2; top-down from the root keeps it
        # until refinement removes it.
        q = path_graph([0, 1, 2])
        g = Graph.from_edge_list(
            [0, 1, 2, 1],
            [(0, 1), (1, 2), (0, 3)],  # vertex 3: label 1, neighbor label 0
        )
        phi = CFLMatcher().build_candidates(q, g)
        assert phi is not None
        assert 3 not in phi[1]

    def test_root_selection_prefers_selective_high_degree(self):
        # Unique-label high-degree vertex should win |C|/deg.
        q = Graph.from_edge_list([0, 1, 1, 1], [(0, 1), (0, 2), (0, 3)])
        g = Graph.from_edge_list(
            [0, 1, 1, 1, 1], [(0, 1), (0, 2), (0, 3), (0, 4)]
        )
        plan = compile_plan(q)
        assert CFLMatcher._select_root(plan, CFLMatcher._seed_bits(plan, g)) == 0

    @given(matching_instances(guaranteed_match=True))
    @settings(max_examples=30, deadline=None)
    def test_filter_never_empties_on_true_answers(self, instance):
        query, data = instance
        phi = CFLMatcher().build_candidates(query, data)
        assert phi is not None and phi.all_nonempty


class TestMatching:
    def test_square_query(self):
        assert CFLMatcher().exists(paper_like_query(), paper_like_data())

    def test_outcome_phases_populated(self):
        outcome = CFLMatcher().run(paper_like_query(), paper_like_data())
        assert outcome.found
        assert outcome.candidates is not None and outcome.order is not None

    def test_matching_order_without_prior_filter(self):
        """Ordering must work even when candidates come from elsewhere."""
        q, g = paper_like_query(), paper_like_data()
        matcher = CFLMatcher()
        phi = CandidateSets(ldf_candidates(q, g))
        order = matcher.matching_order(q, g, phi)
        assert sorted(order) == list(q.vertices())

    @given(matching_instances())
    @settings(max_examples=40, deadline=None)
    def test_count_matches_networkx(self, instance):
        query, data = instance
        assert CFLMatcher().count(query, data) == nx_monomorphism_count(query, data)


class TestCompletenessProperty:
    @given(matching_instances())
    @settings(max_examples=30, deadline=None)
    def test_phi_contains_all_embedding_images(self, instance):
        query, data = instance
        phi = CFLMatcher().build_candidates(query, data)
        embeddings = VF2Matcher().find_all(query, data)
        if embeddings:
            assert phi is not None
            for mapping in embeddings:
                for u, v in mapping.items():
                    assert phi.contains(u, v)
