"""Graph bitmap profiles and the bitmap-backed candidate sets.

The matching kernels trust the memoized bitmaps on :class:`Graph` to
equal what a fresh recomputation from ``neighbors()``/``label()``
would give.  These are the invariant tests: every cached profile is
cross-checked against a naive pass over the adjacency lists, and the
lazy memory accounting is pinned down (zero before first use, counted in
``index_memory_bytes`` after).  Graphs and candidate sets cross the
executor-pool boundary pickled, so both must round-trip unchanged.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.graph import Graph
from repro.graph.generators import generate_database, generate_graph
from repro.matching.candidates import (
    CandidateSets,
    ldf_candidate_bits,
    ldf_candidates,
    nlf_candidate_bits,
    nlf_candidates,
)
from repro.utils.bitset import bit_list, iter_bits, pack_bits

#: Bitmap widths straddling the word (64) and ``iter_bits``'s decode-chunk
#: (256) boundaries.
BOUNDARY_WIDTHS = (1, 63, 64, 65, 127, 128, 255, 256, 257, 1000)


@pytest.fixture(scope="module")
def graphs():
    rng = random.Random(7)
    out = [
        generate_graph(
            num_vertices=rng.randint(6, 30),
            avg_degree=rng.uniform(2.0, 5.0),
            num_labels=rng.randint(2, 5),
            seed=rng.randint(0, 10_000),
        )
        for _ in range(8)
    ]
    out.append(Graph.from_edge_list([0], [], name="isolated"))
    return out


class TestBitmapProfiles:
    def test_label_bitmap_matches_label_scan(self, graphs):
        for g in graphs:
            for label in set(g.labels):
                expected = pack_bits(
                    v for v in g.vertices() if g.label(v) == label
                )
                assert g.label_bitmap(label) == expected
            assert g.label_bitmap(999) == 0

    def test_neighbor_bitmap_matches_adjacency(self, graphs):
        for g in graphs:
            for v in g.vertices():
                assert g.neighbor_bitmap(v) == pack_bits(g.neighbors(v))

    def test_degree_bitmap_matches_degree_scan(self, graphs):
        for g in graphs:
            for threshold in (0, 1, 2, 3, 10):
                expected = pack_bits(
                    v for v in g.vertices() if g.degree(v) >= threshold
                )
                assert g.degree_bitmap(threshold) == expected

    def test_nlf_bitmap_matches_profile_scan(self, graphs):
        for g in graphs:
            for label in set(g.labels):
                for need in (1, 2, 3):
                    expected = pack_bits(
                        v
                        for v in g.vertices()
                        if sum(
                            1 for w in g.neighbors(v) if g.label(w) == label
                        )
                        >= need
                    )
                    assert g.nlf_bitmap(label, need) == expected

    def test_cached_neighbor_label_counts_equal_fresh(self, graphs):
        """The memoized profile must equal a recomputation from scratch —
        and stay equal on the second (cached) call."""
        for g in graphs:
            for v in g.vertices():
                fresh: dict[int, int] = {}
                for w in g.neighbors(v):
                    lab = g.label(w)
                    fresh[lab] = fresh.get(lab, 0) + 1
                assert g.neighbor_label_counts(v) == fresh
                assert g.neighbor_label_counts(v) == fresh

    def test_pickle_roundtrip_keeps_graph_and_built_memos(self):
        g = generate_graph(num_vertices=50, avg_degree=4.0, num_labels=2, seed=8)
        g.label_bitmap(0)
        g.neighbor_bitmap(0)
        g.degree_bitmap(2)
        g.nlf_bitmap(1, 2)
        revived = pickle.loads(pickle.dumps(g))
        assert revived.name == g.name
        assert list(revived.labels) == list(g.labels)
        assert list(revived.edges()) == list(g.edges())
        # The memos travel with the graph instead of being rebuilt.
        assert revived.profile_memory_bytes() == g.profile_memory_bytes() > 0
        assert revived.label_bitmap(0) == g.label_bitmap(0)
        assert revived.neighbor_bitmaps() == g.neighbor_bitmaps()
        assert revived.degree_bitmap(2) == g.degree_bitmap(2)
        assert revived.nlf_bitmap(1, 2) == g.nlf_bitmap(1, 2)


class TestProfileMemoryAccounting:
    def test_zero_before_first_use(self):
        g = generate_graph(num_vertices=12, avg_degree=3, num_labels=3, seed=1)
        assert g.profile_memory_bytes() == 0

    def test_grows_after_use_and_is_monotone(self):
        g = generate_graph(num_vertices=12, avg_degree=3, num_labels=3, seed=1)
        g.label_bitmap(0)
        after_labels = g.profile_memory_bytes()
        assert after_labels > 0
        g.neighbor_bitmap(0)
        g.nlf_bitmap(0, 1)
        g.neighbor_label_counts(0)
        assert g.profile_memory_bytes() > after_labels

    def test_database_sums_member_graphs(self):
        db = generate_database(
            num_graphs=5, num_vertices=10, avg_degree=3, num_labels=3, seed=3
        )
        assert db.profile_memory_bytes() == 0
        for g in db.graphs():
            g.neighbor_bitmap(0)
        assert db.profile_memory_bytes() == sum(
            g.profile_memory_bytes() for g in db.graphs()
        )
        assert db.profile_memory_bytes() > 0


class TestBitsetHelpers:
    def test_pack_and_decode_roundtrip(self):
        for vertices in ([], [0], [3, 1, 4, 1], list(range(0, 600, 7))):
            bits = pack_bits(vertices)
            expected = sorted(set(vertices))
            assert bit_list(bits) == expected
            assert list(iter_bits(bits)) == expected
            assert bits.bit_count() == len(expected)

    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    def test_boundary_widths_and_high_bits(self, n):
        for vertices in ([], [0], [n - 1], [0, n - 1], list(range(n))):
            bits = pack_bits(vertices)
            expected = sorted(set(vertices))
            assert bits.bit_count() == len(expected)
            assert bit_list(bits) == expected
            assert list(iter_bits(bits)) == expected


class TestCandidateSetsRoundTrip:
    def test_from_bitmaps_roundtrip(self):
        bitmaps = [pack_bits([0, 2, 5]), pack_bits([1]), 0]
        cands = CandidateSets.from_bitmaps(bitmaps)
        assert cands[0] == (0, 2, 5)
        assert cands.as_set(1) == {1}
        assert cands[2] == ()
        assert cands.bits(0) == bitmaps[0]
        assert list(cands.sizes()) == [3, 1, 0]
        assert cands.total_candidates == 4
        assert cands.contains(0, 2) and not cands.contains(0, 3)
        assert not cands.all_nonempty
        assert len(cands) == 3

    def test_pickle_roundtrip(self):
        cands = CandidateSets([[3, 1, 2], [9], [], [0, 63, 64, 65]])
        revived = pickle.loads(pickle.dumps(cands))
        assert revived.bitmaps == cands.bitmaps
        assert revived.sizes() == cands.sizes()
        assert [revived[u] for u in range(len(cands))] == [
            cands[u] for u in range(len(cands))
        ]

    def test_set_construction_matches_bitmap_construction(self):
        from_sets = CandidateSets([{2, 0, 5}, {1}])
        from_bits = CandidateSets.from_bitmaps([pack_bits([0, 2, 5]), 1 << 1])
        assert [from_sets[u] for u in range(2)] == [
            from_bits[u] for u in range(2)
        ]
        assert from_sets.all_nonempty
        assert from_sets.memory_bytes() == from_bits.memory_bytes()

    def test_legacy_wrappers_match_bit_kernels(self):
        db = generate_database(
            num_graphs=4, num_vertices=15, avg_degree=4, num_labels=3, seed=9
        )
        query = generate_graph(
            num_vertices=4, avg_degree=2, num_labels=3, seed=4
        )
        for g in db.graphs():
            assert [
                bit_list(b) for b in ldf_candidate_bits(query, g)
            ] == [sorted(s) for s in ldf_candidates(query, g)]
            assert [
                bit_list(b) for b in nlf_candidate_bits(query, g)
            ] == [sorted(s) for s in nlf_candidates(query, g)]

    def test_nlf_is_subset_of_ldf(self):
        db = generate_database(
            num_graphs=4, num_vertices=15, avg_degree=4, num_labels=3, seed=9
        )
        query = generate_graph(
            num_vertices=4, avg_degree=2, num_labels=3, seed=4
        )
        for g in db.graphs():
            ldf = ldf_candidate_bits(query, g)
            nlf = nlf_candidate_bits(query, g)
            for u in range(query.num_vertices):
                assert nlf[u] & ~ldf[u] == 0
