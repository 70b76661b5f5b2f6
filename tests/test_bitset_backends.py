"""Cross-backend parity: python big-int vs numpy word-block bitsets.

The two :class:`~repro.utils.bitset.BitsetKernel` backends must be
observationally identical — same members, same popcounts, same decoded
orders, byte payloads revivable by either side — on randomized bitmaps
including the edge shapes that break word-block code (empty bitmaps,
single high bits, widths straddling the 64- and 256-bit boundaries).
On top sit end-to-end checks: every matcher path must produce the same
embedding counts under both backends and both enumeration kernels, and
backend selection (env var / ``auto`` threshold / fallback) must behave.

Everything numpy-specific skips cleanly when the ``[perf]`` extra is not
installed; the python-backend assertions always run.
"""

from __future__ import annotations

import os
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import generate_graph, random_walk_query
from repro.matching.candidates import (
    CandidateSets,
    ldf_candidate_bits,
    nlf_candidate_bits,
    select_kernel,
)
from repro.matching.cfql import CFQLMatcher
from repro.matching.enumeration import (
    enumerate_embeddings_iterative,
    enumerate_embeddings_recursive,
)
from repro.matching.graphql import GraphQLMatcher
from repro.matching.plan import compile_plan
from repro.utils.bitset import (
    AUTO_MIN_VERTICES,
    available_backends,
    backend_override,
    get_kernel,
    numpy_available,
    pack_bits,
    python_kernel,
)

HAS_NUMPY = numpy_available()
needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy word-block backend not installed ([perf] extra)"
)

#: Bitmap widths straddling word (64) and decode-chunk (256) boundaries.
BOUNDARY_WIDTHS = (1, 63, 64, 65, 127, 128, 255, 256, 257, 1000)


def vertex_sets(max_n: int = 300):
    """(num_vertices, sorted vertex ids) pairs, biased toward boundaries."""
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(min_value=0, max_value=n - 1), unique=True, max_size=n
            ).map(sorted),
        )
    )


# ----------------------------------------------------------------------
# Randomized kernel-op parity
# ----------------------------------------------------------------------


@needs_numpy
@given(case=vertex_sets())
@settings(max_examples=120, deadline=None)
def test_single_bitmap_ops_agree(case):
    n, vs = case
    pk, nk = python_kernel(), get_kernel("numpy")
    pb = pk.pack(vs, n)
    nb = nk.pack(vs, n)
    assert nk.popcount(nb) == pk.popcount(pb) == len(vs)
    assert nk.any(nb) == pk.any(pb)
    assert nk.bit_list(nb) == pk.bit_list(pb) == list(vs)
    assert list(nk.iter_bits(nb)) == list(pk.iter_bits(pb))
    assert nk.to_int(nb) == pb
    probes = vs[:3] + [0, n - 1, n // 2]
    for v in probes:
        assert nk.test(nb, v) == pk.test(pb, v)


@needs_numpy
@given(case=vertex_sets(), other=st.lists(st.integers(0, 299), unique=True))
@settings(max_examples=120, deadline=None)
def test_binary_ops_agree(case, other):
    n, vs = case
    other = [v for v in other if v < n]
    pk, nk = python_kernel(), get_kernel("numpy")
    pa, pb = pk.pack(vs, n), pk.pack(other, n)
    na, nb = nk.pack(vs, n), nk.pack(other, n)
    for name in ("and_", "or_", "andnot"):
        want = getattr(pk, name)(pa, pb)
        got = getattr(nk, name)(na, nb)
        assert nk.to_int(got) == want
        assert nk.popcount(got) == pk.popcount(want)


@needs_numpy
@pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
def test_boundary_widths_and_high_bits(n):
    pk, nk = python_kernel(), get_kernel("numpy")
    for vs in ([], [0], [n - 1], [0, n - 1], list(range(n))):
        unique = sorted(set(vs))
        pb, nb = pk.pack(vs, n), nk.pack(vs, n)
        assert nk.to_int(nb) == pb
        assert nk.popcount(nb) == len(unique)
        assert nk.bit_list(nb) == unique
        # Wire form is identical modulo trailing-zero padding.
        assert nk.to_bytes(nb).rstrip(b"\0") == pk.to_bytes(pb).rstrip(b"\0")


@needs_numpy
@given(case=vertex_sets())
@settings(max_examples=80, deadline=None)
def test_bytes_roundtrip_across_backends(case):
    n, vs = case
    pk, nk = python_kernel(), get_kernel("numpy")
    pb, nb = pk.pack(vs, n), nk.pack(vs, n)
    # python -> bytes -> numpy
    assert nk.bit_list(nk.from_bytes(pk.to_bytes(pb), n)) == list(vs)
    # numpy -> bytes -> python
    assert pk.bit_list(pk.from_bytes(nk.to_bytes(nb), n)) == list(vs)
    # int conversions both ways
    assert nk.bit_list(nk.from_int(pb, n)) == list(vs)
    assert pk.from_int(nk.to_int(nb), n) == pb


@needs_numpy
@given(
    n=st.integers(min_value=1, max_value=200),
    rows=st.lists(
        st.lists(st.integers(0, 199), unique=True), min_size=1, max_size=6
    ),
)
@settings(max_examples=60, deadline=None)
def test_batch_ops_agree(n, rows):
    rows = [[v for v in row if v < n] for row in rows]
    pk, nk = python_kernel(), get_kernel("numpy")
    prow = [pk.pack(r, n) for r in rows]
    nrow = [nk.pack(r, n) for r in rows]
    assert nk.to_int(nk.and_many(nrow)) == pk.and_many(prow)
    assert nk.to_int(nk.or_many(nrow, n)) == pk.or_many(prow, n)
    matrix = nk.stack(nrow)
    mask = nk.pack(rows[0], n)
    anded = nk.rows_and(matrix, mask)
    counts = nk.popcount_rows(anded)
    for i, row in enumerate(rows):
        assert int(counts[i]) == (prow[i] & prow[0]).bit_count()


# ----------------------------------------------------------------------
# CandidateSets across backends
# ----------------------------------------------------------------------


def _example_sets():
    return [[3, 1, 2], [9], [], [0, 63, 64, 65]]


@needs_numpy
def test_candidate_sets_backend_conversion():
    sets = _example_sets()
    nk = get_kernel("numpy")
    py = CandidateSets(sets)
    np_sets = CandidateSets(sets, kernel=nk, num_vertices=70)
    assert py.sizes() == np_sets.sizes()
    assert np_sets.backend == "numpy"
    for u in range(len(sets)):
        assert py[u] == np_sets[u]
        assert py.as_set(u) == np_sets.as_set(u)
        assert np_sets.int_bits(u) == py.bits(u)
    # Conversions are lossless in both directions.
    assert np_sets.to_python().sizes() == py.sizes()
    back = py.to_backend(nk, num_vertices=70)
    assert back.backend == "numpy"
    assert [back[u] for u in range(len(sets))] == [py[u] for u in range(len(sets))]
    # Paper-convention accounting is backend-independent; the true
    # footprint differs (fixed words vs occupied span).
    assert np_sets.memory_bytes() == py.memory_bytes()
    assert np_sets.backend_memory_bytes() == 4 * ((70 + 63) >> 6) * 8


@pytest.mark.parametrize(
    "backend", ["python"] + (["numpy"] if HAS_NUMPY else [])
)
def test_candidate_sets_pickle_roundtrip(backend):
    kernel = get_kernel(backend)
    sets = CandidateSets(_example_sets(), kernel=kernel, num_vertices=70)
    revived = pickle.loads(pickle.dumps(sets))
    assert revived.backend == backend
    assert revived.sizes() == sets.sizes()
    for u in range(len(sets)):
        assert revived[u] == sets[u]


@needs_numpy
def test_seed_filters_agree_across_backends():
    data = generate_graph(num_vertices=80, avg_degree=5.0, num_labels=3, seed=11)
    query = random_walk_query(data, num_edges=5, seed=12)
    assert query is not None
    nk = get_kernel("numpy")
    plan = compile_plan(query)
    for py_bits, np_bits in (
        (
            ldf_candidate_bits(query, data),
            ldf_candidate_bits(query, data, kernel=nk),
        ),
        (
            nlf_candidate_bits(query, data, plan=plan),
            nlf_candidate_bits(query, data, plan=plan, kernel=nk),
        ),
    ):
        assert len(py_bits) == len(np_bits)
        for pb, nb in zip(py_bits, np_bits):
            assert nk.to_int(nb) == pb


# ----------------------------------------------------------------------
# End-to-end embedding parity: backends × kernels
# ----------------------------------------------------------------------


def _e2e_cases(num: int, seed: int):
    rng = random.Random(seed)
    matchers = [CFQLMatcher(), GraphQLMatcher()]
    cases = []
    attempts = 0
    while len(cases) < num and attempts < num * 30:
        attempts += 1
        data = generate_graph(
            num_vertices=rng.randint(15, 60),
            avg_degree=rng.uniform(3.0, 6.0),
            num_labels=rng.randint(2, 4),
            seed=rng.randint(0, 10**6),
        )
        query = random_walk_query(
            data, num_edges=rng.randint(2, 6), seed=rng.randint(0, 10**6)
        )
        if query is None:
            continue
        matcher = rng.choice(matchers)
        candidates = matcher.build_candidates(query, data)
        if candidates is None or not candidates.all_nonempty:
            continue
        order = tuple(matcher.matching_order(query, data, candidates))
        cases.append((query, data, candidates, order))
    assert len(cases) == num, "could not generate enough parity cases"
    return cases


E2E_CASES = _e2e_cases(10, seed=20260809)


@needs_numpy
@pytest.mark.parametrize("case_index", range(len(E2E_CASES)))
def test_embedding_counts_agree_across_backends_and_kernels(case_index):
    query, data, candidates, order = E2E_CASES[case_index]
    nk = get_kernel("numpy")
    np_candidates = candidates.to_backend(nk, num_vertices=data.num_vertices)
    reference = enumerate_embeddings_recursive(query, data, candidates, order)
    outcomes = {
        "python/iterative": enumerate_embeddings_iterative(
            query, data, candidates, order
        ),
        # Word-block sets convert to int bitmaps at the kernel boundary.
        "numpy/iterative": enumerate_embeddings_iterative(
            query, data, np_candidates, order
        ),
        "numpy/recursive": enumerate_embeddings_recursive(
            query, data, np_candidates, order
        ),
    }
    for label, outcome in outcomes.items():
        assert outcome.num_embeddings == reference.num_embeddings, label
        assert outcome.completed == reference.completed, label


@needs_numpy
@pytest.mark.parametrize("case_index", range(0, len(E2E_CASES), 2))
@pytest.mark.parametrize("limit", [1, 3])
def test_limit_and_collect_agree_across_backends(case_index, limit):
    query, data, candidates, order = E2E_CASES[case_index]
    nk = get_kernel("numpy")
    np_candidates = candidates.to_backend(nk, num_vertices=data.num_vertices)
    ref = enumerate_embeddings_iterative(
        query, data, candidates, order, limit=limit, collect=True
    )
    got = enumerate_embeddings_iterative(
        query, data, np_candidates, order, limit=limit, collect=True
    )
    assert got.num_embeddings == ref.num_embeddings
    assert got.completed == ref.completed
    assert len(got.embeddings) == len(ref.embeddings)
    for emb in got.embeddings:
        assert len(set(emb.values())) == len(emb)
        for u, v in query.edges():
            assert data.has_edge(emb[u], emb[v])


@needs_numpy
def test_full_collect_sets_agree_across_backends():
    query, data, candidates, order = E2E_CASES[0]
    nk = get_kernel("numpy")
    np_candidates = candidates.to_backend(nk, num_vertices=data.num_vertices)
    ref = enumerate_embeddings_iterative(
        query, data, candidates, order, collect=True
    )
    got = enumerate_embeddings_iterative(
        query, data, np_candidates, order, collect=True
    )
    as_sets = lambda embs: {frozenset(e.items()) for e in embs}
    assert as_sets(got.embeddings) == as_sets(ref.embeddings)


@needs_numpy
def test_matchers_agree_under_forced_numpy_backend():
    query, data, _, _ = E2E_CASES[1]
    for matcher in (CFQLMatcher(), GraphQLMatcher()):
        baseline = matcher.run(query, data).num_embeddings
        with backend_override("numpy"):
            forced = matcher.run(query, data)
        assert forced.num_embeddings == baseline


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


def test_backend_names_and_python_always_available():
    names = available_backends()
    assert "python" in names and "auto" in names
    assert get_kernel("python") is python_kernel()


def test_auto_keeps_python_for_small_graphs():
    small = generate_graph(num_vertices=40, avg_degree=3.0, num_labels=2, seed=5)
    with backend_override("auto"):
        assert select_kernel(small).name == "python"


@needs_numpy
def test_auto_picks_numpy_above_threshold():
    with backend_override("auto"):
        assert get_kernel(num_vertices=AUTO_MIN_VERTICES).name == "numpy"
        assert get_kernel(num_vertices=AUTO_MIN_VERTICES - 1).name == "python"


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BITSET_BACKEND", "python")
    with backend_override(None):
        assert get_kernel(num_vertices=10**6).name == "python"
    monkeypatch.setenv("REPRO_BITSET_BACKEND", "bogus")
    with backend_override(None):
        with pytest.warns(UserWarning, match="REPRO_BITSET_BACKEND"):
            kernel = get_kernel(num_vertices=10)
        assert kernel.name == "python"


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown bitset backend"):
        get_kernel("bitvector")


@needs_numpy
def test_graph_pickles_without_numpy_profile():
    data = generate_graph(num_vertices=50, avg_degree=4.0, num_labels=2, seed=8)
    nk = get_kernel("numpy")
    profile = data.bitset_profile(nk)
    assert profile is not None and data.bitset_profile(nk) is profile
    revived = pickle.loads(pickle.dumps(data))
    assert revived.num_vertices == data.num_vertices
    assert list(revived.edges()) == list(data.edges())
    # The profile is a per-process cache; a revived graph rebuilds its own.
    assert revived.bitset_profile(nk) is not profile
    assert data.profile_memory_bytes() >= profile.memory_bytes()
