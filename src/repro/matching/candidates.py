"""Candidate vertex sets (Definition III.1) and the basic seed filters.

Every preprocessing-enumeration matcher produces a *complete* candidate
vertex set Φ: for every query vertex ``u``, ``Φ(u)`` must contain every data
vertex that ``u`` maps to in any subgraph isomorphism.  Completeness is what
makes the vcFV filtering step (Algorithm 2, Proposition III.1) sound: an
empty ``Φ(u)`` proves the data graph cannot contain the query.

Representation: one bitmap per query vertex, keyed by the dense data
vertex ids, in whichever :class:`~repro.utils.bitset.BitsetKernel` backend
was selected for the data graph — python big ints (the default for
paper-scale graphs) or numpy ``uint64`` word blocks (``auto``-selected for
large graphs, where the enumeration kernel batches whole frontiers).  The
single canonical store gives O(1) membership, one-instruction
intersection for the enumeration phase, and costs one bit per data vertex.

The two seed filters here are the standard ones from the literature:

* LDF (label and degree filter): ``L(v) = L(u)`` and ``d(v) ≥ d(u)``;
* NLF (neighbor label frequency filter): LDF plus, for every label ``l``,
  ``|N(u) with label l| ≤ |N(v) with label l|`` — GraphQL's "neighborhood
  profile".

Both are complete because a subgraph isomorphism preserves labels and maps
the neighbors of ``u`` injectively onto label-preserving neighbors of
``φ(u)``.  Each comes in two shapes: ``*_candidate_bits`` (bitmaps, the
hot path — a handful of ANDs against the data graph's memoized profiles,
in the requested backend) and the legacy list-of-lists form on top.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.graph.labeled_graph import Graph
from repro.utils.bitset import (
    BitsetKernel,
    bit_list,
    get_kernel,
    pack_bits,
    python_kernel,
)
from repro.utils.timing import Deadline

__all__ = [
    "CandidateSets",
    "ldf_candidate_bits",
    "ldf_candidates",
    "nlf_candidate_bits",
    "nlf_candidates",
    "select_kernel",
]

#: Query vertices between deadline polls in the seed filters.  Both
#: filters stride identically: one poll per 8 vertices costs a fraction
#: of per-vertex polling while still bounding overshoot to 8 bitmap ANDs.
_FILTER_STRIDE = 8


def select_kernel(data: Graph, backend: str | None = None) -> BitsetKernel:
    """The bitset kernel to use for candidate sets over ``data``.

    Resolves the process-default backend (``REPRO_BITSET_BACKEND`` /
    ``--bitset-backend``) with ``auto`` keyed to the data graph's size,
    so small paper-scale graphs keep the big-int backend.
    """
    return get_kernel(backend, num_vertices=data.num_vertices)


class CandidateSets:
    """Φ — one candidate vertex set per query vertex.

    Immutable bitmap-backed view with O(1) membership testing.  Construct
    with one iterable of data vertices per query vertex (in query-vertex
    order), or from ready-made bitmaps via :meth:`from_bitmaps`.  The
    ``kernel`` decides the bitmap representation; ``num_vertices`` (the
    data graph's vertex count) is required for word-block backends and
    ignored by the python backend.
    """

    __slots__ = ("_kernel", "_num_vertices", "_bits", "_sizes")

    def __init__(
        self,
        sets: Iterable[Iterable[int]],
        kernel: BitsetKernel | None = None,
        num_vertices: int | None = None,
    ) -> None:
        kernel = kernel if kernel is not None else python_kernel()
        self._kernel = kernel
        self._num_vertices = num_vertices if num_vertices is not None else 0
        if kernel.name == "python":
            self._bits = tuple(pack_bits(s) for s in sets)
        else:
            if num_vertices is None:
                raise ValueError(
                    "num_vertices is required for word-block bitset backends"
                )
            self._bits = tuple(kernel.pack(s, num_vertices) for s in sets)
        self._sizes: tuple[int, ...] = tuple(
            kernel.popcount(b) for b in self._bits
        )

    @classmethod
    def from_bitmaps(
        cls,
        bitmaps: Sequence,
        kernel: BitsetKernel | None = None,
        num_vertices: int | None = None,
    ) -> "CandidateSets":
        """Wrap bitmaps produced by a bitset filter.

        ``bitmaps`` may be int bitmaps (converted when ``kernel`` is a
        word-block backend — the one boundary crossing matchers with
        int-bitmap filter pipelines pay) or bitmaps already native to
        ``kernel`` (no re-encoding).
        """
        kernel = kernel if kernel is not None else python_kernel()
        obj = object.__new__(cls)
        obj._kernel = kernel
        obj._num_vertices = num_vertices if num_vertices is not None else 0
        if kernel.name != "python" and bitmaps and isinstance(bitmaps[0], int):
            if num_vertices is None:
                raise ValueError(
                    "num_vertices is required to convert int bitmaps to a "
                    "word-block backend"
                )
            obj._bits = tuple(kernel.from_int(b, num_vertices) for b in bitmaps)
        else:
            obj._bits = tuple(bitmaps)
        obj._sizes = tuple(kernel.popcount(b) for b in obj._bits)
        return obj

    # ------------------------------------------------------------------
    # Backend
    # ------------------------------------------------------------------

    @property
    def kernel(self) -> BitsetKernel:
        return self._kernel

    @property
    def backend(self) -> str:
        """The bitset backend name these sets are stored in."""
        return self._kernel.name

    @property
    def num_vertices(self) -> int:
        """The data graph's vertex count (0 when unknown, python backend)."""
        return self._num_vertices

    def to_backend(
        self, kernel: BitsetKernel, num_vertices: int | None = None
    ) -> "CandidateSets":
        """These sets re-encoded under another kernel (identity if same)."""
        if kernel.name == self._kernel.name:
            return self
        n = num_vertices if num_vertices is not None else self._num_vertices
        ints = [self._kernel.to_int(b) for b in self._bits]
        if kernel.name == "python":
            return CandidateSets.from_bitmaps(ints)
        return CandidateSets.from_bitmaps(ints, kernel=kernel, num_vertices=n)

    def to_python(self) -> "CandidateSets":
        """These sets in the pure-python int-bitmap backend."""
        return self.to_backend(python_kernel())

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, u: int) -> tuple[int, ...]:
        """Φ(u) as an ascending tuple of data vertex ids (decoded view)."""
        return tuple(self._kernel.bit_list(self._bits[u]))

    def bits(self, u: int):
        """Φ(u) as its canonical backend-native bitmap."""
        return self._bits[u]

    @property
    def bitmaps(self) -> tuple:
        """Every Φ(u) as backend-native bitmaps, indexed by query vertex."""
        return self._bits

    def int_bits(self, u: int) -> int:
        """Φ(u) as an int bitmap regardless of backend (converted view)."""
        return self._kernel.to_int(self._bits[u])

    def as_set(self, u: int) -> frozenset[int]:
        """Φ(u) as a frozenset (decoded view, built on demand)."""
        return frozenset(self._kernel.bit_list(self._bits[u]))

    def contains(self, u: int, v: int) -> bool:
        return self._kernel.test(self._bits[u], v)

    @property
    def all_nonempty(self) -> bool:
        """Whether every Φ(u) is non-empty (the vcFV filtering test)."""
        return 0 not in self._sizes

    def sizes(self) -> tuple[int, ...]:
        return self._sizes

    @property
    def total_candidates(self) -> int:
        return sum(self._sizes)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def memory_bytes(self, word_bytes: int = 4) -> int:
        """Footprint as the paper counts auxiliary structures: one word per
        stored candidate (Tables VII and IX report the candidate vertex
        sets of vcFV algorithms this way).  Backend-independent by design
        so the reproduction paths stay comparable; see
        :meth:`backend_memory_bytes` for the true footprint."""
        return word_bytes * self.total_candidates

    def backend_memory_bytes(self) -> int:
        """Backend-accurate retained bytes of the stored bitmaps: fixed
        ``ceil(n/64)`` words per set for word-block backends, the occupied
        bit span for big ints."""
        kernel = self._kernel
        return sum(kernel.memory_bytes(b) for b in self._bits)

    # ------------------------------------------------------------------
    # Pickling (backend-agnostic wire form)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Little-endian word payloads — compact (no bignum pickle framing,
        no ndarray metadata per set) and revivable by either backend, so
        candidate sets cross the worker-pool boundary even when the two
        sides disagree about numpy's availability."""
        return {
            "backend": self._kernel.name,
            "num_vertices": self._num_vertices,
            "blobs": [self._kernel.to_bytes(b) for b in self._bits],
        }

    def __setstate__(self, state: dict) -> None:
        kernel = get_kernel(
            state["backend"] if state["backend"] != "python" else "python",
            num_vertices=state["num_vertices"] or None,
        )
        self._kernel = kernel
        self._num_vertices = state["num_vertices"]
        n = self._num_vertices
        self._bits = tuple(
            kernel.from_bytes(blob, n if n else 8 * len(blob))
            for blob in state["blobs"]
        )
        self._sizes = tuple(kernel.popcount(b) for b in self._bits)

    def __repr__(self) -> str:
        return f"<CandidateSets backend={self.backend} sizes={self.sizes()}>"


def ldf_candidate_bits(
    query: Graph,
    data: Graph,
    deadline: Deadline | None = None,
    kernel: BitsetKernel | None = None,
) -> list:
    """Label-and-degree seed candidate bitmaps for every query vertex.

    With the default (python) kernel the bitmaps are ints from the data
    graph's memoized int profiles — exact legacy behavior.  A word-block
    kernel computes each Φ(u) from the graph's vectorized profile rows
    instead.
    """
    if kernel is not None and kernel.name != "python":
        profile = data.bitset_profile(kernel)
        result = []
        for u in query.vertices():
            if deadline is not None:
                deadline.check_every(_FILTER_STRIDE)
            result.append(
                kernel.and_(
                    profile.label_row(query.label(u)),
                    profile.degree_row(query.degree(u)),
                )
            )
        return result
    result: list[int] = []
    for u in query.vertices():
        if deadline is not None:
            deadline.check_every(_FILTER_STRIDE)
        result.append(
            data.label_bitmap(query.label(u)) & data.degree_bitmap(query.degree(u))
        )
    return result


def nlf_candidate_bits(
    query: Graph,
    data: Graph,
    deadline: Deadline | None = None,
    plan=None,
    kernel: BitsetKernel | None = None,
) -> list:
    """Neighbor-label-frequency seed candidate bitmaps (GraphQL's filter).

    Each Φ(u) is the AND of the data graph's memoized label, degree and
    per-label NLF threshold bitmaps — no per-vertex profile comparisons.
    A compiled :class:`~repro.matching.plan.QueryPlan` supplies the query's
    label/degree/NLF constraint arrays pre-flattened; ``kernel`` selects
    the bitmap backend the thresholds are taken from.
    """
    if plan is not None:
        # Compiled once per query, not rebuilt per data graph.
        labels, degrees, nlf_items = plan.labels, plan.degrees, plan.nlf_items
    else:
        labels = tuple(query.labels)
        degrees = tuple(query.degree(u) for u in query.vertices())
        nlf_items = tuple(
            tuple(query.neighbor_label_counts(u).items()) for u in query.vertices()
        )
    if kernel is not None and kernel.name != "python":
        profile = data.bitset_profile(kernel)
        result = []
        for u in query.vertices():
            if deadline is not None:
                deadline.check_every(_FILTER_STRIDE)
            bits = kernel.and_(
                profile.label_row(labels[u]), profile.degree_row(degrees[u])
            )
            if kernel.any(bits):
                for lab, need in nlf_items[u]:
                    bits = kernel.and_(bits, profile.nlf_row(lab, need))
                    if not kernel.any(bits):
                        break
            result.append(bits)
        return result
    result: list[int] = []
    for u in query.vertices():
        if deadline is not None:
            deadline.check_every(_FILTER_STRIDE)
        bits = data.label_bitmap(labels[u]) & data.degree_bitmap(degrees[u])
        if bits:
            for lab, need in nlf_items[u]:
                bits &= data.nlf_bitmap(lab, need)
                if not bits:
                    break
        result.append(bits)
    return result


def ldf_candidates(
    query: Graph, data: Graph, deadline: Deadline | None = None
) -> list[list[int]]:
    """Label-and-degree seed candidates as ascending id lists."""
    return [bit_list(b) for b in ldf_candidate_bits(query, data, deadline=deadline)]


def nlf_candidates(
    query: Graph, data: Graph, deadline: Deadline | None = None
) -> list[list[int]]:
    """Neighbor-label-frequency seed candidates as ascending id lists."""
    return [bit_list(b) for b in nlf_candidate_bits(query, data, deadline=deadline)]
