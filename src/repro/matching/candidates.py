"""Candidate vertex sets (Definition III.1) and the basic seed filters.

Every preprocessing-enumeration matcher produces a *complete* candidate
vertex set Φ: for every query vertex ``u``, ``Φ(u)`` must contain every data
vertex that ``u`` maps to in any subgraph isomorphism.  Completeness is what
makes the vcFV filtering step (Algorithm 2, Proposition III.1) sound: an
empty ``Φ(u)`` proves the data graph cannot contain the query.

Representation: one int bitmap per query vertex, keyed by the dense data
vertex ids (see :mod:`repro.utils.bitset`).  The single canonical store
gives O(1) membership, one-instruction intersection for the enumeration
phase, and costs one bit per data vertex.

The two seed filters here are the standard ones from the literature:

* LDF (label and degree filter): ``L(v) = L(u)`` and ``d(v) ≥ d(u)``;
* NLF (neighbor label frequency filter): LDF plus, for every label ``l``,
  ``|N(u) with label l| ≤ |N(v) with label l|`` — GraphQL's "neighborhood
  profile".

Both are complete because a subgraph isomorphism preserves labels and maps
the neighbors of ``u`` injectively onto label-preserving neighbors of
``φ(u)``.  Each comes in two shapes: ``*_candidate_bits`` (bitmaps, the
hot path — a handful of ANDs against the data graph's memoized profiles)
and the legacy list-of-lists form on top.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.graph.labeled_graph import Graph
from repro.utils.bitset import bit_list, pack_bits
from repro.utils.timing import Deadline

__all__ = [
    "CandidateSets",
    "ldf_candidate_bits",
    "ldf_candidates",
    "nlf_candidate_bits",
    "nlf_candidates",
]

#: Query vertices between deadline polls in the seed filters.  Both
#: filters stride identically: one poll per 8 vertices costs a fraction
#: of per-vertex polling while still bounding overshoot to 8 bitmap ANDs.
_FILTER_STRIDE = 8


class CandidateSets:
    """Φ — one candidate vertex set per query vertex.

    Immutable bitmap-backed view with O(1) membership testing.  Construct
    with one iterable of data vertices per query vertex (in query-vertex
    order), or from ready-made int bitmaps via :meth:`from_bitmaps`.
    """

    __slots__ = ("_bits", "_sizes")

    def __init__(self, sets: Iterable[Iterable[int]]) -> None:
        self._bits: tuple[int, ...] = tuple(pack_bits(s) for s in sets)
        self._sizes: tuple[int, ...] = tuple(b.bit_count() for b in self._bits)

    @classmethod
    def from_bitmaps(cls, bitmaps: Sequence[int]) -> "CandidateSets":
        """Wrap the int bitmaps produced by a bitset filter."""
        obj = object.__new__(cls)
        obj._bits = tuple(bitmaps)
        obj._sizes = tuple(b.bit_count() for b in obj._bits)
        return obj

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, u: int) -> tuple[int, ...]:
        """Φ(u) as an ascending tuple of data vertex ids (decoded view)."""
        return tuple(bit_list(self._bits[u]))

    def bits(self, u: int) -> int:
        """Φ(u) as its canonical int bitmap."""
        return self._bits[u]

    @property
    def bitmaps(self) -> tuple[int, ...]:
        """Every Φ(u) as an int bitmap, indexed by query vertex."""
        return self._bits

    def as_set(self, u: int) -> frozenset[int]:
        """Φ(u) as a frozenset (decoded view, built on demand)."""
        return frozenset(bit_list(self._bits[u]))

    def contains(self, u: int, v: int) -> bool:
        return (self._bits[u] >> v) & 1 == 1

    @property
    def all_nonempty(self) -> bool:
        """Whether every Φ(u) is non-empty (the vcFV filtering test)."""
        return 0 not in self._sizes

    def sizes(self) -> tuple[int, ...]:
        return self._sizes

    @property
    def total_candidates(self) -> int:
        return sum(self._sizes)

    def memory_bytes(self, word_bytes: int = 4) -> int:
        """Footprint as the paper counts auxiliary structures: one word per
        stored candidate (Tables VII and IX report the candidate vertex
        sets of vcFV algorithms this way)."""
        return word_bytes * self.total_candidates

    def __repr__(self) -> str:
        return f"<CandidateSets sizes={self.sizes()}>"


def ldf_candidate_bits(
    query: Graph, data: Graph, deadline: Deadline | None = None
) -> list[int]:
    """Label-and-degree seed candidate bitmaps for every query vertex,
    from the data graph's memoized int profiles."""
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
) -> list[int]:
    """Neighbor-label-frequency seed candidate bitmaps (GraphQL's filter).

    Each Φ(u) is the AND of the data graph's memoized label, degree and
    per-label NLF threshold bitmaps — no per-vertex profile comparisons.
    A compiled :class:`~repro.matching.plan.QueryPlan` supplies the query's
    label/degree/NLF constraint arrays pre-flattened.
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
