"""The vertex-labeled undirected graph (Section II-A of the paper).

The paper stores data graphs in CSR format — "a label array, an offset
array and an edge array" (Table VII).  :class:`Graph` is exactly that: it
is immutable after construction and keeps those three arrays.  Edge tests
bisect the sorted CSR row of one endpoint.

Everything else is a lazily built view of the CSR.  The reverse label
index (``vertices_with_label``) seeds candidate vertex sets, and the
graph memoizes *bitmap profiles* over its dense vertex ids (see
:mod:`repro.utils.bitset`): the label partition, the per-vertex
adjacency, degree-threshold sets and neighbor-label-frequency
thresholds, each as one int bitmap.  The candidate filters of GraphQL,
CFL and CFQL reduce to AND/popcount over these, and because the graph is
immutable the profiles are computed once and shared by every query that
touches the graph.  :meth:`profile_memory_bytes` accounts for them.

Vertices are dense integers ``0..n-1``; labels are arbitrary integers.
Self loops and parallel edges are rejected at build time.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator

from repro.utils.bitset import bitmap_bytes, pack_bits

__all__ = ["Graph"]


class Graph:
    """An immutable vertex-labeled undirected graph in CSR form.

    Instances are normally created through
    :class:`~repro.graph.builder.GraphBuilder` or
    :meth:`Graph.from_edge_list`.
    """

    __slots__ = (
        "name",
        "_labels",
        "_offsets",
        "_edges",
        "_label_index",
        "_edge_label_counts",
        "_label_bitmaps",
        "_nbr_bitmaps",
        "_degree_bitmaps",
        "_nlf_bitmaps",
    )

    def __init__(
        self,
        labels: Iterable[int],
        adjacency: list[list[int]],
        name: str | None = None,
    ) -> None:
        """Build a graph from per-vertex labels and sorted adjacency lists.

        ``adjacency`` must be symmetric (if ``v in adjacency[u]`` then
        ``u in adjacency[v]``), free of self loops, and free of duplicates;
        :class:`~repro.graph.builder.GraphBuilder` guarantees this.  The
        constructor does not re-validate, so prefer the builder for
        untrusted input.
        """
        self.name = name
        self._labels = array("q", labels)
        offsets = array("q", [0] * (len(self._labels) + 1))
        edges = array("q")
        for v, nbrs in enumerate(adjacency):
            edges.extend(sorted(nbrs))
            offsets[v + 1] = len(edges)
        self._offsets = offsets
        self._edges = edges
        # Lazy caches (built on first use; the graph itself never changes).
        self._label_index: dict[int, tuple[int, ...]] | None = None
        self._edge_label_counts: dict[tuple[int, int], int] | None = None
        # Bitmap profiles (memoized; see "Bitmap profiles" below).
        self._label_bitmaps: dict[int, int] | None = None
        self._nbr_bitmaps: list[int] | None = None
        self._degree_bitmaps: dict[int, int] = {}
        self._nlf_bitmaps: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edge_list(
        cls,
        labels: Iterable[int],
        edges: Iterable[tuple[int, int]],
        name: str | None = None,
    ) -> "Graph":
        """Create a graph from vertex labels and an undirected edge list.

        Duplicate edges (in either orientation) and self loops raise
        ``ValueError``; use the builder for more forgiving construction.
        """
        label_list = list(labels)
        adjacency: list[list[int]] = [[] for _ in label_list]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self loop on vertex {u}")
            if not (0 <= u < len(label_list) and 0 <= v < len(label_list)):
                raise ValueError(f"edge ({u}, {v}) references unknown vertex")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            adjacency[u].append(v)
            adjacency[v].append(u)
        return cls(label_list, adjacency, name=name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return len(self._edges) // 2

    def vertices(self) -> range:
        return range(len(self._labels))

    def label(self, v: int) -> int:
        return self._labels[v]

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(self._labels)

    def degree(self, v: int) -> int:
        return self._offsets[v + 1] - self._offsets[v]

    def neighbors(self, v: int) -> array:
        """Sorted neighbor ids of ``v`` (a memoryview-cheap array slice)."""
        return self._edges[self._offsets[v] : self._offsets[v + 1]]

    def csr_offsets(self) -> array:
        """The CSR offset array (length ``n + 1``; read-only by contract)."""
        return self._offsets

    def csr_edges(self) -> array:
        """The CSR edge array (length ``2m``; read-only by contract)."""
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge: a bisect of ``u``'s sorted row."""
        hi = self._offsets[u + 1]
        i = bisect_left(self._edges, v, self._offsets[u], hi)
        return i < hi and self._edges[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u in self.vertices():
            for v in self.neighbors(u):
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------

    @property
    def average_degree(self) -> float:
        if not self._labels:
            return 0.0
        return len(self._edges) / len(self._labels)

    @property
    def max_degree(self) -> int:
        if not self._labels:
            return 0
        return max(self.degree(v) for v in self.vertices())

    @property
    def density(self) -> float:
        n = len(self._labels)
        if n < 2:
            return 0.0
        return 2.0 * self.num_edges / (n * (n - 1))

    def label_set(self) -> frozenset[int]:
        return frozenset(self._labels)

    @property
    def num_labels(self) -> int:
        return len(set(self._labels))

    # ------------------------------------------------------------------
    # Label-partitioned views (lazy)
    # ------------------------------------------------------------------

    def vertices_with_label(self, label: int) -> tuple[int, ...]:
        """All vertices carrying ``label`` (the reverse label index)."""
        if self._label_index is None:
            index: dict[int, list[int]] = {}
            for v, lab in enumerate(self._labels):
                index.setdefault(lab, []).append(v)
            self._label_index = {lab: tuple(vs) for lab, vs in index.items()}
        return self._label_index.get(label, ())

    def neighbor_label_counts(self, v: int) -> dict[int, int]:
        """Multiset of neighbor labels of ``v`` (the "neighborhood profile"
        GraphQL filters on), counted from the CSR row on every call."""
        labels = self._labels
        counts: dict[int, int] = {}
        for w in self.neighbors(v):
            lab = labels[w]
            counts[lab] = counts.get(lab, 0) + 1
        return counts

    def edge_label_counts(self) -> dict[tuple[int, int], int]:
        """Occurrences of each unordered label pair over the edges.

        Keys are ``(min(label), max(label))``.  QuickSI's QI-sequence
        ordering weighs query edges by how frequent their label pair is in
        the data graph — rare pairs first.
        """
        if self._edge_label_counts is None:
            counts: dict[tuple[int, int], int] = {}
            for u, v in self.edges():
                lu, lv = self._labels[u], self._labels[v]
                key = (lu, lv) if lu <= lv else (lv, lu)
                counts[key] = counts.get(key, 0) + 1
            self._edge_label_counts = counts
        return self._edge_label_counts

    # ------------------------------------------------------------------
    # Bitmap profiles (lazy; the int-bitmap views of the graph)
    # ------------------------------------------------------------------

    def label_bitmap(self, label: int) -> int:
        """Bitmap of the vertices carrying ``label``."""
        if self._label_bitmaps is None:
            index: dict[int, int] = {}
            for v, lab in enumerate(self._labels):
                index[lab] = index.get(lab, 0) | (1 << v)
            self._label_bitmaps = index
        return self._label_bitmaps.get(label, 0)

    def neighbor_bitmaps(self) -> list[int]:
        """Bitmap of N(v) for every vertex ``v`` (read-only by contract).

        The filter loops hoist this list to a local and index it, instead
        of paying a method call per candidate vertex.
        """
        if self._nbr_bitmaps is None:
            self._nbr_bitmaps = [
                pack_bits(self.neighbors(v)) for v in self.vertices()
            ]
        return self._nbr_bitmaps

    def neighbor_bitmap(self, v: int) -> int:
        """Bitmap of N(v)."""
        if self._nbr_bitmaps is None:
            return self.neighbor_bitmaps()[v]
        return self._nbr_bitmaps[v]

    def degree_bitmap(self, min_degree: int) -> int:
        """Bitmap of the vertices with degree ≥ ``min_degree``.

        Memoized per threshold; queries only ever ask for their own
        vertex degrees, so the set of thresholds stays tiny.
        """
        cached = self._degree_bitmaps.get(min_degree)
        if cached is None:
            cached = pack_bits(
                v for v in self.vertices() if self.degree(v) >= min_degree
            )
            self._degree_bitmaps[min_degree] = cached
        return cached

    def nlf_bitmap(self, label: int, min_count: int) -> int:
        """Bitmap of vertices with ≥ ``min_count`` neighbors of ``label``.

        One cached bitmap per (label, threshold) pair turns the NLF filter
        ("for every label l, |N(u) with label l| ≤ |N(v) with label l|")
        into a chain of ANDs shared by all queries on this graph.
        """
        key = (label, min_count)
        cached = self._nlf_bitmaps.get(key)
        if cached is None:
            # |N(v) with label l| is one popcount of N(v) ∩ label(l).
            with_label = self.label_bitmap(label)
            cached = 0
            for v, nbrs in enumerate(self.neighbor_bitmaps()):
                if (nbrs & with_label).bit_count() >= min_count:
                    cached |= 1 << v
            self._nlf_bitmaps[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------

    def profile_memory_bytes(self) -> int:
        """Retained size of the memoized bitmap profiles.

        Counts the bitmap payloads, so the lazily built acceleration
        structures show up in memory reports the same way index
        structures do.
        """
        total = 0
        if self._label_bitmaps is not None:
            total += sum(bitmap_bytes(b) for b in self._label_bitmaps.values())
        if self._nbr_bitmaps is not None:
            total += sum(bitmap_bytes(b) for b in self._nbr_bitmaps)
        total += sum(bitmap_bytes(b) for b in self._degree_bitmaps.values())
        total += sum(bitmap_bytes(b) for b in self._nlf_bitmaps.values())
        return total

    def csr_memory_bytes(self, word_bytes: int = 4) -> int:
        """Size of the CSR arrays as the paper counts them (Table VII).

        The paper's C++ implementation stores a label array (n words), an
        offset array (n+1 words) and an edge array (2m words).  We report
        that figure rather than the Python object overhead so the
        "Datasets" rows of Tables VII/IX are comparable in spirit.
        """
        n = len(self._labels)
        return word_bytes * (n + (n + 1) + len(self._edges))

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"<Graph{tag} |V|={self.num_vertices} |E|={self.num_edges} "
            f"|Σ|={self.num_labels}>"
        )

    def __len__(self) -> int:
        return len(self._labels)
