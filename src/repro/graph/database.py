"""The graph database: an updatable collection of data graphs.

Graph ids are stable handles: removing a graph never renumbers the others.
This matters for the paper's motivating point that IFV indices are costly to
maintain under updates — the dynamic-database example exercises exactly
``add_graph``/``remove_graph`` against an index that must keep up.

The database also answers the one filtering question that does not need a
data graph in hand: *which graphs own, for each of these (label, degree)
pairs, a vertex with that label and at least that degree?*  That is the
LDF seed test every vcFV matcher starts with, so :meth:`GraphDatabase.
seed_screen` lets a scan skip the graphs that test would reject before
paying for a per-graph filter call.  The screen is a derived cache: built
on the first scan, caught up lazily after mutations, never pickled.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.graph.labeled_graph import Graph

__all__ = ["DatabaseStats", "GraphDatabase"]


@dataclass(frozen=True)
class DatabaseStats:
    """The per-dataset statistics the paper reports in Table IV."""

    num_graphs: int
    num_labels: int
    avg_vertices: float
    avg_edges: float
    avg_degree: float
    avg_labels_per_graph: float

    def as_row(self) -> dict[str, float]:
        return {
            "#graphs": self.num_graphs,
            "#labels": self.num_labels,
            "#vertices per graph": round(self.avg_vertices, 2),
            "#edges per graph": round(self.avg_edges, 2),
            "degree per graph": round(self.avg_degree, 2),
            "#labels per graph": round(self.avg_labels_per_graph, 2),
        }


class _SeedScreen:
    """Per ``(label, min_degree)``: a bitmap over graph ids of the graphs
    that own a vertex with that label and at least that degree.

    Insertions queue in ``pending`` and are folded in by the next scan;
    a removal only clears the graph's bit in ``live``, so its bits in
    ``entries`` go stale.  A stale bit matters only once the id is given
    to another graph (``add_graph_with_id``): the screen then passes that
    id for pairs either graph owned — a superset, which is still sound.
    """

    __slots__ = ("entries", "live", "pending")

    def __init__(self, pending: list[int]) -> None:
        self.entries: dict[tuple[int, int], int] = {}
        self.live = 0
        self.pending = pending

    def fold(self, graphs: dict[int, Graph]) -> None:
        """Bring ``entries``/``live`` up to date with the queued ids."""
        entries = self.entries
        for gid in self.pending:
            graph = graphs.get(gid)
            if graph is None:  # removed again before any scan saw it
                continue
            bit = 1 << gid
            self.live |= bit
            offsets = graph.csr_offsets()
            max_degree: dict[int, int] = {}
            for v, label in enumerate(graph.labels):
                degree = offsets[v + 1] - offsets[v]
                if degree > max_degree.get(label, -1):
                    max_degree[label] = degree
            for label, top in max_degree.items():
                for degree in range(top + 1):
                    key = (label, degree)
                    entries[key] = entries.get(key, 0) | bit
        self.pending = []


class GraphDatabase:
    """An ordered, updatable collection of data graphs with stable ids."""

    def __init__(self, name: str | None = None) -> None:
        self.name = name
        self._graphs: dict[int, Graph] = {}
        self._next_id = 0
        # Optional mapping from integer labels back to source names, filled
        # in by the I/O layer when a file uses string labels.
        self.label_names: dict[int, str] | None = None
        # Built by the first scan (see seed_screen).
        self._screen: _SeedScreen | None = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    @property
    def next_id(self) -> int:
        """The id the next :meth:`add_graph` will assign (peek, no mutate).

        The durable mutation path journals an insertion *before* applying
        it, and the journaled record must carry the id the graph will
        actually get.
        """
        return self._next_id

    def add_graph(self, graph: Graph) -> int:
        """Insert ``graph`` and return its stable id."""
        gid = self._next_id
        self._graphs[gid] = graph
        self._next_id += 1
        if self._screen is not None:
            self._screen.pending.append(gid)
        return gid

    def add_graphs(self, graphs: list[Graph]) -> list[int]:
        return [self.add_graph(g) for g in graphs]

    def add_graph_with_id(self, gid: int, graph: Graph) -> int:
        """Insert ``graph`` under a caller-chosen id (mutation-log replay).

        Replaying a journaled insertion must reproduce the exact id the
        original session acknowledged, not whatever ``_next_id`` happens
        to be.  The id counter is bumped past ``gid`` so later plain
        insertions never collide with a replayed one.
        """
        if gid in self._graphs:
            raise ValueError(f"graph id {gid} is already present")
        if gid < 0:
            raise ValueError(f"graph id must be non-negative, got {gid}")
        self._graphs[gid] = graph
        self._next_id = max(self._next_id, gid + 1)
        if self._screen is not None:
            self._screen.pending.append(gid)
        return gid

    def remove_graph(self, gid: int) -> Graph:
        """Remove and return the graph with id ``gid``."""
        try:
            graph = self._graphs.pop(gid)
        except KeyError:
            raise KeyError(f"no graph with id {gid}") from None
        if self._screen is not None:
            self._screen.live &= ~(1 << gid)
        return graph

    def restore(self, graphs: list[tuple[int, Graph]], next_id: int) -> None:
        """Replace the whole contents (database-snapshot recovery).

        ``graphs`` must be in the original insertion order: the database
        fingerprint hashes graphs in iteration order, so a restored
        database must iterate exactly like the one that was snapshotted.
        """
        self._graphs = dict(graphs)
        self._next_id = max(
            [next_id, *(gid + 1 for gid in self._graphs)], default=next_id
        )
        self._screen = None

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._graphs)

    def __contains__(self, gid: int) -> bool:
        return gid in self._graphs

    def __getitem__(self, gid: int) -> Graph:
        return self._graphs[gid]

    def __iter__(self) -> Iterator[int]:
        """Iterate over graph ids in insertion order."""
        return iter(self._graphs)

    def ids(self) -> list[int]:
        return list(self._graphs)

    def items(self) -> Iterator[tuple[int, Graph]]:
        return iter(self._graphs.items())

    def graphs(self) -> list[Graph]:
        return list(self._graphs.values())

    def seed_screen(self, pairs: Iterable[tuple[int, int]]) -> int:
        """Bitmap over graph ids of the graphs that may pass LDF seeding.

        ``pairs`` are a query's distinct ``(label, degree)`` pairs
        (:attr:`QueryPlan.seed_pairs <repro.matching.plan.QueryPlan>`).
        Bit ``gid`` is set iff graph ``gid`` is present and owns, for
        every pair, a vertex with that label and at least that degree —
        exactly the graphs whose LDF seed sets are all non-empty (a
        superset of them once a removed id has been re-used).  Every
        vcFV matcher rejects the others at seeding, so a scan that visits
        only these graphs returns the same answers *and* candidates.
        """
        screen = self._screen
        if screen is None:
            screen = self._screen = _SeedScreen(list(self._graphs))
        if screen.pending:
            screen.fold(self._graphs)
        entries = screen.entries
        survivors = screen.live
        for pair in pairs:
            survivors &= entries.get(pair, 0)
        return survivors

    def __getstate__(self) -> dict:
        """Drop the seed screen: a derived cache, rebuilt on first scan."""
        state = self.__dict__.copy()
        state["_screen"] = None
        return state

    # ------------------------------------------------------------------
    # Statistics & accounting
    # ------------------------------------------------------------------

    def stats(self) -> DatabaseStats:
        """Aggregate statistics in the shape of the paper's Table IV."""
        n = len(self._graphs)
        if n == 0:
            return DatabaseStats(0, 0, 0.0, 0.0, 0.0, 0.0)
        all_labels: set[int] = set()
        total_vertices = total_edges = total_label_kinds = 0
        total_degree = 0.0
        for g in self._graphs.values():
            all_labels.update(g.label_set())
            total_vertices += g.num_vertices
            total_edges += g.num_edges
            total_degree += g.average_degree
            total_label_kinds += g.num_labels
        return DatabaseStats(
            num_graphs=n,
            num_labels=len(all_labels),
            avg_vertices=total_vertices / n,
            avg_edges=total_edges / n,
            avg_degree=total_degree / n,
            avg_labels_per_graph=total_label_kinds / n,
        )

    def csr_memory_bytes(self, word_bytes: int = 4) -> int:
        """Combined CSR footprint of all data graphs (Table VII 'Datasets')."""
        return sum(g.csr_memory_bytes(word_bytes) for g in self._graphs.values())

    def profile_memory_bytes(self) -> int:
        """Combined size of the lazily built per-graph bitmap profiles."""
        return sum(g.profile_memory_bytes() for g in self._graphs.values())

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<GraphDatabase{tag} |D|={len(self._graphs)}>"
