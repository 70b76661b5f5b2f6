"""Expected answers, from an algorithm the servers never run.

Every server in the benchmark answers with CFQL or vcGrapes (CFL
filtering, GraphQL-style enumeration, optionally a Grapes index).  The
oracle answers with the in-process ``GraphQL`` pipeline — its own filter,
no index — so a bug in what is being measured cannot also be in what it
is checked against.

Per pool query the oracle keeps two sets: the answers in the workload's
fixed database, and which of the insertable graphs contain the query.
Replaying the schedule's insertions and removals over those sets gives the
exact answer for the database state each query ran on, without running a
matcher per state.  The sets depend only on what the workload fixes, so
they are computed once and cached under ``cache/`` (git-ignored).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core import create_engine
from repro.graph.database import GraphDatabase
from repro.graph.io import serialize_graph_database
from repro.service.protocol import graph_key

from workloads import Op, Workload

ORACLE_ALGORITHM = "GraphQL"
CACHE_DIR = Path(__file__).resolve().parent / "cache"


def _as_database(graphs) -> GraphDatabase:
    db = GraphDatabase()
    db.add_graphs(list(graphs))
    return db


def _answers(db: GraphDatabase, queries) -> list[list[int]]:
    engine = create_engine(db, ORACLE_ALGORITHM)
    answers = []
    for query in queries:
        result = engine.query(query)
        if result.failed:
            raise RuntimeError(f"oracle failed on {query.name}: {result.failure}")
        answers.append(sorted(result.answers))
    return answers


class Oracle:
    """Answer sets for one workload's pool, and the state replay over them."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        inserted = _as_database(workload.insertable)
        fingerprint = hashlib.sha256("\n".join([
            ORACLE_ALGORITHM,
            serialize_graph_database(workload.database),
            serialize_graph_database(inserted),
            *(graph_key(q) for q in workload.pool),
        ]).encode()).hexdigest()
        path = CACHE_DIR / f"oracle-{workload.name}.json"
        cached = None
        if path.exists():
            try:
                cached = json.loads(path.read_text())
            except ValueError:
                cached = None
        self.cache_hit = bool(cached) and cached.get("fingerprint") == fingerprint
        if not self.cache_hit:
            cached = {
                "fingerprint": fingerprint,
                "base": _answers(workload.database, workload.pool),
                "inserted": _answers(inserted, workload.pool),
            }
            CACHE_DIR.mkdir(exist_ok=True)
            scratch = path.with_suffix(".tmp")
            scratch.write_text(json.dumps(cached))
            scratch.replace(path)
        self.base = [frozenset(a) for a in cached["base"]]
        self.inserted = [frozenset(a) for a in cached["inserted"]]
        self.reset()

    def reset(self) -> None:
        """Back to the workload's fixed database: a fresh server's state."""
        #: gid -> insertable index, for insertions not yet removed.
        self.live: dict[int, int] = {}
        self.next_gid = self.workload.database.next_id

    def expected(self, pool_index: int) -> list[int]:
        """Answers to pool query ``pool_index`` in the current state."""
        contains = self.inserted[pool_index]
        extra = [gid for gid, g in self.live.items() if g in contains]
        return sorted(self.base[pool_index].union(extra))

    def apply(self, op: Op) -> int:
        """Advance the state by one mutation; returns the gid it concerns."""
        if op.kind == "add":
            gid = self.next_gid
            self.next_gid += 1
            self.live[gid] = op.ref
            return gid
        gid = op.message["gid"]
        del self.live[gid]
        return gid

    @property
    def num_graphs(self) -> int:
        return len(self.workload.database) + len(self.live)
