"""The persistent index store: a directory of validated index snapshots.

One :class:`IndexStore` manages a directory holding at most one snapshot
per index family member, named after the index (``Grapes.snap``,
``GGSX.snap``, ...).  The contract is *never trust, always verify*:

* ``save`` serializes the index plus a header (family tag, build
  parameters, the fingerprint of the database it was built against) into
  a crash-consistent snapshot — temp file, fsync, atomic rename, per-
  section CRC32s (see :mod:`repro.store.snapshot`);
* ``load_into`` re-verifies everything on the way back in: checksums and
  framing, format version, codec family, build parameters, and the
  database fingerprint.  Any mismatch — a truncated file, a flipped bit,
  a snapshot built from an older database, a future format version —
  raises :class:`~repro.utils.errors.SnapshotError` with a stable reason
  code, and the caller (the engine) falls back to a rebuild.

A snapshot is keyed by index name only, deliberately: building against a
*changed* database must be detected as ``db-fingerprint`` at load rather
than silently missed because the filename changed.

Dynamic databases add two more artifacts to the directory (PR 8):

* ``mutations.wal`` — the :class:`~repro.store.wal.MutationLog`, the
  durable journal of acknowledged ``add_graph``/``remove_graph`` calls
  not yet folded into snapshots;
* ``database.dbsnap`` — a snapshot of the *mutated* database itself,
  written by compaction so folded journal records can be dropped.  Its
  header records the base-database fingerprint it is anchored to and the
  journal sequence number it folds through.

:meth:`IndexStore.recover_mutations` ties them together: restore the
database snapshot if one verifies, scan/repair the journal, and hand the
caller the verified records past the fold point.  A database snapshot
that exists but cannot be trusted strands any mutations a previous
compaction already folded away, so the store **quarantines** the whole
dynamic state (snapshot + journal renamed aside, never deleted) and the
engine restarts from the base database — degraded to stale, never wrong.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.graph.database import GraphDatabase
from repro.index.base import GraphIndex
from repro.store.codecs import codec_for
from repro.store.snapshot import database_fingerprint, read_snapshot, write_snapshot
from repro.store.wal import (
    QUARANTINE_SUFFIX,
    MutationLog,
    MutationRecord,
    graph_from_record,
    graph_to_record,
)
from repro.utils.errors import SnapshotError
from repro.utils.fsio import fsync_dir

__all__ = ["IndexStore", "MutationRecovery"]

SNAPSHOT_SUFFIX = ".snap"

#: The mutated-database snapshot.  Deliberately *not* ``*.snap`` so the
#: index-snapshot listing (``snapshots()`` / ``repro index verify``) is
#: unaffected.
DATABASE_SNAPSHOT_NAME = "database.dbsnap"

#: The write-ahead mutation log file inside a store directory.
WAL_NAME = "mutations.wal"

_SLUG_RE = re.compile(r"[^A-Za-z0-9_.-]+")


def _slug(name: str) -> str:
    return _SLUG_RE.sub("_", name) or "index"


@dataclass
class MutationRecovery:
    """What :meth:`IndexStore.recover_mutations` found and repaired."""

    #: Fingerprint of the base database (as loaded from its file).
    base_fingerprint: str
    #: Journal sequence number the database snapshot folds through (0
    #: when there is no snapshot — the database starts at the base).
    folded_seq: int = 0
    #: Verified journal records past the fold point, to be replayed.
    records: list[MutationRecord] = field(default_factory=list)
    #: Journal lines discarded (torn tail, corrupt record, quarantine).
    dropped: int = 0
    #: Stable damage code when anything was repaired or set aside.
    reason: str | None = None
    #: True when the dynamic state was quarantined wholesale.
    quarantined: bool = False


class IndexStore:
    """Directory-backed store of durable, validated index snapshots."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._wal: MutationLog | None = None
        self._recovered = False

    def __repr__(self) -> str:
        return f"<IndexStore {str(self.directory)!r}>"

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def snapshot_path(self, index_name: str) -> Path:
        return self.directory / f"{_slug(index_name)}{SNAPSHOT_SUFFIX}"

    @property
    def database_snapshot_path(self) -> Path:
        return self.directory / DATABASE_SNAPSHOT_NAME

    @property
    def wal(self) -> MutationLog:
        """The store's write-ahead mutation log (lazily constructed)."""
        if self._wal is None:
            self._wal = MutationLog(self.directory / WAL_NAME)
        return self._wal

    def snapshots(self) -> list[Path]:
        """Every snapshot file currently in the store (sorted)."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob(f"*{SNAPSHOT_SUFFIX}"))

    def has_snapshot(self, index_name: str) -> bool:
        return self.snapshot_path(index_name).is_file()

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------

    def save(
        self,
        index: GraphIndex,
        db: GraphDatabase,
        db_fingerprint: str | None = None,
        wal_seq: int = 0,
    ) -> Path:
        """Write a crash-consistent snapshot of ``index``; returns its path.

        ``db_fingerprint`` may be passed when already computed (the engine
        fingerprints once per build) — it *must* be the fingerprint of
        ``db``.  ``wal_seq`` records the mutation-log sequence number this
        snapshot is current through, so recovery knows which journaled
        records the snapshot already contains.
        """
        codec = codec_for(index)
        header = {
            "family": codec.family,
            "index_name": index.name,
            "params": codec.params(index),
            "db_fingerprint": db_fingerprint or database_fingerprint(db),
            "num_graphs": len(index.indexed_ids),
            "wal_seq": wal_seq,
        }
        sections = {
            "header": json.dumps(header, sort_keys=True).encode("utf-8"),
            "index": json.dumps(codec.encode_state(index)).encode("utf-8"),
        }
        path = self.snapshot_path(index.name)
        write_snapshot(path, sections)
        return path

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_header(path: Path, sections: dict[str, bytes]) -> dict:
        try:
            header = json.loads(sections["header"])
        except (KeyError, ValueError) as exc:
            raise SnapshotError(
                f"snapshot {path} has no parseable header section",
                reason="payload",
            ) from exc
        if not isinstance(header, dict):
            raise SnapshotError(
                f"snapshot {path} header is not an object", reason="payload"
            )
        return header

    def load_into(
        self,
        index: GraphIndex,
        db: GraphDatabase,
        db_fingerprint: str | None = None,
    ) -> dict:
        """Fill a freshly constructed ``index`` from its snapshot.

        Verifies, in order: file framing and checksums, codec family,
        build parameters, and the database fingerprint.  On success the
        index answers queries exactly as a cold rebuild would; on *any*
        failure a :class:`SnapshotError` is raised and the index is left
        untouched.  Returns the snapshot header.
        """
        path = self.snapshot_path(index.name)
        sections = read_snapshot(path)
        header = self._parse_header(path, sections)
        codec = codec_for(index)
        if header.get("family") != codec.family:
            raise SnapshotError(
                f"snapshot {path} holds family {header.get('family')!r}, "
                f"index {index.name!r} needs {codec.family!r}",
                reason="family",
            )
        if header.get("params") != codec.params(index):
            raise SnapshotError(
                f"snapshot {path} was built with parameters "
                f"{header.get('params')!r}, index is configured with "
                f"{codec.params(index)!r}",
                reason="params",
            )
        expected = db_fingerprint or database_fingerprint(db)
        if header.get("db_fingerprint") != expected:
            raise SnapshotError(
                f"snapshot {path} was built against a different database "
                f"(fingerprint {header.get('db_fingerprint')!r} != {expected!r})",
                reason="db-fingerprint",
            )
        try:
            state = json.loads(sections["index"])
            codec.decode_state(index, state)
        except SnapshotError:
            raise
        except Exception as exc:
            raise SnapshotError(
                f"snapshot {path} payload cannot be decoded: "
                f"{type(exc).__name__}: {exc}",
                reason="payload",
            ) from exc
        return header

    def snapshot_header(self, index_name: str) -> dict:
        """Read and verify one snapshot's header without decoding state.

        Recovery needs the snapshot's ``wal_seq`` *before* it can decide
        which journaled mutations to replay into the database ahead of
        the fingerprint check; raises :class:`SnapshotError` exactly like
        :meth:`load_into` would for an unreadable snapshot.
        """
        path = self.snapshot_path(index_name)
        return self._parse_header(path, read_snapshot(path))

    # ------------------------------------------------------------------
    # The mutated database: snapshot + write-ahead log
    # ------------------------------------------------------------------

    def save_database(self, db: GraphDatabase, wal_seq: int) -> Path:
        """Snapshot the mutated database, folded through ``wal_seq``.

        Written by compaction *before* the journal is truncated: the
        snapshot commits atomically (temp + fsync + rename), so the
        folded records exist durably in either the journal or the
        snapshot at every instant.
        """
        if not self.wal.anchored:
            raise SnapshotError(
                "cannot snapshot the database before the mutation log is "
                "anchored (recover_mutations must run first)",
                reason="wal-base",
            )
        header = {
            "kind": "database",
            "base_fingerprint": self.wal.base,
            "wal_seq": wal_seq,
            "next_id": db.next_id,
            "num_graphs": len(db),
        }
        payload = {
            "graphs": [[gid, graph_to_record(g)] for gid, g in db.items()],
        }
        sections = {
            "header": json.dumps(header, sort_keys=True).encode("utf-8"),
            "database": json.dumps(payload).encode("utf-8"),
        }
        path = self.database_snapshot_path
        write_snapshot(path, sections)
        return path

    def load_database(self, db: GraphDatabase, base_fingerprint: str) -> int:
        """Restore ``db`` from the database snapshot; returns its fold seq.

        ``base_fingerprint`` must be the fingerprint of ``db`` as loaded
        from its file: a snapshot anchored to a different base would
        replace the operator's database with another one's mutated state,
        so it is rejected with reason ``db-fingerprint``.  Raises
        ``missing`` when there is no snapshot (the common, healthy case).
        """
        path = self.database_snapshot_path
        sections = read_snapshot(path)
        header = self._parse_header(path, sections)
        if header.get("kind") != "database":
            raise SnapshotError(
                f"snapshot {path} is not a database snapshot", reason="payload"
            )
        if header.get("base_fingerprint") != base_fingerprint:
            raise SnapshotError(
                f"database snapshot {path} is anchored to a different base "
                f"database (fingerprint {header.get('base_fingerprint')!r} "
                f"!= {base_fingerprint!r})",
                reason="db-fingerprint",
            )
        wal_seq = header.get("wal_seq")
        if not isinstance(wal_seq, int) or wal_seq < 0:
            raise SnapshotError(
                f"database snapshot {path} has an invalid wal_seq "
                f"{wal_seq!r}",
                reason="payload",
            )
        try:
            payload = json.loads(sections["database"])
            graphs = [
                (int(gid), graph_from_record(record))
                for gid, record in payload["graphs"]
            ]
            db.restore(graphs, int(header.get("next_id", 0)))
        except SnapshotError:
            raise
        except Exception as exc:
            raise SnapshotError(
                f"database snapshot {path} payload cannot be decoded: "
                f"{type(exc).__name__}: {exc}",
                reason="payload",
            ) from exc
        return wal_seq

    def _quarantine_dynamic_state(self) -> None:
        """Set the database snapshot and journal aside, preserved on disk.

        Used when the database snapshot exists but cannot be trusted:
        mutations folded by an earlier compaction may only exist inside
        it, so the journal tail alone cannot rebuild the mutated state —
        replaying it onto the base would produce a database that never
        existed.  The files are renamed, never deleted, so an operator
        can still inspect or hand-repair them.
        """
        for path in (self.database_snapshot_path, self.wal.path):
            try:
                os.replace(path, path.with_name(path.name + QUARANTINE_SUFFIX))
            except FileNotFoundError:
                pass
        fsync_dir(self.directory)

    def recover_mutations(self, db: GraphDatabase) -> MutationRecovery:
        """Restore the mutated database state around ``db`` (in place).

        Loads the database snapshot when one verifies, scans and repairs
        the journal, and returns the verified records *past* the fold
        point for the caller to replay.  ``db`` must hold the base
        database as loaded from its file; after this call it holds the
        snapshot state (when one was restored) and the caller applies the
        returned records on top.
        """
        base = database_fingerprint(db)
        recovery = MutationRecovery(base_fingerprint=base)
        try:
            recovery.folded_seq = self.load_database(db, base)
        except SnapshotError as exc:
            if exc.reason != "missing":
                self._quarantine_dynamic_state()
                self._wal = None  # drop any stale in-memory journal view
                self.wal.anchor(base)
                self._recovered = True
                return MutationRecovery(
                    base_fingerprint=base, reason=exc.reason, quarantined=True
                )
        scan = self.wal.recover(base)
        self.wal.ensure_floor(recovery.folded_seq)
        recovery.records = [
            r for r in scan.records if r.seq > recovery.folded_seq
        ]
        recovery.dropped = scan.dropped
        recovery.reason = scan.reason
        recovery.quarantined = scan.quarantined
        self._recovered = True
        return recovery

    def ensure_recovered(self, db: GraphDatabase) -> None:
        """Make ad-hoc journaling safe when recovery never ran.

        The engine normally recovers during ``build_index(store=...)``;
        a caller that journals straight away (mutations before any build)
        still must not append to an unscanned file, so recovery runs here
        and any surviving records are replayed into ``db`` database-side
        (no index exists to maintain yet on this path).
        """
        if self._recovered:
            return
        for record in self.recover_mutations(db).records:
            record.apply(db)

    def journal_add(
        self,
        db: GraphDatabase,
        graph,
        gid: int | None = None,
        request_key: str | None = None,
    ) -> int:
        """Durably journal the insertion ``db`` will apply next.

        Returns the graph id the insertion will receive — computed as
        ``db.next_id`` *after* the journal is ready, because lazy
        recovery may replay records that advance the id counter.  Pass
        an explicit ``gid`` to journal an insertion under a caller-chosen
        id (the shard rebalancer's two-phase move); ``request_key`` rides
        along in the record for dedup-window recovery.
        """
        self.ensure_recovered(db)
        if gid is None:
            gid = db.next_id
        elif gid in db:
            raise ValueError(f"graph id {gid} already exists")
        self.wal.append_add(gid, graph, request_key=request_key)
        return gid

    def journal_remove(
        self, db: GraphDatabase, gid: int, request_key: str | None = None
    ) -> int:
        """Durably journal a removal; returns its sequence number.

        Validates ``gid`` against ``db`` (after the journal is ready) so
        a removal of an unknown graph is rejected *before* anything is
        written — a journaled record must always describe a mutation
        that was really applied.
        """
        self.ensure_recovered(db)
        if gid not in db:
            raise KeyError(f"no graph with id {gid}")
        return self.wal.append_remove(gid, request_key=request_key)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify_snapshot(self, path: str | Path, db: GraphDatabase | None = None) -> dict:
        """Structurally verify one snapshot file; returns its header.

        Checks framing, version, and checksums; with ``db`` given, also
        the database fingerprint.  Raises :class:`SnapshotError` on any
        problem — the same defences ``load_into`` applies, minus the
        parameter comparison (which needs a configured index).
        """
        path = Path(path)
        sections = read_snapshot(path)
        header = self._parse_header(path, sections)
        try:
            json.loads(sections["index"])
        except (KeyError, ValueError) as exc:
            raise SnapshotError(
                f"snapshot {path} has no parseable index section",
                reason="payload",
            ) from exc
        if db is not None:
            expected = database_fingerprint(db)
            if header.get("db_fingerprint") != expected:
                raise SnapshotError(
                    f"snapshot {path} was built against a different database "
                    f"(fingerprint {header.get('db_fingerprint')!r} != "
                    f"{expected!r})",
                    reason="db-fingerprint",
                )
        return header
