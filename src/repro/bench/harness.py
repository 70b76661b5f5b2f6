"""Experiment runner shared by all benchmarks.

The paper's Section IV derives every table and figure from two big runs:
the *real-world matrix* (8 algorithms × 4 datasets × 8 query sets) and the
*synthetic matrix* (a subset of algorithms over 4 parameter sweeps).  This
module executes each matrix exactly once per configuration and caches the
outcome, so the per-table benchmark files are cheap formatters over shared
results.

Scaling knobs live in :class:`BenchConfig` (env-overridable, see
``from_env``) with defaults sized for pure Python: smaller databases, a
few queries per set, and tighter OOT/OOM budgets.  The budget mechanics —
not the absolute limits — are what reproduce the paper's OOT/OOM entries.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.algorithms import create_engine
from repro.core.engine import SubgraphQueryEngine
from repro.core.metrics import QuerySetReport, aggregate_results
from repro.exec.base import executor_factory
from repro.exec.journal import RunJournal
from repro.graph.database import GraphDatabase
from repro.utils.errors import (
    ConfigurationError,
    MemoryLimitExceeded,
    TimeLimitExceeded,
)
from repro.workloads.datasets import make_dataset
from repro.workloads.querysets import QuerySet, standard_query_sets
from repro.workloads.synthetic import SyntheticConfig, synthetic_sweep

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.store.manager import IndexStore

__all__ = [
    "BenchConfig",
    "IFV_ALGORITHMS",
    "REAL_WORLD_ALGORITHMS",
    "REAL_WORLD_DATASETS",
    "SYNTHETIC_ALGORITHMS",
    "build_engine",
    "get_query_sets",
    "get_real_dataset",
    "get_synthetic_sweep",
    "real_world_matrix",
    "run_query_set",
    "synthetic_matrix",
]

REAL_WORLD_DATASETS = ("AIDS", "PDBS", "PCM", "PPI")
IFV_ALGORITHMS = ("CT-Index", "GGSX", "Grapes")
REAL_WORLD_ALGORITHMS = (
    "CT-Index", "Grapes", "GGSX", "CFL", "GraphQL", "CFQL", "vcGrapes", "vcGGSX",
)
#: Algorithms the paper carries into the synthetic study (Sec. IV-C uses
#: CFQL as the vcFV representative).
SYNTHETIC_ALGORITHMS = ("CFQL", "Grapes", "GGSX", "vcGrapes")

#: Fraction of failed queries beyond which the paper omits a query set.
OMIT_THRESHOLD = 0.4


@dataclass(frozen=True)
class BenchConfig:
    """All scaling knobs of the experiment suite.

    Frozen (hashable) so it can key the matrix caches.  Paper analogues in
    brackets.
    """

    dataset_scale: float = 0.15          # graph-count multiplier for stand-ins
    queries_per_set: int = 5             # [100]
    edge_counts: tuple[int, ...] = (4, 8, 16, 32)
    query_time_limit: float = 1.0        # seconds [600]
    index_time_limit: float = 15.0       # seconds per dataset [86,400]
    max_path_edges: int = 3              # Grapes/GGSX path length [4]
    max_tree_edges: int = 3              # CT-Index tree size [4]
    max_cycle_length: int = 4            # CT-Index cycle length [4]
    index_feature_budget: int = 500_000  # per-graph feature cap → OOM
    #: Containment policy for query execution: "inprocess" (cooperative)
    #: or "subprocess" (hard SIGKILL timeouts + RSS cap per worker).
    executor: str = "inprocess"
    #: Worker processes per query batch.  > 1 selects the parallel pool
    #: executor (hard limits included) regardless of ``executor``; 1 keeps
    #: the configured serial policy.  Results are identical either way, so
    #: ``jobs`` is excluded from the journal fingerprint.
    jobs: int = 1
    #: Worker address-space cap in MiB (subprocess executor only; 0 = none).
    memory_limit_mb: int = 0
    #: Shard count for scatter-gather execution.  > 1 partitions each
    #: cell's database across N shard engines behind a router; answers
    #: are bit-identical to the unsharded run (set-union merge over a
    #: disjoint placement), so ``shards`` is excluded from the journal
    #: fingerprint just like ``jobs``.
    shards: int = 1
    #: When True, an index that fails to build (OOT/OOM) degrades the
    #: engine to its vcFV fallback instead of dropping the configuration.
    index_fallback: bool = False
    #: JSONL journal path making matrix runs resumable ("" = disabled).
    journal: str = ""
    #: Directory for persistent index snapshots ("" = disabled).  Each
    #: matrix cell warm-starts its index from the store when a valid
    #: snapshot exists and saves one after a cold build.  Excluded from
    #: the journal fingerprint: snapshot identity is enforced at load by
    #: the store's own database-fingerprint check, so a store cannot
    #: change answers — only skip rebuild time.
    index_store: str = ""
    seed: int = 0
    synthetic_num_graphs: int = 50       # [1000]
    synthetic_num_vertices: int = 50     # [200]
    synthetic_sweeps: tuple[tuple[str, tuple[int, ...]], ...] = (
        ("num_graphs", (10, 25, 50, 100, 200)),       # [1e2 .. 1e6]
        ("num_labels", (1, 10, 20, 40, 80)),          # [same]
        ("num_vertices", (15, 25, 50, 100, 200)),     # [50 .. 12800]
        ("avg_degree", (2, 4, 8, 12, 16)),            # [4 .. 64]
    )

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(
                f"benchmark jobs must be >= 1 worker process, got {self.jobs} "
                "(check --jobs / REPRO_BENCH_JOBS)"
            )
        if self.shards < 1:
            raise ConfigurationError(
                f"benchmark shards must be >= 1, got {self.shards} "
                "(check --shards / REPRO_BENCH_SHARDS)"
            )

    @classmethod
    def from_env(cls) -> "BenchConfig":
        """Build a config from ``REPRO_BENCH_*`` environment variables.

        ``REPRO_BENCH_SCALE`` multiplies the dataset scale,
        ``REPRO_BENCH_QUERIES`` sets queries per set,
        ``REPRO_BENCH_QUERY_LIMIT`` / ``REPRO_BENCH_INDEX_LIMIT`` set the
        time budgets in seconds.  Execution robustness knobs:
        ``REPRO_BENCH_EXECUTOR`` (inprocess/subprocess),
        ``REPRO_BENCH_JOBS`` (worker processes per query batch),
        ``REPRO_BENCH_MEMORY_MB`` (worker RSS cap),
        ``REPRO_BENCH_FALLBACK`` (1 enables index fallback),
        ``REPRO_BENCH_JOURNAL`` (resumable-run journal path),
        ``REPRO_BENCH_INDEX_STORE`` (persistent index-snapshot directory),
        and ``REPRO_BENCH_SHARDS`` (scatter-gather shard count).

        Raises :class:`~repro.utils.errors.ConfigurationError` on invalid
        values (e.g. ``REPRO_BENCH_JOBS`` below 1).
        """
        base = cls()
        return cls(
            dataset_scale=base.dataset_scale
            * float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
            queries_per_set=int(
                os.environ.get("REPRO_BENCH_QUERIES", base.queries_per_set)
            ),
            query_time_limit=float(
                os.environ.get("REPRO_BENCH_QUERY_LIMIT", base.query_time_limit)
            ),
            index_time_limit=float(
                os.environ.get("REPRO_BENCH_INDEX_LIMIT", base.index_time_limit)
            ),
            executor=os.environ.get("REPRO_BENCH_EXECUTOR", base.executor),
            jobs=int(os.environ.get("REPRO_BENCH_JOBS", base.jobs)),
            memory_limit_mb=int(
                os.environ.get("REPRO_BENCH_MEMORY_MB", base.memory_limit_mb)
            ),
            index_fallback=os.environ.get("REPRO_BENCH_FALLBACK", "").lower()
            in ("1", "true", "yes"),
            journal=os.environ.get("REPRO_BENCH_JOURNAL", base.journal),
            index_store=os.environ.get("REPRO_BENCH_INDEX_STORE", base.index_store),
            shards=int(os.environ.get("REPRO_BENCH_SHARDS", base.shards)),
        )


# ----------------------------------------------------------------------
# Cached workload construction
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def get_real_dataset(name: str, config: BenchConfig) -> GraphDatabase:
    """The stand-in dataset for ``name`` at the config's scale (cached)."""
    return make_dataset(name, seed=config.seed, scale=config.dataset_scale)


@lru_cache(maxsize=None)
def get_query_sets(name: str, config: BenchConfig) -> dict[str, QuerySet]:
    """The 8 standard query sets over one real-world stand-in (cached)."""
    db = get_real_dataset(name, config)
    return standard_query_sets(
        db,
        edge_counts=config.edge_counts,
        size=config.queries_per_set,
        seed=config.seed + 1,
    )


@lru_cache(maxsize=None)
def get_synthetic_sweep(
    parameter: str, config: BenchConfig
) -> dict[int, GraphDatabase]:
    """Databases for one synthetic sweep axis (cached)."""
    values = dict(config.synthetic_sweeps)[parameter]
    base = SyntheticConfig(
        num_graphs=config.synthetic_num_graphs,
        num_vertices=config.synthetic_num_vertices,
    )
    return synthetic_sweep(parameter, values=values, base=base, seed=config.seed + 2)


# ----------------------------------------------------------------------
# Engine construction with OOT/OOM accounting
# ----------------------------------------------------------------------


def build_engine(
    db: GraphDatabase,
    algorithm: str,
    config: BenchConfig,
    store: "IndexStore | None" = None,
) -> tuple[SubgraphQueryEngine | None, float | str]:
    """Create and index an engine; returns ``(engine, status)``.

    ``status`` is the indexing time in seconds on success, or the paper's
    failure markers ``"OOT"`` / ``"OOM"`` — in which case the engine is
    ``None`` (an algorithm whose index failed cannot answer queries).
    With ``config.index_fallback`` the engine survives an index failure by
    degrading to its vcFV fallback; the status then reads e.g.
    ``"OOM→vcFV"`` and the engine is flagged ``degraded``.  With a
    ``store`` the index warm-starts from a verified snapshot when one
    exists and is saved back after a cold build.  With ``config.shards``
    > 1 the database is partitioned across that many shard engines behind
    a scatter-gather router (no store: snapshot layouts are unsharded
    here) — answers stay bit-identical to the unsharded run.
    """
    pipeline_overrides = dict(
        index_max_path_edges=config.max_path_edges,
        index_max_tree_edges=config.max_tree_edges,
        index_max_cycle_length=config.max_cycle_length,
        index_max_features_per_graph=config.index_feature_budget,
        index_max_trie_nodes=config.index_feature_budget * 10,
        index_max_total_features=config.index_feature_budget * 10,
    )
    make_executor = executor_factory(
        config.executor, config.jobs, config.memory_limit_mb or None
    )
    if config.shards > 1:
        if store is not None:
            raise ConfigurationError(
                "sharded benchmark runs cannot use a per-cell index store: "
                "snapshot directories are laid out unsharded (drop "
                "--index-store or --shards)"
            )
        from repro.core.algorithms import create_pipeline
        from repro.shard import ShardedEngine

        engine = ShardedEngine(
            db,
            config.shards,
            lambda: create_pipeline(algorithm, **pipeline_overrides),
            executor_factory=make_executor,
        )
    else:
        engine = create_engine(
            db,
            algorithm,
            executor=make_executor() if make_executor else None,
            **pipeline_overrides,
        )
    try:
        seconds = engine.build_index(
            time_limit=config.index_time_limit,
            fallback=config.index_fallback,
            store=store,
        )
    except TimeLimitExceeded:
        engine.close()
        return None, "OOT"
    except MemoryLimitExceeded:
        engine.close()
        return None, "OOM"
    if engine.degraded:
        return engine, f"{engine.degraded_reason}→vcFV"
    return engine, seconds


def run_query_set(
    engine: SubgraphQueryEngine, query_set: QuerySet, config: BenchConfig
) -> QuerySetReport:
    """Run one query set under the per-query time limit and aggregate."""
    results = engine.query_many(
        list(query_set.queries), time_limit=config.query_time_limit
    )
    return aggregate_results(results, degraded=engine.degraded)


# ----------------------------------------------------------------------
# The two experiment matrices
# ----------------------------------------------------------------------


def _cell_store(config: BenchConfig, scope: tuple) -> "IndexStore | None":
    """The snapshot store for one matrix scope, or None when disabled.

    Each scope (dataset / sweep point) gets its own subdirectory under
    ``config.index_store``: snapshots are keyed by index name, so a shared
    directory would make every cell overwrite the previous database's
    snapshots instead of warm-starting.
    """
    if not config.index_store:
        return None
    from repro.store import IndexStore

    sub = "_".join(str(part) for part in scope)
    return IndexStore(Path(config.index_store) / sub)


def _open_journal(config: BenchConfig) -> RunJournal | None:
    """Open the run journal, guarding against cross-config reuse.

    Journaled cells are only valid under the configuration that produced
    them, so the first run stamps the config into the journal and any
    later run under a different config is rejected instead of silently
    replaying stale cells.  The ``journal`` field itself is excluded from
    the fingerprint so a renamed journal file still matches; ``jobs`` is
    normalised out because parallel and serial runs produce identical
    results — a journal begun serially resumes fine under ``--jobs N`` —
    and ``index_store`` likewise, because snapshot identity is enforced
    independently at load time (database fingerprint, parameters,
    checksums), so a warm start can only change timings, never answers.
    """
    if not config.journal:
        return None
    journal = RunJournal(config.journal)
    fingerprint = repr(
        dataclasses.replace(config, journal="", jobs=1, index_store="", shards=1)
    )
    recorded = journal.get("meta", "config")
    if not journal.has("meta", "config"):
        journal.put(("meta", "config"), fingerprint)
    elif recorded != fingerprint:
        raise ConfigurationError(
            f"journal {config.journal!r} was written under a different "
            "benchmark configuration; resuming would mix incompatible "
            "cells — use a fresh journal path or the original config.\n"
            f"  journal: {recorded}\n  current: {fingerprint}"
        )
    return journal


def _execute_matrix_cell(
    *,
    db: GraphDatabase,
    algorithm: str,
    query_sets: dict[str, QuerySet],
    config: BenchConfig,
    journal: RunJournal | None,
    scope: tuple,
    index_key,
    report_key,
    aux_key,
    index_build: dict,
    index_memory: dict,
    reports: dict,
    auxiliary_memory: dict,
    run_reports: bool = True,
) -> None:
    """Run one (dataset/sweep-point, algorithm) cell of a matrix.

    When a journal is given, every finished sub-cell (the index build and
    each query-set report) is recorded durably, and journaled sub-cells
    are replayed instead of recomputed — so a killed run resumes where it
    stopped.  ``scope`` namespaces the journal keys; ``index_key`` /
    ``report_key(qs_name)`` / ``aux_key`` address the matrix dicts.
    ``shards`` (like ``jobs``) never invalidates a journal: sharded and
    unsharded runs produce identical answers, so their cells mix freely.
    """
    qs_names = list(query_sets)
    needed = qs_names if run_reports else []

    def restore_report(name: str, payload: dict) -> None:
        if payload["omitted"] or payload["report"] is None:
            reports[report_key(name)] = None
        else:
            reports[report_key(name)] = QuerySetReport.from_dict(payload["report"])
        if payload["aux"]:
            auxiliary_memory[aux_key] = max(
                auxiliary_memory.get(aux_key, 0), payload["aux"]
            )

    index_cell = None
    if journal is not None and journal.has("index", *scope, algorithm):
        index_cell = journal.get("index", *scope, algorithm)
        if not index_cell["available"]:
            index_build[index_key] = index_cell["build"]
            for name in qs_names:
                reports[report_key(name)] = None
            return
        if all(journal.has("report", *scope, algorithm, n) for n in needed):
            if index_cell["build"] is not None:
                index_build[index_key] = index_cell["build"]
            if index_cell["memory"] is not None:
                index_memory[index_key] = index_cell["memory"]
            for name in needed:
                restore_report(name, journal.get("report", *scope, algorithm, name))
            return
        # Partially journaled: the engine must be rebuilt, but the index
        # cell and the finished query-set reports below are replayed, not
        # recorded again.

    engine, status = build_engine(
        db, algorithm, config, store=_cell_store(config, scope)
    )
    try:
        if engine is None:
            index_build[index_key] = status
            for name in qs_names:
                reports[report_key(name)] = None
            if journal is not None:
                journal.put(
                    ("index", *scope, algorithm),
                    {"available": False, "build": status, "memory": None,
                     "degraded": False},
                )
            return
        if index_cell is not None:
            build_entry = index_cell["build"]
            memory_entry = index_cell["memory"]
        else:
            build_entry = (
                status if (engine.pipeline.uses_index or engine.degraded)
                else None
            )
            memory_entry = (
                engine.index_memory_bytes() if engine.pipeline.uses_index
                else None
            )
        if build_entry is not None:
            index_build[index_key] = build_entry
        if memory_entry is not None:
            index_memory[index_key] = memory_entry
        if journal is not None and index_cell is None:
            journal.put(
                ("index", *scope, algorithm),
                {"available": True, "build": build_entry, "memory": memory_entry,
                 "degraded": engine.degraded},
            )
        for name in needed:
            if journal is not None and journal.has("report", *scope, algorithm, name):
                payload = journal.get("report", *scope, algorithm, name)
            else:
                report = run_query_set(engine, query_sets[name], config)
                payload = {
                    "report": report.to_dict(),
                    "omitted": report.failed_fraction() > OMIT_THRESHOLD,
                    "aux": report.max_auxiliary_memory_bytes,
                }
                if journal is not None:
                    journal.put(("report", *scope, algorithm, name), payload)
            restore_report(name, payload)
    finally:
        if engine is not None:
            engine.close()


@dataclass
class RealWorldMatrix:
    """Everything Section IV-B derives its tables and figures from."""

    config: BenchConfig
    #: (dataset, algorithm) → indexing seconds or "OOT"/"OOM".
    index_build: dict[tuple[str, str], float | str] = field(default_factory=dict)
    #: (dataset, algorithm, query set) → aggregated report, or None when
    #: the algorithm was unavailable (index failure) or the paper's 40%
    #: omission rule applies.
    reports: dict[tuple[str, str, str], QuerySetReport | None] = field(
        default_factory=dict
    )
    #: dataset → CSR bytes of the stored graphs.
    dataset_memory: dict[str, int] = field(default_factory=dict)
    #: (dataset, algorithm) → index bytes (IFV) for available engines.
    index_memory: dict[tuple[str, str], int] = field(default_factory=dict)
    #: (dataset, algorithm) → peak candidate-set bytes (vcFV algorithms).
    auxiliary_memory: dict[tuple[str, str], int] = field(default_factory=dict)

    def query_set_names(self) -> list[str]:
        dense_flag = ("S", "D")
        return [
            f"Q{edges}{flag}"
            for flag in dense_flag
            for edges in self.config.edge_counts
        ]


@lru_cache(maxsize=None)
def real_world_matrix(
    config: BenchConfig,
    datasets: tuple[str, ...] = REAL_WORLD_DATASETS,
    algorithms: tuple[str, ...] = REAL_WORLD_ALGORITHMS,
) -> RealWorldMatrix:
    """Run (once, cached) the full real-world experiment matrix.

    With ``config.journal`` set, every completed cell is checkpointed to a
    JSONL file; a rerun after a crash or kill replays the journaled cells
    and only computes what is missing.
    """
    matrix = RealWorldMatrix(config=config)
    journal = _open_journal(config)
    for dataset in datasets:
        db = get_real_dataset(dataset, config)
        matrix.dataset_memory[dataset] = db.csr_memory_bytes()
        query_sets = get_query_sets(dataset, config)
        for algorithm in algorithms:
            _execute_matrix_cell(
                db=db,
                algorithm=algorithm,
                query_sets=query_sets,
                config=config,
                journal=journal,
                scope=("real", dataset),
                index_key=(dataset, algorithm),
                report_key=lambda name, d=dataset, a=algorithm: (d, a, name),
                aux_key=(dataset, algorithm),
                index_build=matrix.index_build,
                index_memory=matrix.index_memory,
                reports=matrix.reports,
                auxiliary_memory=matrix.auxiliary_memory,
            )
    return matrix


@dataclass
class SyntheticMatrix:
    """Everything Section IV-C derives its tables and figures from."""

    config: BenchConfig
    #: (parameter, value, algorithm) → indexing seconds or "OOT"/"OOM".
    index_build: dict[tuple[str, int, str], float | str] = field(default_factory=dict)
    #: (parameter, value, algorithm) → Q8S report or None (unavailable).
    reports: dict[tuple[str, int, str], QuerySetReport | None] = field(
        default_factory=dict
    )
    dataset_memory: dict[tuple[str, int], int] = field(default_factory=dict)
    index_memory: dict[tuple[str, int, str], int] = field(default_factory=dict)
    auxiliary_memory: dict[tuple[str, int, str], int] = field(default_factory=dict)


@lru_cache(maxsize=None)
def synthetic_matrix(
    config: BenchConfig,
    algorithms: tuple[str, ...] = SYNTHETIC_ALGORITHMS,
    index_algorithms: tuple[str, ...] = IFV_ALGORITHMS,
    query_edges: int = 8,
    dense: bool = False,
) -> SyntheticMatrix:
    """Run (once, cached) the synthetic sweep matrix on Q8S queries."""
    from repro.workloads.querysets import generate_query_set

    matrix = SyntheticMatrix(config=config)
    journal = _open_journal(config)
    run_algorithms = tuple(dict.fromkeys(algorithms + index_algorithms))
    qs_name = f"Q{query_edges}{'D' if dense else 'S'}"
    for parameter, values in config.synthetic_sweeps:
        sweep = get_synthetic_sweep(parameter, config)
        for value in values:
            db = sweep[value]
            matrix.dataset_memory[(parameter, value)] = db.csr_memory_bytes()
            query_set = generate_query_set(
                db,
                query_edges,
                dense,
                size=config.queries_per_set,
                seed=config.seed + 3,
            )
            for algorithm in run_algorithms:
                key = (parameter, value, algorithm)
                _execute_matrix_cell(
                    db=db,
                    algorithm=algorithm,
                    query_sets={qs_name: query_set},
                    config=config,
                    journal=journal,
                    scope=("syn", parameter, value),
                    index_key=key,
                    report_key=lambda name, k=key: k,
                    aux_key=key,
                    index_build=matrix.index_build,
                    index_memory=matrix.index_memory,
                    reports=matrix.reports,
                    auxiliary_memory=matrix.auxiliary_memory,
                    run_reports=algorithm in algorithms,
                )
    return matrix
