"""Command-line interface for the subgraph query engine.

Subcommands
-----------

``repro generate``
    Write a synthetic graph database in the t/v/e exchange format.
``repro dataset``
    Write one of the real-world stand-ins (AIDS/PDBS/PCM/PPI).
``repro stats``
    Print Table IV-style statistics for a database file.
``repro query``
    Answer subgraph queries from a query file against a database file
    with any of the named algorithms.
``repro reproduce``
    Regenerate paper artifacts (tables/figures) by experiment id.
``repro index build`` / ``repro index verify``
    Manage the persistent index store: build and snapshot the IFV indices
    for a database, and structurally verify existing snapshots (framing,
    checksums, format version, optionally the database fingerprint).
``repro serve``
    Run the long-running query service: load a database and warm-start
    its index once, then answer queries over a Unix/TCP socket with
    batching, admission control and result caching.
``repro query --connect ADDR``
    Send a query file to a running service instead of paying process
    startup, index build and database load per invocation.
``repro serve --shards N`` / ``repro query --shards N``
    Partition the database into N shards (deterministic hash placement)
    behind a scatter-gather router; answers stay bit-identical to the
    unsharded engine, and a downed shard degrades queries to flagged
    partial results instead of failing them.
``repro shard rebalance`` / ``repro shard split``
    Administer a running sharded service: migrate graphs onto their
    owning shards with journaled two-phase moves, or grow/shrink the
    shard fleet to a new count first.

All commands operate on the text exchange format produced and consumed by
:mod:`repro.graph.io`, so databases round-trip through files.

Long-running commands (``reproduce``, ``query``) convert
SIGTERM/SIGINT into a clean exit with code ``128 + signum`` (143/130)
after flushing any journal state; ``repro serve`` instead drains in-
flight requests before exiting with the same code.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

from repro.bench.harness import BenchConfig
from repro.core import ALGORITHM_NAMES
from repro.graph.generators import generate_database
from repro.graph.io import read_graph_database, write_graph_database
from repro.utils.errors import ReproError
from repro.workloads.datasets import REAL_WORLD_SPECS, make_dataset

__all__ = ["build_parser", "main"]


class _SignalExit(BaseException):
    """Raised by the CLI's signal handlers to unwind to ``main``.

    Derives from ``BaseException`` so no intermediate ``except
    Exception`` swallows the shutdown; ``main`` converts it into the
    conventional ``128 + signum`` exit code.  Journal appends are single-
    write atomic (:func:`repro.utils.fsio.append_line_durable`), so the
    unwind cannot leave a partial JSONL line behind.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"terminated by signal {signum}")
        self.signum = signum


def _install_signal_handlers() -> list[tuple[int, object]]:
    """Route SIGTERM/SIGINT through :class:`_SignalExit`; returns the
    previous handlers for restoration (no-op off the main thread)."""

    def handler(signum: int, frame) -> None:
        raise _SignalExit(signum)

    installed: list[tuple[int, object]] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            installed.append((sig, signal.signal(sig, handler)))
        except ValueError:  # not the main thread (e.g. tests)
            break
    return installed


def _positive_int(text: str) -> int:
    """argparse type for worker counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1 worker process, got {value}"
        )
    return value


def _shard_count(text: str) -> int:
    """argparse type for shard counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1 shard, got {value}"
        )
    return value


def _add_shards_flag(parser: argparse.ArgumentParser) -> None:
    """``--shards`` for every command that can run a sharded engine."""
    parser.add_argument(
        "--shards", type=_shard_count, default=1, metavar="N",
        help="partition the database across N shards, each with its own "
        "index, journal, and worker pool; queries scatter-gather across "
        "the fleet (default: 1 — unsharded)",
    )
    parser.add_argument(
        "--shard-host", choices=("thread", "process"), default="thread",
        help="where shard engines run: 'thread' keeps every shard "
        "in-process; 'process' gives each shard a long-lived worker "
        "process for true CPU parallelism (default: thread)",
    )


def _check_sharded_store(index_store: str, shards: int) -> None:
    """Refuse to open a sharded store as if it were unsharded.

    A store that carries a shard manifest journals mutations under
    per-shard subdirectories; opening it with ``--shards 1`` would
    silently serve the base database without them.
    """
    if not index_store or shards > 1:
        return
    import json

    from repro.shard import MANIFEST_NAME
    from repro.utils.errors import ConfigurationError

    manifest_path = Path(index_store) / MANIFEST_NAME
    if manifest_path.exists():
        try:
            count = json.loads(manifest_path.read_text()).get("num_shards")
        except ValueError:
            count = "?"
        raise ConfigurationError(
            f"store {index_store} is sharded {count} ways; "
            f"pass --shards {count}"
        )


def _cmd_generate(args: argparse.Namespace) -> int:
    db = generate_database(
        num_graphs=args.graphs,
        num_vertices=args.vertices,
        avg_degree=args.degree,
        num_labels=args.labels,
        seed=args.seed,
        name=Path(args.output).stem,
        attachment=args.attachment,
    )
    write_graph_database(db, args.output)
    print(f"wrote {len(db)} graphs to {args.output}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    db = make_dataset(args.name, seed=args.seed, scale=args.scale)
    write_graph_database(db, args.output)
    print(f"wrote {args.name} stand-in ({len(db)} graphs) to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    db = read_graph_database(args.database)
    for key, value in db.stats().as_row().items():
        print(f"{key:<22} {value}")
    print(f"{'CSR memory (KiB)':<22} {db.csr_memory_bytes() / 1024:.1f}")
    return 0


def _print_query_outcome(tag, result_view) -> int:
    """Print one query's outcome line; returns 1 on failure, 0 otherwise.

    ``result_view`` is a dict with the shared fields of a local
    :class:`~repro.core.metrics.QueryResult` and a service result payload,
    so local and ``--connect`` runs produce identical lines.
    """
    if result_view["timed_out"]:
        print(f"query {tag}: TIMEOUT after {result_view['query_time']:.2f} s")
        return 1
    if result_view["failure"] is not None:
        kind, message = result_view["failure"]
        print(f"query {tag}: FAILED ({kind}: {message})")
        return 1
    answers = ",".join(str(a) for a in sorted(result_view["answers"]))
    suffix = ""
    if result_view.get("cache") is not None:
        suffix = f" cache={result_view['cache']}"
    print(
        f"query {tag}: {len(result_view['answers'])} answers [{answers}] "
        f"|C(q)|={result_view['num_candidates']} "
        f"filter={result_view['filtering_time'] * 1000:.2f}ms "
        f"verify={result_view['verification_time'] * 1000:.2f}ms" + suffix
    )
    return 0


def _cmd_query_remote(args: argparse.Namespace) -> int:
    """``repro query --connect``: route the query file to a service."""
    from repro.service.client import ServiceClient, ServiceError

    if args.queries is not None:
        print(
            "error: with --connect pass only the query file "
            "(the database lives in the service)",
            file=sys.stderr,
        )
        return 2
    queries = read_graph_database(args.database)
    status = 0
    with ServiceClient(args.connect) as client:
        for qid, query in queries.items():
            tag = query.name if query.name is not None else qid
            try:
                result = client.query(query, time_limit=args.time_limit)
            except ServiceError as exc:
                print(f"query {tag}: REJECTED ({exc.code}: {exc})")
                status = 1
                continue
            status |= _print_query_outcome(tag, {
                "timed_out": result["timed_out"],
                "query_time": result["query_time_s"],
                "failure": (
                    None if result["failure"] is None
                    else (result["failure"]["kind"], result["failure"]["message"])
                ),
                "answers": result["answers"],
                "num_candidates": result["num_candidates"],
                "filtering_time": result["filtering_time_s"],
                "verification_time": result["verification_time_s"],
                "cache": result.get("cache"),
            })
    return status


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.core import SubgraphQueryEngine, create_pipeline
    from repro.exec import executor_factory
    from repro.utils.errors import ConfigurationError

    if args.connect:
        if args.shards > 1:
            raise ConfigurationError(
                "--connect and --shards cannot be combined: sharding is a "
                "property of the running service (start it with "
                "`repro serve --shards N`)"
            )
        return _cmd_query_remote(args)
    if args.queries is None:
        print("error: the query file argument is required without --connect",
              file=sys.stderr)
        return 2
    _check_sharded_store(args.index_store, args.shards)
    db = read_graph_database(args.database)
    queries = read_graph_database(args.queries)
    make_executor = executor_factory(
        args.executor, args.jobs, args.memory_limit or None
    )
    if args.shards > 1:
        from repro.shard import ShardedEngine

        engine_cm = ShardedEngine(
            db,
            args.shards,
            lambda: create_pipeline(args.algorithm),
            executor_factory=make_executor,
            cache=args.cache,
            store_root=args.index_store or None,
            shard_host=args.shard_host,
        )
        store = None
    else:
        pipeline = create_pipeline(args.algorithm)
        executor = make_executor() if make_executor else None
        store = None
        if args.index_store:
            from repro.store import IndexStore

            store = IndexStore(args.index_store)
        engine_cm = SubgraphQueryEngine(
            db, pipeline, executor=executor, cache=args.cache
        )
    status = 0
    with engine_cm as engine:
        engine.build_index(
            time_limit=args.index_limit, fallback=args.fallback, store=store
        )
        if engine.store_recovery is not None:
            print(f"# snapshot rejected ({engine.store_recovery}); "
                  f"index rebuilt from the database")
        if engine.degraded:
            print(f"# index build failed ({engine.degraded_reason}); "
                  f"degraded to the vcFV fallback")
        elif engine.index_source == "store":
            print(f"# index warm-started from snapshot "
                  f"in {engine.indexing_time:.3f} s")
        elif engine.indexing_time:
            print(f"# index built in {engine.indexing_time:.3f} s")
        if engine.store_save_error is not None:
            print(f"# warning: snapshot not saved ({engine.store_save_error})",
                  file=sys.stderr)
        if args.shards > 1:
            print(f"# sharded: {args.shards} shards "
                  f"({engine.partitioner.name} placement, "
                  f"{engine.shard_host} host), "
                  f"{len(engine.db)} graphs total")
        items = list(queries.items())
        results = engine.query_many(
            [q for _, q in items], time_limit=args.time_limit
        )
        for (qid, query), result in zip(items, results):
            tag = query.name if query.name is not None else qid
            cache_outcome = None
            if args.cache:
                cache_outcome = (
                    "hit" if result.metadata.get("cache_hit") else "miss"
                )
            status |= _print_query_outcome(tag, {
                "timed_out": result.timed_out,
                "query_time": result.query_time,
                "failure": (
                    None if result.failure is None
                    else (result.failure.kind, result.failure.message)
                ),
                "answers": result.answers,
                "num_candidates": len(result.candidates),
                "filtering_time": result.filtering_time,
                "verification_time": result.verification_time,
                "cache": cache_outcome,
            })
        if engine.cache is not None and args.jobs == 1:
            stats = engine.cache.stats
            print(
                f"# cache: {stats.queries_with_hits}/{stats.queries} queries hit, "
                f"{stats.graphs_pruned} graph tests pruned"
            )
    return status


def _cmd_index_build(args: argparse.Namespace) -> int:
    from repro.core import SubgraphQueryEngine, create_pipeline
    from repro.store import IndexStore

    db = read_graph_database(args.database)
    store = IndexStore(args.store)
    status = 0
    for name in args.algorithm or ["Grapes", "GGSX", "CT-Index"]:
        pipeline = create_pipeline(name)
        if not pipeline.uses_index:
            print(f"{name}: index-free algorithm, nothing to snapshot")
            continue
        with SubgraphQueryEngine(db, pipeline) as engine:
            try:
                engine.build_index(time_limit=args.index_limit, store=store)
            except ReproError as exc:
                print(f"{name}: FAILED ({exc})", file=sys.stderr)
                status = 1
                continue
            path = store.snapshot_path(pipeline.index.name)
            if engine.index_source == "store":
                print(f"{name}: snapshot {path} already current "
                      f"(verified in {engine.indexing_time:.3f} s)")
            elif engine.store_save_error is not None:
                print(f"{name}: built, but snapshot not saved "
                      f"({engine.store_save_error})", file=sys.stderr)
                status = 1
            else:
                print(f"{name}: built in {engine.indexing_time:.3f} s -> {path}")
    return status


def _cmd_index_verify(args: argparse.Namespace) -> int:
    from repro.store import IndexStore, SnapshotError

    store = IndexStore(args.store)
    db = read_graph_database(args.database) if args.database else None
    snapshots = store.snapshots()
    if not snapshots:
        print(f"no snapshots in {store.directory}", file=sys.stderr)
        return 1
    status = 0
    for path in snapshots:
        try:
            header = store.verify_snapshot(path, db=db)
        except SnapshotError as exc:
            print(f"{path.name}: INVALID [{exc.reason}] {exc}")
            status = 1
        else:
            print(
                f"{path.name}: ok family={header.get('family')} "
                f"graphs={header.get('num_graphs')}"
            )
    return status


def _cmd_reproduce(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.bench import experiments

    producers = {
        "table4": experiments.table4_dataset_stats,
        "table5": experiments.table5_queryset_stats,
        "table6": experiments.table6_indexing_time,
        "fig2": experiments.fig2_filtering_precision,
        "fig3": experiments.fig3_filtering_time,
        "fig4": experiments.fig4_verification_time,
        "fig5": experiments.fig5_per_si_test_time,
        "fig6": experiments.fig6_candidate_counts,
        "fig7": experiments.fig7_query_time,
        "table7": experiments.table7_memory_cost,
        "table8": experiments.table8_synthetic_indexing_time,
        "fig8": experiments.fig8_synthetic_precision,
        "fig9": experiments.fig9_synthetic_filtering_time,
        "table9": experiments.table9_synthetic_memory_cost,
    }
    requested = args.artifacts or sorted(producers)
    unknown = [a for a in requested if a not in producers]
    if unknown:
        print(f"unknown artifact(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(sorted(producers))}", file=sys.stderr)
        return 2
    config = BenchConfig.from_env()
    overrides = {}
    if args.journal:
        overrides["journal"] = args.journal
    if args.executor:
        overrides["executor"] = args.executor
    if args.jobs:
        overrides["jobs"] = args.jobs
    if args.index_store:
        overrides["index_store"] = args.index_store
    if args.fallback:
        overrides["index_fallback"] = True
    if args.shard_host != "thread":
        from repro.utils.errors import ConfigurationError

        raise ConfigurationError(
            "reproduce runs its shard-parity sweep on the thread host; "
            "use `repro query`/`repro serve` for --shard-host process"
        )
    if args.shards > 1:
        if args.index_store:
            from repro.utils.errors import ConfigurationError

            raise ConfigurationError(
                "--shards cannot be combined with --index-store here: "
                "reproduce stores snapshots per matrix cell, which has no "
                "sharded layout (drop one of the two flags)"
            )
        overrides["shards"] = args.shards
    if overrides:
        config = dataclasses.replace(config, **overrides)
    for artifact in requested:
        tables = producers[artifact](config)
        if hasattr(tables, "format_text"):
            tables = {None: tables}
        as_figure = args.figures and artifact.startswith("fig")
        for table in tables.values():
            if as_figure:
                print(table.format_figure(log_scale=True))
            else:
                print(table.format_text())
            print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core import SubgraphQueryEngine, create_pipeline
    from repro.exec import Health, executor_factory
    from repro.service.server import QueryService, ServiceConfig
    from repro.utils.errors import ConfigurationError

    _check_sharded_store(args.index_store, args.shards)

    def health() -> Health:
        # --breaker-threshold/--breaker-cooldown arm every Health serve
        # builds: its pool's, or each shard's (and each shard pool's).
        return Health(args.breaker_threshold, args.breaker_cooldown)

    try:
        health()  # the flags are checked even when the engine builds none
    except ValueError as exc:
        raise ConfigurationError(
            f"--breaker-threshold/--breaker-cooldown: {exc}"
        ) from None
    if args.supervised and args.breaker_threshold < 1:
        raise ConfigurationError(
            "--breaker-threshold: --supervised needs a pool that opens (>= 1)"
        )
    db = read_graph_database(args.database)
    make_executor = executor_factory(
        "supervised" if args.supervised else "inprocess",
        args.jobs, args.memory_limit or None,
    )
    if args.shards > 1:
        from repro.shard import ShardedEngine

        engine = ShardedEngine(
            db,
            args.shards,
            lambda: create_pipeline(args.algorithm),
            executor_factory=make_executor,
            cache=args.cache,
            store_root=args.index_store or None,
            health=health,
            shard_host=args.shard_host,
        )
        engine.build_index(time_limit=args.index_limit, fallback=args.fallback)
    else:
        pipeline = create_pipeline(args.algorithm)
        executor = make_executor(health()) if make_executor else None
        store = None
        if args.index_store:
            from repro.store import IndexStore

            store = IndexStore(args.index_store)
        engine = SubgraphQueryEngine(
            db, pipeline, executor=executor, cache=args.cache
        )
        engine.build_index(
            time_limit=args.index_limit, fallback=args.fallback, store=store
        )
    if engine.store_recovery is not None:
        print(f"# snapshot rejected ({engine.store_recovery}); "
              f"index rebuilt from the database")
    recovery = engine.wal_recovery
    if recovery is not None and (
        recovery["replayed"] or recovery["truncated"] or recovery["reason"]
    ):
        note = (f"# mutation log: replayed {recovery['replayed']} records "
                f"(folded through seq {recovery['folded_seq']})")
        if recovery["reason"]:
            action = "quarantined" if recovery["quarantined"] else "truncated"
            note += (f"; {action} {recovery['truncated']} damaged records "
                     f"({recovery['reason']})")
        print(note)
    if engine.degraded:
        print(f"# index build failed ({engine.degraded_reason}); "
              f"serving the vcFV fallback")
    elif engine.indexing_time:
        source = "warm-started" if engine.index_source == "store" else "built"
        print(f"# index {source} in {engine.indexing_time:.3f} s")
    if args.shards > 1:
        per_shard = ", ".join(
            f"{row['shard']}:{row['graphs']}" for row in engine.shard_stats()
        )
        print(f"# sharded: {args.shards} shards "
              f"({engine.partitioner.name} placement, "
              f"{engine.shard_host} host) [{per_shard}]")
    service = QueryService(
        engine,
        ServiceConfig(
            capacity=args.capacity,
            batch_max=args.batch_max,
            cache_capacity=args.result_cache,
            default_time_limit=args.time_limit,
            wal_compact_threshold=args.wal_compact,
        ),
    )
    print(
        f"serving {len(db)} graphs [{engine.name}] on {args.listen} "
        f"(pid {os.getpid()}, queue {args.capacity}, batch {args.batch_max}, "
        f"result cache {args.result_cache})",
        flush=True,
    )
    code = service.serve(args.listen)
    stats = service.stats()
    requests = stats["requests"]
    print(
        f"# drained: {requests.get('answered', 0)} answered, "
        f"{requests.get('rejected_overloaded', 0)} rejected overloaded, "
        f"{stats['cache']['hits']} cache hits; exit {code}",
        flush=True,
    )
    return code


def _cmd_shard_rebalance(args: argparse.Namespace) -> int:
    """``repro shard rebalance|split``: migrate graphs onto their owners.

    Talks to a running sharded service over the wire; the service refuses
    with ``bad_request`` when it is not sharded or when a split would drop
    below the store's seed partition.
    """
    from repro.service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(args.connect, retries=2) as client:
            summary = client.rebalance(args.shards)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    graphs = summary.get("graphs", [])
    per_shard = ", ".join(f"{i}:{n}" for i, n in enumerate(graphs))
    print(
        f"rebalanced to {summary.get('num_shards')} shards: "
        f"{summary.get('moved', 0)} moved, {summary.get('healed', 0)} healed, "
        f"{summary.get('grown', 0)} grown, {summary.get('dropped', 0)} dropped "
        f"[{per_shard}]"
    )
    return 0


def _cmd_shard_stats(args: argparse.Namespace) -> int:
    """``repro shard stats``: per-shard health, liveness, and pruning."""
    from repro.service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(args.connect, retries=2) as client:
            stats = client.stats()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shards = stats.get("shards")
    if not shards:
        print("error: service is not sharded (started without --shards)",
              file=sys.stderr)
        return 2
    for row in shards:
        host = row.get("host")
        if host:
            liveness = (
                f"pid={host['pid']} alive={host['alive']} "
                f"restarts={host['restarts']}"
            )
        else:
            liveness = "host=thread"
        breaker = row.get("breaker", {})
        print(
            f"shard {row['shard']}: {row['graphs']} graphs "
            f"[{row['algorithm']}] {liveness} "
            f"breaker={breaker.get('state', '?')}"
        )
    pruning = stats.get("pruning")
    if pruning:
        print(
            f"pruning ({pruning['shard_host']} host): "
            f"{pruning['shards_pruned']}/{pruning['shard_queries']} "
            f"shard-queries pruned "
            f"(rate {pruning['prune_rate']:.2f})"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Subgraph query processing with efficient subgraph matching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="write a synthetic database")
    generate.add_argument("--graphs", type=int, default=100)
    generate.add_argument("--vertices", type=int, default=50)
    generate.add_argument("--degree", type=float, default=4.0)
    generate.add_argument("--labels", type=int, default=10)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--attachment", choices=("uniform", "preferential"), default="uniform"
    )
    generate.add_argument("--output", "-o", required=True)
    generate.set_defaults(func=_cmd_generate)

    dataset = sub.add_parser("dataset", help="write a real-world stand-in")
    dataset.add_argument("name", choices=sorted(REAL_WORLD_SPECS))
    dataset.add_argument("--scale", type=float, default=1.0)
    dataset.add_argument("--seed", type=int, default=0)
    dataset.add_argument("--output", "-o", required=True)
    dataset.set_defaults(func=_cmd_dataset)

    stats = sub.add_parser("stats", help="print database statistics")
    stats.add_argument("database")
    stats.set_defaults(func=_cmd_stats)

    query = sub.add_parser("query", help="answer subgraph queries")
    query.add_argument(
        "database",
        help="database file — or, with --connect, the query file "
        "(the database already lives in the service)",
    )
    query.add_argument(
        "queries", nargs="?", default=None,
        help="query graphs in the same format (omit with --connect)",
    )
    query.add_argument(
        "--connect", default="", metavar="ADDR",
        help="send the queries to a running `repro serve` instance at "
        "ADDR (unix:<path> or <host>:<port>) instead of executing locally",
    )
    query.add_argument(
        "--algorithm", "-a", choices=sorted(ALGORITHM_NAMES), default="CFQL"
    )
    query.add_argument("--time-limit", type=float, default=600.0)
    query.add_argument("--index-limit", type=float, default=None)
    query.add_argument(
        "--cache", type=int, default=0, metavar="CAPACITY",
        help="wrap the algorithm in a query cache of this capacity",
    )
    query.add_argument(
        "--executor", choices=("inprocess", "subprocess"), default="inprocess",
        help="query containment: cooperative (inprocess) or hard kill "
        "timeouts and memory caps in a worker pool (subprocess: one "
        "worker unless --jobs says more)",
    )
    query.add_argument(
        "--jobs", "-j", type=_positive_int, default=1, metavar="N",
        help="answer the query set across N worker processes "
        "(implies hard kill timeouts; results keep input order)",
    )
    query.add_argument(
        "--index-store", default="", metavar="DIR",
        help="persistent index-snapshot directory: warm-start the index "
        "from a verified snapshot when one exists, save one after a cold "
        "build; invalid snapshots always fall back to a rebuild",
    )
    query.add_argument(
        "--memory-limit", type=int, default=0, metavar="MIB",
        help="worker address-space cap in MiB (any worker pool: "
        "--executor subprocess or --jobs > 1)",
    )
    query.add_argument(
        "--fallback", action="store_true",
        help="degrade to the vcFV pipeline when the index build exceeds "
        "its time or memory budget instead of failing",
    )
    _add_shards_flag(query)
    query.set_defaults(func=_cmd_query)

    reproduce = sub.add_parser("reproduce", help="regenerate paper artifacts")
    reproduce.add_argument(
        "artifacts", nargs="*",
        help="artifact ids (table4..table9, fig2..fig9); default: all",
    )
    reproduce.add_argument(
        "--figures", action="store_true",
        help="render fig* artifacts as bar charts instead of tables",
    )
    reproduce.add_argument(
        "--journal", default="", metavar="PATH",
        help="checkpoint completed matrix cells to this JSONL file; "
        "rerunning resumes from it instead of recomputing",
    )
    reproduce.add_argument(
        "--executor", choices=("inprocess", "subprocess"), default="",
        help="override the benchmark executor, subprocess being the worker "
        "pool (default: REPRO_BENCH_EXECUTOR or inprocess)",
    )
    reproduce.add_argument(
        "--jobs", "-j", type=_positive_int, default=0, metavar="N",
        help="run each matrix cell's query set across N worker processes "
        "(does not invalidate an existing journal)",
    )
    reproduce.add_argument(
        "--index-store", default="", metavar="DIR",
        help="persistent index-snapshot directory; matrix cells warm-start "
        "from verified snapshots (does not invalidate an existing journal)",
    )
    reproduce.add_argument(
        "--fallback", action="store_true",
        help="degrade engines whose index build fails to their vcFV fallback",
    )
    _add_shards_flag(reproduce)
    reproduce.set_defaults(func=_cmd_reproduce)

    index = sub.add_parser("index", help="manage the persistent index store")
    index_sub = index.add_subparsers(dest="index_command", required=True)

    ibuild = index_sub.add_parser(
        "build", help="build indices and snapshot them to a store"
    )
    ibuild.add_argument("database")
    ibuild.add_argument(
        "--store", "-s", required=True, metavar="DIR",
        help="snapshot directory (created if missing)",
    )
    ibuild.add_argument(
        "--algorithm", "-a", action="append", choices=sorted(ALGORITHM_NAMES),
        metavar="NAME",
        help="algorithm whose index to build (repeatable; default: "
        "Grapes, GGSX, CT-Index)",
    )
    ibuild.add_argument(
        "--index-limit", type=float, default=None, metavar="SECONDS",
        help="abort any single index build after this many seconds",
    )
    ibuild.set_defaults(func=_cmd_index_build)

    iverify = index_sub.add_parser(
        "verify", help="verify the snapshots in a store"
    )
    iverify.add_argument("store", metavar="DIR")
    iverify.add_argument(
        "--database", "-d", default="", metavar="PATH",
        help="also check each snapshot's database fingerprint against "
        "this database file",
    )
    iverify.set_defaults(func=_cmd_index_verify)

    serve = sub.add_parser(
        "serve", help="run the long-running query service"
    )
    serve.add_argument("database")
    serve.add_argument(
        "--listen", "-l", required=True, metavar="ADDR",
        help="listen address: unix:<path> or <host>:<port>",
    )
    serve.add_argument(
        "--algorithm", "-a", choices=sorted(ALGORITHM_NAMES), default="CFQL"
    )
    serve.add_argument(
        "--time-limit", type=float, default=600.0,
        help="default per-query budget for requests that set none",
    )
    serve.add_argument("--index-limit", type=float, default=None)
    serve.add_argument(
        "--capacity", type=_positive_int, default=64, metavar="N",
        help="bounded request-queue depth; requests beyond it are "
        "rejected immediately with a structured 'overloaded' error",
    )
    serve.add_argument(
        "--batch-max", type=_positive_int, default=8, metavar="N",
        help="most requests in flight on the engine at once",
    )
    serve.add_argument(
        "--result-cache", type=int, default=128, metavar="CAPACITY",
        help="exact-match LRU result-cache entries (0 disables)",
    )
    serve.add_argument(
        "--cache", type=int, default=0, metavar="CAPACITY",
        help="also wrap the engine in the GraphCache-style containment "
        "cache of this capacity",
    )
    serve.add_argument(
        "--jobs", "-j", type=_positive_int, default=1, metavar="N",
        help="dispatch query batches across N worker processes",
    )
    serve.add_argument(
        "--supervised", action="store_true",
        help="run queries in a worker pool even with --jobs 1 (crash "
        "isolation) whose health must be able to open "
        "(--breaker-threshold >= 1)",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=5, metavar="N",
        help="consecutive worker failures that open a worker domain's "
        "health: the pool's (cache misses are then rejected 'degraded') "
        "or a shard's (then skipped as down); arms every health serve "
        "builds (0: never opens; --supervised needs at least 1)",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float, default=1.0, metavar="SECONDS",
        help="seconds an open health waits before its half-open probe",
    )
    serve.add_argument(
        "--memory-limit", type=int, default=0, metavar="MIB",
        help="worker address-space cap in MiB (any worker pool: "
        "--jobs > 1 or --supervised)",
    )
    serve.add_argument(
        "--index-store", default="", metavar="DIR",
        help="warm-start the index from this snapshot store; also makes "
        "mutations durable via its write-ahead log",
    )
    serve.add_argument(
        "--wal-compact", type=int, default=0, metavar="N",
        help="auto-compact the store's mutation log into snapshots once "
        "it holds N records (0 disables; the 'compact' verb always works)",
    )
    serve.add_argument(
        "--fallback", action="store_true",
        help="degrade to the vcFV pipeline when the index build blows "
        "its budget instead of failing startup",
    )
    _add_shards_flag(serve)
    serve.set_defaults(func=_cmd_serve)

    shard = sub.add_parser(
        "shard", help="administer a running sharded service"
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    srebalance = shard_sub.add_parser(
        "rebalance",
        help="migrate graphs onto their owning shards (heals duplicates "
        "left by an interrupted move)",
    )
    srebalance.add_argument(
        "--connect", "-c", required=True, metavar="ADDR",
        help="address of the running service (unix:<path> or <host>:<port>)",
    )
    srebalance.set_defaults(func=_cmd_shard_rebalance, shards=None)

    ssplit = shard_sub.add_parser(
        "split",
        help="grow (or shrink) the shard fleet to N shards, then migrate",
    )
    ssplit.add_argument(
        "--connect", "-c", required=True, metavar="ADDR",
        help="address of the running service (unix:<path> or <host>:<port>)",
    )
    ssplit.add_argument(
        "--shards", type=_shard_count, required=True, metavar="N",
        help="target shard count (cannot drop below the store's seed "
        "partition while an index store is attached)",
    )
    ssplit.set_defaults(func=_cmd_shard_rebalance)

    sstats = shard_sub.add_parser(
        "stats",
        help="print per-shard health, worker liveness, and pruning "
        "counters from a running sharded service",
    )
    sstats.add_argument(
        "--connect", "-c", required=True, metavar="ADDR",
        help="address of the running service (unix:<path> or <host>:<port>)",
    )
    sstats.set_defaults(func=_cmd_shard_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # `serve` installs its own handlers (graceful drain) inside
    # QueryService.serve; everything else gets the flush-and-exit pair.
    installed = [] if args.command == "serve" else _install_signal_handlers()
    try:
        return args.func(args)
    except ReproError as exc:
        # Operational failures (bad configuration, malformed input files,
        # blown budgets) are reported as one-line errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _SignalExit as exc:
        # SIGTERM/SIGINT mid-run: any journal is already whole-line
        # durable; report the interruption and exit with the
        # conventional 128 + signum code (143 / 130).
        print(f"interrupted by signal {exc.signum}; journal flushed",
              file=sys.stderr)
        return 128 + exc.signum
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        # Downstream reader went away (e.g. piped into `head`).  Detach
        # stdout so interpreter shutdown does not retry the flush.
        sys.stdout = open(os.devnull, "w")  # noqa: SIM115
        return 0
    finally:
        for sig, previous in installed:
            try:
                signal.signal(sig, previous)
            except (ValueError, TypeError):
                pass


if __name__ == "__main__":
    raise SystemExit(main())
