"""Scatter-gather query routing across shards.

The :class:`ShardRouter` fans one query batch out to every live shard in
parallel (each shard engine is independent — its own pipeline, database
partition, and executor — so the fan-out threads never share mutable
state), then merges the per-shard answers deterministically:

* **answers/candidates** — set union across contributing shards.  Graph
  ids are globally unique and placement is disjoint, so the union *is*
  the unsharded answer set whenever every shard contributed (and during
  a crashed two-phase move, when a graph transiently exists on two
  shards, the union stays correct by construction).
* **timings** — ``filtering_time``/``verification_time`` sum (total work
  done), ``query_time`` is the max across shards (scatter-gather wall
  clock).
* **metadata.shards** — per-shard ``graphs/answers/candidates/time_s``
  rows plus the missing-shard list, so a caller can audit exactly which
  partition every answer came from.

Failure semantics: each shard has one :class:`~repro.exec.worker.Health`
(``_Shard.health``), shared with the owner of its workers (the process
host, or the shard's pool).  A batch the shard raised on is one failure,
a batch it answered one success — except what the owner counted already
(a :class:`~repro.shard.host.ShardWorkerError`, a ``crash`` result) —
and the owner's respawn gate asks ``allow()``, so the router only reads
such a shard's Health rather than spend its half-open probe.  A shard
that is down — its Health open, refusing while it backs off,
raised mid-batch, or answered with failures — makes the merged result
**partial**: flagged ``degraded`` with the missing shard list, never
silently wrong.  A refusal is not counted as another failure.  Only when
*every* shard fails does the merged result carry a failure.

The ``shard.query`` fault site fires per shard per batch (tag
``shard-<i>``), so tests and the CI smoke can deterministically take one
shard down without touching the others.

**Pruning.**  Before fanning out, the router skips every (shard, query)
pair where no graph on the shard holds every query label — the shard
database's seed screen (:meth:`GraphDatabase.seed_screen
<repro.graph.database.GraphDatabase.seed_screen>`) asked for the query's
labels at degree 0.  A subgraph embedding preserves labels, so such a
shard holds no answer, and every filtering pipeline rejects a graph
missing a query label, so it holds no candidate either (the naive
``*-FV`` baselines report every graph as a candidate; see
``docs/SHARDING.md``).  A shard receives only the sub-batch of queries
its screen cannot exclude, and a shard with nothing left to do is not
dispatched at all.  A pruned pair is a **full merge participant** — the
shard's provable contribution is the empty set, so the merged result is
*not* partial — and is recorded as ``{"shard": i, "pruned": true}`` in
the per-shard rows.  Pruning even rides out a downed shard: a query the
screen rules out is complete whether or not that shard is reachable, so
only its *unpruned* queries degrade to partial.  (``shard.engine.db`` is
parent-side under both hosts — the shard's own database, or the process
host's mirror, which is mutated after every acknowledged mutation and
restored on every respawn — so the screen is never stale with respect
to acknowledged state.)

**Host seam.**  The engine may supply a ``runner`` — how one shard
executes one sub-batch.  The default calls the shard engine in-process
(thread host); the process host routes the call over the shard worker's
pipe instead.  The fan-out threads are unchanged either way: under the
process host they merely block on pipe I/O (releasing the GIL) while
the shard processes do the matching in true parallel.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable

from repro.core.metrics import QueryFailure, QueryResult
from repro.exec import faults
from repro.shard.host import ShardWorkerError

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.graph.labeled_graph import Graph
    from repro.shard.engine import _Shard

__all__ = ["ShardRouter"]


class ShardRouter:
    """Fans query batches across shards and merges their answers.

    Holds a *reference* to the owning engine's shard list, so a
    rebalance that grows or shrinks the fleet is picked up on the next
    batch without rebuilding the router.
    """

    def __init__(
        self,
        shards: "list[_Shard]",
        *,
        runner: "Callable[[_Shard, list[Graph], float | None], list[QueryResult]] | None" = None,
    ) -> None:
        self._shards = shards
        self._runner = runner
        self._counter_lock = threading.Lock()
        self._considered = 0
        self._pruned = 0

    def prune_counters(self) -> tuple[int, int]:
        """(shard-query pairs considered, pairs soundly skipped)."""
        with self._counter_lock:
            return self._considered, self._pruned

    # ------------------------------------------------------------------
    # Fan-out
    # ------------------------------------------------------------------

    def query_many(
        self, queries: "list[Graph]", time_limit: float | None = None
    ) -> list[QueryResult]:
        """Scatter ``queries`` to every live shard; gather merged results."""
        shards = list(self._shards)
        # Positions each shard's seed screen soundly rules out, by shard
        # index: no graph there holds every label of the query.
        screens = [[(label, 0) for label in q.label_set()] for q in queries]
        pruned: dict[int, set[int]] = {}
        for shard in shards:
            screen = shard.engine.db.seed_screen
            mask = {i for i, pairs in enumerate(screens) if not screen(pairs)}
            if mask:
                pruned[shard.index] = mask
        with self._counter_lock:
            self._considered += len(shards) * len(queries)
            self._pruned += sum(len(m) for m in pruned.values())
        # outcome per shard: ("ok", {position: result}) | ("down", reason)
        outcomes: dict[int, tuple[str, object]] = {}

        def fan(shard: "_Shard", positions: list[int]) -> None:
            sub = [queries[i] for i in positions]
            started = time.perf_counter()
            try:
                faults.trip("shard.query", tag=f"shard-{shard.index}")
                if self._runner is not None:
                    results = self._runner(shard, sub, time_limit)
                else:
                    results = shard.engine.query_many(
                        sub, time_limit=time_limit
                    )
            except Exception as exc:  # the shard, not the query, failed
                if not isinstance(exc, ShardWorkerError):
                    # (The host has already counted, or refused, its own.)
                    shard.health.failure()
                outcomes[shard.index] = (
                    "down", f"{type(exc).__name__}: {exc}"
                )
                return
            shard.histogram.record(time.perf_counter() - started)
            if all(r.failure is None or r.failure.kind != "crash"
                   for r in results):  # (The owner counted each crash.)
                shard.health.success()
            outcomes[shard.index] = (
                "ok", dict(zip(positions, results))
            )

        work: list[tuple["_Shard", list[int]]] = []
        for shard in shards:
            mask = pruned.get(shard.index, set())
            positions = [i for i in range(len(queries)) if i not in mask]
            if not positions:
                # Every query in the batch was ruled out: the shard's
                # contribution is provably empty, no dispatch needed.
                outcomes[shard.index] = ("ok", {})
            elif not self._admits(shard):
                outcomes[shard.index] = ("down", "breaker_open")
            else:
                work.append((shard, positions))
        # The last surviving shard runs on the calling thread, which would
        # otherwise only sleep in ``join``: N - 1 threads per batch, none
        # when pruning and the open shards leave a single one.
        threads = [
            threading.Thread(
                target=fan, args=job, name=f"repro-shard-{job[0].index}"
            )
            for job in work[:-1]
        ]
        for t in threads:
            t.start()
        if work:
            fan(*work[-1])
        for t in threads:
            t.join()
        return [
            self._merge(i, query, shards, outcomes, pruned)
            for i, query in enumerate(queries)
        ]

    def _admits(self, shard: "_Shard") -> bool:
        """Whether the breaker lets a batch reach ``shard`` now: asked
        of an in-process shard, only read where the worker owner asks."""
        health = shard.health
        if self._runner is not None or shard.engine.executor.health is health:
            return not health.retry_after()
        return health.allow()

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    @staticmethod
    def _merge(
        index: int,
        query: "Graph",
        shards: "list[_Shard]",
        outcomes: dict[int, tuple[str, object]],
        pruned: dict[int, set[int]],
    ) -> QueryResult:
        answers: set[int] = set()
        candidates: set[int] = set()
        index_candidates: set[int] | None = set()
        have_index_candidates = True
        filtering = verification = 0.0
        wall = 0.0
        aux_bytes = 0
        timed_out = False
        degraded_engine = False
        missing: list[int] = []
        failures: list[QueryFailure] = []
        per_shard: list[dict] = []
        algorithm = None
        plan_outcome = None
        contributed = 0

        for shard in shards:
            if index in pruned.get(shard.index, ()):
                # The screen proved this shard contributes the empty set:
                # a full participant, not a missing shard.
                contributed += 1
                per_shard.append({
                    "shard": shard.index,
                    "graphs": len(shard.engine.db),
                    "pruned": True,
                })
                continue
            kind, value = outcomes[shard.index]
            if kind == "down":
                missing.append(shard.index)
                per_shard.append({"shard": shard.index, "down": value})
                continue
            result = value[index]
            row = {
                "shard": shard.index,
                "graphs": len(shard.engine.db),
                "answers": result.num_answers,
                "candidates": result.num_candidates,
                "time_s": result.query_time,
            }
            algorithm = result.algorithm
            if plan_outcome is None:
                plan_outcome = result.metadata.get("plan_cache")
            if result.failure is not None:
                # A failed shard result has no trustworthy answer set:
                # contribute nothing, mark the shard missing for this
                # query (crash/oom/oot/error alike).
                row["failure"] = result.failure.kind
                failures.append(result.failure)
                missing.append(shard.index)
                per_shard.append(row)
                continue
            contributed += 1
            answers |= result.answers
            candidates |= result.candidates
            if result.index_candidates is None:
                have_index_candidates = False
            elif have_index_candidates:
                index_candidates |= result.index_candidates
            filtering += result.filtering_time
            verification += result.verification_time
            wall = max(wall, result.query_time)
            aux_bytes += result.auxiliary_memory_bytes
            if result.timed_out:
                timed_out = True
                row["timed_out"] = True
            if result.metadata.get("degraded"):
                degraded_engine = True
                row["degraded"] = True
            per_shard.append(row)

        metadata: dict = {
            "degraded": degraded_engine or bool(missing),
            "shards": {
                "count": len(shards),
                "missing": sorted(set(missing)),
                "per_shard": per_shard,
            },
        }
        if plan_outcome is not None:
            metadata["plan_cache"] = plan_outcome
        failure = None
        if contributed == 0:
            # Nothing answered: a total failure, not a partial result.
            kinds = {f.kind for f in failures}
            failure = QueryFailure(
                kind=("crash" if "crash" in kinds or not failures
                      else failures[0].kind),
                message=(
                    f"all {len(shards)} shards unavailable: "
                    + "; ".join(
                        f"{row['shard']}: {row.get('down', row.get('failure'))}"
                        for row in per_shard
                    )
                ),
                stage="route",
            )
        elif missing:
            metadata["partial"] = True
            metadata["missing_shards"] = sorted(set(missing))
        return QueryResult(
            algorithm=algorithm or "sharded",
            query_name=query.name,
            answers=answers,
            candidates=candidates,
            index_candidates=(
                index_candidates if have_index_candidates and contributed
                else None
            ),
            filtering_time=filtering,
            verification_time=verification,
            timed_out=timed_out,
            query_time=wall,
            auxiliary_memory_bytes=aux_bytes,
            failure=failure,
            metadata=metadata,
        )
