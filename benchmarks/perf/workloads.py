"""The four served workloads: what is fixed, and what the seed draws.

A workload fixes its **database**, its **query pool** and the pool of
graphs it may insert — they are part of the workload's definition, like
the AIDS dataset is part of the paper's — and fixes the *number* of
operations per second of nominal run length, so both sides of a
comparison do the same work.  ``--seed`` draws everything else: the order
of the pool, which queries the popularity draws pick, the vertex numbering
of ``hot-repeat``'s wire forms, the arrival times of the open loop, and
which earlier insertion each removal takes out.

The pools are fixed because matching cost is heavy-tailed in the query:
on the dense database, five pools of 40 queries drawn the same way took
3.5 s, 3.8 s, 5.0 s, 5.2 s and 20.9 s of CFQL time.  A benchmark that
redrew the pool per seed would measure the draw.

Vertex numbering is part of what is fixed wherever matching dominates:
renumbering a query changes how CFQL breaks ties in its matching order,
and on the dense database one renumbering of the same hundred queries
took 16.5 s where the others took 10.3-10.9 s (one query went from 1 s to
6.4 s).  Only ``hot-repeat``, where matching is a tenth of the requests
and each takes a millisecond, renumbers per seed.

Operation counts are written for ``--seconds 15`` (the ``run_seconds`` of
``BENCHMARK.json``) and scale linearly with ``--seconds``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from repro.graph.database import GraphDatabase
from repro.graph.generators import generate_database
from repro.graph.labeled_graph import Graph
from repro.service.protocol import graph_to_wire
from repro.workloads.datasets import make_dataset
from repro.workloads.querysets import generate_query_set

#: Run length the operation counts below are written for.
REFERENCE_SECONDS = 15

#: Seed of everything a workload fixes (database, pools).  Changing it
#: changes the benchmark: the committed baseline no longer applies.
DATA_SEED = 7


@dataclass(frozen=True)
class Op:
    """One operation of the schedule.

    ``kind`` is ``query`` (``ref`` = pool index), ``add`` (``ref`` = index
    into the insertable graphs) or ``remove`` (``ref`` = ordinal of the
    earlier ``add`` whose graph it deletes).
    """

    kind: str
    ref: int
    message: dict


@dataclass
class Phase:
    name: str
    ops: list[Op]
    #: Exactly one of the two: callers in a closed loop, or the open
    #: loop's arrival offsets in seconds, drawn from the seed.
    window: int | None = None
    due: list[float] | None = None
    #: End-to-end metrics this phase provides (``latency``,
    #: ``throughput``, ``mutation``); empty for an untimed warm-up.
    measures: frozenset = frozenset()


def _permuted_wire(graph: Graph, rng: random.Random) -> dict:
    """``graph`` under a seeded renumbering of its vertices: a different
    exact-match key, the same canonical form."""
    order = list(range(graph.num_vertices))
    rng.shuffle(order)
    labels = [0] * graph.num_vertices
    for old, new in enumerate(order):
        labels[new] = graph.labels[old]
    edges = sorted(sorted((order[u], order[v])) for u, v in graph.edges())
    return {"labels": labels, "edges": edges}


def _query_op(pool_index: int, wire: dict) -> Op:
    return Op("query", pool_index, {"op": "query", "graph": wire})


def _zipf_sampler(n: int, exponent: float):
    cumulative = list(accumulate(1.0 / (rank ** exponent) for rank in range(1, n + 1)))
    population = range(n)

    def draw(rng: random.Random, k: int) -> list[int]:
        return rng.choices(population, cum_weights=cumulative, k=k)

    return draw


def poisson_offsets(rng: random.Random, rate: float, count: int) -> list[float]:
    """Seeded Poisson arrivals: ``count`` offsets at ``rate`` per second."""
    return list(accumulate(rng.expovariate(rate) for _ in range(count)))


def _query_sets(db: GraphDatabase, shapes, size: int, seed: int) -> list[Graph]:
    queries: list[Graph] = []
    for num_edges, dense in shapes:
        queries += generate_query_set(
            db, num_edges, dense, size=size,
            seed=seed * 100 + num_edges * 2 + dense,
        ).queries
    return queries


AIDS_SHAPES = ((4, False), (8, False), (16, False), (8, True))
DENSE_SHAPES = ((16, False), (20, False), (12, True), (16, True))


class Workload:
    """Base: the fixed parts, built lazily and once per process."""

    name = ""
    why = ""
    #: Algorithm the server runs (``serve -a``).
    algorithm = "CFQL"
    #: Closed or open loop, stated for the README and the output.
    loop = ""
    #: Cores the workload assumes; with fewer its numbers are unresolved.
    needs_cores = 1
    #: Callers in the untimed warm-up that ends set-up (lazy profiles
    #: built, every pool worker spawned).
    warmup_window = 1
    #: Whether the server journals mutations (an index store is attached):
    #: after ``kill -9`` a durable server must still hold every
    #: acknowledged mutation, any other comes back as the database file.
    durable = False
    #: Pool queries re-checked against the oracle after the restart.
    recovery_sample = 8

    def server_flags(self, store_dir) -> list[str]:
        raise NotImplementedError

    def server_uses(self, flag: str) -> bool:
        return flag in self.server_flags("")

    @cached_property
    def database(self) -> GraphDatabase:
        raise NotImplementedError

    @cached_property
    def pool(self) -> list[Graph]:
        """Distinct query graphs; the oracle answers each once."""
        raise NotImplementedError

    @cached_property
    def insertable(self) -> list[Graph]:
        """Graphs the mutations insert (never members of the database)."""
        raise NotImplementedError

    @cached_property
    def warmup(self) -> list[Graph]:
        """Queries outside the pool, so warming up primes no result."""
        raise NotImplementedError

    def phases(self, seed: int, seconds: float) -> list[Phase]:
        raise NotImplementedError

    # -- shared pieces ---------------------------------------------------

    def _count(self, per_reference_run: int, seconds: float) -> int:
        return max(1, round(per_reference_run * seconds / REFERENCE_SECONDS))

    def _add_op(self, graph_index: int) -> Op:
        wire = graph_to_wire(self.insertable[graph_index])
        return Op("add", graph_index, {"op": "add_graph", "graph": wire})

    def _remove_op(self, add_ordinal: int) -> Op:
        # Graph ids are assigned in sequence and never reused, so the id
        # an insertion will get is known when the schedule is written; the
        # run checks each acknowledgement against it.
        gid = self.database.next_id + add_ordinal
        return Op("remove", add_ordinal, {"op": "remove_graph", "gid": gid})

    def warmup_phase(self) -> Phase:
        return Phase(
            "warmup",
            [_query_op(-1, graph_to_wire(q)) for q in self.warmup],
            window=self.warmup_window,
        )

    def recovery_check(self, seed: int) -> Phase:
        rng = random.Random(seed ^ 0x5EED)
        picks = rng.sample(range(len(self.pool)),
                           min(self.recovery_sample, len(self.pool)))
        return Phase(
            "recovery-check",
            [_query_op(i, graph_to_wire(self.pool[i])) for i in picks],
            window=self.warmup_window,
        )

    def mutation_tail(self, seed: int, seconds: float, first_add: int = 0) -> Phase:
        """Insert-then-delete pairs after the measured queries, so that
        ``mutation_ms_p50`` exists on every workload without a mutation
        ever sitting between two measured queries of a read-only one."""
        rng = random.Random(seed ^ 0x7A11)
        pairs = self._count(100, seconds)
        ops: list[Op] = []
        for k in range(pairs):
            ops.append(self._add_op(rng.randrange(len(self.insertable))))
            ops.append(self._remove_op(first_add + k))
        return Phase("mutations", ops, window=1, measures=frozenset({"mutation"}))


class AidsScan(Workload):
    name = "aids-scan"
    why = ("paper's recommended CFQL on many small graphs, every request a "
           "cache miss: vcFV filtering does most of the work")
    loop = "closed, window=1"

    def server_flags(self, store_dir) -> list[str]:
        return ["-a", self.algorithm]

    @cached_property
    def database(self) -> GraphDatabase:
        return make_dataset("AIDS", seed=DATA_SEED)

    @cached_property
    def pool(self) -> list[Graph]:
        # 240 distinct > result cache (128), sent in a cyclic order, so
        # the result LRU never hits.  The plan cache (256) does hold the
        # pool: the second pass skips compilation, ~0.1 ms of a ~27 ms
        # query.
        return _query_sets(self.database, AIDS_SHAPES, 60, DATA_SEED)

    @cached_property
    def insertable(self) -> list[Graph]:
        return make_dataset("AIDS", seed=DATA_SEED + 99).graphs()[:160]

    @cached_property
    def warmup(self) -> list[Graph]:
        return _query_sets(self.database, AIDS_SHAPES, 2, DATA_SEED + 1)

    def phases(self, seed: int, seconds: float) -> list[Phase]:
        order = list(range(len(self.pool)))
        random.Random(seed).shuffle(order)
        wires = [graph_to_wire(q) for q in self.pool]
        count = self._count(2 * len(self.pool), seconds)
        ops = [
            _query_op(order[i % len(order)], wires[order[i % len(order)]])
            for i in range(count)
        ]
        return [
            self.warmup_phase(),
            Phase("scan", ops, window=1,
                  measures=frozenset({"latency", "throughput"})),
            self.mutation_tail(seed, seconds),
        ]


class DenseVerify(Workload):
    name = "dense-verify"
    why = ("few labels, dense graphs: filters pass almost everything, so "
           "ordering and enumeration dominate, behind the supervised pool")
    loop = "closed, window=1 (latency); closed, window=4 (throughput)"
    needs_cores = 2
    warmup_window = 4

    def server_flags(self, store_dir) -> list[str]:
        return ["-a", self.algorithm, "--supervised", "--jobs", "2",
                "--time-limit", "10"]

    @cached_property
    def database(self) -> GraphDatabase:
        return generate_database(40, 120, 4.0, 2, seed=DATA_SEED, name="dense")

    @cached_property
    def pool(self) -> list[Graph]:
        # DATA_SEED was picked so the slowest of these takes ~1 s of
        # in-process CFQL time (10x under --time-limit); see the module
        # docstring for what other draws cost.
        return _query_sets(self.database, DENSE_SHAPES, 19, DATA_SEED)

    @cached_property
    def forms(self) -> list[list[dict]]:
        """Two fixed wire forms per query: as generated, and renumbered.
        The second is a result-cache miss (new exact key) and a plan-cache
        hit (same canonical form)."""
        # Renumbering 102: its slowest query takes ~1 s like the originals
        # (renumberings 7 and 100 each put one query at 7 s and >3 s).
        rng = random.Random(102)
        return [[graph_to_wire(q), _permuted_wire(q, rng)] for q in self.pool]

    @cached_property
    def insertable(self) -> list[Graph]:
        return generate_database(8, 120, 4.0, 2, seed=DATA_SEED + 99).graphs()

    @cached_property
    def warmup(self) -> list[Graph]:
        return _query_sets(self.database, DENSE_SHAPES, 2, DATA_SEED + 1)

    def phases(self, seed: int, seconds: float) -> list[Phase]:
        # The seed rotates one fixed order.  A reshuffle regroups the few
        # one-second queries into different batches, and how they group
        # moved throughput by 9 % between seeds; the rotation keeps every
        # query's neighbours.
        order = list(range(len(self.pool)))
        random.Random(DATA_SEED).shuffle(order)
        start = random.Random(seed).randrange(len(order))
        order = order[start:] + order[:start]
        count = self._count(2 * len(self.pool), seconds)
        ops: list[Op] = []
        while len(ops) < count:
            form = (len(ops) // len(order)) % 2
            ops += [_query_op(i, self.forms[i][form]) for i in order]
        # Latency from one caller, throughput from four.  With four in
        # flight the scheduler's batches form by a race (sizes 1 to 4 from
        # run to run on the same schedule) and every query waits for the
        # slowest of its batch, so the 90th percentile moved 30 % between
        # identical runs; what a batch costs shows in queries_per_s.
        return [
            self.warmup_phase(),
            Phase("alone", ops[:count // 2], window=1,
                  measures=frozenset({"latency"})),
            Phase("batched", ops[count // 2:count], window=4,
                  measures=frozenset({"throughput"})),
            self.mutation_tail(seed, seconds),
        ]


class HotRepeat(Workload):
    name = "hot-repeat"
    why = ("tiny database, popular queries repeated: nine in ten requests "
           "are cache hits, so codec, queue, batching and caches dominate")
    loop = "open, 1000/s Poisson (latency); closed, window=16 (throughput)"
    warmup_window = 16

    OPEN_RATE = 1000.0

    def server_flags(self, store_dir) -> list[str]:
        return ["-a", self.algorithm]

    @cached_property
    def database(self) -> GraphDatabase:
        # bench-serve's database.
        return generate_database(60, 24, 2.8, 5, seed=0, name="bench-serve")

    @cached_property
    def pool(self) -> list[Graph]:
        return list(generate_query_set(self.database, 5, False, size=64, seed=1))

    @cached_property
    def insertable(self) -> list[Graph]:
        return generate_database(8, 24, 2.8, 5, seed=DATA_SEED + 99).graphs()

    @cached_property
    def warmup(self) -> list[Graph]:
        return []  # the first requests of the stream are the warm-up

    def phases(self, seed: int, seconds: float) -> list[Phase]:
        rng = random.Random(seed)
        # Three wire forms per query: 192 exact keys against a result
        # cache of 128, 64 canonical forms against a plan cache of 256.
        forms = [
            [graph_to_wire(q), _permuted_wire(q, rng), _permuted_wire(q, rng)]
            for q in self.pool
        ]
        draw = _zipf_sampler(len(self.pool), 1.1)

        def stream(count: int) -> list[Op]:
            return [
                _query_op(i, forms[i][rng.randrange(3)]) for i in draw(rng, count)
            ]

        open_count = self._count(10000, seconds)
        return [
            Phase("warmup", stream(self._count(3000, seconds)), window=16),
            Phase("open", stream(open_count),
                  due=poisson_offsets(rng, self.OPEN_RATE, open_count),
                  measures=frozenset({"latency"})),
            Phase("saturate", stream(self._count(20000, seconds)), window=16,
                  measures=frozenset({"throughput"})),
            self.mutation_tail(seed, seconds),
        ]


class ShardedRW(Workload):
    name = "sharded-rw"
    why = ("same layers used differently: writes beside reads over two "
           "shard processes, a Grapes index, a WAL, compaction, recovery")
    loop = "closed, window=1"
    needs_cores = 2
    durable = True
    recovery_sample = 50
    algorithm = "vcGrapes"

    def server_flags(self, store_dir) -> list[str]:
        return ["-a", self.algorithm, "--shards", "2", "--shard-host", "process",
                "--index-store", str(store_dir), "--wal-compact", "32"]

    @cached_property
    def database(self) -> GraphDatabase:
        return AIDS_SCAN.database

    @cached_property
    def pool(self) -> list[Graph]:
        # The aids-scan pool in a fixed shuffled order, so popularity rank
        # (= position) is not sorted by query shape.
        pool = list(AIDS_SCAN.pool)
        random.Random(DATA_SEED).shuffle(pool)
        return pool

    @cached_property
    def insertable(self) -> list[Graph]:
        return AIDS_SCAN.insertable

    @cached_property
    def warmup(self) -> list[Graph]:
        return AIDS_SCAN.warmup

    def phases(self, seed: int, seconds: float) -> list[Phase]:
        rng = random.Random(seed)
        wires = [graph_to_wire(q) for q in self.pool]
        count = self._count(1500, seconds)
        draws = iter(_zipf_sampler(len(self.pool), 1.0)(rng, count))
        ops: list[Op] = []
        live: list[int] = []  # ordinals of insertions not yet removed
        adds = 0
        for position in range(count):
            if position % 10 != 9:
                i = next(draws)
                ops.append(_query_op(i, wires[i]))
            elif len(live) < 8 or (position // 10) % 2 == 0:
                # Build up eight live insertions, then alternate, so the
                # database size is stationary.
                ops.append(self._add_op(adds % len(self.insertable)))
                live.append(adds)
                adds += 1
            else:
                ops.append(self._remove_op(live.pop(rng.randrange(len(live)))))
        return [
            self.warmup_phase(),
            Phase("mixed", ops, window=1,
                  measures=frozenset({"latency", "throughput", "mutation"})),
        ]


AIDS_SCAN = AidsScan()
WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (AIDS_SCAN, DenseVerify(), HotRepeat(), ShardedRW())
}
