"""Sharded graph database: partition, route, merge.

The scaling architecture from *Efficient Subgraph Matching on Billion
Node Graphs* applied to the paper's filter-then-verify setting: the
graph database is partitioned across N shards — each a complete
:class:`~repro.core.engine.SubgraphQueryEngine` with its own index
snapshots, write-ahead mutation log, and crash-isolated worker pool —
and every query is scattered to all shards and gathered into one merged
answer set.  See :mod:`repro.shard.engine` for the durability story and
:mod:`repro.shard.router` for the merge and failure semantics.
"""

from repro.shard.engine import MANIFEST_NAME, SHARD_HOSTS, ShardedEngine
from repro.shard.host import ShardProcessHost, ShardWorkerError
from repro.shard.partition import (
    PARTITIONER_NAMES,
    HashPartitioner,
    ModuloPartitioner,
    Partitioner,
    create_partitioner,
)
from repro.shard.router import ShardRouter

__all__ = [
    "MANIFEST_NAME",
    "PARTITIONER_NAMES",
    "SHARD_HOSTS",
    "HashPartitioner",
    "ModuloPartitioner",
    "Partitioner",
    "ShardProcessHost",
    "ShardRouter",
    "ShardWorkerError",
    "ShardedEngine",
    "create_partitioner",
]
