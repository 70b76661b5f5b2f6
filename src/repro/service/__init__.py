"""Long-running query serving on top of the engine and executors.

The serving layer turns the one-shot CLI pipeline into a resident
daemon: load the database and warm-start the indices once, then answer
queries over a socket for the life of the process —

* :mod:`repro.service.protocol` — the newline-delimited-JSON wire
  protocol, graph codec and address parsing;
* :mod:`repro.service.server` — :class:`QueryService`: bounded-queue
  admission control, the batching scheduler, the exact-match result
  cache, the ``degraded`` fast-fail read from the engine's pool
  :class:`~repro.exec.worker.Health` (an engine with no pool never
  answers ``degraded``), graceful drain and the ``stats`` verb;
* :mod:`repro.service.client` — the blocking :class:`ServiceClient`
  library with bounded retry/backoff (and :func:`wait_for_service` for
  scripts and tests);
* :mod:`repro.service.resilience` — the mutation-retry dedup window.
"""

from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    wait_for_service,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    graph_from_wire,
    graph_key,
    graph_to_wire,
)
from repro.service.resilience import MutationDedup
from repro.service.server import QueryService, ServiceConfig

__all__ = [
    "MutationDedup",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueryService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceUnavailable",
    "graph_from_wire",
    "graph_key",
    "graph_to_wire",
    "wait_for_service",
]
