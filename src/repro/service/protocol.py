"""The wire protocol of the query service: newline-delimited JSON.

One request per line, one response per line, UTF-8, over a Unix or TCP
socket.  Every request is a JSON object with an ``op`` and a client-chosen
``id`` that the response echoes back, so a client may pipeline requests
and still correlate answers::

    → {"id": 1, "op": "query", "graph": {"labels": [0, 1], "edges": [[0, 1]]}}
    ← {"id": 1, "ok": true, "result": {"answers": [0, 2], ...}}

Failure responses carry ``ok: false`` and a structured error with a
stable ``code`` (:data:`ERROR_CODES`) — notably ``overloaded``, the
admission-control rejection a client receives *immediately* when the
request queue is full, instead of a hang.  Per-query algorithmic failures
(OOT/OOM/crash) are *successful* protocol exchanges: they come back as
``ok: true`` with ``result.failure`` set, mirroring
:class:`~repro.core.metrics.QueryResult`.

Graphs travel as ``{"name": ..., "labels": [l0, l1, ...], "edges":
[[u, v], ...]}`` — the JSON twin of the t/v/e exchange format of
:mod:`repro.graph.io`.  See ``docs/SERVICE.md`` for the full spec.

Two optional request fields serve the resilience layer:

* ``deadline_ms`` (query) — an end-to-end latency budget in milliseconds,
  measured from admission.  A request still queued past its deadline is
  shed with a structured ``oot`` answer instead of being executed; a
  dispatched request's kernel time limit is clipped to the remaining
  budget.
* ``request_key`` (add_graph / remove_graph) — a client-generated opaque
  string identifying the *logical* mutation.  The server keeps a bounded
  dedup window of answered keys, so a client that retries after a lost
  response cannot apply the mutation twice.
"""

from __future__ import annotations

import json
import socket

from repro.graph.builder import GraphBuilder
from repro.graph.labeled_graph import Graph
from repro.utils.errors import ReproError

__all__ = [
    "ERROR_CODES",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "RETRYABLE_CODES",
    "ProtocolError",
    "connect",
    "decode_line",
    "encode_message",
    "error_response",
    "format_address",
    "graph_from_wire",
    "graph_key",
    "graph_to_wire",
    "listen",
    "parse_address",
]

#: Bumped on incompatible wire changes; echoed by ``ping`` and ``stats``.
PROTOCOL_VERSION = 1

#: Upper bound on one request line — admission control for memory, not
#: just queue slots (a 4 MiB line is a ~100k-edge query, far beyond any
#: sane subgraph query).
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Stable error codes carried in ``{"ok": false, "error": {"code": ...}}``.
#:
#: * ``bad_request``    — unparsable line or malformed/unknown operation;
#: * ``overloaded``     — the bounded request queue is full (back off and
#:   retry; never queued, never hangs);
#: * ``degraded``       — the engine's worker pool is open after
#:   consecutive worker failures; the error carries ``retry_after_s``,
#:   the earliest time the pool will probe a worker again (back off at
#:   least that long and retry);
#: * ``shutting_down``  — the service is draining and accepts no new work;
#: * ``not_found``      — the named entity does not exist (e.g.
#:   ``remove_graph`` of an unknown graph id).  Terminal: retrying the
#:   identical request can only fail the same way;
#: * ``internal``       — unexpected server-side error.
#:
#: ``overloaded`` and ``degraded`` are *retryable*: the request was never
#: executed, so a client may safely resend it after the hinted backoff.
ERROR_CODES = (
    "bad_request", "overloaded", "degraded", "shutting_down", "not_found",
    "internal",
)

#: Error codes a client may retry without risking double execution.
RETRYABLE_CODES = frozenset({"overloaded", "degraded"})


class ProtocolError(ReproError):
    """A malformed message, or an error response surfaced client-side."""

    def __init__(self, message: str, code: str = "bad_request") -> None:
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------------
# Graph codec
# ----------------------------------------------------------------------

def graph_to_wire(graph: Graph) -> dict:
    """JSON-ready form of a labeled graph."""
    wire = {
        "labels": list(graph.labels),
        "edges": [[u, v] for u, v in graph.edges()],
    }
    if graph.name is not None:
        wire["name"] = graph.name
    return wire


def graph_from_wire(obj) -> Graph:
    """Validate and rebuild a graph from its wire form.

    Raises :class:`ProtocolError` (``bad_request``) on anything malformed,
    so the server can reject a single bad request without trusting the
    graph layer to produce a catchable error.
    """
    if not isinstance(obj, dict):
        raise ProtocolError("graph must be a JSON object")
    labels = obj.get("labels")
    edges = obj.get("edges", [])
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ProtocolError("graph name must be a string")
    if not isinstance(labels, list) or not labels:
        raise ProtocolError("graph needs a non-empty 'labels' list")
    if not all(isinstance(l, int) and not isinstance(l, bool) and l >= 0
               for l in labels):
        raise ProtocolError("vertex labels must be non-negative integers")
    if not isinstance(edges, list):
        raise ProtocolError("'edges' must be a list of [u, v] pairs")
    builder = GraphBuilder(name=name)
    builder.add_vertices(labels)
    n = len(labels)
    for edge in edges:
        if (
            not isinstance(edge, (list, tuple))
            or len(edge) != 2
            or not all(isinstance(e, int) and not isinstance(e, bool) for e in edge)
        ):
            raise ProtocolError(f"malformed edge {edge!r}; expected [u, v]")
        u, v = edge
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ProtocolError(f"edge {edge!r} out of range for {n} vertices")
        if not builder.try_add_edge(u, v):
            raise ProtocolError(f"duplicate edge {edge!r}")
    return builder.build()


def graph_key(graph: Graph) -> str:
    """Canonical cache key for *exact-match* result caching.

    Two requests share a key iff they send the same labeled adjacency
    under the same vertex numbering — deliberately not isomorphism-
    invariant (canonical labeling costs more than the lookup saves; the
    GraphCache-style containment cache handles the isomorphic case).
    """
    edges = ",".join(
        f"{u}-{v}" for u, v in sorted(min((u, v), (v, u)) for u, v in graph.edges())
    )
    return ":".join(str(l) for l in graph.labels) + "|" + edges


# ----------------------------------------------------------------------
# Message framing
# ----------------------------------------------------------------------

def encode_message(obj: dict) -> bytes:
    """One protocol message as a single UTF-8 JSON line."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one received line into a message object."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"not a JSON line: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("message must be a JSON object")
    return obj


def error_response(
    request_id, code: str, message: str, retry_after: float | None = None
) -> dict:
    assert code in ERROR_CODES, code
    error: dict = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after_s"] = retry_after
    return {"id": request_id, "ok": False, "error": error}


# ----------------------------------------------------------------------
# Addresses and sockets
# ----------------------------------------------------------------------

def parse_address(text: str) -> tuple[str, object]:
    """Parse ``unix:<path>`` or ``[host]:<port>`` into (family, address).

    ``unix:/tmp/repro.sock`` → ``("unix", "/tmp/repro.sock")``;
    ``127.0.0.1:7687`` / ``:7687`` → ``("tcp", (host, port))`` with the
    empty host defaulting to localhost.
    """
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise ProtocolError("unix address needs a socket path after 'unix:'")
        return ("unix", path)
    host, sep, port_text = text.rpartition(":")
    if not sep:
        raise ProtocolError(
            f"address {text!r} is neither 'unix:<path>' nor '<host>:<port>'"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ProtocolError(f"invalid port {port_text!r} in address {text!r}") from None
    if not 0 <= port <= 65535:
        raise ProtocolError(f"port {port} out of range in address {text!r}")
    return ("tcp", (host or "127.0.0.1", port))


def format_address(family: str, address) -> str:
    if family == "unix":
        return f"unix:{address}"
    host, port = address
    return f"{host}:{port}"


def listen(text: str, backlog: int = 64) -> socket.socket:
    """Bind and listen on a parsed address; returns the server socket."""
    family, address = parse_address(text)
    if family == "unix":
        import os

        try:
            # Replace a stale socket file from a previous unclean exit.
            if os.path.exists(address):
                os.unlink(address)
        except OSError:
            pass
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(address)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(address)
    sock.listen(backlog)
    return sock


def connect(text: str, timeout: float | None = None) -> socket.socket:
    """Connect a client socket to a parsed address."""
    family, address = parse_address(text)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(address)
    except OSError:
        sock.close()
        raise
    return sock
