"""The load generator: one process, one thread, one connection.

Requests are pipelined on the single connection and matched to responses
by ``id``.  Two modes, never mixed within a phase:

* ``window=k`` — a closed loop of ``k`` callers, each waiting for a reply:
  the next request is sent when a response arrives, so a slow server
  receives less load;
* ``due=[t0, t1, ...]`` — an open loop: request ``i`` is sent at offset
  ``due[i]`` whether or not earlier ones were answered, its latency is
  timed **from the due time**, and how late the generator itself ran is
  reported beside it.

Request lines are encoded before the clock starts and responses are kept
as raw bytes and decoded after it stops, so the generator's own codec is
not in the timed path.  The exception is the traced run: a request listed
in ``traced`` is encoded at send time and decoded on receipt, each under a
span, which is exactly the cost tracing adds.

Waiting uses ``select.select``, whose timeout is a float of seconds with
microsecond resolution; ``selectors.EpollSelector`` rounds timeouts up to
a millisecond, which at 1000 requests/s would make every send late.  The
kernel still wakes a sleeping ``select`` ~60 us after its timeout (timer
slack), so the open loop sleeps only until ``SPIN_S`` before the next due
time and polls from there.
"""

from __future__ import annotations

import json
import select
import socket
import time
from dataclasses import dataclass, field

#: A phase in which the server sends nothing for this long has failed.
STALL_TIMEOUT_S = 60.0

#: Open loop: poll instead of sleeping this close to the next due time.
SPIN_S = 0.0002


class LoadError(RuntimeError):
    """The connection died or the server stopped answering mid-phase."""


@dataclass
class PhaseRecord:
    """What one phase measured; all times are ``perf_counter`` seconds."""

    started: float = 0.0
    ended: float = 0.0
    #: Per request, in schedule order.
    sent: list[float] = field(default_factory=list)
    received: list[float] = field(default_factory=list)
    responses: list[bytes | dict] = field(default_factory=list)
    #: Open loop only: absolute due time per request.
    due: list[float] | None = None

    @property
    def wall(self) -> float:
        return self.ended - self.started

    def latencies(self) -> list[float]:
        start = self.due if self.due is not None else self.sent
        return [r - s for r, s in zip(self.received, start)]

    def lateness(self) -> list[float]:
        if self.due is None:
            return [0.0] * len(self.sent)
        return [s - d for s, d in zip(self.sent, self.due)]


def _response_id(line: bytes) -> int:
    # The server writes ``{"id":N,"ok":...`` with the id first; slicing it
    # out is ~50x cheaper than a JSON parse, which matters at 4000 lines/s.
    if line.startswith(b'{"id":'):
        end = line.find(b",", 6)
        try:
            return int(line[6:end])
        except ValueError:
            pass
    return int(json.loads(line)["id"])


def drive(
    sock: socket.socket,
    lines: list[bytes],
    *,
    window: int | None = None,
    due: list[float] | None = None,
    traced: dict[int, dict] | None = None,
    spans=None,
    request_base: int = 0,
) -> PhaseRecord:
    """Send ``lines`` (request ``i`` carries ``"id": i``) and collect replies.

    ``traced`` maps a request index to its un-encoded message; with
    ``spans`` (a :class:`spans.Recorder`) those requests get ``encode``,
    ``roundtrip`` and ``decode`` spans under one ``request`` span each,
    identified as request ``request_base + i``.
    """
    if (window is None) == (due is None):
        raise ValueError("pass exactly one of window= and due=")
    n = len(lines)
    traced = traced or {}
    clock = time.perf_counter
    record = PhaseRecord(
        sent=[0.0] * n, received=[0.0] * n, responses=[b""] * n
    )
    open_spans: dict[int, tuple[int, int]] = {}
    buffer = b""
    next_index = 0
    answered = 0
    record.started = clock()
    if due is not None:
        record.due = [record.started + offset for offset in due]

    def framed(i: int) -> bytes:
        """Request ``i`` as bytes, stamped as sent now."""
        message = traced.get(i)
        if message is None:
            record.sent[i] = clock()
            return lines[i]
        request = request_base + i
        parent = spans.begin("request", request=request)
        with spans.span("client.encode", parent=parent, request=request):
            line = (json.dumps(message, separators=(",", ":")) + "\n").encode()
        open_spans[i] = (
            parent, spans.begin("client.roundtrip", parent=parent, request=request)
        )
        record.sent[i] = clock()
        return line

    while answered < n:
        now = clock()
        # Everything that may go now goes in one write: callers whose
        # replies arrived together send together, and the server sees them
        # as one burst instead of racing its scheduler against our writes.
        first = next_index
        if due is not None:
            while next_index < n and record.due[next_index] <= now:
                next_index += 1
        else:
            next_index = min(n, answered + window)
        if next_index > first:
            sock.sendall(b"".join(framed(i) for i in range(first, next_index)))
        if due is not None:
            timeout = (
                max(0.0, record.due[next_index] - clock() - SPIN_S)
                if next_index < n else STALL_TIMEOUT_S
            )
        else:
            timeout = STALL_TIMEOUT_S
        readable, _, _ = select.select([sock], [], [], timeout)
        if not readable:
            if timeout >= STALL_TIMEOUT_S:
                raise LoadError(
                    f"no response for {STALL_TIMEOUT_S:.0f} s with "
                    f"{next_index - answered} requests outstanding"
                )
            continue
        chunk = sock.recv(1 << 18)
        arrived = clock()
        if not chunk:
            raise LoadError("connection closed by the server mid-phase")
        buffer += chunk
        if b"\n" not in chunk:
            continue
        *complete, buffer = buffer.split(b"\n")
        for line in complete:
            i = _response_id(line)
            record.received[i] = arrived
            if i in open_spans:
                parent, roundtrip = open_spans.pop(i)
                spans.end(roundtrip, at=arrived)
                with spans.span("client.decode", parent=parent,
                                request=request_base + i):
                    record.responses[i] = json.loads(line)
                spans.end(parent)
            else:
                record.responses[i] = line
            answered += 1
    record.ended = clock()
    return record


def call(sock: socket.socket, message: dict) -> dict:
    """One blocking request/response outside any timed phase."""
    sock.sendall((json.dumps(message) + "\n").encode())
    buffer = b""
    while not buffer.endswith(b"\n"):
        chunk = sock.recv(1 << 18)
        if not chunk:
            raise LoadError("connection closed by the server")
        buffer += chunk
    return json.loads(buffer)
