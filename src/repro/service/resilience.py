"""Service-level resilience: mutation dedup.

:class:`MutationDedup` is a pure state machine — no sockets, no threads
of its own — so it can be tested exhaustively in isolation and driven by
the scheduler thread while connection threads snapshot it for ``stats``.
A client retrying an ``add_graph`` after a lost response must not insert
the graph twice.  Mutations carrying a client-generated ``request_key``
are remembered in a bounded LRU window; a retry whose key is still in
the window is answered with the recorded response instead of re-applying
the mutation.

The service's ``degraded`` mode has no state of its own here: it asks
the engine's pool :class:`~repro.exec.worker.Health` (see
:mod:`repro.service.server`).
"""

from __future__ import annotations

import collections
import threading

__all__ = ["MutationDedup"]


class MutationDedup:
    """Bounded LRU window of answered mutation ``request_key``s.

    Only successful responses are recorded: a failed mutation did not
    change the database, so a retry is safe (and desirable) to re-apply.
    Accessed from the scheduler thread only, but locked anyway so the
    stats path may read ``hits``/size concurrently.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.hits = 0
        self._lock = threading.Lock()
        self._entries: collections.OrderedDict[str, dict] = collections.OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, key: str) -> dict | None:
        """The recorded response for ``key``, or ``None`` (first sight)."""
        if not self.capacity or not key:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return dict(entry)

    def store(self, key: str, response: dict) -> None:
        if not self.capacity or not key:
            return
        with self._lock:
            self._entries[key] = dict(response)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
