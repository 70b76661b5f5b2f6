"""Timers and cooperative deadlines.

The paper enforces a 10-minute limit per query and a 24-hour limit per index
build, recording violations as out-of-time (OOT).  Python offers no safe way
to preempt a running computation, so every long-running loop in this library
periodically polls a :class:`Deadline`.  The poll is a single integer
comparison most of the time (see :meth:`Deadline.check`), which keeps the
overhead far below the cost of the graph operations it guards.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.utils.errors import TimeLimitExceeded

__all__ = ["Deadline", "LatencyHistogram", "Timer"]

# How many calls to Deadline.check() may elapse between actual clock reads.
_CHECK_STRIDE = 256


class Deadline:
    """A cooperative time budget.

    A ``Deadline`` with ``seconds=None`` never expires, which lets callers
    thread one object through their code unconditionally::

        deadline = Deadline(limit)       # limit may be None
        for ...:
            deadline.check()             # raises TimeLimitExceeded when due

    ``check`` only consults the wall clock every ``_CHECK_STRIDE`` calls so
    it is cheap enough for inner enumeration loops.
    """

    __slots__ = ("_expires_at", "_countdown")

    def __init__(self, seconds: float | None = None) -> None:
        if seconds is not None and seconds < 0:
            raise ValueError(f"time limit must be non-negative, got {seconds!r}")
        self._expires_at = None if seconds is None else time.perf_counter() + seconds
        self._countdown = _CHECK_STRIDE

    @classmethod
    def from_remaining(cls, remaining: float | None) -> "Deadline":
        """Rebuild a deadline from :meth:`remaining`'s value.

        The stored expiry is an absolute ``perf_counter`` target, which is
        meaningless in another process (each process has its own clock
        origin); a deadline crosses a process boundary as its *remaining*
        budget instead.  An already-expired budget (negative remaining)
        clamps to an immediately-expiring deadline.
        """
        if remaining is None:
            return cls(None)
        return cls(max(0.0, remaining))

    def __reduce__(self):
        return (Deadline.from_remaining, (self.remaining(),))

    @property
    def unlimited(self) -> bool:
        """Whether this deadline can never expire."""
        return self._expires_at is None

    def remaining(self) -> float | None:
        """Seconds left, or ``None`` for an unlimited deadline."""
        if self._expires_at is None:
            return None
        return self._expires_at - time.perf_counter()

    def expired(self) -> bool:
        """Read the clock immediately and report whether time has run out."""
        if self._expires_at is None:
            return False
        return time.perf_counter() >= self._expires_at

    def check(self) -> None:
        """Raise :class:`TimeLimitExceeded` if the budget has been spent.

        Cheap on the fast path: the wall clock is only read once every
        ``_CHECK_STRIDE`` invocations.
        """
        if self._expires_at is None:
            return
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = _CHECK_STRIDE
        if time.perf_counter() >= self._expires_at:
            raise TimeLimitExceeded("deadline expired")

    def check_every(self, k: int) -> None:
        """Like :meth:`check`, but accounting for ``k`` units of work.

        Loops that already batch their work (e.g. the enumeration kernel,
        which extends many candidates per bitmap operation) call this once
        per batch instead of :meth:`check` once per unit.  The clock is
        still read at least once every ``_CHECK_STRIDE`` units, so expiry
        is detected within one stride of work regardless of batch size.
        """
        if self._expires_at is None:
            return
        self._countdown -= k
        if self._countdown > 0:
            return
        self._countdown = _CHECK_STRIDE
        if time.perf_counter() >= self._expires_at:
            raise TimeLimitExceeded("deadline expired")


class LatencyHistogram:
    """Fixed log-bucket latency histogram.

    Latencies span four-plus orders of magnitude under load (a cache hit
    is microseconds, a cold CFQL query is seconds), so percentiles are
    tracked over geometrically sized buckets: bucket 0 holds everything
    up to ``min_value`` seconds and each later bucket is ``growth`` times
    wider than the one before.  A reported percentile is the upper bound
    of its bucket, i.e. within one ``growth`` factor of the true value —
    plenty for p50/p95/p99 reporting, at a fixed few hundred ints of
    state.

    ``to_dict`` / ``from_dict`` round-trip through JSON for the service
    ``stats`` verb.
    """

    __slots__ = (
        "min_value", "growth", "counts", "count", "total", "max_value",
        "_log_growth",
    )

    #: Default layout: 1 µs lower bound, 15 % bucket growth, 160 buckets —
    #: covering 1 µs .. ~4,000 s, comfortably past the paper's 600 s limit.
    DEFAULT_MIN = 1e-6
    DEFAULT_GROWTH = 1.15
    DEFAULT_BUCKETS = 160

    def __init__(
        self,
        min_value: float = DEFAULT_MIN,
        growth: float = DEFAULT_GROWTH,
        num_buckets: int = DEFAULT_BUCKETS,
    ) -> None:
        if min_value <= 0:
            raise ValueError("min_value must be positive")
        if growth <= 1.0:
            raise ValueError("growth must be greater than 1")
        if num_buckets < 2:
            raise ValueError("need at least 2 buckets")
        self.min_value = min_value
        self.growth = growth
        self._log_growth = math.log(growth)
        self.counts = [0] * num_buckets
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _bucket(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        index = 1 + int(math.log(value / self.min_value) / self._log_growth)
        return min(index, len(self.counts) - 1)

    def _upper_bound(self, index: int) -> float:
        return self.min_value * self.growth**index

    def record(self, seconds: float) -> None:
        """Add one observation (negative values clamp to zero)."""
        value = max(0.0, seconds)
        self.counts[self._bucket(value)] += 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket holding the ``p``-th percentile.

        ``p`` is in [0, 100].  Returns 0.0 for an empty histogram.  The
        true observation is at most one ``growth`` factor below the
        returned value (and the overall maximum is reported exactly).
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p!r}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(self.count * p / 100.0))
        seen = 0
        for index, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                if index == len(self.counts) - 1:
                    # The last bucket is open-ended (it absorbs overflow);
                    # its only honest upper bound is the recorded maximum.
                    return self.max_value
                return min(self._upper_bound(index), self.max_value)
        return self.max_value  # pragma: no cover - defensive

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        """JSON-ready digest used by the service stats and bench reports."""
        return {
            "count": self.count,
            "mean_s": self.mean,
            "max_s": self.max_value,
            "p50_s": self.percentile(50),
            "p90_s": self.percentile(90),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
        }

    # ------------------------------------------------------------------
    # Serialization (sparse: most buckets are empty)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "min_value": self.min_value,
            "growth": self.growth,
            "num_buckets": len(self.counts),
            "count": self.count,
            "total": self.total,
            "max_value": self.max_value,
            "buckets": [[i, c] for i, c in enumerate(self.counts) if c],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyHistogram":
        hist = cls(
            min_value=data["min_value"],
            growth=data["growth"],
            num_buckets=data["num_buckets"],
        )
        for index, c in data["buckets"]:
            hist.counts[index] = c
        hist.count = data["count"]
        hist.total = data["total"]
        hist.max_value = data["max_value"]
        return hist

    def __repr__(self) -> str:
        return (
            f"<LatencyHistogram n={self.count} mean={self.mean:.6f}s "
            f"p99={self.percentile(99):.6f}s>"
        )


@dataclass
class Timer:
    """Accumulating stopwatch used for the per-phase timings in Section IV.

    Supports both context-manager use (``with timer: ...``) and explicit
    ``start``/``stop`` calls.  ``elapsed`` accumulates across activations,
    matching the paper's metrics which sum a phase's time over all data
    graphs touched by one query.
    """

    elapsed: float = 0.0
    _started_at: float | None = field(default=None, repr=False)

    def start(self) -> "Timer":
        if self._started_at is not None:
            raise RuntimeError("timer is already running")
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("timer is not running")
        self.elapsed += time.perf_counter() - self._started_at
        self._started_at = None
        return self.elapsed

    def reset(self) -> None:
        self.elapsed = 0.0
        self._started_at = None

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._started_at is not None
