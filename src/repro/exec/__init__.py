"""Fault-contained query execution.

This package is the hardened execution layer between the engine/benchmark
harness and the query pipelines:

* :mod:`repro.exec.base` — the :class:`QueryExecutor` protocol, a
  **stream** (``submit(query, time_limit) → ticket``, ``collect() →
  finished (ticket, result) pairs`` in completion order; ``run_many`` is
  "submit all, collect all", defined once there), and the default
  cooperative :class:`InProcessExecutor`;
* :mod:`repro.exec.worker` — the one worker-process primitive
  (:class:`~repro.exec.worker.WorkerProcess`: a killable child on a
  duplex pipe, ``recv`` with timeout and drain-after-death, ``scrap``;
  the hard-deadline rule) that the pool below and the shard process host
  are both built on, and :class:`~repro.exec.worker.Health`, the one
  failure throttle (backoff and breaker), one per pool or shard;
* :mod:`repro.exec.parallel` — :class:`ParallelExecutor`, the one pool
  class: it streams queries through ``jobs`` such workers with per-job
  hard wall-clock limits, a memory cap, crash containment and bounded
  retry, behind its ``health``.  ``create_executor``'s ``subprocess``
  (one worker) and ``supervised`` (a ``Health`` that opens) are names
  for it, and :func:`~repro.exec.base.executor_factory` is the one
  ladder from configuration flags to an executor;
* :mod:`repro.exec.journal` — the append-only JSONL journal that makes
  benchmark matrices resumable;
* :mod:`repro.exec.faults` — deterministic fault injection used by tests
  and benchmarks to provoke OOT/OOM/crash/error paths.
"""

from repro.exec import faults
from repro.exec.base import (
    EXECUTOR_NAMES,
    InProcessExecutor,
    QueryExecutor,
    classify_exception,
    create_executor,
    executor_factory,
    failure_result,
)
from repro.exec.journal import RunJournal
from repro.exec.parallel import ParallelExecutor
from repro.exec.worker import Health

__all__ = [
    "EXECUTOR_NAMES",
    "Health",
    "InProcessExecutor",
    "ParallelExecutor",
    "QueryExecutor",
    "RunJournal",
    "classify_exception",
    "create_executor",
    "executor_factory",
    "failure_result",
    "faults",
]
