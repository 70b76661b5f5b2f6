"""The supervised worker pool (``serve --supervised``).

:class:`SupervisedExecutor` is a :class:`~repro.exec.parallel.
ParallelExecutor` armed with ``Health(threshold=5)``: five consecutive
worker failures open the pool — no respawns, queued queries fail fast as
``crash`` once no worker is left, the service answers cache misses
``degraded`` — until a half-open probe worker answers.  Everything else
is the base pool's own, so the two cannot drift apart behaviourally.
"""

from __future__ import annotations

from repro.exec.parallel import ParallelExecutor
from repro.exec.worker import Health

__all__ = ["SupervisedExecutor"]


class SupervisedExecutor(ParallelExecutor):
    """A :class:`ParallelExecutor` whose :class:`Health` opens."""

    def __init__(self, *args, health: Health | None = None, **kwargs) -> None:
        if health is not None and health.threshold < 1:
            raise ValueError(
                "a supervised pool's health threshold must be positive"
            )
        super().__init__(
            *args,
            health=health if health is not None else Health(threshold=5),
            **kwargs,
        )
