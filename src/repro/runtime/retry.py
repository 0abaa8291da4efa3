"""Shared bounded-exponential-backoff policy.

One retry schedule, two consumers: the worker-pool supervisor of
:mod:`repro.runtime.parallel` (sleeps between pool resets) and the
JSON-lines client of :mod:`repro.runtime.rpc` (sleeps between reconnect
attempts), which both the cache-net client and the fabric worker's
control-plane client are.  Factoring the schedule into a policy object
keeps them consistent and makes the schedule testable in isolation.

The schedule is the classic capped exponential::

    delay(k) = min(base_delay * 2**(k - 1), max_delay)      # k-th failure

optionally stretched by *deterministic* jitter: the jitter factor for the
``k``-th failure is drawn from a :class:`random.Random` seeded with
``(seed, k)``, so two runs of the same campaign back off identically —
reproducibility extends to the failure paths — while distinct workers
(distinct seeds) still decorrelate their retries.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with optional deterministic jitter.

    Attributes
    ----------
    max_attempts:
        Total tries an operation gets (first attempt included).  ``delay``
        itself accepts any failure count — the supervisor's reset loop is
        bounded per chunk, not globally — but clients that own their retry
        loop iterate ``range(1, max_attempts + 1)``.
    base_delay:
        Backoff after the first failure (seconds).  ``0`` disables sleeping.
    max_delay:
        Cap on any single backoff sleep (seconds).
    jitter:
        Fraction in ``[0, 1]``: the ``k``-th delay is stretched by up to
        ``jitter * delay`` (never past ``max_delay``).  ``0`` reproduces the
        exact legacy supervisor schedule.
    seed:
        Seed of the jitter stream; give each worker its own so their retry
        storms decorrelate without losing run-to-run determinism.
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    max_delay: float = 30.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    @property
    def retries(self) -> int:
        """Retries beyond the first attempt."""
        return self.max_attempts - 1

    def delay(self, failures: int) -> float:
        """Backoff (seconds) after the ``failures``-th consecutive failure."""
        if failures < 1:
            raise ValueError(f"failures must be >= 1, got {failures}")
        if self.base_delay <= 0:
            return 0.0
        delay = min(self.base_delay * (2.0 ** (failures - 1)), self.max_delay)
        if self.jitter > 0.0:
            # Seeded per (policy seed, failure ordinal): deterministic across
            # runs, distinct across workers and across successive failures.
            stretch = random.Random(f"repro-retry:{self.seed}:{failures}").random()
            delay = min(delay * (1.0 + self.jitter * stretch), self.max_delay)
        return delay

    def delays(self) -> list[float]:
        """The full schedule: one delay per allowed retry."""
        return [self.delay(k) for k in range(1, self.max_attempts)]

    def sleep(
        self, failures: int, *, sleep: Callable[[float], None] = time.sleep
    ) -> float:
        """Sleep out the backoff for the ``failures``-th failure; returns it."""
        delay = self.delay(failures)
        if delay > 0:
            sleep(delay)
        return delay
