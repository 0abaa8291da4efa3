"""Coordinator-side lease queue for distributed campaign shards.

The fabric coordinator partitions a campaign into its ``N`` deterministic
shards (the same ``k/N`` partitions ``repro campaign --shard`` runs, see
:func:`~repro.experiments.scenarios.shard_scenarios`) and hands them to
workers as *TTL leases*:

* :meth:`LeaseQueue.grant` leases the lowest pending shard to a worker for
  ``ttl`` seconds;
* :meth:`LeaseQueue.renew` extends the deadline — the worker's heartbeat —
  so a slow-but-alive worker keeps its shard indefinitely;
* :meth:`LeaseQueue.expire` sweeps overdue leases: a dead or stalled worker
  (SIGKILL, network partition, wedged heartbeat thread) silently returns
  its shard to the pending pool for reassignment;
* a shard that keeps failing is *quarantined* after ``max_attempts`` grants
  (:data:`POISON`), mirroring the bounded-attempt quarantine of
  :class:`~repro.runtime.parallel.WorkerFailure` — one poisonous shard must
  not starve the whole campaign.

Completion is idempotent and owner-agnostic: shards are deterministic, so
when an expired worker turns out to be alive after all and finishes its
shard, the late result is byte-identical to the reassigned copy's and is
accepted — first completion wins, later ones are acknowledged and dropped.

The queue is a pure in-memory state machine behind one lock, with an
injectable clock; the network front-end lives in
:mod:`repro.experiments.fabric`, and the fault sites ``lease_grant`` /
``lease_renew`` make the grant/renew edges chaos-testable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from .faults import fault_point

__all__ = [
    "PENDING",
    "LEASED",
    "DONE",
    "POISON",
    "ShardLease",
    "LeaseQueue",
]

#: Lease states.  ``pending -> leased -> done`` is the happy path;
#: ``leased -> pending`` on expiry or failure (reassignment) and
#: ``leased -> poison`` once the grant budget is exhausted.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
POISON = "poison"


@dataclass
class ShardLease:
    """Book-keeping of one shard's lease lifecycle."""

    shard: int  # 1-based, as in "k/N"
    n_shards: int
    state: str = PENDING
    owner: str | None = None
    deadline: float = 0.0  # clock() time the current lease expires
    attempts: int = 0  # grants so far (bounds reassignment)
    last_error: dict[str, Any] | None = None

    def describe(self) -> str:
        """One-line, quarantine-report-shaped description of the shard."""
        error = self.last_error or {}
        cause_type = error.get("type", "expired")
        cause_message = error.get(
            "message", "lease expired without completion (worker dead or stalled)"
        )
        return (
            f"shard {self.shard}/{self.n_shards} failed after "
            f"{self.attempts} attempt(s): {cause_type}: {cause_message}"
        )


class LeaseQueue:
    """Thread-safe TTL-lease work queue over the shards ``1..n_shards``.

    Parameters
    ----------
    n_shards:
        Number of shards in the partition (``N`` of ``k/N``).
    ttl:
        Lease duration in seconds; a worker must renew within it.
    max_attempts:
        Grants a shard gets before it is poisoned.
    clock:
        Injectable monotonic clock (tests drive expiry without sleeping).
    """

    def __init__(
        self,
        n_shards: int,
        *,
        ttl: float = 15.0,
        max_attempts: int = 3,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.ttl = float(ttl)
        self.max_attempts = int(max_attempts)
        self._clock: Callable[[], float] = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._shards: dict[int, ShardLease] = {
            k: ShardLease(shard=k, n_shards=n_shards) for k in range(1, n_shards + 1)
        }
        # Lifetime counters (read by the fabric metrics registry).  A late
        # completion can promote a poisoned shard, so ``poisonings`` counts
        # the quarantine events, not the shards in quarantine now.
        self.granted = 0
        self.renewals = 0
        self.expirations = 0
        self.reassignments = 0
        self.completions = 0
        self.poisonings = 0

    # ------------------------------------------------------------------
    # Worker-facing transitions
    # ------------------------------------------------------------------
    def grant(self, worker: str) -> ShardLease | None:
        """Lease the lowest pending shard to ``worker``; ``None`` when empty.

        ``None`` means *nothing grantable right now* — the worker should
        poll again (a leased shard may yet expire) or stop once
        :attr:`finished` says the campaign is over.
        """
        with self._lock:
            self._expire_locked()
            for lease in self._shards.values():
                if lease.state != PENDING:
                    continue
                # Before committing the grant: a fault here models the
                # coordinator-side failure of the grant edge, and must leave
                # the shard pending for the next request.
                fault_point(
                    "lease_grant",
                    default="raise=OSError",
                    worker=worker,
                    shard=lease.shard,
                )
                lease.state = LEASED
                lease.owner = worker
                lease.attempts += 1
                lease.deadline = self._clock() + self.ttl
                self.granted += 1
                return lease
            return None

    def renew(self, worker: str, shard: int) -> bool:
        """Extend ``worker``'s lease on ``shard``; False when not theirs.

        A renewal for a shard that expired and was reassigned is refused —
        the slow worker learns it lost the shard and abandons it (its late
        completion would still be accepted, see :meth:`complete`).
        """
        with self._lock:
            fault_point(
                "lease_renew", default="raise=OSError", worker=worker, shard=shard
            )
            lease = self._shards.get(shard)
            if lease is None or lease.state != LEASED or lease.owner != worker:
                return False
            lease.deadline = self._clock() + self.ttl
            self.renewals += 1
            return True

    def complete(self, worker: str, shard: int) -> bool:
        """Mark ``shard`` done; True when this call transitioned it.

        Owner-agnostic and idempotent: shards are deterministic, so a late
        completion from an expired owner is as good as the current owner's.
        A poisoned shard completing late is *promoted* back to done — a
        result in hand beats a quarantine report.
        """
        with self._lock:
            lease = self._shards.get(shard)
            if lease is None:
                raise ValueError(f"unknown shard {shard}")
            if lease.state == DONE:
                return False
            lease.state = DONE
            lease.owner = worker
            lease.last_error = None
            self.completions += 1
            return True

    def fail(self, worker: str, shard: int, error: dict[str, Any] | None = None) -> str:
        """Report a shard failure; returns the shard's new state.

        The shard returns to the pending pool (reassignment) until its
        grant budget is exhausted, then turns :data:`POISON`.
        """
        with self._lock:
            lease = self._shards.get(shard)
            if lease is None:
                raise ValueError(f"unknown shard {shard}")
            if lease.state in (DONE, POISON):
                return lease.state
            if error is not None:
                lease.last_error = dict(error)
            return self._release_locked(lease)

    def mark_done(self, shard: int) -> None:
        """Pre-mark a shard done (journal replay on coordinator resume)."""
        with self._lock:
            lease = self._shards.get(shard)
            if lease is None:
                raise ValueError(f"unknown shard {shard}")
            lease.state = DONE
            lease.owner = None
            lease.last_error = None

    # ------------------------------------------------------------------
    # Coordinator-side sweeps and introspection
    # ------------------------------------------------------------------
    def expire(self) -> list[int]:
        """Sweep overdue leases; returns the shard numbers that expired."""
        with self._lock:
            return self._expire_locked()

    def _expire_locked(self) -> list[int]:
        now = self._clock()
        expired: list[int] = []
        for lease in self._shards.values():
            if lease.state == LEASED and lease.deadline <= now:
                expired.append(lease.shard)
                self.expirations += 1
                self._release_locked(lease)
        return expired

    def _release_locked(self, lease: ShardLease) -> str:
        if lease.attempts >= self.max_attempts:
            lease.state = POISON
            self.poisonings += 1
        else:
            lease.state = PENDING
            self.reassignments += 1
        lease.owner = None
        lease.deadline = 0.0
        return lease.state

    @property
    def finished(self) -> bool:
        """True when every shard is done or poisoned (nothing left to run)."""
        with self._lock:
            return all(
                lease.state in (DONE, POISON) for lease in self._shards.values()
            )

    @property
    def active_leases(self) -> int:
        with self._lock:
            return sum(1 for lease in self._shards.values() if lease.state == LEASED)

    @property
    def done(self) -> list[int]:
        with self._lock:
            return [k for k, lease in self._shards.items() if lease.state == DONE]

    @property
    def poisoned(self) -> list[ShardLease]:
        """The quarantined shards, for the coordinator's failure report."""
        with self._lock:
            return [
                ShardLease(**vars(lease))
                for lease in self._shards.values()
                if lease.state == POISON
            ]

    def snapshot(self) -> dict[int, tuple[str, str | None, int]]:
        """``shard -> (state, owner, attempts)`` for logs and tests."""
        with self._lock:
            return {
                k: (lease.state, lease.owner, lease.attempts)
                for k, lease in self._shards.items()
            }
