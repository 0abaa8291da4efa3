"""Deterministic fault injection for chaos testing.

The crash-safety machinery of this package (journaled resume, worker
supervision, cache-corruption recovery, service self-healing) is only
trustworthy if its failure paths are exercised deterministically.  This
module provides that substrate: named *fault points* threaded through the
runtime, armed from the environment so that faults reach worker processes
(which inherit ``os.environ``) and subprocess-level CI gates alike.

Arming syntax (``REPRO_FAULTS``)::

    spec    := clause (";" clause)*
    clause  := site (":" param ("," param)*)?
    param   := key "=" value

Reserved parameter keys:

``raise=<ExceptionName>`` / ``exit=<code>`` / ``sleep=<seconds>``
    The action to perform when the clause fires (at most one per clause).
    Without an action the *site's* default applies — e.g. ``worker_crash``
    exits the process with code 137 (SIGKILL-alike), ``cache_read`` raises
    :class:`sqlite3.DatabaseError`, ``chunk_timeout`` stalls the worker.
``after=N``
    Skip the first ``N`` matching invocations (counted per process), then
    start firing.  This is how the CI kill-resume gate murders a campaign
    "at ~50%": ``campaign_unit:after=4``.
``times=N``
    Fire at most ``N`` times per process (default: unlimited).

Every other ``key=value`` pair is a *context match*: the clause only fires
when the fault point was invoked with a context value whose ``str()`` equals
``value`` — e.g. ``worker_crash:unit=3`` targets the worker iteration of
parallel item 3 only, and ``worker_crash:unit=3,attempt=1`` additionally
spares the retry, modelling a transient crash.  In a campaign a parallel
item is a *group* of units that share a sweep (see
:mod:`repro.runtime.runner`), so ``worker_crash:unit=`` and
``chunk_timeout:unit=`` count groups, not units; ``campaign_unit:unit=``
counts units.

Fault points registered across the tree:

===================  =================================================  ==================
site                 where                                              default action
===================  =================================================  ==================
``worker_crash``     per item in :func:`~repro.runtime.parallel         ``exit=137``
                     .parallel_map` workers (and the serial loop); a
                     campaign's items are groups of units
``chunk_timeout``    same place, before the item runs                   ``sleep=30``
``cache_open``       :class:`~repro.runtime.cache.DiskCache` open       ``raise=DatabaseError``
``cache_read``       every :meth:`DiskCache.get`                        ``raise=DatabaseError``
``campaign_unit``    parent-side, after a completed unit is             ``exit=137``
                     journaled/cached in ``CampaignRunner._run_cached``
``service_group``    the service planner, before it solves a group      ``raise=RuntimeError``
                     (``repro.service.planner._solve_service_group``);
                     campaigns never reach it
``lease_grant``      :meth:`repro.runtime.leases.LeaseQueue.grant`,     ``raise=OSError``
                     after a shard is selected, before it is leased
``lease_renew``      :meth:`repro.runtime.leases.LeaseQueue.renew`      ``raise=OSError``
``worker_heartbeat`` the fabric worker's heartbeat loop, before each    ``sleep=30``
                     renewal is sent (models a stalled worker)
``cache_net_send``   :class:`repro.runtime.cachenet.CacheNetClient`,    ``raise=OSError``
                     before a request is written to the socket
``cache_net_recv``   same client, before the response is read           ``raise=OSError``
``fabric_shard``     fabric worker, before a leased shard's campaign    ``raise=RuntimeError``
                     runs (models a shard that poisons its worker)
===================  =================================================  ==================

The registry re-parses lazily whenever the environment string changes, so
tests can simply ``monkeypatch.setenv("REPRO_FAULTS", ...)`` — no explicit
reset call needed — and forked workers pick up whatever was armed at fork
time.  ``after``/``times`` counters are per-process and reset whenever the
spec string changes.
"""

from __future__ import annotations

import os
import sqlite3
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "FAULTS_ENV",
    "KNOWN_FAULT_SITES",
    "FaultClause",
    "active_faults",
    "fault_fired",
    "fault_point",
    "parse_faults",
]

FAULTS_ENV = "REPRO_FAULTS"

#: Exceptions a clause may raise by name.  A deliberate allow-list: fault
#: specs come from the environment, so resolving arbitrary dotted paths
#: would be an eval-shaped hole.
_EXCEPTIONS: dict[str, type[BaseException]] = {
    "ValueError": ValueError,
    "RuntimeError": RuntimeError,
    "OSError": OSError,
    "TimeoutError": TimeoutError,
    "KeyboardInterrupt": KeyboardInterrupt,
    "DatabaseError": sqlite3.DatabaseError,
    "BrokenProcessPool": BrokenProcessPool,
}

_ACTION_KEYS = ("raise", "exit", "sleep")

#: The closed fault-site namespace.  Clauses are matched by string equality,
#: so a typo'd site arms nothing — cross-checked three ways by reprolint
#: RL006 (every ``fault_point`` call site, every ``REPRO_FAULTS`` string in
#: tests/CI, and this registry must agree), and guarded at runtime by
#: :func:`parse_faults`, which warns on unknown sites.  ``demo`` is reserved
#: for the fault-injection test suite's synthetic fault point.
KNOWN_FAULT_SITES = frozenset(
    {
        "worker_crash",
        "chunk_timeout",
        "cache_open",
        "cache_read",
        "campaign_unit",
        "service_group",
        "lease_grant",
        "lease_renew",
        "worker_heartbeat",
        "cache_net_send",
        "cache_net_recv",
        "fabric_shard",
        "demo",
    }
)


@dataclass
class FaultClause:
    """One armed clause of a fault spec (see module docstring for syntax)."""

    site: str
    action: tuple[str, str] | None = None
    after: int = 0
    times: int | None = None
    match: dict[str, str] = field(default_factory=dict)
    calls: int = 0  # matching invocations seen (drives ``after``)
    fired: int = 0  # actions performed (drives ``times``)


def _parse_action(key: str, value: str, clause_text: str) -> tuple[str, str]:
    if key == "raise":
        if value not in _EXCEPTIONS:
            names = ", ".join(sorted(_EXCEPTIONS))
            raise ValueError(
                f"unknown exception {value!r} in fault clause {clause_text!r}; "
                f"expected one of: {names}"
            )
    elif key == "exit":
        int(value)
    elif key == "sleep":
        float(value)
    return (key, value)


def parse_faults(text: str) -> list[FaultClause]:
    """Parse a ``REPRO_FAULTS`` spec string into clauses (fails loudly)."""
    clauses: list[FaultClause] = []
    for raw in text.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        site, _, params = raw.partition(":")
        site = site.strip()
        if not site:
            raise ValueError(f"fault clause {raw!r} has no site name")
        if site not in KNOWN_FAULT_SITES:
            # Warn rather than raise: an operator arming a site that this
            # version does not carry should see the mistake, but a stale
            # spec in the environment must not brick unrelated commands.
            warnings.warn(
                f"REPRO_FAULTS names unknown fault site {site!r}; known "
                f"sites: {', '.join(sorted(KNOWN_FAULT_SITES))}",
                RuntimeWarning,
                stacklevel=2,
            )
        clause = FaultClause(site=site)
        for pair in params.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, sep, value = pair.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise ValueError(
                    f"malformed parameter {pair!r} in fault clause {raw!r}; "
                    "expected key=value"
                )
            if key in _ACTION_KEYS:
                if clause.action is not None:
                    raise ValueError(f"fault clause {raw!r} has more than one action")
                clause.action = _parse_action(key, value, raw)
            elif key == "after":
                clause.after = int(value)
            elif key == "times":
                clause.times = int(value)
            else:
                clause.match[key] = value
        clauses.append(clause)
    return clauses


class _FaultRegistry:
    """Process-global registry, re-synced from the environment lazily."""

    def __init__(self) -> None:
        self._text: str | None = None
        self._clauses: list[FaultClause] = []

    def sync(self) -> list[FaultClause]:
        text = os.environ.get(FAULTS_ENV, "")
        if text != self._text:
            self._clauses = parse_faults(text)
            self._text = text
        return self._clauses

    def fired(self, site: str) -> int:
        """Total actions performed at ``site`` so far (test introspection)."""
        return sum(clause.fired for clause in self.sync() if clause.site == site)


_REGISTRY = _FaultRegistry()


def _perform(action: tuple[str, str], site: str, context: dict) -> None:
    kind, value = action
    detail = ", ".join(f"{k}={v}" for k, v in sorted(context.items()))
    if kind == "raise":
        raise _EXCEPTIONS[value](f"injected fault at {site} ({detail})")
    if kind == "exit":
        os._exit(int(value))
    time.sleep(float(value))  # kind == "sleep"


def fault_point(site: str, default: str | None = None, **context: object) -> None:
    """Declare a named injection point; a no-op unless a clause targets it.

    ``default`` is the site's default action (``"exit=137"`` style), applied
    when a matching clause names no action of its own.  ``context`` values
    are compared as strings against the clause's match parameters.
    """
    if not os.environ.get(FAULTS_ENV) and not _REGISTRY._clauses:
        return  # hot path: nothing armed, nothing to clear
    for clause in _REGISTRY.sync():
        if clause.site != site:
            continue
        if any(str(context.get(key)) != value for key, value in clause.match.items()):
            continue
        clause.calls += 1
        if clause.calls <= clause.after:
            continue
        if clause.times is not None and clause.fired >= clause.times:
            continue
        action = clause.action
        if action is None:
            if default is None:
                continue
            key, _, value = default.partition("=")
            action = _parse_action(key, value, f"{site} default {default!r}")
        clause.fired += 1
        _perform(action, site, context)


def fault_fired(site: str) -> int:
    """How many times any clause fired at ``site`` in this process."""
    return _REGISTRY.fired(site)


@contextmanager
def active_faults(spec: str) -> Iterator[None]:
    """Arm ``spec`` for the duration of a ``with`` block (test helper)."""
    previous = os.environ.get(FAULTS_ENV)
    os.environ[FAULTS_ENV] = spec
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(FAULTS_ENV, None)
        else:
            os.environ[FAULTS_ENV] = previous
