"""Parallel campaign runtime with content-addressed result caching.

This package is the execution layer every experiment entry point routes
through:

* :mod:`repro.runtime.keys` — stable content-addressed cache keys;
* :mod:`repro.runtime.cache` — in-memory LRU + optional sqlite persistence;
* :mod:`repro.runtime.parallel` — deterministic, supervised process-pool
  map with a serial fallback, over a :class:`WorkerPool` that callers can
  keep across maps;
* :mod:`repro.runtime.runner` — the solve core shared by campaigns,
  figures and the service, and the :class:`CampaignRunner` fanning groups
  of (scenario × seed × heuristic) units out across workers;
* :mod:`repro.runtime.progress` — lightweight progress/throughput reporting.

``runner`` is re-exported lazily: it depends on :mod:`repro.experiments`,
which itself uses :mod:`repro.runtime.keys`, and the lazy hop keeps that
dependency chain acyclic at import time.
"""

from __future__ import annotations

from .cache import CacheStats, DiskCache, LRUCache, ResultCache, read_disk_stats
from .cachenet import (
    CacheNetClient,
    CacheNetServer,
    CircuitBreaker,
    FallbackResultCache,
)
from .keys import (
    ALGO_VERSION,
    KEY_VERSION,
    MC_RNG_SCHEME,
    canonical_json,
    digest,
    evaluation_key,
    monte_carlo_key,
    platform_fingerprint,
    robustness_unit_key,
    scenario_unit_key,
    schedule_fingerprint,
    stable_seed_words,
    workflow_fingerprint,
)
from .faults import (
    FAULTS_ENV,
    KNOWN_FAULT_SITES,
    active_faults,
    fault_fired,
    fault_point,
    parse_faults,
)
from .journal import JOURNAL_VERSION, CampaignJournal
from .keys import fabric_shard_key
from .leases import DONE, LEASED, PENDING, POISON, LeaseQueue, ShardLease
from .parallel import (
    QUARANTINED,
    WorkerFailure,
    WorkerPool,
    deterministic_chunksize,
    parallel_map,
    resolve_jobs,
)
from .progress import ConsoleProgress, NullProgress, coerce_progress
from .retry import RetryPolicy
from .rpc import RpcError, parse_address

__all__ = [
    "ALGO_VERSION",
    "CacheNetClient",
    "CacheNetServer",
    "CacheStats",
    "CampaignJournal",
    "CampaignRunner",
    "CircuitBreaker",
    "ConsoleProgress",
    "DONE",
    "DiskCache",
    "FallbackResultCache",
    "LEASED",
    "LeaseQueue",
    "PENDING",
    "POISON",
    "RetryPolicy",
    "RpcError",
    "ShardLease",
    "FAULTS_ENV",
    "JOURNAL_VERSION",
    "KEY_VERSION",
    "KNOWN_FAULT_SITES",
    "LRUCache",
    "MC_RNG_SCHEME",
    "MonteCarloUnit",
    "NullProgress",
    "QUARANTINED",
    "ResultCache",
    "UnitFailure",
    "WorkUnit",
    "WorkerFailure",
    "WorkerPool",
    "active_faults",
    "canonical_json",
    "coerce_progress",
    "deterministic_chunksize",
    "digest",
    "evaluation_key",
    "fabric_shard_key",
    "parse_address",
    "evaluate_schedule_cached",
    "expand_work_units",
    "fault_fired",
    "fault_point",
    "monte_carlo_key",
    "parse_faults",
    "robustness_unit_key",
    "run_monte_carlo_cached",
    "parallel_map",
    "platform_fingerprint",
    "read_disk_stats",
    "resolve_jobs",
    "scenario_unit_key",
    "schedule_fingerprint",
    "stable_seed_words",
    "workflow_fingerprint",
]

_RUNNER_EXPORTS = {
    "CampaignRunner",
    "MonteCarloUnit",
    "UnitFailure",
    "WorkUnit",
    "expand_work_units",
    "evaluate_schedule_cached",
    "run_monte_carlo_cached",
}


def __getattr__(name: str) -> object:
    if name in _RUNNER_EXPORTS:
        from . import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
