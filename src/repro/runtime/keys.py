"""Content-addressed cache keys for workflows, platforms, schedules, rows.

The campaign runtime never recomputes an evaluation it has already paid for.
To make that safe, cache keys must be *content-addressed*: two objects with
the same semantic content must produce the same key, in the same process or
in another one, today or in a later session.  The keys here are SHA-256
digests of the canonical JSON serialization of :mod:`repro.core.hashing`,
and every payload embeds a ``kind`` tag and :data:`KEY_VERSION` so that a
change in the key schema can never alias an old entry.

Only the quantities that affect an evaluation enter a fingerprint: task
weights, checkpoint / recovery costs and edges for a workflow (names and
categories are display-only), processor count, per-processor failure rate
and downtime for a platform, order and checkpoint set for a schedule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..core.hashing import canonical_json, digest, stable_seed_words

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.platform import Platform
    from ..core.schedule import Schedule
    from ..core.dag import Workflow

__all__ = [
    "ALGO_VERSION",
    "KEY_VERSION",
    "MC_RNG_SCHEME",
    "canonical_json",
    "digest",
    "stable_seed_words",
    "workflow_fingerprint",
    "platform_fingerprint",
    "schedule_fingerprint",
    "evaluation_key",
    "scenario_unit_key",
    "monte_carlo_key",
    "robustness_unit_key",
    "fabric_shard_key",
]

#: Bumped whenever the canonical payload schema changes, so stale persistent
#: cache entries can never be confused with fresh ones.
#:
#: v2: the platform payload carries the full platform description
#: (processor count and per-processor rate, not just the aggregated rate)
#: now that downtime and processors are scenario grid axes.  Every v1 cache
#: entry is invalidated once, deliberately: v1 scenario rows were computed
#: through a scenario layer that silently dropped the downtime.
KEY_VERSION = 2

#: Version of the *algorithms* whose outputs the cache stores.  KEY_VERSION
#: tracks the key schema; this tracks result-affecting behavior.  Bump it
#: whenever a heuristic, linearization, count search, or the evaluator can
#: produce different numbers than before — otherwise an old persistent cache
#: would silently serve the previous implementation's results as current.
#: v1 -> v2: the numpy evaluator's Algorithm-1 fill and Theorem-3 running
#: sums were re-canonicalized for the incremental sweep engine (float-noise
#: level changes), and local-search probes now evaluate in
#: descending-position order (tie-breaks can differ).
#: v2 -> v3: Schedule's failure-free aggregates now sum checkpoint costs in
#: ascending task index instead of frozenset iteration order (reprolint
#: RL004 fix; float-noise level changes).
#: v3 -> v4: ``auto`` no longer sends instances under 32 tasks to the Python
#: reference, so their values now come from the array backends (last-ulp
#: changes).
ALGO_VERSION = 4


# ----------------------------------------------------------------------
# Fingerprints of the core objects
# ----------------------------------------------------------------------
def workflow_fingerprint(workflow: "Workflow") -> str:
    """Content digest of a workflow (weights, costs and edges only)."""
    payload = {
        "kind": "workflow",
        "v": KEY_VERSION,
        "tasks": [
            [task.index, task.weight, task.checkpoint_cost, task.recovery_cost]
            for task in workflow.tasks
        ],
        "edges": [[u, v] for u, v in workflow.edges],
    }
    return digest(payload)


def platform_fingerprint(platform: "Platform") -> str:
    """Content digest of a platform (processors, per-processor rate, downtime)."""
    return digest(_platform_payload(platform))


def _platform_payload(platform: "Platform") -> dict[str, Any]:
    # The full platform description, not just the aggregated rate: the
    # stored fields (p, lambda_proc, D) are the canonical content, and the
    # derived platform-level lambda is implied by them.
    return {
        "kind": "platform",
        "v": KEY_VERSION,
        "processors": platform.processors,
        "processor_failure_rate": platform.processor_failure_rate,
        "downtime": platform.downtime,
    }


def schedule_fingerprint(schedule: "Schedule") -> str:
    """Content digest of a schedule (workflow content, order, checkpoint set)."""
    payload = {
        "kind": "schedule",
        "v": KEY_VERSION,
        "workflow": workflow_fingerprint(schedule.workflow),
        "order": list(schedule.order),
        "checkpointed": sorted(schedule.checkpointed),
    }
    return digest(payload)


# ----------------------------------------------------------------------
# Keys of cached computations
# ----------------------------------------------------------------------
def evaluation_key(
    schedule: "Schedule",
    platform: "Platform",
    *,
    kind: str = "expected-makespan",
) -> str:
    """Key of one analytical evaluation of a schedule on a platform.

    ``kind`` distinguishes different evaluations of the same pair (for
    example the plain expected makespan versus one that keeps the full
    event-probability table).
    """
    payload = {
        "kind": "evaluation",
        "v": KEY_VERSION,
        "algo": ALGO_VERSION,
        "evaluation": str(kind),
        "schedule": schedule_fingerprint(schedule),
        "platform": _platform_payload(platform),
    }
    return digest(payload)


#: Tag of the per-heuristic random-stream derivation used by the harness.
#: Part of every unit key: changing how RF streams are derived changes the
#: results, so it must invalidate previously cached rows.
RNG_SCHEME = "per-heuristic-sha256-v1"


def scenario_unit_key(
    *,
    platform: "Platform",
    heuristic: str,
    search_mode: str,
    max_candidates: int,
    seed: int,
    workflow: "Workflow | None" = None,
    workflow_digest: str | None = None,
) -> str:
    """Key of one (workflow instance, platform, heuristic) harness row.

    The workflow enters by content, not by generator parameters, so the key
    survives refactors of the generators only as long as they produce the
    same instances — exactly the property a result cache must have.  The
    seed still enters the key on its own because the RF linearization draws
    from a ``(seed, heuristic)``-derived stream even on identical workflows.

    Pass ``workflow_digest`` (a previously computed
    :func:`workflow_fingerprint`) instead of ``workflow`` to skip re-hashing
    an instance whose units are keyed repeatedly.
    """
    if workflow_digest is None:
        if workflow is None:
            raise ValueError("either workflow or workflow_digest is required")
        workflow_digest = workflow_fingerprint(workflow)
    payload = {
        "kind": "scenario-row",
        "v": KEY_VERSION,
        "algo": ALGO_VERSION,
        "workflow": workflow_digest,
        "platform": _platform_payload(platform),
        "heuristic": str(heuristic),
        "search_mode": str(search_mode),
        "max_candidates": int(max_candidates),
        "seed": int(seed),
        "rng": RNG_SCHEME,
    }
    return digest(payload)


#: Tag of the Monte-Carlo random-stream derivation: every replica draws from
#: its own child generator spawned from the seed (see
#: :func:`repro.simulation.engine.replica_generators`).  Part of every
#: Monte-Carlo key because changing how replica streams are derived changes
#: the samples, which must invalidate previously cached summaries.  The
#: evaluation *backend* deliberately stays out of these keys: the python and
#: numpy engines are bit-for-bit identical, so a cache warmed by either
#: serves both.
MC_RNG_SCHEME = "spawned-replica-streams-v1"


def monte_carlo_key(
    schedule: "Schedule",
    platform: "Platform",
    *,
    failure_spec: dict[str, Any],
    n_runs: int,
    seed: int,
    checkpoint_overlap: float = 0.0,
) -> str:
    """Key of one Monte-Carlo summary of a schedule on a platform.

    ``failure_spec`` is the declarative law description of
    :meth:`repro.simulation.failures.FailureModel.spec` — the law *and its
    parameters* enter the key by content, so a Weibull sweep at two shapes
    can never alias, and neither can two replica counts or seeds.
    """
    payload = {
        "kind": "monte-carlo",
        "v": KEY_VERSION,
        "algo": ALGO_VERSION,
        "schedule": schedule_fingerprint(schedule),
        "platform": _platform_payload(platform),
        "failure": dict(failure_spec),
        "n_runs": int(n_runs),
        "seed": int(seed),
        "checkpoint_overlap": float(checkpoint_overlap),
        "rng": MC_RNG_SCHEME,
    }
    return digest(payload)


def robustness_unit_key(
    *,
    platform: "Platform",
    heuristic: str,
    search_mode: str,
    max_candidates: int,
    seed: int,
    failure_spec: dict[str, Any],
    n_runs: int,
    mc_seed: int,
    checkpoint_overlap: float = 0.0,
    workflow: "Workflow | None" = None,
    workflow_digest: str | None = None,
) -> str:
    """Key of one (scenario instance, heuristic, failure law) robustness row.

    Extends :func:`scenario_unit_key` content with the Monte-Carlo side of
    the unit: the failure-law spec, the replica count, the Monte-Carlo seed
    and the replica-stream scheme.  The solver side keeps the per-heuristic
    RNG scheme tag, since the row embeds the solved schedule's metrics.
    """
    if workflow_digest is None:
        if workflow is None:
            raise ValueError("either workflow or workflow_digest is required")
        workflow_digest = workflow_fingerprint(workflow)
    payload = {
        "kind": "robustness-row",
        "v": KEY_VERSION,
        "algo": ALGO_VERSION,
        "workflow": workflow_digest,
        "platform": _platform_payload(platform),
        "heuristic": str(heuristic),
        "search_mode": str(search_mode),
        "max_candidates": int(max_candidates),
        "seed": int(seed),
        "rng": RNG_SCHEME,
        "failure": dict(failure_spec),
        "n_runs": int(n_runs),
        "mc_seed": int(mc_seed),
        "checkpoint_overlap": float(checkpoint_overlap),
        "mc_rng": MC_RNG_SCHEME,
    }
    return digest(payload)


def fabric_shard_key(*, spec_digest: str, shard: int, n_shards: int) -> str:
    """Key of one completed fabric shard (its full row-CSV payload).

    The fabric coordinator journals each finished shard under this key, so a
    coordinator crash resumes without re-leasing completed shards.  The spec
    digest covers the campaign content (grid, seeds, heuristics, search
    budget) but *not* the evaluation backend — like every other key, rows
    are backend-agnostic by contract — while ``ALGO_VERSION`` and the RNG
    scheme enter because the rows embed solver output.
    """
    payload = {
        "kind": "fabric-shard",
        "v": KEY_VERSION,
        "algo": ALGO_VERSION,
        "spec": str(spec_digest),
        "shard": int(shard),
        "n_shards": int(n_shards),
        "rng": RNG_SCHEME,
    }
    return digest(payload)
