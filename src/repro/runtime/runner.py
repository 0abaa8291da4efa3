"""Campaign runner: the one solve core of campaigns, figures and the service.

The runtime decomposes a campaign into *work units* — one
``(scenario instance, heuristic)`` pair each, where the scenario instance
already carries its seed.  Units are independent by construction (each
heuristic draws from its own ``(seed, heuristic)``-derived random stream,
see :func:`repro.heuristics.registry.heuristic_rng`).  Whoever asks for a
unit — :class:`CampaignRunner` for campaigns and figures, the service's
:class:`~repro.service.planner.ServicePlanner` for requests — it takes the
same two steps:

* :func:`plan_unit` keys it (the unchanged
  :func:`~repro.runtime.keys.scenario_unit_key`), fixes its candidate
  counts and names its *group*: units of one instance and linearization
  share a sweep;
* :func:`solve_group` computes one group: its units price every set (the
  candidates of their count searches, their winners and the CkptNvr /
  CkptAlws sets) on one :class:`~repro.core.sweep.SweepState` instead of
  one per unit.

Sharing a sweep cannot change any value: sweep evaluations are
order-independent and equal one-shots bit for bit, so every outcome is
the direct :func:`~repro.heuristics.registry.solve_heuristic` result.

:class:`CampaignRunner` answers units from its journal and the
:class:`~repro.runtime.cache.ResultCache` without any evaluator call (only
the cheap workflow construction is repeated, to fingerprint the instance
content-addressably), then fans the groups of the remaining units out over
a process pool via :func:`~repro.runtime.parallel.parallel_map` — a
parallel item is a group, not a unit — gathering results in input order:
aggregates of a ``jobs=4`` run are bit-for-bit those of the serial run.

Result rows come back as :class:`~repro.experiments.harness.ResultRow`.
Only the *outcome* fields of a row are cached; identity fields (label,
family, seed, ...) are re-stamped from the requesting unit, so one
evaluation can serve several sweeps without leaking the original sweep's
labeling: a cached one serves a later run, and within one run a unit
whose key repeats takes its first occurrence's outcome (figure 3 repeats
every unit of figure 2, under another label).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Sequence

from ..core.backend import BACKEND_REGISTRY
from ..core.evaluator import MakespanEvaluation, evaluate_schedule
from ..core.dag import Workflow
from ..core.hashing import stable_seed_words
from ..core.platform import Platform
from ..core.schedule import Schedule
from ..core.sweep import SweepState
from ..experiments.harness import ResultRow
from ..experiments.scenarios import Scenario, build_workflow
from ..heuristics.linearization import linearize
from ..heuristics.registry import heuristic_rng, parse_heuristic_name, solve_heuristic
from ..heuristics.search import SEARCH_MODES, candidate_counts
from .cache import LRUCache, ResultCache
from .faults import fault_point
from .journal import CampaignJournal
from .keys import (
    evaluation_key,
    monte_carlo_key,
    platform_fingerprint,
    robustness_unit_key,
    scenario_unit_key,
)
from .parallel import WorkerFailure, dispose_executor, parallel_map, resolve_jobs
from .progress import coerce_progress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..simulation import MonteCarloSummary

__all__ = [
    "WorkUnit",
    "MonteCarloUnit",
    "UnitFailure",
    "PlannedUnit",
    "SolvedGroup",
    "CampaignRunner",
    "expand_work_units",
    "plan_unit",
    "solve_group",
    "evaluate_schedule_cached",
    "run_monte_carlo_cached",
]


@dataclass(frozen=True)
class WorkUnit:
    """One independent (scenario instance, heuristic) computation.

    ``backend`` selects the evaluation backend used to *compute* the unit;
    it deliberately stays out of the cache key (see :func:`plan_unit`)
    because all backends produce equivalent rows.
    """

    scenario: Scenario
    heuristic: str
    search_mode: str = "exhaustive"
    max_candidates: int = 30
    backend: str | None = None


@dataclass(frozen=True)
class MonteCarloUnit:
    """One independent (scenario instance, heuristic, failure law) simulation.

    The unit solves the heuristic to obtain a schedule (and its analytical
    Theorem-3 expectation), then estimates the same schedule's makespan by
    ``n_runs`` Monte-Carlo replicas under the failure law described by
    ``failure_spec`` (a :meth:`~repro.simulation.failures.FailureModel.spec`
    payload; ``None`` uses the platform's exponential law).  ``mc_seed``
    seeds the replica streams — the actual entropy is derived per unit via
    :func:`repro.core.hashing.stable_seed_words`, so units are independent
    of each other and of execution order.

    As with :class:`WorkUnit`, ``backend`` selects how the unit is computed
    and deliberately stays out of the cache key: the two Monte-Carlo engines
    are bit-for-bit identical.
    """

    scenario: Scenario
    heuristic: str = "DF-CkptW"
    failure_spec: dict[str, Any] | None = None
    n_runs: int = 1000
    mc_seed: int = 0
    search_mode: str = "geometric"
    max_candidates: int = 30
    checkpoint_overlap: float = 0.0
    backend: str | None = None

    def resolved_failure_spec(self) -> dict[str, Any]:
        """The unit's failure law spec, with ``None`` resolved to the platform's."""
        if self.failure_spec is not None:
            return dict(self.failure_spec)
        from ..simulation.failures import failure_model_for

        return failure_model_for(self.scenario.platform).spec()


@dataclass(frozen=True)
class UnitFailure:
    """One quarantined work unit: which unit, and how it kept failing."""

    unit: Any
    failure: WorkerFailure

    def describe(self) -> str:
        scenario = getattr(self.unit, "scenario", None)
        if scenario is not None:
            heuristic = getattr(self.unit, "heuristic", "?")
            what = (
                f"{scenario.family} n={scenario.n_tasks} seed={scenario.seed} "
                f"{heuristic}"
            )
        else:  # pragma: no cover - units always carry a scenario today
            what = repr(self.unit)
        return (
            f"{what}: {self.failure.kind} after {self.failure.attempts} "
            f"attempt(s) — {self.failure.cause_type}: {self.failure.cause_message}"
        )


@dataclass(frozen=True)
class PlannedUnit:
    """A unit ready to be looked up and solved (see :func:`plan_unit`).

    ``unit`` is the :class:`WorkUnit` (or :class:`MonteCarloUnit`) itself,
    ``key`` its cache and journal key, ``counts`` the candidate counts of
    its search (``None`` for CkptNvr/CkptAlws, which do not search), and
    ``group`` names the units that share one sweep.
    """

    unit: Any
    key: str
    counts: tuple[int, ...] | None
    group: Hashable


@dataclass(frozen=True)
class SolvedGroup:
    """What :func:`solve_group` computed, one entry per unit in group order."""

    #: Cacheable outcome payload of each unit (what journals and caches store).
    outcomes: list[dict[str, Any]]
    #: Schedule of each unit: ``{"order": [...], "checkpointed": [...]}``.
    schedules: list[dict[str, list[int]]]
    #: Wall time of each unit's own ``solve_heuristic`` call.
    seconds: list[float]
    #: Evaluations made on the group's one sweep.
    evaluations: int


# Per-process memo of generated workflow instances (and their content
# digests), so that the heuristics of one scenario share a single generator
# call — and a single fingerprint hash — in the parent and in each worker.
# An LRU bound keeps long multi-family sweeps at constant memory.
_WORKFLOW_MEMO = LRUCache(maxsize=16)


def _instance_signature(scenario: Scenario) -> tuple:
    return (
        scenario.family,
        scenario.n_tasks,
        scenario.seed,
        scenario.checkpoint_mode,
        scenario.checkpoint_factor,
        scenario.checkpoint_value,
    )


def _memoized_instance(scenario: Scenario, *, digest: bool = False) -> tuple[Workflow, str | None]:
    """The scenario's workflow and (when ``digest``) its content fingerprint."""
    signature = _instance_signature(scenario)
    workflow, fingerprint = _WORKFLOW_MEMO.get(signature) or (None, None)
    if workflow is None:
        workflow = build_workflow(scenario)
    if digest and fingerprint is None:
        from .keys import workflow_fingerprint

        fingerprint = workflow_fingerprint(workflow)
    _WORKFLOW_MEMO.put(signature, (workflow, fingerprint))
    return workflow, fingerprint


def _search_plan(
    unit: WorkUnit | MonteCarloUnit, strategy: str, n_tasks: int
) -> tuple[str, int, tuple[int, ...] | None]:
    """A unit's keyed search mode and budget, and its candidate counts.

    CkptNvr/CkptAlws never search: they take no counts, and their results,
    identical under every search configuration, key as ``("none", 0)`` so
    that e.g. a geometric sweep warms the baselines of a later exhaustive
    one.
    """
    # Validated before any cache lookup, so that a warm cache rejects
    # exactly the typoed modes a cold one rejects.
    if unit.search_mode not in SEARCH_MODES:
        raise ValueError(
            f"unknown search mode {unit.search_mode!r}; expected one of {SEARCH_MODES}"
        )
    if strategy in ("CkptNvr", "CkptAlws"):
        return "none", 0, None
    counts = candidate_counts(
        n_tasks, mode=unit.search_mode, max_candidates=unit.max_candidates
    )
    search_mode, max_candidates = unit.search_mode, unit.max_candidates
    if search_mode == "geometric" and n_tasks <= max_candidates:
        # The budget covers every count, so the geometric candidate set
        # degenerates to the exhaustive one.
        search_mode = "exhaustive"
    if search_mode == "exhaustive":
        # candidate_counts ignores the budget in exhaustive mode, so keying
        # on it would only create spurious misses.
        max_candidates = 0
    return search_mode, max_candidates, counts


def plan_unit(unit: WorkUnit) -> PlannedUnit:
    """Key a unit, fix its candidate counts and name its sweep group.

    The key is :func:`~repro.runtime.keys.scenario_unit_key`; the backend
    stays out of it, so a cache warmed by one backend serves every backend.
    The group is (workflow fingerprint, platform, linearization, backend):
    units of one instance and linearization share a sweep.  RF draws its
    order from the ``(seed, heuristic)`` stream, so an RF group also
    carries both.
    """
    workflow, fingerprint = _memoized_instance(unit.scenario, digest=True)
    linearization, strategy = parse_heuristic_name(unit.heuristic)
    search_mode, max_candidates, counts = _search_plan(unit, strategy, workflow.n_tasks)
    platform = unit.scenario.platform
    key = scenario_unit_key(
        workflow_digest=fingerprint,
        platform=platform,
        heuristic=unit.heuristic,
        search_mode=search_mode,
        max_candidates=max_candidates,
        seed=unit.scenario.seed,
    )
    group: tuple = (fingerprint, platform_fingerprint(platform), linearization, unit.backend)
    if linearization == "RF":
        group += (unit.scenario.seed, unit.heuristic)
    return PlannedUnit(unit=unit, key=key, counts=counts, group=group)


def solve_group(plans: Sequence[PlannedUnit]) -> SolvedGroup:
    """Solve one group of planned units (module-level, hence picklable).

    The units share workflow content, platform, linearization and backend
    (see :func:`plan_unit`), so every unit prices its sets on one
    :class:`~repro.core.sweep.SweepState`, built for the first unit.
    """
    first = plans[0].unit
    workflow, _ = _memoized_instance(first.scenario)
    platform = first.scenario.platform
    linearization, _ = parse_heuristic_name(first.heuristic)
    order = linearize(
        workflow,
        linearization,
        rng=heuristic_rng(first.scenario.seed, first.heuristic),
    )
    sweep = SweepState(workflow, order, platform, backend=first.backend)
    outcomes: list[dict[str, Any]] = []
    schedules: list[dict[str, list[int]]] = []
    seconds: list[float] = []
    for plan in plans:
        unit = plan.unit
        start = time.perf_counter()
        result = solve_heuristic(
            workflow,
            platform,
            unit.heuristic,
            rng=heuristic_rng(unit.scenario.seed, unit.heuristic),
            counts=plan.counts,
            sweep=sweep,
        )
        seconds.append(time.perf_counter() - start)
        # The wall-clock time stays out of the outcome: it describes the
        # machine that computed the unit, so a cache hit reports 0.0 rather
        # than presenting someone else's timing as its own.
        outcomes.append(
            {
                "actual_n_tasks": workflow.n_tasks,
                "n_checkpointed": result.checkpoint_count,
                "expected_makespan": result.expected_makespan,
                "failure_free_work": result.evaluation.failure_free_work,
                "overhead_ratio": result.overhead_ratio,
            }
        )
        schedules.append(
            {
                "order": list(result.schedule.order),
                "checkpointed": sorted(result.schedule.checkpointed),
            }
        )
    return SolvedGroup(
        outcomes=outcomes,
        schedules=schedules,
        seconds=seconds,
        evaluations=sweep.stats.evaluations,
    )


def _solve_campaign_group(
    plans: Sequence[PlannedUnit],
) -> list[tuple[dict[str, Any], float]]:
    """Worker entry point of a campaign group: ``(outcome, seconds)`` per unit.

    A campaign keeps no schedules, so they do not travel back from workers.
    """
    solved = solve_group(plans)
    return list(zip(solved.outcomes, solved.seconds))


def _plan_mc_unit(unit: MonteCarloUnit) -> PlannedUnit:
    """Plan a Monte-Carlo unit as a group of its own.

    Keyed backend-agnostic like :func:`plan_unit` — here that is exact
    rather than within floating-point noise: the two Monte-Carlo engines
    produce bit-for-bit identical samples.
    """
    workflow, fingerprint = _memoized_instance(unit.scenario, digest=True)
    _, strategy = parse_heuristic_name(unit.heuristic)
    search_mode, max_candidates, counts = _search_plan(unit, strategy, workflow.n_tasks)
    key = robustness_unit_key(
        workflow_digest=fingerprint,
        platform=unit.scenario.platform,
        heuristic=unit.heuristic,
        search_mode=search_mode,
        max_candidates=max_candidates,
        seed=unit.scenario.seed,
        failure_spec=unit.resolved_failure_spec(),
        n_runs=unit.n_runs,
        mc_seed=unit.mc_seed,
        checkpoint_overlap=unit.checkpoint_overlap,
    )
    return PlannedUnit(unit=unit, key=key, counts=counts, group=(key,))


def _solve_mc_group(plans: Sequence[PlannedUnit]) -> list[tuple[dict[str, Any], float]]:
    """Worker entry point of a Monte-Carlo group: ``(outcome, 0.0)`` per unit."""
    return [(_solve_mc_unit(plan), 0.0) for plan in plans]


def _solve_mc_unit(plan: PlannedUnit) -> dict[str, Any]:
    """Solve + simulate one Monte-Carlo unit.

    Returns the unit's *outcome* — a plain JSON-able dict, which is also
    exactly what the cache stores.  Identity fields (family, law label, ...)
    are re-stamped by the caller from the requesting unit.
    """
    import numpy as np

    from ..simulation import run_monte_carlo
    from ..simulation.failures import failure_model_from_spec

    unit = plan.unit
    workflow, _ = _memoized_instance(unit.scenario)
    platform = unit.scenario.platform
    result = solve_heuristic(
        workflow,
        platform,
        unit.heuristic,
        rng=heuristic_rng(unit.scenario.seed, unit.heuristic),
        counts=plan.counts,
        backend=unit.backend,
    )
    schedule = result.schedule
    spec = unit.resolved_failure_spec()
    model = failure_model_from_spec(spec)
    # Every unit gets its own reproducible entropy: the same unit yields the
    # same replica streams in the parent, in any worker, and in any session.
    entropy = stable_seed_words(
        "mc-unit",
        unit.mc_seed,
        unit.scenario.family,
        unit.scenario.n_tasks,
        unit.scenario.seed,
        unit.heuristic,
        spec,
    )
    summary = run_monte_carlo(
        schedule,
        platform,
        n_runs=unit.n_runs,
        rng=np.random.default_rng(np.random.SeedSequence(entropy)),
        failure_model=model,
        checkpoint_overlap=unit.checkpoint_overlap,
        backend=unit.backend,
    )
    return {
        "actual_n_tasks": workflow.n_tasks,
        "n_checkpointed": schedule.n_checkpointed,
        "expected_makespan": result.expected_makespan,
        "failure_free_work": result.evaluation.failure_free_work,
        "mc_mean": summary.mean_makespan,
        "mc_std": summary.std_makespan,
        "mc_min": summary.min_makespan,
        "mc_max": summary.max_makespan,
        "mean_failures": summary.mean_failures,
        "n_runs": summary.n_runs,
    }


def _row_from_outcome(unit: WorkUnit, outcome: dict[str, Any], seconds: float) -> ResultRow:
    scenario = unit.scenario
    linearization, strategy = parse_heuristic_name(unit.heuristic)
    return ResultRow(
        label=scenario.label,
        family=scenario.family,
        n_tasks=scenario.n_tasks,
        actual_n_tasks=int(outcome["actual_n_tasks"]),
        failure_rate=scenario.failure_rate,
        checkpoint_mode=scenario.checkpoint_mode,
        checkpoint_parameter=scenario.checkpoint_parameter,
        heuristic=unit.heuristic,
        linearization=linearization,
        checkpoint_strategy=strategy,
        n_checkpointed=int(outcome["n_checkpointed"]),
        expected_makespan=float(outcome["expected_makespan"]),
        failure_free_work=float(outcome["failure_free_work"]),
        overhead_ratio=float(outcome["overhead_ratio"]),
        solve_seconds=seconds,
        seed=scenario.seed,
        downtime=scenario.downtime,
        processors=scenario.processors,
    )


def expand_work_units(
    scenarios: Iterable[Scenario],
    *,
    seeds: Sequence[int] | None = None,
    search_mode: str = "exhaustive",
    max_candidates: int = 30,
    backend: str | None = None,
) -> list[WorkUnit]:
    """Expand scenarios into the (scenario × seed × heuristic) unit list.

    ``seeds=None`` keeps each scenario's own seed (grid semantics); an
    explicit sequence repeats every scenario once per seed (campaign
    semantics).  The expansion order is the deterministic iteration order
    used by the serial reference path.
    """
    # Validate the backend name here, so that a typo fails before any
    # cache lookup and does not vary with cache warmth.  The resolved value
    # is discarded — "auto" stays "auto" so each worker process (a fabric
    # worker may run on another host) resolves it against its own
    # toolchain.
    BACKEND_REGISTRY.resolve(backend)
    units: list[WorkUnit] = []
    for scenario in scenarios:
        instances = (
            [scenario]
            if seeds is None
            else [scenario.with_updates(seed=int(seed)) for seed in seeds]
        )
        for instance in instances:
            for heuristic in instance.heuristics:
                units.append(
                    WorkUnit(
                        scenario=instance,
                        heuristic=heuristic,
                        search_mode=search_mode,
                        max_candidates=max_candidates,
                        backend=backend,
                    )
                )
    return units


class CampaignRunner:
    """Execute campaign work units with caching and optional parallelism.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` runs serially in-process (the reference
        path), ``None``/``0`` uses every CPU.
    cache:
        Optional :class:`ResultCache`; hits skip the evaluator entirely.
    search_mode, max_candidates:
        Checkpoint-count search configuration forwarded to every unit.
    backend:
        Evaluation backend forwarded to every unit (``"auto"`` default).
        It never enters cache or journal keys, yet backends agree only
        within 1e-9, not bit for bit: a cache warmed on one backend serves
        its values to a run on another.
    progress:
        ``None`` (silent), ``True`` (console reporter) or any object with
        ``start/update/finish``.
    journal:
        Optional :class:`~repro.runtime.journal.CampaignJournal` (or a path
        to one).  Completed unit outcomes are appended durably as they land
        and consulted *before* the cache on the next run, so an interrupted
        campaign resumes without recomputing — even with no cache at all.
    max_retries, retry_backoff, unit_timeout:
        Worker-supervision knobs forwarded to
        :func:`~repro.runtime.parallel.parallel_map`: pool-level retries per
        chunk, the exponential-backoff base between pool resets, and the
        optional wall-clock budget per parallel item — per group of units
        that share a sweep, not per unit.
    quarantine:
        When true, a group that keeps killing its worker (or times out, or
        raises) is quarantined instead of aborting the run: the remaining
        groups complete, one failure per unit of the group (and per later
        unit with the same key) lands in :attr:`failures` (one per key in
        the journal), and those rows are simply absent from the output.
        Off by default — callers that ``zip`` rows back onto their unit
        list need the one-row-per-unit invariant.

    The worker pool is created lazily on the first parallel batch and reused
    for the runner's lifetime, so a driver that issues several sweeps pays
    worker start-up once.  Call :meth:`close` (or use the runner as a
    context manager) to release the pool.
    """

    def __init__(
        self,
        *,
        jobs: int | None = 1,
        cache: ResultCache | None = None,
        search_mode: str = "exhaustive",
        max_candidates: int = 30,
        progress: Any = None,
        backend: str | None = None,
        journal: CampaignJournal | str | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        unit_timeout: float | None = None,
        quarantine: bool = False,
    ) -> None:
        # Resolve (and thereby validate) the worker count and backend name
        # eagerly so that a bad --jobs / --backend value fails identically
        # on warm and cold caches.
        self.jobs = resolve_jobs(jobs)
        BACKEND_REGISTRY.resolve(backend)
        self.cache = cache
        self.search_mode = search_mode
        self.max_candidates = max_candidates
        self.backend = backend
        self.progress = coerce_progress(progress)
        self._owns_journal = journal is not None and not isinstance(
            journal, CampaignJournal
        )
        self.journal = CampaignJournal(journal) if self._owns_journal else journal
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.unit_timeout = unit_timeout if unit_timeout is None else float(unit_timeout)
        self.quarantine = bool(quarantine)
        #: Quarantined units, accumulated across this runner's sweeps.
        self.failures: list[UnitFailure] = []
        self._pool: Any = None

    def close(self) -> None:
        """Shut down the worker pool (and a journal this runner opened)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._owns_journal and self.journal is not None:
            self.journal.close()

    def _reset_pool(self) -> None:
        if self._pool is not None:
            dispose_executor(self._pool)
            self._pool = None

    def _executor_factory(self, reset: bool) -> Any:
        """Pool accessor handed to :func:`parallel_map` for supervision."""
        if reset:
            self._reset_pool()
        return self._executor()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _executor(self) -> Any:
        if self.jobs <= 1:
            return None
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_rows(
        self, scenarios: Iterable[Scenario], *, seeds: Sequence[int] | None = None
    ) -> list[ResultRow]:
        """Run every unit of the scenarios; rows come back in unit order."""
        units = expand_work_units(
            scenarios,
            seeds=seeds,
            search_mode=self.search_mode,
            max_candidates=self.max_candidates,
            backend=self.backend,
        )
        return self.run_units(units)

    def run_units(self, units: Sequence[WorkUnit]) -> list[ResultRow]:
        """Resolve units from the journal and cache, solve the misses, keep the order."""
        return self._run_cached(
            units,
            plan_fn=plan_unit,
            solve_fn=_solve_campaign_group,
            decode_fn=_row_from_outcome,
        )

    def run_mc_units(self, units: Sequence[MonteCarloUnit]) -> list[dict[str, Any]]:
        """Run Monte-Carlo units (cache-aware); outcome dicts in unit order.

        Each outcome carries the analytical expectation of the solved
        schedule next to the Monte-Carlo summary statistics, which is what
        the robustness campaign consumes.  Cache hits skip both the solver
        and the simulation.
        """
        return self._run_cached(
            units,
            plan_fn=_plan_mc_unit,
            solve_fn=_solve_mc_group,
            decode_fn=lambda unit, outcome, seconds: dict(outcome),
        )

    def _run_cached(
        self,
        units: Sequence[Any],
        *,
        plan_fn: Callable[[Any], PlannedUnit],
        solve_fn: Callable[[Sequence[PlannedUnit]], list[tuple[dict[str, Any], float]]],
        decode_fn: Callable[[Any, dict[str, Any], float], Any],
    ) -> list[Any]:
        """Shared journal/cache-then-fan-out loop of every unit type.

        ``plan_fn`` plans a unit (its key and group), ``solve_fn`` computes
        one group of planned units (module-level, picklable) and returns an
        ``(outcome, seconds)`` pair per unit, and ``decode_fn(unit, outcome,
        seconds)`` builds a result (``seconds`` is 0.0 for a journal or cache
        hit).  Results come back in unit order; every fresh outcome is
        persisted the moment the parent receives it — journal first
        (durable), cache second — so an interrupted or partially failed
        sweep keeps everything it already paid for.  The journal is
        consulted *before* the cache: it is the authoritative record of this
        campaign, valid even when no cache is configured.

        A unit whose key already appeared earlier in ``units`` is a
        *repeat*: it is not looked up, solved, journaled or cached again,
        but takes its first occurrence's outcome with ``seconds`` 0.0, as
        a hit does, and is dropped with it when that unit's group is
        quarantined.

        The groups of the misses, ordered by their first unit, are the items
        of :func:`parallel_map`, so supervision counts groups and quarantine
        drops a whole group (one :class:`UnitFailure` per unit, repeats
        included, and one journal failure record per key); the results of a
        group are persisted, reported and passed to the ``campaign_unit``
        fault point unit by unit, in unit order.
        """
        rows: list[Any] = [None] * len(units)
        groups: dict[Hashable, list[int]] = {}
        first: dict[str, int] = {}
        repeats: dict[int, list[int]] = {}
        dropped: set[int] = set()

        self.progress.start(len(units))
        try:
            plans = [plan_fn(unit) for unit in units]
            done = 0

            def settle(index: int, outcome: dict[str, Any], seconds: float) -> None:
                """The rows of a unit and of its repeats, from one outcome."""
                nonlocal done
                later = repeats.get(index, [])
                rows[index] = decode_fn(units[index], outcome, seconds)
                for repeat in later:
                    rows[repeat] = decode_fn(units[repeat], outcome, 0.0)
                done += 1 + len(later)

            for index, plan in enumerate(plans):
                source = first.setdefault(plan.key, index)
                if source != index:
                    repeats.setdefault(source, []).append(index)
            for index in first.values():
                plan = plans[index]
                outcome = self.journal.get(plan.key) if self.journal is not None else None
                from_journal = outcome is not None
                if outcome is None and self.cache is not None:
                    outcome = self.cache.get(plan.key)
                if outcome is None:
                    groups.setdefault(plan.group, []).append(index)
                    continue
                settle(index, outcome, 0.0)
                if self.journal is not None and not from_journal:
                    # A cache hit still belongs in this campaign's durable
                    # record: resume must not depend on the cache file's
                    # continued existence.
                    self.journal.record(plan.key, outcome)
                if self.cache is not None and from_journal:
                    # And a journal replay warms the cache, so later
                    # campaigns benefit from the resumed work too.
                    self.cache.put(plan.key, outcome)
                fault_point("campaign_unit", default="exit=137", unit=index)
            self.progress.update(done, self._progress_info())

            members = list(groups.values())

            def on_result(position: int, solved: list[tuple[dict[str, Any], float]]) -> None:
                for index, (outcome, seconds) in zip(members[position], solved):
                    settle(index, outcome, seconds)
                    if self.journal is not None:
                        self.journal.record(plans[index].key, outcome)
                    if self.cache is not None:
                        self.cache.put(plans[index].key, outcome)
                    self.progress.update(done, self._progress_info())
                    # The deterministic kill switch of the CI kill-resume
                    # gate: by default this exits hard (SIGKILL-alike),
                    # *after* the journal write — exactly the crash the
                    # journal exists to survive.
                    fault_point("campaign_unit", default="exit=137", unit=index)

            def on_failure(failure: WorkerFailure) -> None:
                nonlocal done
                for index in members[failure.unit_index]:
                    for lost in (index, *repeats.get(index, ())):
                        dropped.add(lost)
                        self.failures.append(UnitFailure(unit=units[lost], failure=failure))
                        done += 1
                    if self.journal is not None:
                        self.journal.record_failure(
                            plans[index].key,
                            {
                                "kind": failure.kind,
                                "attempts": failure.attempts,
                                "cause_type": failure.cause_type,
                                "cause_message": failure.cause_message,
                            },
                        )
                self.progress.update(done, self._progress_info())

            if members:
                try:
                    parallel_map(
                        solve_fn,
                        [tuple(plans[index] for index in group) for group in members],
                        jobs=self.jobs,
                        on_result=on_result,
                        on_failure=on_failure,
                        quarantine=self.quarantine,
                        max_retries=self.max_retries,
                        retry_backoff=self.retry_backoff,
                        unit_timeout=self.unit_timeout,
                        executor_factory=(
                            self._executor_factory if self.jobs > 1 else None
                        ),
                    )
                except BaseException:
                    # A worker crash (e.g. BrokenProcessPool) can leave the
                    # pool unusable; drop it so the next batch on this
                    # runner starts fresh instead of failing forever.
                    self._reset_pool()
                    raise
        finally:
            # Always terminate the progress line, so an error message that
            # follows starts on a clean line.
            self.progress.finish()
        assert all(rows[i] is not None for i in range(len(units)) if i not in dropped)
        if dropped:
            return [rows[i] for i in range(len(units)) if i not in dropped]
        return rows

    def _progress_info(self) -> str:
        if self.cache is None:
            return ""
        stats = self.cache.stats
        return f"cache {stats.hits} hits / {stats.misses} misses"


def evaluate_schedule_cached(
    schedule: Schedule,
    platform: Platform,
    cache: ResultCache,
    *,
    backend: str | None = None,
) -> MakespanEvaluation:
    """Content-addressed wrapper around the Theorem-3 evaluator.

    Useful when pricing the same schedule on many platforms (or repeatedly
    inside a refinement loop) with persistence across runs.  The full
    per-position expectation vector is cached, so reconstruction is exact.
    (Only the plain evaluation is supported; the event-probability table of
    ``keep_probabilities`` is quadratic and deliberately not cached.)

    ``backend`` only selects how a miss is computed — the key is
    backend-agnostic, so entries warmed by one backend serve the other.
    """
    key = evaluation_key(schedule, platform, kind="expected-makespan")
    payload = cache.get(key)
    if payload is not None:
        return MakespanEvaluation(
            expected_makespan=float(payload["expected_makespan"]),
            expected_task_times=tuple(payload["expected_task_times"]),
            failure_free_makespan=float(payload["failure_free_makespan"]),
            failure_free_work=float(payload["failure_free_work"]),
        )
    evaluation = evaluate_schedule(schedule, platform, backend=backend)
    cache.put(
        key,
        {
            "expected_makespan": evaluation.expected_makespan,
            "expected_task_times": list(evaluation.expected_task_times),
            "failure_free_makespan": evaluation.failure_free_makespan,
            "failure_free_work": evaluation.failure_free_work,
        },
    )
    return evaluation


def run_monte_carlo_cached(
    schedule: Schedule,
    platform: Platform,
    cache: ResultCache,
    *,
    n_runs: int = 1000,
    seed: int = 0,
    failure_spec: dict[str, Any] | None = None,
    checkpoint_overlap: float = 0.0,
    backend: str | None = None,
) -> "MonteCarloSummary":
    """Content-addressed wrapper around :func:`repro.simulation.run_monte_carlo`.

    The key embeds the failure-law spec, replica count, seed and
    replica-stream scheme (:data:`repro.runtime.keys.MC_RNG_SCHEME`); the
    individual samples are not cached, only the summary statistics.
    ``backend`` selects how a miss is computed — the engines are bit-for-bit
    identical, so the key is backend-agnostic.
    """
    import numpy as np

    from ..simulation import MonteCarloSummary, run_monte_carlo
    from ..simulation.failures import failure_model_for, failure_model_from_spec

    if failure_spec is not None:
        spec = dict(failure_spec)
        model = failure_model_from_spec(spec)
    else:
        model = failure_model_for(platform)
        spec = model.spec()
    key = monte_carlo_key(
        schedule,
        platform,
        failure_spec=spec,
        n_runs=n_runs,
        seed=seed,
        checkpoint_overlap=checkpoint_overlap,
    )
    payload = cache.get(key)
    if payload is not None:
        return MonteCarloSummary(
            n_runs=int(payload["n_runs"]),
            mean_makespan=float(payload["mean_makespan"]),
            std_makespan=float(payload["std_makespan"]),
            min_makespan=float(payload["min_makespan"]),
            max_makespan=float(payload["max_makespan"]),
            mean_failures=float(payload["mean_failures"]),
        )
    summary = run_monte_carlo(
        schedule,
        platform,
        n_runs=n_runs,
        rng=np.random.default_rng(np.random.SeedSequence(stable_seed_words("mc-cached", seed))),
        failure_model=model,
        checkpoint_overlap=checkpoint_overlap,
        backend=backend,
    )
    cache.put(
        key,
        {
            "n_runs": summary.n_runs,
            "mean_makespan": summary.mean_makespan,
            "std_makespan": summary.std_makespan,
            "min_makespan": summary.min_makespan,
            "max_makespan": summary.max_makespan,
            "mean_failures": summary.mean_failures,
        },
    )
    return summary
