"""The service's bridge into the campaign runtime.

:class:`ServicePlanner` turns batches of validated solve requests into
response payloads by the cheapest available route, in order:

1. **cache** — the shared :class:`~repro.runtime.cache.ResultCache`, through
   the unchanged content-addressed keys of :mod:`repro.runtime.keys` (a
   cache warmed by ``repro campaign`` serves the daemon and vice versa);
2. **single-flight** — identical requests already being computed (by this
   batch or a concurrent one) are joined instead of recomputed;
3. **shared sweeps** — the remaining misses are planned and solved by the
   campaign runner's own core, :func:`~repro.runtime.runner.plan_unit` and
   :func:`~repro.runtime.runner.solve_group`: requests of one instance and
   linearization share one sweep pass, exactly as the units of a campaign
   do.

A daemon response is therefore bit-for-bit the direct
:func:`~repro.heuristics.registry.solve_heuristic` result, and its cache
entry is the one a campaign writes for the same unit.

Everything here is synchronous and thread-safe; the asyncio side lives in
:mod:`repro.service.batcher`.  With ``jobs > 1`` the planner fans groups out
over a process pool (one group per worker task), mirroring the campaign
runner's worker model.  The ``service_group`` fault point lives here, in
:func:`_solve_service_group`, so campaigns never fire it.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Sequence

from ..analysis import analyse_schedule, checkpoint_utilities
from ..core.evaluator import evaluate_schedule
from ..runtime.cache import LRUCache, ResultCache
from ..runtime.faults import fault_point
from ..runtime.parallel import dispose_executor, resolve_jobs
from ..runtime.runner import PlannedUnit, SolvedGroup, WorkUnit, plan_unit, solve_group
from .metrics import MetricsRegistry
from .schema import ScheduleRequest, ServiceError, SolveRequest

__all__ = ["ServicePlanner"]


def _solve_service_group(
    plans: Sequence[PlannedUnit], attempt: int = 1
) -> SolvedGroup:
    """Solve one group for the service (module-level, hence picklable).

    ``attempt`` exists so fault specs can target only the first try of a
    group (``service_group:attempt=1``) and let the retry succeed.
    """
    fault_point("service_group", default="raise=RuntimeError", attempt=attempt)
    return solve_group(plans)


class ServicePlanner:
    """Cache-aware, deduplicating, batch-coalescing solve executor.

    Parameters
    ----------
    cache:
        Optional shared :class:`~repro.runtime.cache.ResultCache` (its
        thread-safe since this PR); ``None`` still coalesces in-flight and
        in-batch duplicates, it just cannot answer repeats across batches.
    registry:
        Optional :class:`~repro.service.metrics.MetricsRegistry` built by
        :func:`~repro.service.metrics.build_service_registry`; ``None``
        skips instrumentation (library / test use).
    jobs:
        Worker processes for computing groups (``1`` = in-thread, the
        reference path).
    group_retries:
        How many times a group is re-submitted after the worker pool
        breaks underneath it (crashed / OOM-killed worker).  Each break
        disposes and recreates the pool; once the budget is exhausted the
        affected requests fail with a retryable 503 (``pool-crashed``)
        while every other group's results are delivered normally.
    schedule_memory:
        Bound of the in-memory schedule LRU.  Outcomes persist to the disk
        cache, but schedules (order + checkpoint set) are only kept here:
        ``include_schedule`` requests that miss this layer recompute.
    """

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        registry: MetricsRegistry | None = None,
        jobs: int | None = 1,
        group_retries: int = 1,
        schedule_memory: int = 512,
    ) -> None:
        self.cache = cache
        self.registry = registry
        self.jobs = resolve_jobs(jobs)
        self.group_retries = max(0, int(group_retries))
        self._schedules = LRUCache(maxsize=schedule_memory)
        self._inflight: dict[str, Future] = {}
        self._inflight_lock = threading.Lock()
        self._pool: Any = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Metrics plumbing
    # ------------------------------------------------------------------
    def _inc(self, name: str, amount: float = 1.0) -> None:
        if self.registry is not None:
            self.registry.get(name).inc(amount)

    def cache_hit_rate(self) -> float:
        """Lifetime hit rate of the shared cache (0.0 without a cache)."""
        if self.cache is None:
            return 0.0
        stats = self.cache.stats
        total = stats.hits + stats.misses
        return stats.hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Solve path
    # ------------------------------------------------------------------
    def solve_batch(self, requests: Sequence[SolveRequest]) -> list[Any]:
        """Solve one batch; returns one payload (or exception) per request.

        Runs on a worker thread.  Never raises for a single bad unit — the
        per-request entry is the exception instead, so co-batched requests
        are isolated from each other's failures.
        """
        self._inc("repro_solve_requests_total", len(requests))
        self._inc("repro_solve_batches_total")
        results: list[Any] = [None] * len(requests)
        planned: list[PlannedUnit | None] = [None] * len(requests)
        pending: list[int] = []

        for index, request in enumerate(requests):
            try:
                plan = plan_unit(
                    WorkUnit(
                        scenario=request.scenario,
                        heuristic=request.heuristic,
                        search_mode=request.search_mode,
                        max_candidates=request.max_candidates,
                        backend=request.backend,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - reported per request
                self._inc("repro_solve_errors_total")
                results[index] = exc
                continue
            planned[index] = plan
            served = self._from_cache(request, plan.key)
            if served is not None:
                self._inc("repro_solve_cache_hits_total")
                results[index] = served
            else:
                pending.append(index)

        # Single-flight: the first pending occurrence of a key (across this
        # batch and any concurrently running batch) owns the computation;
        # the rest join its future.
        owned: list[int] = []
        joined: list[tuple[int, Future]] = []
        with self._inflight_lock:
            for index in pending:
                key = planned[index].key
                future = self._inflight.get(key)
                if future is None:
                    self._inflight[key] = Future()
                    owned.append(index)
                else:
                    joined.append((index, future))
        if joined:
            self._inc("repro_solve_coalesced_total", len(joined))

        groups: dict[Any, list[int]] = {}
        for index in owned:
            groups.setdefault(planned[index].group, []).append(index)
        try:
            self._compute_groups(groups, requests, planned, results)
        finally:
            # Any owned key whose future was not resolved (a bug or an
            # interpreter-level error) must not wedge future requests.
            with self._inflight_lock:
                for index in owned:
                    future = self._inflight.pop(planned[index].key, None)
                    if future is not None and not future.done():
                        future.set_exception(
                            ServiceError(
                                "solve computation was abandoned",
                                status=500,
                                code="internal",
                            )
                        )

        for index, future in joined:
            try:
                outcome, schedule = future.result()
            except Exception as exc:  # noqa: BLE001 - reported per request
                results[index] = exc
                continue
            results[index] = self._response(
                requests[index], planned[index].key, outcome, schedule, source="coalesced"
            )
        return results

    def _from_cache(self, request: SolveRequest, key: str) -> dict[str, Any] | None:
        if self.cache is None:
            return None
        outcome = self.cache.get(key)
        if outcome is None:
            return None
        schedule = self._schedules.get(key)
        if request.include_schedule and schedule is None:
            # The disk layer only persists outcomes; honouring the schedule
            # request needs a recomputation (which reproduces the cached
            # outcome bit-for-bit).
            return None
        return self._response(request, key, outcome, schedule, source="cache")

    def _compute_groups(
        self,
        groups: dict[Any, list[int]],
        requests: Sequence[SolveRequest],
        planned: Sequence[PlannedUnit | None],
        results: list[Any],
    ) -> None:
        if not groups:
            return
        items = [
            (indices, tuple(planned[i] for i in indices))
            for indices in groups.values()
        ]
        computed: dict[int, Any] = {}
        remaining = list(range(len(items)))
        attempt = 1
        while remaining:
            # Re-acquire each round: a broken pool is disposed below, so the
            # retry round gets a freshly forked set of workers.
            executor = self._executor() if len(items) > 1 else None
            broken: list[int] = []
            crash: BaseException | None = None
            if executor is None:
                for item_index in remaining:
                    try:
                        computed[item_index] = _solve_service_group(
                            items[item_index][1], attempt
                        )
                    except BrokenProcessPool as exc:
                        broken.append(item_index)
                        crash = exc
                    except Exception as exc:  # noqa: BLE001 - reported per unit
                        computed[item_index] = exc
            else:
                futures = {
                    item_index: executor.submit(
                        _solve_service_group, items[item_index][1], attempt
                    )
                    for item_index in remaining
                }
                for item_index, future in futures.items():
                    try:
                        computed[item_index] = future.result()
                    except BrokenProcessPool as exc:
                        broken.append(item_index)
                        crash = exc
                    except Exception as exc:  # noqa: BLE001 - reported per unit
                        computed[item_index] = exc
            if not broken:
                break
            self._inc("repro_pool_crashes_total")
            self._heal_pool()
            if attempt > self.group_retries:
                error = ServiceError(
                    "solve worker pool crashed; retry shortly",
                    status=503,
                    code="pool-crashed",
                )
                error.__cause__ = crash
                for item_index in broken:
                    computed[item_index] = error
                break
            self._inc("repro_solve_retries_total", len(broken))
            remaining = broken
            attempt += 1
        for item_index, (indices, plans) in enumerate(items):
            solved = computed[item_index]
            if isinstance(solved, Exception):
                self._inc("repro_solve_errors_total", len(indices))
                for index, plan in zip(indices, plans):
                    results[index] = solved
                    self._resolve_inflight(plan.key, error=solved)
                continue
            # A computed group made one sweep pass.
            self._inc("repro_solve_sweep_passes_total")
            self._inc("repro_solve_evaluations_total", solved.evaluations)
            self._inc("repro_solve_computed_total", len(indices))
            for index, plan, outcome, schedule in zip(
                indices, plans, solved.outcomes, solved.schedules
            ):
                if self.cache is not None:
                    self.cache.put(plan.key, outcome)
                self._schedules.put(plan.key, schedule)
                self._resolve_inflight(plan.key, value=(outcome, schedule))
                results[index] = self._response(
                    requests[index], plan.key, outcome, schedule, source="computed"
                )

    def _resolve_inflight(
        self, key: str, *, value: Any = None, error: Exception | None = None
    ) -> None:
        with self._inflight_lock:
            future = self._inflight.pop(key, None)
        if future is None or future.done():
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(value)

    def _response(
        self,
        request: SolveRequest,
        key: str,
        outcome: dict[str, Any],
        schedule: dict[str, Any] | None,
        *,
        source: str,
    ) -> dict[str, Any]:
        scenario = request.scenario
        payload: dict[str, Any] = {
            "heuristic": request.heuristic,
            "family": scenario.family,
            "n_tasks": scenario.n_tasks,
            "actual_n_tasks": int(outcome["actual_n_tasks"]),
            "seed": scenario.seed,
            "failure_rate": scenario.failure_rate,
            "downtime": scenario.downtime,
            "processors": scenario.processors,
            "search_mode": request.search_mode,
            "max_candidates": request.max_candidates,
            "expected_makespan": float(outcome["expected_makespan"]),
            "failure_free_work": float(outcome["failure_free_work"]),
            "overhead_ratio": float(outcome["overhead_ratio"]),
            "n_checkpointed": int(outcome["n_checkpointed"]),
            "cache": source,
            "cache_key": key,
        }
        if request.include_schedule and schedule is not None:
            payload["schedule"] = {
                "order": list(schedule["order"]),
                "checkpointed": list(schedule["checkpointed"]),
            }
        return payload

    # ------------------------------------------------------------------
    # Evaluate / analyse paths (no batching; direct library calls)
    # ------------------------------------------------------------------
    def evaluate(self, request: ScheduleRequest) -> dict[str, Any]:
        """Price a schedule; the JSON mirror of ``repro evaluate``."""
        if self.cache is not None:
            from ..runtime.runner import evaluate_schedule_cached

            evaluation = evaluate_schedule_cached(
                request.schedule, request.platform, self.cache, backend=request.backend
            )
        else:
            evaluation = evaluate_schedule(
                request.schedule, request.platform, backend=request.backend
            )
        return {
            "expected_makespan": evaluation.expected_makespan,
            "failure_free_makespan": evaluation.failure_free_makespan,
            "failure_free_work": evaluation.failure_free_work,
            "overhead_ratio": evaluation.overhead_ratio,
            "n_checkpointed": request.schedule.n_checkpointed,
        }

    def analyse(self, request: ScheduleRequest) -> dict[str, Any]:
        """Expected-time breakdown; the JSON mirror of ``repro analyse``."""
        breakdown = analyse_schedule(
            request.schedule, request.platform, backend=request.backend
        )
        workflow = request.schedule.workflow
        payload: dict[str, Any] = {
            "expected_makespan": breakdown.expected_makespan,
            "useful_work": breakdown.useful_work,
            "checkpoint_time": breakdown.checkpoint_time,
            "expected_waste": breakdown.expected_waste,
            "waste_fraction": breakdown.waste_fraction,
            "worst_tasks": [
                {
                    "task_index": entry.task_index,
                    "name": workflow.task(entry.task_index).name,
                    "position": entry.position,
                    "expected_time": entry.expected_time,
                    "expected_overhead": entry.expected_overhead,
                    "overhead_ratio": entry.overhead_ratio,
                }
                for entry in breakdown.worst_tasks(request.top)
            ],
        }
        if request.utilities:
            payload["utilities"] = [
                {"task_index": utility.task_index, "utility": utility.utility}
                for utility in sorted(
                    checkpoint_utilities(
                        request.schedule, request.platform, backend=request.backend
                    ),
                    key=lambda u: -u.utility,
                )
            ]
        return payload

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _executor(self):
        if self.jobs <= 1:
            return None
        with self._pool_lock:
            if self._pool is None:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            return self._pool

    def _heal_pool(self) -> None:
        """Dispose a (possibly broken) pool so the next round forks anew.

        ``dispose_executor`` also terminates worker processes outright —
        ``shutdown`` alone would hang on a wedged worker.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            dispose_executor(pool)

    def close(self) -> None:
        """Shut down the worker pool (if one was started)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
