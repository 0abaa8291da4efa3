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
:mod:`repro.service.batcher`.  The groups of a batch are the items of one
:func:`~repro.runtime.parallel.parallel_map` call on the planner's
:class:`~repro.runtime.parallel.WorkerPool`, which every batch thread
shares: with ``jobs > 1`` a group that crashes its worker is retried,
bisected and quarantined exactly as a campaign group is, and only the
requests of a quarantined group fail.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Sequence

from ..analysis import analyse_schedule, checkpoint_utilities
from ..core.evaluator import evaluate_schedule
from ..runtime.cache import LRUCache, ResultCache
from ..runtime.parallel import WorkerFailure, WorkerPool, parallel_map
from ..runtime.runner import PlannedUnit, SolvedGroup, WorkUnit, plan_unit, solve_group
from ..obs import MetricsRegistry
from .schema import ScheduleRequest, ServiceError, SolveRequest

__all__ = ["ServicePlanner"]


class ServicePlanner:
    """Cache-aware, deduplicating, batch-coalescing solve executor.

    Parameters
    ----------
    cache:
        Optional shared :class:`~repro.runtime.cache.ResultCache` (it is
        thread-safe); ``None`` still coalesces in-flight and
        in-batch duplicates, it just cannot answer repeats across batches.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry` built by
        :func:`~repro.service.metrics.build_service_registry`; ``None``
        skips instrumentation (library / test use).
    jobs:
        Worker processes for computing groups (``1`` = in-thread, the
        reference path; a batch of one group also runs in-thread).  A group
        whose worker keeps dying (crashed / OOM-killed) is quarantined
        after :func:`~repro.runtime.parallel.parallel_map`'s retries: its
        requests fail with a retryable 503 (``pool-crashed``) while every
        other group's results are delivered normally.
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
        schedule_memory: int = 512,
    ) -> None:
        self.cache = cache
        self.registry = registry
        self._schedules = LRUCache(maxsize=schedule_memory)
        self._inflight: dict[str, Future] = {}
        self._inflight_lock = threading.Lock()
        self._pool = WorkerPool(jobs)
        if registry is not None:
            registry.get("repro_pool_crashes_total").set_callback(
                lambda: float(self._pool.resets)
            )
            registry.get("repro_solve_retries_total").set_callback(
                lambda: float(self._pool.resent)
            )

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
        members = list(groups.values())

        def on_result(position: int, solved: SolvedGroup) -> None:
            indices = members[position]
            # A computed group made one sweep pass.
            self._inc("repro_solve_sweep_passes_total")
            self._inc("repro_solve_evaluations_total", solved.evaluations)
            self._inc("repro_solve_computed_total", len(indices))
            for index, outcome, schedule in zip(
                indices, solved.outcomes, solved.schedules
            ):
                key = planned[index].key
                if self.cache is not None:
                    self.cache.put(key, outcome)
                self._schedules.put(key, schedule)
                self._resolve_inflight(key, value=(outcome, schedule))
                results[index] = self._response(
                    requests[index], key, outcome, schedule, source="computed"
                )

        def on_failure(failure: WorkerFailure) -> None:
            indices = members[failure.unit_index]
            error: Exception
            if failure.kind == "error":
                # The group's own exception (a worker's, when it pickled).
                cause = failure.__cause__
                error = cause if isinstance(cause, Exception) else failure
            else:
                error = ServiceError(
                    "solve worker pool crashed; retry shortly",
                    status=503,
                    code="pool-crashed",
                )
                error.__cause__ = failure
            self._inc("repro_solve_errors_total", len(indices))
            for index in indices:
                results[index] = error
                self._resolve_inflight(planned[index].key, error=error)

        parallel_map(
            solve_group,
            [tuple(planned[index] for index in indices) for indices in members],
            pool=self._pool,
            on_result=on_result,
            on_failure=on_failure,
            quarantine=True,
            retry_backoff=0.0,
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

    def close(self) -> None:
        """Shut down the worker pool (if one was started)."""
        self._pool.close()
