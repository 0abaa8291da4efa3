"""Monte-Carlo fault-injection execution of a schedule.

The engine replays a schedule (linearization + checkpoint set) on a platform
whose failures are drawn from a :class:`~repro.simulation.failures.FailureModel`,
following the execution model of Section 3 of the paper:

* tasks run one after the other on the whole platform;
* a failure wipes the memory contents (every task output that was not
  checkpointed to stable storage is lost) and is followed by a constant
  downtime ``D``;
* before (re-)executing a task, the engine recovers the most recent checkpoints
  on every reverse path from the task and re-executes all non-checkpointed
  ancestors whose output was lost — the "lost and needed" closure of
  :func:`repro.core.lost_work.lost_and_needed_tasks`;
* failures may also strike during recoveries and checkpoints.

The engine exists to cross-validate the analytical evaluator of Theorem 3
(``tests/test_evaluator_montecarlo.py``) and to study extensions the analytical
formula does not cover: non-exponential failure laws and partially overlapped
("non-blocking") checkpoints, the paper's future-work direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.backend import BACKEND_REGISTRY
from ..core.lost_work import lost_and_needed_tasks
from ..core.platform import Platform
from ..core.schedule import Schedule
from .failures import FailureModel, failure_model_for
from .trace import EventKind, ExecutionTrace

__all__ = [
    "SimulationDiverged",
    "SimulationResult",
    "MonteCarloSummary",
    "simulate_schedule",
    "run_monte_carlo",
    "replica_generators",
]


class SimulationDiverged(RuntimeError):
    """Raised when a simulated execution exceeds the failure budget.

    This happens when the expected time between failures is much smaller than
    the work that must complete between two checkpoints: the execution is
    practically unable to finish and simulating it forever would hang.
    """


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated execution."""

    makespan: float
    n_failures: int
    total_downtime: float
    total_recovery_time: float
    total_reexecution_time: float
    trace: ExecutionTrace | None = None


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregated statistics over many simulated executions.

    The 95% confidence interval is the usual normal approximation
    ``mean ± 1.96 · sem``; ``sem`` is the standard error of the mean.
    """

    n_runs: int
    mean_makespan: float
    std_makespan: float
    min_makespan: float
    max_makespan: float
    mean_failures: float
    samples: tuple[float, ...] = ()

    @property
    def sem(self) -> float:
        """Standard error of the mean makespan."""
        if self.n_runs <= 1:
            return math.inf if self.n_runs == 0 else 0.0
        return self.std_makespan / math.sqrt(self.n_runs)

    @property
    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval on the mean makespan."""
        half = 1.96 * self.sem
        return (self.mean_makespan - half, self.mean_makespan + half)

    def contains(self, value: float, *, widen: float = 1.0) -> bool:
        """Whether ``value`` lies within the (optionally widened) 95% CI."""
        low, high = self.ci95
        center = self.mean_makespan
        return (center - (center - low) * widen) <= value <= (center + (high - center) * widen)


def simulate_schedule(
    schedule: Schedule,
    platform: Platform,
    *,
    rng: np.random.Generator | int | None = None,
    failure_model: FailureModel | None = None,
    collect_trace: bool = False,
    max_failures: int = 1_000_000,
    checkpoint_overlap: float = 0.0,
) -> SimulationResult:
    """Simulate one execution of a schedule under injected failures.

    Parameters
    ----------
    schedule:
        The schedule to execute.
    platform:
        Provides the downtime ``D`` and, when ``failure_model`` is not given,
        the exponential failure rate.
    rng:
        Seed or numpy generator driving the failure process.
    failure_model:
        Failure inter-arrival law; defaults to the platform's exponential law.
    collect_trace:
        Record a full :class:`~repro.simulation.trace.ExecutionTrace`.
    max_failures:
        Abort (raising :class:`SimulationDiverged`) after this many failures.
    checkpoint_overlap:
        Fraction of each checkpoint that is overlapped with subsequent
        computation (``0`` reproduces the paper's blocking checkpoints, ``1``
        makes checkpoints free).  This models the "non-blocking checkpointing"
        future-work direction of Section 7 at the level of the timeline only.

    Returns
    -------
    SimulationResult
    """
    if not 0.0 <= checkpoint_overlap <= 1.0:
        raise ValueError("checkpoint_overlap must lie in [0, 1]")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    model = failure_model if failure_model is not None else failure_model_for(platform)
    model.reset()
    downtime = platform.downtime

    workflow = schedule.workflow
    order = schedule.order
    n = len(order)
    trace = ExecutionTrace() if collect_trace else None

    clock = 0.0
    n_failures = 0
    total_downtime = 0.0
    total_recovery = 0.0
    total_reexec = 0.0

    # Positions (1-based) whose output currently resides in memory, and the
    # positions whose checkpoint has been committed to stable storage.
    in_memory: set[int] = set()
    next_failure = model.sample(rng)

    def fail_here() -> None:
        nonlocal clock, n_failures, total_downtime, next_failure
        n_failures += 1
        if n_failures > max_failures:
            raise SimulationDiverged(
                f"simulation exceeded {max_failures} failures at t={clock:.3g}s; "
                "the schedule cannot realistically complete on this platform"
            )
        if trace is not None:
            trace.record(EventKind.FAILURE, clock, task=-1)
        in_memory.clear()
        if downtime > 0.0:
            if trace is not None:
                trace.record(EventKind.DOWNTIME, clock, duration=downtime, task=-1)
            clock += downtime
            total_downtime += downtime
        next_failure = clock + model.sample(rng)

    def run_segment(duration: float, kind: EventKind, task_index: int, note: str = "") -> bool:
        """Advance the clock by ``duration``; return False if a failure interrupts."""
        nonlocal clock
        if duration < 0:
            raise ValueError("segment duration must be non-negative")
        if clock + duration > next_failure:
            # The failure strikes strictly inside (or exactly at the end of)
            # the segment: the segment's work is lost.
            wasted = max(0.0, next_failure - clock)
            if trace is not None and wasted > 0.0:
                trace.record(kind, clock, duration=wasted, task=task_index, note=note + " (interrupted)")
            clock = next_failure
            fail_here()
            return False
        if duration > 0.0 and trace is not None:
            trace.record(kind, clock, duration=duration, task=task_index, note=note)
        clock += duration
        return True

    for position_zero, task_index in enumerate(order):
        position = position_zero + 1
        task = workflow.task(task_index)
        is_ckpt = schedule.is_checkpointed(task_index)
        ckpt_duration = task.checkpoint_cost * (1.0 - checkpoint_overlap) if is_ckpt else 0.0

        while True:
            # Build the recovery plan from the current memory state.
            plan, _, _ = lost_and_needed_tasks(schedule, position, frozenset(in_memory))
            if trace is not None:
                trace.record(
                    EventKind.ATTEMPT_START,
                    clock,
                    task=task_index,
                    note=f"plan={len(plan)} predecessor(s) to restore",
                )
            interrupted = False
            # The clock advances segment by segment (failure detection and
            # trace timestamps need the intermediate values), but a completed
            # attempt *snaps* the clock to ``attempt_start + attempt_total``,
            # with the total accumulated one segment at a time.  The batched
            # NumPy engine advances whole attempts with the identically
            # ordered sum, so both engines produce bit-for-bit equal clocks.
            attempt_start = clock
            attempt_total = 0.0

            for plan_position in plan:
                plan_task_index = order[plan_position - 1]
                plan_task = workflow.task(plan_task_index)
                if schedule.is_checkpointed(plan_task_index):
                    ok = run_segment(
                        plan_task.recovery_cost,
                        EventKind.RECOVERY,
                        plan_task_index,
                        note=f"recover for T{task_index}",
                    )
                    if ok:
                        total_recovery += plan_task.recovery_cost
                        attempt_total += plan_task.recovery_cost
                else:
                    ok = run_segment(
                        plan_task.weight,
                        EventKind.RE_EXECUTION,
                        plan_task_index,
                        note=f"re-execute for T{task_index}",
                    )
                    if ok:
                        total_reexec += plan_task.weight
                        attempt_total += plan_task.weight
                if not ok:
                    interrupted = True
                    break
                in_memory.add(plan_position)
            if interrupted:
                continue

            # The task's own computation.
            if not run_segment(task.weight, EventKind.COMPUTE, task_index):
                continue
            in_memory.add(position)
            attempt_total += task.weight

            # Its checkpoint (possibly shortened by the overlap extension).
            if is_ckpt:
                if not run_segment(ckpt_duration, EventKind.CHECKPOINT, task_index):
                    # The checkpoint did not commit and the computed output was
                    # wiped with the rest of the memory: retry the task.
                    continue
            attempt_total += ckpt_duration
            clock = attempt_start + attempt_total
            if trace is not None:
                trace.record(EventKind.TASK_COMPLETE, clock, task=task_index)
            break

    if trace is not None:
        trace.record(EventKind.WORKFLOW_COMPLETE, clock, task=-1)
    return SimulationResult(
        makespan=clock,
        n_failures=n_failures,
        total_downtime=total_downtime,
        total_recovery_time=total_recovery,
        total_reexecution_time=total_reexec,
        trace=trace,
    )


def replica_generators(
    rng: np.random.Generator | int | None, n_runs: int
) -> list[np.random.Generator]:
    """One independent child generator per Monte-Carlo replica.

    Replica streams are spawned from the seed (or generator) rather than
    shared sequentially, so replica ``r`` consumes the same values no matter
    how many draws the replicas before it made — the property that lets the
    batched NumPy engine pre-sample failures per replica and still be
    bit-for-bit identical to the sequential reference engine.
    """
    if isinstance(rng, np.random.Generator):
        try:
            return list(rng.spawn(n_runs))
        except AttributeError:  # pragma: no cover - numpy < 1.25
            seeds = rng.integers(0, 2**63, size=n_runs)
            return [np.random.default_rng(int(seed)) for seed in seeds]
    return [np.random.default_rng(seq) for seq in np.random.SeedSequence(rng).spawn(n_runs)]


def run_monte_carlo(
    schedule: Schedule,
    platform: Platform,
    *,
    n_runs: int = 1000,
    rng: np.random.Generator | int | None = None,
    failure_model: FailureModel | None = None,
    max_failures: int = 1_000_000,
    checkpoint_overlap: float = 0.0,
    keep_samples: bool = False,
    backend: str | None = None,
) -> MonteCarloSummary:
    """Estimate the expected makespan of a schedule by repeated simulation.

    Parameters
    ----------
    n_runs:
        Number of independent simulated executions.
    keep_samples:
        Attach the individual makespans to the summary (useful for plotting
        or for distribution-level tests).
    backend:
        ``"python"`` replays the replicas one by one through
        :func:`simulate_schedule`; ``"numpy"`` simulates all replicas at
        once (:mod:`repro.simulation.engine_np`); ``"auto"``/``None`` picks
        NumPy at every replica count (level with the replica loop at about
        4 replicas, ahead from 8).  Resolution requires the ``monte_carlo``
        capability, so backends without a simulator (e.g. ``native``)
        fall back to the best capable one instead of erroring.  Both
        engines produce bit-for-bit identical samples for the same
        ``rng``, so the backend is a pure performance knob.

    Returns
    -------
    MonteCarloSummary
    """
    if n_runs <= 0:
        raise ValueError("n_runs must be positive")
    resolved = BACKEND_REGISTRY.resolve(backend, require="monte_carlo").name
    generators = replica_generators(rng, n_runs)

    if resolved == "numpy":
        from .engine_np import simulate_batch

        makespans, failure_counts = simulate_batch(
            schedule,
            platform,
            generators,
            failure_model=failure_model,
            max_failures=max_failures,
            checkpoint_overlap=checkpoint_overlap,
        )
        failures = failure_counts.astype(float)
    else:
        makespans = np.empty(n_runs, dtype=float)
        failures = np.empty(n_runs, dtype=float)
        for run in range(n_runs):
            result = simulate_schedule(
                schedule,
                platform,
                rng=generators[run],
                failure_model=failure_model,
                collect_trace=False,
                max_failures=max_failures,
                checkpoint_overlap=checkpoint_overlap,
            )
            makespans[run] = result.makespan
            failures[run] = result.n_failures
    return MonteCarloSummary(
        n_runs=n_runs,
        mean_makespan=float(np.mean(makespans)),
        std_makespan=float(np.std(makespans, ddof=1)) if n_runs > 1 else 0.0,
        min_makespan=float(np.min(makespans)),
        max_makespan=float(np.max(makespans)),
        mean_failures=float(np.mean(failures)),
        samples=tuple(float(x) for x in makespans) if keep_samples else (),
    )
