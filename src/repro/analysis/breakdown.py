"""Schedule analysis: where does the expected time go?

The evaluator of Theorem 3 returns a single number; when tuning a schedule it
is often more useful to know *why* it is what it is.  This module decomposes a
schedule's expected makespan into interpretable pieces:

* per-task expected time versus its failure-free duration (the per-task
  *overhead*);
* total time spent on productive work, on checkpoints, and on
  failure-induced waste (re-execution, recovery, downtime) in expectation;
* per-checkpoint *utility*: how much larger the expected makespan would be if
  that single checkpoint were dropped (positive utility = the checkpoint pays
  for itself), computed exactly with the evaluator.

These quantities drive the reports printed by the examples and give downstream
users a principled way to audit a schedule before running it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.evaluator import evaluate_schedule
from ..core.platform import Platform
from ..core.schedule import Schedule
from ..core.sweep import SweepState

__all__ = [
    "TaskBreakdown",
    "CheckpointUtility",
    "ScheduleBreakdown",
    "analyse_schedule",
    "checkpoint_utilities",
]


@dataclass(frozen=True)
class TaskBreakdown:
    """Expected time attributed to one scheduled task."""

    task_index: int
    position: int
    weight: float
    checkpointed: bool
    checkpoint_cost: float
    expected_time: float

    @property
    def failure_free_time(self) -> float:
        """Duration of this task (plus checkpoint) in a failure-free run."""
        return self.weight + (self.checkpoint_cost if self.checkpointed else 0.0)

    @property
    def expected_overhead(self) -> float:
        """Expected extra time caused by failures for this task's interval."""
        return max(0.0, self.expected_time - self.failure_free_time)

    @property
    def overhead_ratio(self) -> float:
        """Expected time over failure-free time for this task's interval."""
        if self.failure_free_time == 0.0:
            return 1.0 if self.expected_time == 0.0 else float("inf")
        return self.expected_time / self.failure_free_time


@dataclass(frozen=True)
class CheckpointUtility:
    """Exact value of one checkpoint: expected time saved by keeping it."""

    task_index: int
    expected_makespan_with: float
    expected_makespan_without: float

    @property
    def utility(self) -> float:
        """Expected seconds saved by this checkpoint (negative = it hurts)."""
        return self.expected_makespan_without - self.expected_makespan_with


@dataclass(frozen=True)
class ScheduleBreakdown:
    """Full decomposition of a schedule's expected makespan."""

    schedule: Schedule
    platform: Platform
    expected_makespan: float
    useful_work: float
    checkpoint_time: float
    expected_waste: float
    per_task: tuple[TaskBreakdown, ...]

    @property
    def waste_fraction(self) -> float:
        """Fraction of the expected makespan lost to failures (0 when failure-free)."""
        if self.expected_makespan == 0.0:
            return 0.0
        return self.expected_waste / self.expected_makespan

    def worst_tasks(self, count: int = 5) -> tuple[TaskBreakdown, ...]:
        """The tasks with the largest expected overhead (the tuning targets)."""
        ranked = sorted(self.per_task, key=lambda t: t.expected_overhead, reverse=True)
        return tuple(ranked[:count])

    def render(self, *, top: int = 5) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"expected makespan : {self.expected_makespan:.2f}s",
            f"  useful work     : {self.useful_work:.2f}s",
            f"  checkpoints     : {self.checkpoint_time:.2f}s",
            f"  expected waste  : {self.expected_waste:.2f}s "
            f"({100.0 * self.waste_fraction:.1f}% of the makespan)",
            f"top {top} tasks by expected overhead:",
        ]
        for entry in self.worst_tasks(top):
            task = self.schedule.workflow.task(entry.task_index)
            lines.append(
                f"  {task.name:<16} position {entry.position:<4} "
                f"E[time] {entry.expected_time:8.2f}s "
                f"(overhead {entry.expected_overhead:7.2f}s, x{entry.overhead_ratio:.2f})"
            )
        return "\n".join(lines)


def analyse_schedule(
    schedule: Schedule, platform: Platform, *, backend: str | None = None
) -> ScheduleBreakdown:
    """Decompose the expected makespan of a schedule.

    The per-task expected times are the :math:`E[X_i]` of the evaluator; the
    "waste" aggregate is the expected makespan minus the failure-free work and
    the checkpoints actually taken.
    """
    evaluation = evaluate_schedule(schedule, platform, backend=backend)
    workflow = schedule.workflow
    per_task = []
    for position, task_index in enumerate(schedule.order):
        task = workflow.task(task_index)
        per_task.append(
            TaskBreakdown(
                task_index=task_index,
                position=position,
                weight=task.weight,
                checkpointed=schedule.is_checkpointed(task_index),
                checkpoint_cost=task.checkpoint_cost,
                expected_time=evaluation.expected_task_times[position],
            )
        )
    useful = workflow.total_weight
    checkpoint_time = schedule.total_checkpoint_cost
    waste = max(0.0, evaluation.expected_makespan - useful - checkpoint_time)
    return ScheduleBreakdown(
        schedule=schedule,
        platform=platform,
        expected_makespan=evaluation.expected_makespan,
        useful_work=useful,
        checkpoint_time=checkpoint_time,
        expected_waste=waste,
        per_task=tuple(per_task),
    )


def checkpoint_utilities(
    schedule: Schedule, platform: Platform, *, backend: str | None = None
) -> tuple[CheckpointUtility, ...]:
    """Exact marginal value of every checkpoint in the schedule.

    For each checkpointed task, the schedule is re-evaluated with that single
    checkpoint removed; the difference is the expected time the checkpoint
    saves.  Checkpoints with negative utility actively hurt and are the first
    candidates for removal (see
    :func:`repro.heuristics.refinement.local_search_checkpoints`).
    """
    # One incremental sweep over the shared linearization prices the base set,
    # then each probe: the base set minus a single checkpoint, so consecutive
    # probes differ by two toggles.  Probing in descending *position* order
    # makes the freshly dropped checkpoint the lower of the two, so each probe
    # re-prices only the suffix behind it (the utilities are still returned
    # in ascending task-index order).
    sweep = SweepState(schedule.workflow, schedule.order, platform, backend=backend)
    base = sweep.evaluate(schedule.checkpointed, keep_task_times=False).expected_makespan
    position = {task: pos for pos, task in enumerate(schedule.order)}
    without = {
        task_index: sweep.evaluate(
            schedule.checkpointed - {task_index}, keep_task_times=False
        ).expected_makespan
        for task_index in sorted(schedule.checkpointed, key=lambda task: -position[task])
    }
    return tuple(
        CheckpointUtility(
            task_index=task_index,
            expected_makespan_with=base,
            expected_makespan_without=without[task_index],
        )
        for task_index in sorted(schedule.checkpointed)
    )
