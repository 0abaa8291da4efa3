"""Core data model and the expected-makespan evaluator.

This subpackage contains the paper's framework (Section 3) and main theoretical
result (Section 4.2): tasks, workflows, platforms, schedules, the closed-form
expectation of Equation (1), the lost-work arrays of Algorithm 1, and the
polynomial-time expected-makespan evaluator of Theorem 3.
"""

from .backend import BACKEND_REGISTRY, Backend, BackendRegistry
from .dag import CycleError, Workflow, WorkflowStructure
from .evaluator import MakespanEvaluation, evaluate_schedule, expected_makespan
from .expectation import (
    expected_execution_time,
    expected_number_of_failures,
    expected_time_lost,
    success_probability,
)
from .lost_work import LostWork, compute_lost_work, lost_and_needed_tasks
from .platform import Platform, PlatformSpec
from .schedule import Schedule
from .sweep import SweepState, SweepStats, batch_evaluate
from .task import Task

__all__ = [
    "BACKEND_REGISTRY",
    "Backend",
    "BackendRegistry",
    "CycleError",
    "LostWork",
    "MakespanEvaluation",
    "Platform",
    "PlatformSpec",
    "Schedule",
    "SweepState",
    "SweepStats",
    "Task",
    "Workflow",
    "WorkflowStructure",
    "batch_evaluate",
    "compute_lost_work",
    "evaluate_schedule",
    "expected_execution_time",
    "expected_makespan",
    "expected_number_of_failures",
    "expected_time_lost",
    "lost_and_needed_tasks",
    "success_probability",
]
