"""repro — Scheduling computational workflows on failure-prone platforms.

A from-scratch Python reproduction of

    Guillaume Aupy, Anne Benoit, Henri Casanova, Yves Robert.
    "Scheduling computational workflows on failure-prone platforms."
    INRIA RR-8609 / IPDPS 2015 workshops.

The package provides:

* the workflow / platform / schedule model of the paper (:mod:`repro.core`);
* the polynomial-time expected-makespan evaluator of Theorem 3
  (:func:`repro.evaluate_schedule`);
* the theoretical special cases — fork, join, linear chain, NP-completeness
  reduction (:mod:`repro.theory`);
* the fourteen scheduling heuristics of Section 5 (:mod:`repro.heuristics`);
* a Monte-Carlo fault-injection simulator that cross-validates the analytical
  evaluator (:mod:`repro.simulation`);
* synthetic generators for the four Pegasus workflow families used in the
  paper's evaluation (:mod:`repro.workflows`);
* an experiment harness that regenerates every figure of Section 6
  (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import Platform, solve_heuristic
>>> from repro.workflows import pegasus
>>> wf = pegasus.montage(50, seed=1).with_checkpoint_costs(mode="proportional", factor=0.1)
>>> platform = Platform.from_platform_rate(1e-3)
>>> result = solve_heuristic(wf, platform, "DF-CkptW")
>>> round(result.evaluation.overhead_ratio, 3) >= 1.0
True
"""

from .core import (
    BACKEND_REGISTRY,
    Backend,
    BackendRegistry,
    CycleError,
    LostWork,
    MakespanEvaluation,
    Platform,
    PlatformSpec,
    Schedule,
    SweepState,
    SweepStats,
    Task,
    Workflow,
    WorkflowStructure,
    batch_evaluate,
    compute_lost_work,
    evaluate_schedule,
    expected_execution_time,
    expected_makespan,
    expected_time_lost,
    success_probability,
)
from .heuristics import (
    HEURISTIC_NAMES,
    HeuristicResult,
    linearize,
    solve_all_heuristics,
    solve_heuristic,
)
from .simulation import MonteCarloSummary, SimulationResult, run_monte_carlo, simulate_schedule

# Resolved from the installed package metadata so `repro --version` can
# never drift from pyproject; the literal fallback covers source-tree runs
# (PYTHONPATH=src) where the distribution is not installed.
try:  # pragma: no cover - depends on how the package is run
    from importlib.metadata import version as _distribution_version

    __version__ = _distribution_version("repro-workflows")
except Exception:  # pragma: no cover - uninstalled source tree
    __version__ = "1.3.0"

__all__ = [
    "BACKEND_REGISTRY",
    "Backend",
    "BackendRegistry",
    "CycleError",
    "HEURISTIC_NAMES",
    "HeuristicResult",
    "LostWork",
    "MakespanEvaluation",
    "MonteCarloSummary",
    "Platform",
    "PlatformSpec",
    "Schedule",
    "SimulationResult",
    "SweepState",
    "SweepStats",
    "Task",
    "Workflow",
    "WorkflowStructure",
    "__version__",
    "batch_evaluate",
    "compute_lost_work",
    "evaluate_schedule",
    "expected_execution_time",
    "expected_makespan",
    "expected_time_lost",
    "linearize",
    "run_monte_carlo",
    "simulate_schedule",
    "solve_all_heuristics",
    "solve_heuristic",
    "success_probability",
]
