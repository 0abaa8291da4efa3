"""Experiment harness: run heuristic sweeps and collect result rows.

The harness evaluates every requested heuristic on every scenario and records
the paper's metric ``T / T_inf`` (expected makespan over the failure-free,
checkpoint-free makespan).  Results are plain dataclass rows so they can be
rendered to CSV / markdown by :mod:`repro.experiments.reporting` or
post-processed with numpy.

Every entry point here is a call into the campaign runner
(:class:`~repro.runtime.runner.CampaignRunner`), the one solve core:
:func:`run_heuristic` runs one (scenario instance, heuristic) unit,
:func:`run_scenario` one scenario and :func:`run_grid` several.  Each unit
draws from its own :func:`~repro.heuristics.registry.heuristic_rng` stream,
and units of one instance and linearization share a sweep without changing
any value, so rows do not depend on what else runs alongside them, on
``jobs`` or on the cache.  See EXPERIMENTS.md for usage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .scenarios import Scenario

__all__ = [
    "ResultRow",
    "SERIES_AXES",
    "run_heuristic",
    "run_scenario",
    "run_grid",
    "best_by_strategy",
    "series_by_heuristic",
]


@dataclass(frozen=True)
class ResultRow:
    """One (scenario, heuristic) measurement."""

    label: str
    family: str
    n_tasks: int
    actual_n_tasks: int
    failure_rate: float
    checkpoint_mode: str
    checkpoint_parameter: float
    heuristic: str
    linearization: str
    checkpoint_strategy: str
    n_checkpointed: int
    expected_makespan: float
    failure_free_work: float
    overhead_ratio: float
    solve_seconds: float
    seed: int
    # Platform dimensions beyond the failure rate.  They default to the
    # paper's setting (D = 0, single processor) so rows written before the
    # platform became a grid axis keep loading.
    downtime: float = 0.0
    processors: int = 1


def run_heuristic(
    scenario: Scenario,
    heuristic: str,
    *,
    search_mode: str = "exhaustive",
    max_candidates: int = 30,
    backend: str | None = None,
) -> ResultRow:
    """Evaluate one heuristic on one scenario instance; returns its row.

    A one-unit call into the campaign runner, in-process and without a
    cache.  The heuristic's random stream is derived from
    ``(scenario.seed, heuristic)`` alone, so the result does not depend on
    what else runs in the same process.  ``backend`` selects the evaluation
    backend (any registered name); all backends produce rows that agree
    within floating-point noise, so cache keys ignore it.
    """
    from ..runtime.runner import CampaignRunner, WorkUnit

    unit = WorkUnit(
        scenario=scenario,
        heuristic=heuristic,
        search_mode=search_mode,
        max_candidates=max_candidates,
        backend=backend,
    )
    with CampaignRunner() as runner:
        (row,) = runner.run_units([unit])
    return row


def run_scenario(
    scenario: Scenario,
    *,
    search_mode: str = "exhaustive",
    max_candidates: int = 30,
    backend: str | None = None,
) -> list[ResultRow]:
    """Evaluate every heuristic of a scenario; returns one row per heuristic.

    Parameters
    ----------
    scenario:
        The experimental configuration to run.
    search_mode:
        ``"exhaustive"`` reproduces the paper's search over every checkpoint
        count; ``"geometric"`` subsamples the counts (see
        :func:`repro.heuristics.search.candidate_counts`) to keep large sweeps
        affordable.
    max_candidates:
        Budget for the ``"geometric"`` mode.
    """
    return run_grid(
        [scenario],
        search_mode=search_mode,
        max_candidates=max_candidates,
        backend=backend,
    )


def run_grid(
    scenarios: Iterable[Scenario],
    *,
    search_mode: str = "exhaustive",
    max_candidates: int = 30,
    jobs: int | None = 1,
    cache: Any = None,
    progress: Any = None,
    backend: str | None = None,
) -> list[ResultRow]:
    """Run several scenarios as one unit list; rows come back in unit order.

    ``jobs > 1`` fans the groups of (scenario × heuristic) units that share
    a sweep out over a process pool, a
    :class:`~repro.runtime.cache.ResultCache` answers units priced by an
    earlier run, and a unit whose key repeats within the list is solved
    once (the figures share units this way); every configuration produces
    the same rows.
    """
    from ..runtime.runner import CampaignRunner

    with CampaignRunner(
        jobs=jobs,
        cache=cache,
        search_mode=search_mode,
        max_candidates=max_candidates,
        progress=progress,
        backend=backend,
    ) as runner:
        return runner.run_rows(scenarios)


def best_by_strategy(rows: Sequence[ResultRow]) -> dict[tuple[str, int, str], ResultRow]:
    """For each (family, n_tasks, checkpoint strategy), keep the best linearization.

    This mirrors how the paper plots Figure 3 and Figures 5-7: "for each
    checkpointing strategy, we plot the best linearization strategy".
    """
    best: dict[tuple[str, int, str], ResultRow] = {}
    for row in rows:
        key = (row.family, row.n_tasks, row.checkpoint_strategy)
        current = best.get(key)
        if current is None or row.overhead_ratio < current.overhead_ratio:
            best[key] = row
    return best


#: Valid x-axes for :func:`series_by_heuristic` (and the figure drivers).
SERIES_AXES = ("n_tasks", "failure_rate", "downtime", "processors")


def series_by_heuristic(
    rows: Sequence[ResultRow], *, x_axis: str = "n_tasks"
) -> dict[str, list[tuple[float, float]]]:
    """Group rows into plottable ``heuristic -> [(x, overhead_ratio), ...]`` series.

    When a platform dimension that is *not* the x-axis varies across the
    rows (a D > 0 point next to the paper's D = 0 one, a processor sweep,
    or a rate sweep within one family), it enters the series key —
    ``"DF-CkptW [D=60]"`` — so distinct grid points never collapse into
    one indistinguishable line.  A purely *per-family* rate (the paper
    gives Genome its own :math:`\\lambda`) stays implicit, as families are
    separated into panels, not series.
    """
    if x_axis not in SERIES_AXES:
        raise ValueError(f"x_axis must be one of {SERIES_AXES}")
    hidden = [
        dim
        for dim in ("downtime", "processors")
        if dim != x_axis and len({getattr(row, dim) for row in rows}) > 1
    ]
    if x_axis != "failure_rate" and len(
        {(row.family, row.failure_rate) for row in rows}
    ) > len({row.family for row in rows}):
        hidden.append("failure_rate")
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        key = row.heuristic
        if hidden:
            tags = []
            if "failure_rate" in hidden:
                tags.append(f"lambda={row.failure_rate:g}")
            if "downtime" in hidden:
                tags.append(f"D={row.downtime:g}")
            if "processors" in hidden:
                tags.append(f"p={row.processors}")
            key = f"{key} [{' '.join(tags)}]"
        x = float(getattr(row, x_axis))
        series.setdefault(key, []).append((x, row.overhead_ratio))
    for values in series.values():
        values.sort()
    return series
