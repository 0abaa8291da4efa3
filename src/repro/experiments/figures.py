"""Reproduction entry points for every figure of the paper's evaluation.

Each ``figureN`` function returns a :class:`FigureResult` containing the rows
produced by the harness plus the plottable series, and can run either at the
paper's scale (``preset="paper"``: 50-700 tasks, exhaustive checkpoint-count
search — expensive) or at smoke scale (``preset="smoke"``: small sizes,
subsampled search — seconds).  The benchmark modules under ``benchmarks/``
call these functions and print the resulting series; EXPERIMENTS.md records the
paper-vs-measured comparison.

Figure map (paper -> here):

* Figure 2 (a, b, c): impact of the linearization strategy, CkptW / CkptC
  only, on CyberShake, Ligo, Genome with proportional checkpoints (0.1 w).
* Figure 3 (a-d): impact of the checkpointing strategy (best linearization per
  strategy) on the four families, proportional checkpoints (0.1 w).
* Figure 4 (a, b, c): linearization impact on CyberShake with constant
  checkpoint costs (10 s, 5 s) and small proportional costs (0.01 w).
* Figure 5 (a-d): checkpointing strategies with ``c = 0.01 w``.
* Figure 6 (a-d): checkpointing strategies with constant ``c = 5`` s.
* Figure 7 (a-d): checkpointing strategies versus the failure rate
  :math:`\\lambda`, 200-task workflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..heuristics.registry import HEURISTIC_NAMES
from .harness import ResultRow, run_grid, series_by_heuristic
from .scenarios import (
    DEFAULT_FAILURE_RATES,
    PAPER_TASK_COUNTS,
    SMOKE_TASK_COUNTS,
    Scenario,
    scenario_grid,
)

__all__ = [
    "FigureResult",
    "LINEARIZATION_FOCUS_HEURISTICS",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "all_figures",
]

#: Heuristics compared in the linearization-impact figures (2 and 4): the two
#: best checkpointing strategies combined with every linearization.
LINEARIZATION_FOCUS_HEURISTICS: tuple[str, ...] = (
    "DF-CkptW",
    "BF-CkptW",
    "RF-CkptW",
    "DF-CkptC",
    "BF-CkptC",
    "RF-CkptC",
)


@dataclass(frozen=True)
class FigureResult:
    """Rows and plottable series reproducing one figure."""

    figure: str
    description: str
    rows: tuple[ResultRow, ...]
    x_axis: str = "n_tasks"
    panels: tuple[str, ...] = ()

    def series(self, family: str | None = None) -> dict[str, list[tuple[float, float]]]:
        """``heuristic -> [(x, T/T_inf), ...]`` series, optionally per family.

        When the rows span several platform points in a dimension other
        than the x-axis (downtime / processor sweeps built from custom
        grids), the series keys carry that dimension — e.g.
        ``"DF-CkptW [D=60]"`` — so distinct grid points keep distinct
        labels (see :func:`repro.experiments.series_by_heuristic`).
        """
        rows = self.rows if family is None else tuple(r for r in self.rows if r.family == family)
        return series_by_heuristic(rows, x_axis=self.x_axis)

    def best_heuristic_per_x(self, family: str) -> dict[float, str]:
        """For each x value of a family, the heuristic with the lowest ratio."""
        best: dict[float, tuple[str, float]] = {}
        for row in self.rows:
            if row.family != family:
                continue
            x = float(getattr(row, self.x_axis))
            current = best.get(x)
            if current is None or row.overhead_ratio < current[1]:
                best[x] = (row.heuristic, row.overhead_ratio)
        return {x: name for x, (name, _) in sorted(best.items())}


def _preset_sizes(preset: str, sizes: Sequence[int] | None) -> tuple[int, ...]:
    if sizes is not None:
        return tuple(int(s) for s in sizes)
    if preset == "paper":
        return PAPER_TASK_COUNTS
    if preset == "smoke":
        return SMOKE_TASK_COUNTS
    raise ValueError(f"unknown preset {preset!r}; expected 'paper' or 'smoke'")


def _search_mode(preset: str) -> str:
    return "exhaustive" if preset == "paper" else "geometric"


def _figure_rows(
    scenarios,
    *,
    preset: str,
    search_mode: str | None,
    jobs: int | None,
    cache: Any,
    progress: Any,
    runner: Any,
    backend: str | None = None,
) -> list[ResultRow]:
    """One figure sweep through the grid runner: shared option plumbing."""
    return run_grid(
        scenarios,
        search_mode=search_mode or _search_mode(preset),
        jobs=jobs,
        cache=cache,
        progress=progress,
        runner=runner,
        backend=backend,
    )


def figure2(
    *,
    preset: str = "smoke",
    sizes: Sequence[int] | None = None,
    seed: int = 0,
    search_mode: str | None = None,
    jobs: int | None = 1,
    cache: Any = None,
    progress: Any = None,
    runner: Any = None,
    backend: str | None = None,
) -> FigureResult:
    """Figure 2: impact of the linearization strategy (CkptW and CkptC)."""
    sizes = _preset_sizes(preset, sizes)
    scenarios = scenario_grid(
        ("cybershake", "ligo", "genome"),
        sizes,
        checkpoint_mode="proportional",
        checkpoint_factor=0.1,
        heuristics=LINEARIZATION_FOCUS_HEURISTICS,
        seed=seed,
        label="fig2",
    )
    rows = _figure_rows(
        scenarios, preset=preset, search_mode=search_mode,
        jobs=jobs, cache=cache, progress=progress, runner=runner,
        backend=backend,
    )
    return FigureResult(
        figure="figure2",
        description="Impact of the linearization strategy (c = 0.1 w)",
        rows=tuple(rows),
        panels=("cybershake", "ligo", "genome"),
    )


def figure3(
    *,
    preset: str = "smoke",
    sizes: Sequence[int] | None = None,
    seed: int = 0,
    search_mode: str | None = None,
    jobs: int | None = 1,
    cache: Any = None,
    progress: Any = None,
    runner: Any = None,
    backend: str | None = None,
) -> FigureResult:
    """Figure 3: impact of the checkpointing strategy (c = 0.1 w)."""
    sizes = _preset_sizes(preset, sizes)
    scenarios = scenario_grid(
        ("montage", "ligo", "cybershake", "genome"),
        sizes,
        checkpoint_mode="proportional",
        checkpoint_factor=0.1,
        heuristics=HEURISTIC_NAMES,
        seed=seed,
        label="fig3",
    )
    rows = _figure_rows(
        scenarios, preset=preset, search_mode=search_mode,
        jobs=jobs, cache=cache, progress=progress, runner=runner,
        backend=backend,
    )
    return FigureResult(
        figure="figure3",
        description="Impact of the checkpointing strategy (c = 0.1 w)",
        rows=tuple(rows),
        panels=("montage", "ligo", "cybershake", "genome"),
    )


def figure4(
    *,
    preset: str = "smoke",
    sizes: Sequence[int] | None = None,
    seed: int = 0,
    search_mode: str | None = None,
    jobs: int | None = 1,
    cache: Any = None,
    progress: Any = None,
    runner: Any = None,
    backend: str | None = None,
) -> FigureResult:
    """Figure 4: CyberShake with constant (10 s, 5 s) and small (0.01 w) checkpoints."""
    sizes = _preset_sizes(preset, sizes)
    panels = {
        "cybershake-c10": ("constant", 0.0, 10.0),
        "cybershake-c5": ("constant", 0.0, 5.0),
        "cybershake-0.01w": ("proportional", 0.01, 0.0),
    }
    scenarios = [
        scenario
        for panel, (ckpt_mode, factor, value) in panels.items()
        for scenario in scenario_grid(
            ("cybershake",),
            sizes,
            checkpoint_mode=ckpt_mode,
            checkpoint_factor=factor,
            checkpoint_value=value,
            heuristics=LINEARIZATION_FOCUS_HEURISTICS,
            seed=seed,
            label=panel,
        )
    ]
    rows = _figure_rows(
        scenarios, preset=preset, search_mode=search_mode,
        jobs=jobs, cache=cache, progress=progress, runner=runner,
        backend=backend,
    )
    return FigureResult(
        figure="figure4",
        description="Linearization impact for constant / small checkpoint costs (CyberShake)",
        rows=tuple(rows),
        panels=tuple(panels),
    )


def figure5(
    *,
    preset: str = "smoke",
    sizes: Sequence[int] | None = None,
    seed: int = 0,
    search_mode: str | None = None,
    jobs: int | None = 1,
    cache: Any = None,
    progress: Any = None,
    runner: Any = None,
    backend: str | None = None,
) -> FigureResult:
    """Figure 5: checkpointing strategies with c = 0.01 w."""
    sizes = _preset_sizes(preset, sizes)
    scenarios = scenario_grid(
        ("montage", "ligo", "cybershake", "genome"),
        sizes,
        checkpoint_mode="proportional",
        checkpoint_factor=0.01,
        heuristics=HEURISTIC_NAMES,
        seed=seed,
        label="fig5",
    )
    rows = _figure_rows(
        scenarios, preset=preset, search_mode=search_mode,
        jobs=jobs, cache=cache, progress=progress, runner=runner,
        backend=backend,
    )
    return FigureResult(
        figure="figure5",
        description="Impact of the checkpointing strategy (c = 0.01 w)",
        rows=tuple(rows),
        panels=("montage", "ligo", "cybershake", "genome"),
    )


def figure6(
    *,
    preset: str = "smoke",
    sizes: Sequence[int] | None = None,
    seed: int = 0,
    search_mode: str | None = None,
    jobs: int | None = 1,
    cache: Any = None,
    progress: Any = None,
    runner: Any = None,
    backend: str | None = None,
) -> FigureResult:
    """Figure 6: checkpointing strategies with constant c = 5 s."""
    sizes = _preset_sizes(preset, sizes)
    scenarios = scenario_grid(
        ("montage", "ligo", "cybershake", "genome"),
        sizes,
        checkpoint_mode="constant",
        checkpoint_value=5.0,
        heuristics=HEURISTIC_NAMES,
        seed=seed,
        label="fig6",
    )
    rows = _figure_rows(
        scenarios, preset=preset, search_mode=search_mode,
        jobs=jobs, cache=cache, progress=progress, runner=runner,
        backend=backend,
    )
    return FigureResult(
        figure="figure6",
        description="Impact of the checkpointing strategy (c = 5 s)",
        rows=tuple(rows),
        panels=("montage", "ligo", "cybershake", "genome"),
    )


#: Failure-rate sweeps of Figure 7 (per family; Genome uses smaller rates).
FIGURE7_RATES: dict[str, tuple[float, ...]] = {
    "montage": (1e-4, 2.5e-4, 3.8e-4, 5.2e-4, 6.6e-4, 8e-4, 9.3e-4),
    "ligo": (1e-4, 2.5e-4, 3.8e-4, 5.2e-4, 6.6e-4, 8e-4, 9.3e-4),
    "cybershake": (1e-4, 2.5e-4, 3.8e-4, 5.2e-4, 6.6e-4, 8e-4, 9.3e-4),
    "genome": (1e-6, 5e-5, 9e-5, 1.4e-4, 1.8e-4, 2.3e-4, 2.7e-4),
}


def figure7(
    *,
    preset: str = "smoke",
    n_tasks: int | None = None,
    seed: int = 0,
    search_mode: str | None = None,
    rates: dict[str, Sequence[float]] | None = None,
    jobs: int | None = 1,
    cache: Any = None,
    progress: Any = None,
    runner: Any = None,
    backend: str | None = None,
) -> FigureResult:
    """Figure 7: checkpointing strategies versus the failure rate (200 tasks)."""
    size = n_tasks if n_tasks is not None else (200 if preset == "paper" else 40)
    mode = search_mode or _search_mode(preset)
    sweep = {k: tuple(v) for k, v in (rates or FIGURE7_RATES).items()}
    if preset == "smoke" and rates is None:
        # Keep only the endpoints and the middle of each sweep for smoke runs.
        sweep = {k: (v[0], v[len(v) // 2], v[-1]) for k, v in sweep.items()}
    scenarios: list[Scenario] = []
    for family, family_rates in sweep.items():
        for rate in family_rates:
            scenarios.append(
                Scenario(
                    family=family,
                    n_tasks=size,
                    failure_rate=float(rate),
                    checkpoint_mode="proportional",
                    checkpoint_factor=0.1,
                    heuristics=HEURISTIC_NAMES,
                    seed=seed,
                    label="fig7",
                )
            )
    rows = _figure_rows(
        scenarios, preset=preset, search_mode=mode,
        jobs=jobs, cache=cache, progress=progress, runner=runner,
        backend=backend,
    )
    return FigureResult(
        figure="figure7",
        description="Impact of the checkpointing strategy versus the failure rate",
        rows=tuple(rows),
        x_axis="failure_rate",
        panels=tuple(sweep.keys()),
    )


def all_figures(
    *,
    preset: str = "smoke",
    seed: int = 0,
    jobs: int | None = 1,
    cache: Any = None,
    progress: Any = None,
    backend: str | None = None,
) -> dict[str, FigureResult]:
    """Run every figure reproduction and return them keyed by name.

    ``jobs``, ``cache`` and ``progress`` are forwarded to the campaign
    runtime; with a persistent cache a re-run of the same preset performs
    zero evaluator calls (see EXPERIMENTS.md).  One runner, and so one
    worker pool, serves all six figure sweeps, so pool start-up is paid
    once.
    """
    from ..runtime.runner import CampaignRunner

    with CampaignRunner(jobs=jobs, cache=cache, progress=progress) as shared:
        kwargs = dict(preset=preset, seed=seed, runner=shared, backend=backend)
        return {
            "figure2": figure2(**kwargs),
            "figure3": figure3(**kwargs),
            "figure4": figure4(**kwargs),
            "figure5": figure5(**kwargs),
            "figure6": figure6(**kwargs),
            "figure7": figure7(**kwargs),
        }
