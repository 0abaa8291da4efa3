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

The six figures are one table (``_FIGURES``) of panels and x axes;
:func:`all_figures` runs all six as one unit list, so a unit that two
figures share (Figure 2's inside Figure 3, Figure 4's 5 s and 0.01 w
panels inside Figures 6 and 5) is solved once.
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


#: Failure-rate sweeps of Figure 7 (per family; Genome uses smaller rates).
FIGURE7_RATES: dict[str, tuple[float, ...]] = {
    "montage": (1e-4, 2.5e-4, 3.8e-4, 5.2e-4, 6.6e-4, 8e-4, 9.3e-4),
    "ligo": (1e-4, 2.5e-4, 3.8e-4, 5.2e-4, 6.6e-4, 8e-4, 9.3e-4),
    "cybershake": (1e-4, 2.5e-4, 3.8e-4, 5.2e-4, 6.6e-4, 8e-4, 9.3e-4),
    "genome": (1e-6, 5e-5, 9e-5, 1.4e-4, 1.8e-4, 2.3e-4, 2.7e-4),
}

#: Per preset: the size axis, Figure 7's task count and the search mode.
_PRESETS: dict[str, tuple[tuple[int, ...], int, str]] = {
    "paper": (PAPER_TASK_COUNTS, 200, "exhaustive"),
    "smoke": (SMOKE_TASK_COUNTS, 40, "geometric"),
}


@dataclass(frozen=True)
class _Panel:
    """One panel: its scenario label, families, heuristics and checkpoint
    cost (the :class:`~repro.experiments.scenarios.Scenario` fields)."""

    label: str
    families: tuple[str, ...]
    heuristics: tuple[str, ...]
    checkpoint_mode: str = "proportional"
    checkpoint_factor: float = 0.1
    checkpoint_value: float = 0.0


@dataclass(frozen=True)
class _Figure:
    """One figure: its panels and x axis (the size axis or the rate sweep)."""

    description: str
    panels: tuple[_Panel, ...]
    x_axis: str = "n_tasks"


_FAMILIES = ("montage", "ligo", "cybershake", "genome")
_FOCUS = LINEARIZATION_FOCUS_HEURISTICS

_FIGURES: dict[str, _Figure] = {
    "figure2": _Figure(
        "Impact of the linearization strategy (c = 0.1 w)",
        (_Panel("fig2", ("cybershake", "ligo", "genome"), _FOCUS),),
    ),
    "figure3": _Figure(
        "Impact of the checkpointing strategy (c = 0.1 w)",
        (_Panel("fig3", _FAMILIES, HEURISTIC_NAMES),),
    ),
    "figure4": _Figure(
        "Linearization impact for constant / small checkpoint costs (CyberShake)",
        (
            _Panel("cybershake-c10", ("cybershake",), _FOCUS, "constant", checkpoint_value=10.0),
            _Panel("cybershake-c5", ("cybershake",), _FOCUS, "constant", checkpoint_value=5.0),
            _Panel("cybershake-0.01w", ("cybershake",), _FOCUS, checkpoint_factor=0.01),
        ),
    ),
    "figure5": _Figure(
        "Impact of the checkpointing strategy (c = 0.01 w)",
        (_Panel("fig5", _FAMILIES, HEURISTIC_NAMES, checkpoint_factor=0.01),),
    ),
    "figure6": _Figure(
        "Impact of the checkpointing strategy (c = 5 s)",
        (_Panel("fig6", _FAMILIES, HEURISTIC_NAMES, "constant", checkpoint_value=5.0),),
    ),
    "figure7": _Figure(
        "Impact of the checkpointing strategy versus the failure rate",
        (_Panel("fig7", tuple(FIGURE7_RATES), HEURISTIC_NAMES),),
        x_axis="failure_rate",
    ),
}


def _expand(
    figure: _Figure,
    *,
    sizes: tuple[int, ...],
    n_tasks: int,
    rates: dict[str, tuple[float, ...]],
    seed: int,
) -> tuple[list[Scenario], tuple[str, ...]]:
    """A figure's scenarios (panel -> family -> x) and its panel names.

    The size axis keeps each family's default failure rate; the rate axis
    sweeps each family of ``rates`` at ``n_tasks``.  A one-panel figure
    names its panels by family.
    """
    scenarios: list[Scenario] = []
    for panel in figure.panels:
        families = tuple(rates) if figure.x_axis == "failure_rate" else panel.families
        for family in families:
            points = (
                [(n_tasks, rate) for rate in rates[family]]
                if figure.x_axis == "failure_rate"
                else [(n, DEFAULT_FAILURE_RATES[family]) for n in sizes]
            )
            scenarios.extend(
                Scenario(
                    family=family,
                    n_tasks=int(n),
                    failure_rate=float(rate),
                    checkpoint_mode=panel.checkpoint_mode,
                    checkpoint_factor=panel.checkpoint_factor,
                    checkpoint_value=panel.checkpoint_value,
                    heuristics=panel.heuristics,
                    seed=seed,
                    label=panel.label,
                )
                for n, rate in points
            )
    if len(figure.panels) > 1:
        return scenarios, tuple(panel.label for panel in figure.panels)
    return scenarios, families


def _figures(
    names: Sequence[str],
    *,
    preset: str,
    seed: int,
    search_mode: str | None,
    jobs: int | None,
    cache: Any,
    progress: Any,
    backend: str | None,
    sizes: Sequence[int] | None = None,
    n_tasks: int | None = None,
    rates: dict[str, Sequence[float]] | None = None,
) -> dict[str, FigureResult]:
    """Run the named figures as one grid and cut each one's rows back out;
    a unit that two figures share is solved once."""
    if preset not in _PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected 'paper' or 'smoke'")
    preset_sizes, preset_n_tasks, preset_mode = _PRESETS[preset]
    sweep = {family: tuple(v) for family, v in (rates or FIGURE7_RATES).items()}
    if preset == "smoke" and rates is None:
        # Keep only the endpoints and the middle of each sweep for smoke runs.
        sweep = {family: (v[0], v[len(v) // 2], v[-1]) for family, v in sweep.items()}
    expanded = {
        name: _expand(
            _FIGURES[name],
            sizes=preset_sizes if sizes is None else tuple(int(s) for s in sizes),
            n_tasks=preset_n_tasks if n_tasks is None else n_tasks,
            rates=sweep,
            seed=seed,
        )
        for name in names
    }
    rows = run_grid(
        [scenario for scenarios, _ in expanded.values() for scenario in scenarios],
        search_mode=search_mode or preset_mode,
        jobs=jobs,
        cache=cache,
        progress=progress,
        backend=backend,
    )
    results: dict[str, FigureResult] = {}
    start = 0
    for name, (scenarios, panels) in expanded.items():
        stop = start + sum(len(scenario.heuristics) for scenario in scenarios)
        results[name] = FigureResult(
            figure=name,
            description=_FIGURES[name].description,
            rows=tuple(rows[start:stop]),
            x_axis=_FIGURES[name].x_axis,
            panels=panels,
        )
        start = stop
    return results


def figure2(
    *,
    preset: str = "smoke",
    sizes: Sequence[int] | None = None,
    seed: int = 0,
    search_mode: str | None = None,
    jobs: int | None = 1,
    cache: Any = None,
    progress: Any = None,
    backend: str | None = None,
) -> FigureResult:
    """Figure 2: impact of the linearization strategy (CkptW and CkptC)."""
    return _figures(
        ("figure2",), preset=preset, sizes=sizes, seed=seed, search_mode=search_mode,
        jobs=jobs, cache=cache, progress=progress, backend=backend,
    )["figure2"]


def figure3(
    *,
    preset: str = "smoke",
    sizes: Sequence[int] | None = None,
    seed: int = 0,
    search_mode: str | None = None,
    jobs: int | None = 1,
    cache: Any = None,
    progress: Any = None,
    backend: str | None = None,
) -> FigureResult:
    """Figure 3: impact of the checkpointing strategy (c = 0.1 w)."""
    return _figures(
        ("figure3",), preset=preset, sizes=sizes, seed=seed, search_mode=search_mode,
        jobs=jobs, cache=cache, progress=progress, backend=backend,
    )["figure3"]


def figure4(
    *,
    preset: str = "smoke",
    sizes: Sequence[int] | None = None,
    seed: int = 0,
    search_mode: str | None = None,
    jobs: int | None = 1,
    cache: Any = None,
    progress: Any = None,
    backend: str | None = None,
) -> FigureResult:
    """Figure 4: CyberShake with constant (10 s, 5 s) and small (0.01 w) checkpoints."""
    return _figures(
        ("figure4",), preset=preset, sizes=sizes, seed=seed, search_mode=search_mode,
        jobs=jobs, cache=cache, progress=progress, backend=backend,
    )["figure4"]


def figure5(
    *,
    preset: str = "smoke",
    sizes: Sequence[int] | None = None,
    seed: int = 0,
    search_mode: str | None = None,
    jobs: int | None = 1,
    cache: Any = None,
    progress: Any = None,
    backend: str | None = None,
) -> FigureResult:
    """Figure 5: checkpointing strategies with c = 0.01 w."""
    return _figures(
        ("figure5",), preset=preset, sizes=sizes, seed=seed, search_mode=search_mode,
        jobs=jobs, cache=cache, progress=progress, backend=backend,
    )["figure5"]


def figure6(
    *,
    preset: str = "smoke",
    sizes: Sequence[int] | None = None,
    seed: int = 0,
    search_mode: str | None = None,
    jobs: int | None = 1,
    cache: Any = None,
    progress: Any = None,
    backend: str | None = None,
) -> FigureResult:
    """Figure 6: checkpointing strategies with constant c = 5 s."""
    return _figures(
        ("figure6",), preset=preset, sizes=sizes, seed=seed, search_mode=search_mode,
        jobs=jobs, cache=cache, progress=progress, backend=backend,
    )["figure6"]


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
    backend: str | None = None,
) -> FigureResult:
    """Figure 7: checkpointing strategies versus the failure rate (200 tasks)."""
    return _figures(
        ("figure7",), preset=preset, n_tasks=n_tasks, rates=rates, seed=seed,
        search_mode=search_mode, jobs=jobs, cache=cache, progress=progress,
        backend=backend,
    )["figure7"]


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
    zero evaluator calls (see EXPERIMENTS.md).  The six figures run as one
    grid on one runner: worker start-up is paid once, and each distinct
    unit is solved once — a repeated one reports ``solve_seconds`` 0.0, as
    a cache hit does.
    """
    return _figures(
        tuple(_FIGURES), preset=preset, seed=seed, search_mode=None,
        jobs=jobs, cache=cache, progress=progress, backend=backend,
    )
