"""Experiment harness reproducing the paper's Section 6 evaluation."""

from .campaign import (
    AggregatedResult,
    CampaignResult,
    CampaignSpec,
    aggregate_rows,
    run_campaign,
)
from .figures import (
    FigureResult,
    LINEARIZATION_FOCUS_HEURISTICS,
    all_figures,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
)
from .harness import (
    SERIES_AXES,
    ResultRow,
    best_by_strategy,
    run_grid,
    run_heuristic,
    run_scenario,
    series_by_heuristic,
)
from .reporting import (
    SHARD_MARKER_PREFIX,
    format_ratio_table,
    load_rows_csv,
    ratio_table,
    read_shard_marker,
    row_identity,
    rows_from_csv,
    rows_to_csv,
    rows_to_markdown,
    save_rows_csv,
)
from .robustness import (
    DEFAULT_LAWS,
    RobustnessReport,
    RobustnessRow,
    law_specs_for,
    plot_robustness,
    run_robustness,
    save_robustness_report,
)
from .scenarios import (
    DEFAULT_FAILURE_RATES,
    LAMBDA_DOWNTIME_DOWNTIMES,
    LAMBDA_DOWNTIME_RATES,
    PAPER_TASK_COUNTS,
    SMOKE_TASK_COUNTS,
    Scenario,
    build_workflow,
    lambda_downtime_grid,
    parse_shard,
    scenario_grid,
    shard_scenarios,
)

__all__ = [
    "AggregatedResult",
    "CampaignResult",
    "CampaignSpec",
    "DEFAULT_FAILURE_RATES",
    "DEFAULT_LAWS",
    "FigureResult",
    "LAMBDA_DOWNTIME_DOWNTIMES",
    "LAMBDA_DOWNTIME_RATES",
    "RobustnessReport",
    "RobustnessRow",
    "aggregate_rows",
    "lambda_downtime_grid",
    "law_specs_for",
    "load_rows_csv",
    "parse_shard",
    "plot_robustness",
    "read_shard_marker",
    "row_identity",
    "rows_from_csv",
    "run_campaign",
    "run_robustness",
    "save_robustness_report",
    "shard_scenarios",
    "LINEARIZATION_FOCUS_HEURISTICS",
    "PAPER_TASK_COUNTS",
    "ResultRow",
    "SERIES_AXES",
    "SMOKE_TASK_COUNTS",
    "Scenario",
    "all_figures",
    "best_by_strategy",
    "build_workflow",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "format_ratio_table",
    "ratio_table",
    "rows_to_csv",
    "rows_to_markdown",
    "run_grid",
    "run_heuristic",
    "run_scenario",
    "save_rows_csv",
    "scenario_grid",
    "series_by_heuristic",
    "SHARD_MARKER_PREFIX",
    "FabricCoordinator",
    "FabricWorker",
]

#: Lazily re-exported from :mod:`repro.experiments.fabric`: only ``repro
#: fabric`` needs the fabric layer, so every other command skips loading it.
_FABRIC_EXPORTS = {"FabricCoordinator", "FabricWorker"}


def __getattr__(name: str) -> object:
    if name in _FABRIC_EXPORTS:
        from . import fabric

        return getattr(fabric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
