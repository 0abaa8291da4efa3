"""Scheduling heuristics for general DAGs (Section 5 of the paper)."""

from .checkpointing import (
    CHECKPOINT_STRATEGIES,
    PARAMETERISED_STRATEGIES,
    checkpoint_always,
    checkpoint_by_cost,
    checkpoint_by_descendant_weight,
    checkpoint_by_weight,
    checkpoint_never,
    checkpoint_periodic,
    get_selector,
)
from .linearization import LINEARIZATION_STRATEGIES, linearize, linearize_all
from .refinement import (
    RefinementResult,
    greedy_checkpoint_selection,
    local_search_checkpoints,
    refine_schedule,
)
from .registry import (
    HEURISTIC_NAMES,
    HeuristicResult,
    best_heuristic,
    heuristic_rng,
    parse_heuristic_name,
    solve_all_heuristics,
    solve_heuristic,
    solve_on_sweep,
)
from .search import (
    SEARCH_MODES,
    CheckpointCountSearch,
    candidate_counts,
    search_checkpoint_count,
)

__all__ = [
    "CHECKPOINT_STRATEGIES",
    "CheckpointCountSearch",
    "HEURISTIC_NAMES",
    "HeuristicResult",
    "LINEARIZATION_STRATEGIES",
    "PARAMETERISED_STRATEGIES",
    "RefinementResult",
    "SEARCH_MODES",
    "best_heuristic",
    "candidate_counts",
    "checkpoint_always",
    "checkpoint_by_cost",
    "checkpoint_by_descendant_weight",
    "checkpoint_by_weight",
    "checkpoint_never",
    "checkpoint_periodic",
    "get_selector",
    "greedy_checkpoint_selection",
    "heuristic_rng",
    "linearize",
    "linearize_all",
    "local_search_checkpoints",
    "parse_heuristic_name",
    "refine_schedule",
    "search_checkpoint_count",
    "solve_all_heuristics",
    "solve_heuristic",
    "solve_on_sweep",
]
