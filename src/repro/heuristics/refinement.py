"""Schedule refinement: greedy construction and local search on checkpoint sets.

The paper's parameterised heuristics (CkptW, CkptC, CkptD, CkptPer) rank tasks
by a static criterion and only search over *how many* of them to checkpoint.
Because the Theorem-3 evaluator prices any schedule exactly, two natural
extensions become possible — both are listed as obvious follow-ups enabled by
the paper's main result and are used here as ablations:

* **Greedy construction** (:func:`greedy_checkpoint_selection`): start from the
  empty checkpoint set and repeatedly add the single checkpoint whose addition
  reduces the expected makespan the most, until no addition helps.  This is the
  classical marginal-gain heuristic, with the evaluator as the oracle.
* **Local search** (:func:`local_search_checkpoints`): starting from any
  schedule (typically the output of a paper heuristic), repeatedly toggle the
  single checkpoint (add or remove) that yields the best improvement, until a
  local optimum is reached.

Both are deterministic, anytime (they can be budget-limited), and can only
improve the expected makespan of the schedule they start from — properties the
test-suite asserts.  They cost ``O(n)`` evaluator calls per step, so they are
noticeably more expensive than the paper's heuristics; the ablation benchmark
``benchmarks/bench_refinement_ablation.py`` quantifies the accuracy/cost
trade-off.  Both are one hill-climb whose every evaluation, the start and
the final schedule included, is served by one
:class:`~repro.core.sweep.SweepState`: on the array backends (numpy and
native) consecutive single-toggle probes only recompute the suffix of the
instance they can actually change
(``benchmarks/bench_sweep_incremental.py`` measures the saving).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..core.dag import Workflow
from ..core.evaluator import MakespanEvaluation
from ..core.platform import Platform
from ..core.schedule import Schedule
from ..core.sweep import SweepState

__all__ = [
    "RefinementResult",
    "greedy_checkpoint_selection",
    "local_search_checkpoints",
    "refine_schedule",
]


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of a greedy construction or local search.

    Attributes
    ----------
    schedule:
        The final (possibly improved) schedule.
    evaluation:
        Its analytical evaluation.
    initial_expected_makespan:
        Expected makespan of the starting schedule.
    steps:
        Number of accepted moves (checkpoint additions / removals).
    evaluations:
        Number of evaluator calls spent.  Every probed candidate counts as
        exactly one call whether it was priced incrementally (the numpy
        sweep engine) or eagerly (the python reference), so the ablation
        benchmarks compare like for like across backends.
    """

    schedule: Schedule
    evaluation: MakespanEvaluation
    initial_expected_makespan: float
    steps: int
    evaluations: int

    @property
    def expected_makespan(self) -> float:
        """Expected makespan of the refined schedule."""
        return self.evaluation.expected_makespan

    @property
    def improvement(self) -> float:
        """Absolute reduction of the expected makespan (>= 0)."""
        return max(0.0, self.initial_expected_makespan - self.expected_makespan)

    @property
    def relative_improvement(self) -> float:
        """Relative reduction of the expected makespan (0 when already optimal)."""
        if self.initial_expected_makespan == 0.0:
            return 0.0
        return self.improvement / self.initial_expected_makespan


def _best_single_change(
    sweep: SweepState,
    current: frozenset[int],
    current_value: float,
    *,
    allow_remove: bool,
    candidates: Sequence[int] | None,
) -> tuple[frozenset[int] | None, float, int]:
    """Evaluate all single-checkpoint toggles (additions, and removals when
    ``allow_remove``); return the best improving one.

    The toggles are probed through the shared :class:`SweepState`:
    consecutive probes differ by two checkpoints (revert the previous toggle,
    apply the next), so each evaluation recomputes only the suffix behind the
    lower of the two positions.  Probing in *descending* position order makes
    that suffix the one behind the freshly applied toggle alone (the revert
    always sits higher), which keeps the total invalidated work of a round at
    its minimum.  Both backends probe in the same order, so tie-breaking is
    backend-independent.
    """
    pool = range(sweep.workflow.n_tasks) if candidates is None else candidates
    position = {task: pos for pos, task in enumerate(sweep.order)}
    moves: list[tuple[int, frozenset[int]]] = []
    for task in pool:
        if task in current:
            if not allow_remove:
                continue
            moves.append((position[task], current - {task}))
        else:
            # Even a free checkpoint must be evaluated to know whether it
            # helps, so every allowed toggle enters the sweep.
            moves.append((position[task], current | {task}))
    if not moves:
        return None, current_value, 0
    moves.sort(key=lambda move: -move[0])
    best_set: frozenset[int] | None = None
    best_value = current_value
    for _, candidate in moves:
        value = sweep.evaluate(candidate, keep_task_times=False).expected_makespan
        if value < best_value - 1e-12:
            best_value = value
            best_set = candidate
    return best_set, best_value, len(moves)


def _hill_climb(
    schedule: Schedule,
    platform: Platform,
    *,
    allow_remove: bool,
    max_steps: int | None,
    candidates: Sequence[int] | None,
    backend: str | None,
) -> RefinementResult:
    """Apply the best improving single toggle until none helps or
    ``max_steps`` moves were accepted, pricing everything on one sweep."""
    workflow, order = schedule.workflow, schedule.order
    # One sweep state serves every round: the probes of round r differ from
    # the probes of round r-1 by a handful of toggles, so the incremental
    # engine keeps reusing its prefixes across the whole climb.
    sweep = SweepState(workflow, order, platform, backend=backend)
    current = schedule.checkpointed
    initial_value = sweep.evaluate(current, keep_task_times=False).expected_makespan
    current_value = initial_value
    steps = 0
    total_evaluations = 1
    limit = math.inf if max_steps is None else int(max_steps)
    while steps < limit:
        best_set, best_value, n_evals = _best_single_change(
            sweep,
            current,
            current_value,
            allow_remove=allow_remove,
            candidates=candidates,
        )
        total_evaluations += n_evals
        if best_set is None:
            break
        current = best_set
        current_value = best_value
        steps += 1

    final = Schedule(workflow, order, current)
    return RefinementResult(
        schedule=final,
        evaluation=sweep.evaluate_schedule(final),
        initial_expected_makespan=initial_value,
        steps=steps,
        evaluations=total_evaluations,
    )


def greedy_checkpoint_selection(
    workflow: Workflow,
    order: Sequence[int],
    platform: Platform,
    *,
    max_checkpoints: int | None = None,
    candidates: Sequence[int] | None = None,
    backend: str | None = None,
) -> RefinementResult:
    """Greedy marginal-gain construction of a checkpoint set.

    Starting from the empty set, repeatedly add the checkpoint whose addition
    decreases the expected makespan the most; stop when no addition improves
    the makespan or when ``max_checkpoints`` have been placed.  This is
    :func:`local_search_checkpoints` started from the empty set with
    removals off.

    Parameters
    ----------
    workflow, order, platform:
        The instance; ``order`` must be a valid linearization.
    max_checkpoints:
        Optional budget on the number of checkpoints (``None`` = unbounded).
    candidates:
        Optional subset of tasks allowed to be checkpointed.
    backend:
        Backend name for the toggle sweep (see
        :meth:`repro.core.backend.BackendRegistry.resolve`).

    Returns
    -------
    RefinementResult
    """
    return _hill_climb(
        Schedule(workflow, order, frozenset()),
        platform,
        allow_remove=False,
        max_steps=max_checkpoints,
        candidates=candidates,
        backend=backend,
    )


def local_search_checkpoints(
    schedule: Schedule,
    platform: Platform,
    *,
    max_steps: int | None = None,
    candidates: Sequence[int] | None = None,
    backend: str | None = None,
) -> RefinementResult:
    """Hill-climb on the checkpoint set by single add/remove moves.

    Starting from ``schedule``, repeatedly apply the single checkpoint addition
    or removal that reduces the expected makespan the most; stop at a local
    optimum (no single toggle improves) or after ``max_steps`` accepted moves.
    The linearization is left untouched.

    Returns
    -------
    RefinementResult
        Never worse than the input schedule.
    """
    return _hill_climb(
        schedule,
        platform,
        allow_remove=True,
        max_steps=max_steps,
        candidates=candidates,
        backend=backend,
    )


def refine_schedule(
    schedule: Schedule,
    platform: Platform,
    *,
    max_steps: int | None = None,
    backend: str | None = None,
) -> Schedule:
    """Convenience wrapper returning only the locally improved schedule."""
    return local_search_checkpoints(
        schedule, platform, max_steps=max_steps, backend=backend
    ).schedule
