"""Search over the number of checkpoints ``N`` (Section 5 of the paper).

The parameterised checkpoint strategies (``CkptW``, ``CkptC``, ``CkptD``,
``CkptPer``) fix a total number of checkpoints ``N``, select ``N`` tasks
according to their criterion, and rely on an exhaustive search over
``N = 1 .. n-1`` — each candidate being scored with the polynomial-time
expected-makespan evaluator of Theorem 3 — to pick the best value.

Because the exhaustive search costs ``n - 1`` evaluator calls, this module also
supports *subsampled* searches (an explicit list of candidate counts, or a
geometric grid) which the benchmark harness uses for the largest instances; the
ablation benchmark ``benchmarks/bench_nsearch_ablation.py`` quantifies the
accuracy loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.dag import Workflow
from ..core.evaluator import MakespanEvaluation
from ..core.platform import Platform
from ..core.schedule import Schedule
from ..core.sweep import SweepState
from .checkpointing import Selector

__all__ = ["SEARCH_MODES", "CheckpointCountSearch", "candidate_counts", "search_checkpoint_count"]


@dataclass(frozen=True)
class CheckpointCountSearch:
    """Outcome of the search over the number of checkpoints.

    Attributes
    ----------
    best_schedule:
        Schedule achieving the lowest expected makespan among the candidates.
    best_evaluation:
        Its :class:`~repro.core.evaluator.MakespanEvaluation`.
    best_count:
        The ``N`` value that was requested from the selector for the winner
        (note the selector may return fewer checkpoints, e.g. ``CkptPer``).
    evaluated:
        Mapping ``N -> expected makespan`` for every candidate evaluated.
    """

    best_schedule: Schedule
    best_evaluation: MakespanEvaluation
    best_count: int
    evaluated: dict[int, float]


#: Valid checkpoint-count search modes (see :func:`candidate_counts`).
SEARCH_MODES: tuple[str, ...] = ("exhaustive", "geometric")


def candidate_counts(
    n_tasks: int,
    *,
    mode: str = "exhaustive",
    max_candidates: int = 30,
) -> tuple[int, ...]:
    """Candidate values of ``N`` for the checkpoint-count search.

    Parameters
    ----------
    n_tasks:
        Number of tasks in the workflow.
    mode:
        ``"exhaustive"`` — every value ``1 .. n`` (the paper searches
        ``1 .. n-1``; including ``n`` — i.e. the CkptAlws set — costs one more
        evaluation and guarantees the parameterised strategies never lose to
        the checkpoint-everything baseline);
        ``"geometric"`` — at most ``max_candidates`` values spread geometrically
        over ``1 .. n`` (used to keep large benchmark sweeps affordable).
    max_candidates:
        Budget for the ``"geometric"`` mode.
    """
    if n_tasks <= 1:
        return (0,) if n_tasks == 1 else ()
    upper = n_tasks
    if mode == "exhaustive":
        return tuple(range(1, upper + 1))
    if mode != "geometric":
        raise ValueError(
            f"unknown candidate mode {mode!r}; expected one of {SEARCH_MODES}"
        )
    if max_candidates < 2:
        raise ValueError(
            f"max_candidates must be >= 2 for geometric mode, got {max_candidates}"
        )
    if upper <= max_candidates:
        return tuple(range(1, upper + 1))
    values: set[int] = {1, upper}
    ratio = (upper) ** (1.0 / (max_candidates - 1))
    current = 1.0
    while len(values) < max_candidates:
        current *= ratio
        values.add(min(upper, max(1, round(current))))
        if current >= upper:
            break
    return tuple(sorted(values))


def instance_sweep(
    workflow: Workflow,
    order: Sequence[int],
    platform: Platform,
    *,
    backend: str | None = None,
    sweep: SweepState | None = None,
) -> SweepState:
    """``sweep``, checked against the instance, or a fresh
    :class:`~repro.core.sweep.SweepState` on ``backend``.

    Raises :class:`ValueError` for a sweep over another workflow object,
    linearization or platform, or for one passed with ``backend=``.
    """
    if sweep is None:
        return SweepState(workflow, order, platform, backend=backend)
    if backend is not None:
        raise ValueError("pass backend= or sweep=, not both: a sweep fixes its backend")
    if (
        sweep.workflow is not workflow
        or sweep.order != tuple(order)
        or sweep.platform != platform
    ):
        raise ValueError(
            "sweep was built for another workflow, linearization or platform "
            "than this solve"
        )
    return sweep


def search_checkpoint_count(
    workflow: Workflow,
    order: Sequence[int],
    platform: Platform,
    selector: Selector,
    *,
    counts: Iterable[int] | None = None,
    include_zero: bool = True,
    backend: str | None = None,
    sweep: SweepState | None = None,
) -> CheckpointCountSearch:
    """Find the checkpoint count minimising the expected makespan.

    Parameters
    ----------
    workflow, order, platform:
        The instance: workflow, linearization, and failure model.
    selector:
        A parameterised checkpoint selector ``(workflow, order, N) -> set``.
    counts:
        Candidate values of ``N``; defaults to every ``N`` in ``0 .. n``
        (the exhaustive :func:`candidate_counts`, plus 0 by
        ``include_zero``).
    include_zero:
        Also evaluate the empty checkpoint set (``N = 0``).  The paper's search
        runs over ``1 .. n-1`` only, but including 0 makes the heuristics
        degrade gracefully on failure-free platforms; it adds a single extra
        evaluation.
    backend:
        Backend name of the :class:`~repro.core.sweep.SweepState` built when
        no ``sweep`` is given; see
        :meth:`repro.core.backend.BackendRegistry.resolve`.
    sweep:
        A :class:`~repro.core.sweep.SweepState` over this ``workflow``
        object, ``order`` and ``platform`` (see :func:`instance_sweep`);
        the campaign runner shares one across a group.  Every distinct
        candidate is priced on it without task times, then the winner with
        them: exactly the one-shot
        :func:`~repro.core.evaluator.evaluate_schedule` result.

    Returns
    -------
    CheckpointCountSearch
    """
    order = tuple(order)
    sweep = instance_sweep(workflow, order, platform, backend=backend, sweep=sweep)
    if counts is None:
        counts = candidate_counts(workflow.n_tasks, mode="exhaustive")
    counts = [int(c) for c in counts]
    if include_zero and 0 not in counts:
        counts = [0] + counts

    # Materialize the candidate sets first (deduplicated — e.g. CkptPer often
    # returns the same set for several N), then price every distinct set
    # through one incremental sweep over the shared linearization: in count
    # order, a nested selector's consecutive sets differ by one added
    # checkpoint, so each evaluation reuses everything below the insertion
    # point.  Only the makespans are needed to rank candidates; dropping the
    # per-position vectors keeps the sweep at O(n) retained floats.
    selected_sets: list[frozenset[int]] = []
    distinct: dict[frozenset[int], int] = {}
    for count in counts:
        if count < 0 or count > workflow.n_tasks:
            raise ValueError(f"invalid checkpoint count {count}")
        selected = frozenset() if count == 0 else frozenset(selector(workflow, order, count))
        selected_sets.append(selected)
        if selected not in distinct:
            distinct[selected] = len(distinct)
    evaluations = [
        sweep.evaluate(selected, keep_task_times=False) for selected in distinct
    ]

    best_selected: frozenset[int] | None = None
    best_count = -1
    best_value = math.inf
    evaluated: dict[int, float] = {}
    first_for_set: set[frozenset[int]] = set()

    for count, selected in zip(counts, selected_sets):
        value = evaluations[distinct[selected]].expected_makespan
        evaluated[count] = value
        if selected in first_for_set:
            continue  # duplicate set: keep the first count as the winner's N
        first_for_set.add(selected)
        if value < best_value:
            best_value = value
            best_selected = selected
            best_count = count

    if best_selected is None:
        raise ValueError("no candidate checkpoint count was evaluated")
    best_schedule = Schedule(workflow, order, best_selected)
    return CheckpointCountSearch(
        best_schedule=best_schedule,
        best_evaluation=sweep.evaluate_schedule(best_schedule),
        best_count=best_count,
        evaluated=evaluated,
    )
