"""The fourteen named heuristics of the paper and a convenience solver.

Heuristic names concatenate a linearization strategy and a checkpointing
strategy, e.g. ``"DF-CkptW"`` or ``"RF-CkptC"``.  Following Section 5:

* ``CkptNvr`` and ``CkptAlws`` are only combined with ``DF`` (2 heuristics);
* ``CkptW``, ``CkptC``, ``CkptD`` and ``CkptPer`` are combined with each of
  ``DF``, ``BF``, ``RF`` (12 heuristics);

for a total of 14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.dag import Workflow
from ..core.evaluator import MakespanEvaluation
from ..core.platform import Platform
from ..core.schedule import Schedule
from ..core.sweep import SweepState
from .checkpointing import (
    CHECKPOINT_STRATEGIES,
    PARAMETERISED_STRATEGIES,
    get_selector,
)
from ..core.hashing import stable_seed_words
from .linearization import LINEARIZATION_STRATEGIES, linearize
from .search import search_checkpoint_count

__all__ = [
    "HEURISTIC_NAMES",
    "HeuristicResult",
    "heuristic_rng",
    "parse_heuristic_name",
    "solve_heuristic",
    "solve_on_sweep",
    "solve_all_heuristics",
    "best_heuristic",
]


def _build_names() -> tuple[str, ...]:
    names = ["DF-CkptNvr", "DF-CkptAlws"]
    for linearization in LINEARIZATION_STRATEGIES:
        for strategy in PARAMETERISED_STRATEGIES:
            names.append(f"{linearization}-{strategy}")
    return tuple(names)


#: The fourteen heuristic names used throughout the paper's Section 6.
HEURISTIC_NAMES: tuple[str, ...] = _build_names()


@dataclass(frozen=True)
class HeuristicResult:
    """Schedule produced by a heuristic, with its analytical evaluation."""

    heuristic: str
    linearization: str
    checkpoint_strategy: str
    schedule: Schedule
    evaluation: MakespanEvaluation
    checkpoint_count: int

    @property
    def expected_makespan(self) -> float:
        """Expected makespan (seconds) of the produced schedule."""
        return self.evaluation.expected_makespan

    @property
    def overhead_ratio(self) -> float:
        """The paper's ``T / T_inf`` metric for the produced schedule."""
        return self.evaluation.overhead_ratio


def parse_heuristic_name(name: str) -> tuple[str, str]:
    """Split ``"DF-CkptW"`` into ``("DF", "CkptW")`` with validation."""
    try:
        linearization, strategy = name.split("-", maxsplit=1)
    except ValueError as exc:
        raise ValueError(
            f"heuristic name {name!r} must look like '<linearization>-<strategy>'"
        ) from exc
    if linearization not in LINEARIZATION_STRATEGIES:
        raise ValueError(
            f"unknown linearization {linearization!r} in heuristic {name!r}; "
            f"expected one of {LINEARIZATION_STRATEGIES}"
        )
    if strategy not in CHECKPOINT_STRATEGIES:
        raise ValueError(
            f"unknown checkpointing strategy {strategy!r} in heuristic {name!r}; "
            f"expected one of {CHECKPOINT_STRATEGIES}"
        )
    return linearization, strategy


def heuristic_rng(seed: int, heuristic: str) -> np.random.Generator:
    """Independent random stream for one ``(seed, heuristic)`` pair.

    Sharing one generator across heuristics makes an RF result depend on how
    many random draws happened *before* it — i.e. on which other heuristics
    ran, and in which order.  Deriving each stream from a stable hash of the
    pair removes that coupling: any process (a serial loop, a pool worker, a
    future session) reproduces the exact same stream, which is what lets a
    parallel campaign match the serial one bit-for-bit.
    """
    words = stable_seed_words("heuristic-rng", int(seed), str(heuristic))
    return np.random.default_rng(np.random.SeedSequence(words))


def solve_heuristic(
    workflow: Workflow,
    platform: Platform,
    heuristic: str = "DF-CkptW",
    *,
    rng: np.random.Generator | int | None = None,
    counts: "list[int] | tuple[int, ...] | None" = None,
    backend: str | None = None,
) -> HeuristicResult:
    """Run one named heuristic end to end.

    Parameters
    ----------
    workflow:
        The workflow to schedule (checkpoint / recovery costs must already be
        assigned, e.g. via :meth:`Workflow.with_checkpoint_costs`).
    platform:
        The failure-prone platform.
    heuristic:
        One of :data:`HEURISTIC_NAMES` (other valid combinations such as
        ``"BF-CkptNvr"`` are accepted too, for ablation purposes).
    rng:
        Seed or generator used by the ``RF`` linearization.  An integer
        seed derives the per-``(seed, heuristic)`` stream of
        :func:`heuristic_rng`, so the result matches what a campaign run
        with the same seed produces for this heuristic; pass an explicit
        generator for a raw shared stream.
    counts:
        Candidate checkpoint counts for the parameterised strategies;
        defaults to every ``N`` in ``0 .. n`` (see
        :func:`~repro.heuristics.search.search_checkpoint_count`).
    backend:
        Backend name (``"auto"`` / ``"python"`` / ``"numpy"`` /
        ``"native"``) of the :class:`~repro.core.sweep.SweepState` every
        set is priced on; see
        :meth:`repro.core.backend.BackendRegistry.resolve`.

    Returns
    -------
    HeuristicResult
    """
    linearization, _ = parse_heuristic_name(heuristic)
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        rng = heuristic_rng(int(rng), heuristic)
    order = linearize(workflow, linearization, rng=rng)
    return solve_on_sweep(
        SweepState(workflow, order, platform, backend=backend), heuristic, counts=counts
    )


def solve_on_sweep(
    sweep: SweepState,
    heuristic: str,
    *,
    counts: "list[int] | tuple[int, ...] | None" = None,
) -> HeuristicResult:
    """Run one named heuristic on the linearization ``sweep`` was built for.

    Everything :func:`solve_heuristic` does after it linearizes: the
    checkpoint strategy of ``heuristic`` prices every set on ``sweep``
    (its workflow, order and platform are the instance), so a caller
    solving several heuristics of one linearization builds one sweep for
    all of them, as the campaign runner does for a group.  ``sweep`` must
    be over the heuristic's own linearization; ``counts`` is as for
    :func:`solve_heuristic`.  The result's evaluation is the one-shot
    :func:`~repro.core.evaluator.evaluate_schedule` of its schedule.
    """
    linearization, strategy = parse_heuristic_name(heuristic)
    workflow, order = sweep.workflow, sweep.order

    if strategy in ("CkptNvr", "CkptAlws"):
        selected = (
            frozenset()
            if strategy == "CkptNvr"
            else frozenset(range(workflow.n_tasks))
        )
        schedule = Schedule(workflow, order, selected)
        return HeuristicResult(
            heuristic=heuristic,
            linearization=linearization,
            checkpoint_strategy=strategy,
            schedule=schedule,
            evaluation=sweep.evaluate_schedule(schedule),
            checkpoint_count=len(selected),
        )

    selector = get_selector(strategy)
    search = search_checkpoint_count(
        workflow, order, sweep.platform, selector, counts=counts, sweep=sweep
    )
    return HeuristicResult(
        heuristic=heuristic,
        linearization=linearization,
        checkpoint_strategy=strategy,
        schedule=search.best_schedule,
        evaluation=search.best_evaluation,
        checkpoint_count=len(search.best_schedule.checkpointed),
    )


def solve_all_heuristics(
    workflow: Workflow,
    platform: Platform,
    *,
    heuristics: "tuple[str, ...] | list[str] | None" = None,
    rng: np.random.Generator | int | None = None,
    counts: "list[int] | tuple[int, ...] | None" = None,
    backend: str | None = None,
) -> dict[str, HeuristicResult]:
    """Run several heuristics and return their results keyed by name.

    When ``rng`` is an integer seed, every heuristic draws from its own
    :func:`heuristic_rng` stream, so each result is independent of which
    other heuristics run alongside it.  Any other value (``None``, a
    :class:`numpy.random.Generator`, a ``SeedSequence``, ...) keeps the
    historical behavior of one shared ``np.random.default_rng(rng)``
    stream.
    """
    if heuristics is None:
        heuristics = HEURISTIC_NAMES
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        seed = int(rng)  # solve_heuristic derives the per-heuristic stream
        return {
            name: solve_heuristic(
                workflow, platform, name, rng=seed, counts=counts, backend=backend
            )
            for name in heuristics
        }
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return {
        name: solve_heuristic(
            workflow, platform, name, rng=rng, counts=counts, backend=backend
        )
        for name in heuristics
    }


def best_heuristic(
    workflow: Workflow,
    platform: Platform,
    *,
    heuristics: "tuple[str, ...] | list[str] | None" = None,
    rng: np.random.Generator | int | None = None,
    counts: "list[int] | tuple[int, ...] | None" = None,
    backend: str | None = None,
) -> HeuristicResult:
    """Run several heuristics and return the one with the lowest expected makespan."""
    results = solve_all_heuristics(
        workflow, platform, heuristics=heuristics, rng=rng, counts=counts,
        backend=backend,
    )
    best: HeuristicResult | None = None
    best_value = math.inf
    for result in results.values():
        if result.expected_makespan < best_value:
            best_value = result.expected_makespan
            best = result
    if best is None:
        raise ValueError("no heuristic was evaluated")
    return best
