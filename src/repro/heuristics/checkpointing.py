"""Checkpoint-selection strategies (Section 5 of the paper).

Given a linearized workflow, a checkpointing strategy decides which task
outputs to save.  The paper proposes:

* **CkptNvr** — never checkpoint (baseline);
* **CkptAlws** — checkpoint every task (baseline);
* **CkptW** — checkpoint the ``N`` tasks with the largest weights
  (longest computations are the most expensive to lose);
* **CkptC** — checkpoint the ``N`` tasks with the smallest checkpoint costs;
* **CkptD** — checkpoint the ``N`` tasks with the largest total successor
  weight :math:`d_i` (heavy downstream work is most exposed to losing their
  input);
* **CkptPer** — "periodic" checkpointing: given the linearization and a
  failure-free execution, checkpoint the task that completes the earliest after
  time :math:`x \\cdot W / N` for ``x = 1 .. N-1`` where ``W`` is the total
  weight.  This ignores the DAG structure on purpose (it is the classical
  divisible-load policy) and the paper shows it behaves poorly.

For the parameterised strategies (W, C, D, Per), the number of checkpoints
``N`` is chosen by an exhaustive (or subsampled) search over ``1 .. n-1``
using the Theorem-3 evaluator — see :mod:`repro.heuristics.search`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.dag import Workflow

__all__ = [
    "CHECKPOINT_STRATEGIES",
    "PARAMETERISED_STRATEGIES",
    "checkpoint_never",
    "checkpoint_always",
    "checkpoint_by_weight",
    "checkpoint_by_cost",
    "checkpoint_by_descendant_weight",
    "checkpoint_periodic",
    "get_selector",
]

#: All checkpoint strategy names, in the paper's notation.
CHECKPOINT_STRATEGIES = (
    "CkptNvr",
    "CkptAlws",
    "CkptW",
    "CkptC",
    "CkptD",
    "CkptPer",
)

#: Strategies that take the number of checkpoints ``N`` as a parameter and
#: therefore require the search of :mod:`repro.heuristics.search`.
PARAMETERISED_STRATEGIES = ("CkptW", "CkptC", "CkptD", "CkptPer")

#: Type of a parameterised selector: (workflow, order, N) -> checkpoint set.
Selector = Callable[[Workflow, Sequence[int], int], frozenset[int]]


def _validate_count(workflow: Workflow, count: int) -> int:
    if not isinstance(count, int) or isinstance(count, bool):
        raise TypeError("checkpoint count must be an int")
    if count < 0:
        raise ValueError("checkpoint count must be >= 0")
    return min(count, workflow.n_tasks)


def checkpoint_never(workflow: Workflow, order: Sequence[int] = (), count: int = 0) -> frozenset[int]:
    """``CkptNvr``: checkpoint nothing."""
    return frozenset()


def checkpoint_always(
    workflow: Workflow, order: Sequence[int] = (), count: int = 0
) -> frozenset[int]:
    """``CkptAlws``: checkpoint every task."""
    return frozenset(range(workflow.n_tasks))


# The ranked selectors sort ``range(n)`` on one list of keys with a C-level
# key function.  Sorting is stable, so ties keep ascending index order; the
# "largest first" rankings use ``reverse=True``, which keeps that order too.
def checkpoint_by_weight(
    workflow: Workflow, order: Sequence[int], count: int
) -> frozenset[int]:
    """``CkptW``: checkpoint the ``count`` tasks with the largest weights."""
    count = _validate_count(workflow, count)
    weights = [task.weight for task in workflow.tasks]
    ranked = sorted(range(len(weights)), key=weights.__getitem__, reverse=True)
    return frozenset(ranked[:count])


def checkpoint_by_cost(
    workflow: Workflow, order: Sequence[int], count: int
) -> frozenset[int]:
    """``CkptC``: checkpoint the ``count`` tasks with the smallest checkpoint costs."""
    count = _validate_count(workflow, count)
    costs = [task.checkpoint_cost for task in workflow.tasks]
    ranked = sorted(range(len(costs)), key=costs.__getitem__)
    return frozenset(ranked[:count])


def checkpoint_by_descendant_weight(
    workflow: Workflow, order: Sequence[int], count: int
) -> frozenset[int]:
    """``CkptD``: checkpoint the ``count`` tasks with the heaviest direct successors.

    The priority is :math:`d_i`, the sum of the weights of the task's direct
    successors ("checkpoint first the tasks whose successors are more likely to
    fail", i.e. whose downstream work is the largest).
    """
    count = _validate_count(workflow, count)
    outweights = workflow.outweights()
    ranked = sorted(range(len(outweights)), key=outweights.__getitem__, reverse=True)
    return frozenset(ranked[:count])


def checkpoint_periodic(
    workflow: Workflow, order: Sequence[int], count: int
) -> frozenset[int]:
    """``CkptPer``: checkpoint the first task completing after each period boundary.

    With ``W`` the total weight of the workflow and a failure-free execution of
    the given linearization, the task completing the earliest after
    :math:`x \\cdot W / count` is checkpointed, for ``x = 1 .. count-1`` (so at
    most ``count - 1`` checkpoints are produced, exactly like slicing a
    divisible application into ``count`` chunks).
    """
    count = _validate_count(workflow, count)
    order = tuple(order)
    if sorted(order) != list(range(workflow.n_tasks)):
        raise ValueError("order must be a permutation of all task indices")
    if count <= 1 or workflow.n_tasks == 0:
        return frozenset()
    total = workflow.total_weight
    if total == 0.0:
        return frozenset()
    period = total / count

    # Failure-free completion time of every task along the linearization
    # (checkpoint costs are not included: the boundaries slice the *work*).
    tasks = workflow.tasks
    completion = []
    clock = 0.0
    for task_index in order:
        clock += tasks[task_index].weight
        completion.append(clock)

    selected: set[int] = set()
    boundary_index = 1
    for position, finish in enumerate(completion):
        if boundary_index >= count:
            break
        if finish >= boundary_index * period - 1e-12:
            selected.add(order[position])
            # Several boundaries may fall within a single long task; they all
            # collapse onto that task (it is only checkpointed once).
            while boundary_index < count and finish >= boundary_index * period - 1e-12:
                boundary_index += 1
    return frozenset(selected)


_SELECTORS: dict[str, Selector] = {
    "CkptNvr": checkpoint_never,
    "CkptAlws": checkpoint_always,
    "CkptW": checkpoint_by_weight,
    "CkptC": checkpoint_by_cost,
    "CkptD": checkpoint_by_descendant_weight,
    "CkptPer": checkpoint_periodic,
}


def get_selector(strategy: str) -> Selector:
    """Return the selector callable for a strategy name (paper notation)."""
    try:
        return _SELECTORS[strategy]
    except KeyError as exc:
        raise ValueError(
            f"unknown checkpointing strategy {strategy!r}; expected one of "
            f"{CHECKPOINT_STRATEGIES}"
        ) from exc
