"""DAG linearization strategies (Section 5 of the paper).

Three strategies are proposed by the paper to turn the DAG into a sequence of
tasks (all tasks run on the whole platform, so they execute one after the
other):

* **DF** (depth-first): after a task completes, prefer executing one of the
  tasks it just made ready — "if some work can be done that depends on the most
  recently completed work then it should be done", which limits the amount of
  un-checkpointed work at risk.
* **BF** (breadth-first): process the DAG level by level.
* **RF** (random-first): pick any ready task uniformly at random.

For DF and BF, ready tasks are prioritised by **decreasing outweight** (the sum
of the weights of their direct successors): tasks with "heavy" subtrees should
be executed first.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from ..core.dag import Workflow

__all__ = ["LINEARIZATION_STRATEGIES", "linearize", "linearize_all"]

#: Names of the supported strategies, in the paper's notation.
LINEARIZATION_STRATEGIES = ("DF", "BF", "RF")


def _check_complete(order: list[int], workflow: Workflow) -> tuple[int, ...]:
    if len(order) != workflow.n_tasks:
        raise RuntimeError(
            "internal error: linearization did not cover every task "
            f"({len(order)}/{workflow.n_tasks})"
        )
    return tuple(order)


def _linearize_depth_first(workflow: Workflow, priorities: Sequence[float]) -> tuple[int, ...]:
    """Depth-first linearization with outweight priorities.

    A stack of ready tasks is maintained; when a task completes, its successors
    that become ready are pushed in increasing priority order so that the
    highest-priority one is popped (and hence executed) first.  This always
    yields a valid topological order and follows the most recently opened
    branch as deeply as possible.
    """
    n = workflow.n_tasks
    in_deg = [workflow.in_degree(i) for i in range(n)]
    # Initial ready tasks (sources), pushed so that the highest priority is on top.
    sources = sorted(
        (i for i in range(n) if in_deg[i] == 0),
        key=lambda i: (priorities[i], -i),
    )
    stack: list[int] = list(sources)
    order: list[int] = []
    while stack:
        node = stack.pop()
        order.append(node)
        newly_ready = []
        for succ in workflow.successors(node):
            in_deg[succ] -= 1
            if in_deg[succ] == 0:
                newly_ready.append(succ)
        newly_ready.sort(key=lambda i: (priorities[i], -i))
        stack.extend(newly_ready)
    return _check_complete(order, workflow)


def _linearize_breadth_first(workflow: Workflow, priorities: Sequence[float]) -> tuple[int, ...]:
    """Breadth-first linearization with outweight priorities.

    Ready tasks are consumed from a FIFO queue; tasks made ready by the same
    completion are enqueued by decreasing priority.
    """
    n = workflow.n_tasks
    in_deg = [workflow.in_degree(i) for i in range(n)]
    initial = sorted(
        (i for i in range(n) if in_deg[i] == 0),
        key=lambda i: (-priorities[i], i),
    )
    queue: deque[int] = deque(initial)
    order: list[int] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        newly_ready = []
        for succ in workflow.successors(node):
            in_deg[succ] -= 1
            if in_deg[succ] == 0:
                newly_ready.append(succ)
        newly_ready.sort(key=lambda i: (-priorities[i], i))
        queue.extend(newly_ready)
    return _check_complete(order, workflow)


def _linearize_random(workflow: Workflow, rng: np.random.Generator) -> tuple[int, ...]:
    """Random linearization: pick uniformly among the ready tasks."""
    n = workflow.n_tasks
    in_deg = [workflow.in_degree(i) for i in range(n)]
    ready = [i for i in range(n) if in_deg[i] == 0]
    order: list[int] = []
    while ready:
        pick = int(rng.integers(len(ready)))
        node = ready.pop(pick)
        order.append(node)
        for succ in workflow.successors(node):
            in_deg[succ] -= 1
            if in_deg[succ] == 0:
                ready.append(succ)
    return _check_complete(order, workflow)


def linearize(
    workflow: Workflow,
    strategy: str = "DF",
    *,
    rng: np.random.Generator | int | None = None,
) -> tuple[int, ...]:
    """Linearize a workflow with one of the paper's strategies.

    Parameters
    ----------
    workflow:
        The DAG to linearize.
    strategy:
        ``"DF"``, ``"BF"`` or ``"RF"`` (case-insensitive).
    rng:
        Random generator or seed, only used by ``"RF"``.

    Returns
    -------
    tuple[int, ...]
        A valid topological order of all task indices.
    """
    strategy = strategy.upper()
    if strategy not in LINEARIZATION_STRATEGIES:
        raise ValueError(
            f"unknown linearization strategy {strategy!r}; "
            f"expected one of {LINEARIZATION_STRATEGIES}"
        )
    if workflow.n_tasks == 0:
        return ()
    if strategy == "RF":
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return _linearize_random(workflow, rng)
    priorities = workflow.outweights()
    if strategy == "DF":
        return _linearize_depth_first(workflow, priorities)
    return _linearize_breadth_first(workflow, priorities)


def linearize_all(
    workflow: Workflow, *, rng: np.random.Generator | int | None = None
) -> dict[str, tuple[int, ...]]:
    """Convenience helper returning one linearization per strategy."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return {
        strategy: linearize(workflow, strategy, rng=rng)
        for strategy in LINEARIZATION_STRATEGIES
    }
