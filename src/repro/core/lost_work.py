"""Lost-work sets :math:`T^{\\downarrow k}_i` and the :math:`W^i_k / R^i_k` arrays.

This module implements Algorithm 1 (``FindWikRik``) from Section 4.2 of the
paper.  Given a schedule (a linearization of the DAG plus the set of
checkpointed tasks), it computes, for every pair of positions ``k <= i``:

* ``W[k][i]`` — total weight of the *non-checkpointed* tasks whose output was
  lost by a failure during :math:`X_k` (the interval that ends with the
  completion of the ``k``-th task) and is still needed to execute the ``i``-th
  task, i.e. those tasks must be re-executed;
* ``R[k][i]`` — total recovery cost of the *checkpointed* tasks in the same
  situation, i.e. those tasks must be recovered from their checkpoint.

A task ``T_j`` (position ``j < k``) belongs to :math:`T^{\\downarrow k}_i` when

1. it is a direct predecessor of the ``i``-th task, or a direct predecessor of
   a non-checkpointed member of :math:`T^{\\downarrow k}_i` (its output is
   needed, transitively, because a non-checkpointed intermediate must be
   re-executed), and
2. it does not belong to :math:`T^{\\downarrow k}_l` for any ``k <= l < i``
   (otherwise it was already recovered / re-executed while processing an
   earlier task after the failure, so its output is back in memory).

Positions are **1-based** in this module to match the paper's indices
(:math:`T_1 \\dots T_n`); the arrays have shape ``(n + 1) x (n + 1)`` and the
row ``k = 0`` is identically zero (no failure has occurred yet, nothing is
lost).

Two implementations are provided:

* :func:`compute_lost_work` — the production implementation, which keeps the
  exact visit semantics of Algorithm 1 but replaces the ``tab_k`` matrix (and
  its O(n) clearing loop) by a per-``k`` "already regenerated" set, making the
  whole computation ``O(n \\cdot |E|)`` for sparse DAGs instead of
  ``O(n^4)``;
* the reference transcription of Algorithm 1 used by the tests lives in
  ``tests/test_lost_work_reference.py`` and is checked to produce identical
  arrays on randomized workloads.

The membership sets :math:`T^{\\downarrow k}_i` are quadratic memory that only
tests and trace tooling read, so they are **opt-in**: pass
``keep_members=True`` to :func:`compute_lost_work` to populate
:attr:`LostWork.members`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .dag import Workflow
from .schedule import Schedule

__all__ = ["LostWork", "compute_lost_work", "lost_and_needed_tasks"]


@dataclass(frozen=True)
class LostWork:
    """The :math:`W^i_k` and :math:`R^i_k` arrays of a schedule.

    Attributes
    ----------
    work:
        ``work[k][i]`` is :math:`W^i_k` (1-based positions, row 0 all zeros).
    recovery:
        ``recovery[k][i]`` is :math:`R^i_k`.
    members:
        ``members[k][i]`` is the frozenset of *positions* ``j`` in
        :math:`T^{\\downarrow k}_i` (useful for tests, traces and debugging).
        ``None`` unless the arrays were computed with ``keep_members=True`` —
        the sets cost quadratic memory and nothing on the production paths
        reads them.
    """

    work: tuple[tuple[float, ...], ...]
    recovery: tuple[tuple[float, ...], ...]
    members: tuple[tuple[frozenset[int], ...], ...] | None = None

    @property
    def n_tasks(self) -> int:
        """Number of scheduled tasks."""
        return len(self.work) - 1

    def w(self, k: int, i: int) -> float:
        """:math:`W^i_k` using the paper's (k, i) order, 1-based positions."""
        return self.work[k][i]

    def r(self, k: int, i: int) -> float:
        """:math:`R^i_k` using the paper's (k, i) order, 1-based positions."""
        return self.recovery[k][i]

    def lost_set(self, k: int, i: int) -> frozenset[int]:
        """Positions of the members of :math:`T^{\\downarrow k}_i`."""
        if self.members is None:
            raise ValueError(
                "membership sets were not kept; use "
                "compute_lost_work(schedule, keep_members=True)"
            )
        return self.members[k][i]


def _position_tables(
    workflow: Workflow, order: Sequence[int]
) -> tuple[dict[int, int], list[float], list[float], list[tuple[int, ...]]]:
    """Per-position weight / recovery-cost / predecessor tables (1-based).

    These depend only on the workflow and linearization — not on the
    checkpoint set — so batch callers (:mod:`repro.core.sweep`) compute
    them once and reuse them across many checkpoint sets.
    """
    n = len(order)
    position = {task: pos + 1 for pos, task in enumerate(order)}
    weight = [0.0] * (n + 1)
    recovery_cost = [0.0] * (n + 1)
    predecessors: list[tuple[int, ...]] = [()] * (n + 1)
    # Indexed reads instead of the task()/predecessors() accessors: callers
    # hand in validated orders (Schedule / SweepState check them first), and
    # the per-index validation is measurable at the rate batch evaluation
    # constructs these tables.
    tasks = workflow.tasks
    preds = workflow._pred
    for pos_zero, task_index in enumerate(order):
        pos = pos_zero + 1
        task = tasks[task_index]
        weight[pos] = task.weight
        recovery_cost[pos] = task.recovery_cost
        predecessors[pos] = tuple(position[p] for p in preds[task_index])
    return position, weight, recovery_cost, predecessors


def _fill_rows(
    n: int,
    weight: Sequence[float],
    recovery_cost: Sequence[float],
    checkpointed: Sequence[bool],
    predecessors: Sequence[tuple[int, ...]],
    work_rows: Any,
    recovery_rows: Any,
    member_rows: Any = None,
) -> None:
    """Algorithm-1 fill of ``work_rows[k][i]`` / ``recovery_rows[k][i]``.

    All inputs are 1-based position tables; the row containers only need to
    support ``rows[k][i] = value`` (lists of lists and NumPy matrices both
    do).  ``member_rows`` is filled with frozensets when provided.
    """
    for k in range(1, n + 1):
        # ``regenerated[j]`` is True once position j (< k) has been placed in
        # some T↓k_l with l < current i: its output is back in memory and it
        # must not be charged again (this replaces the 0-markers of Algorithm 1).
        regenerated = [False] * (n + 1)
        for i in range(k, n + 1):
            lost_w = 0.0
            lost_r = 0.0
            members: list[int] | None = [] if member_rows is not None else None
            # Depth-first traversal from T_i through predecessors, stopping at
            # positions >= k (output recomputed after the failure, still in
            # memory), at already-regenerated positions, and below checkpointed
            # tasks (they are recovered, not re-executed, so their own inputs
            # are not needed).
            stack = list(predecessors[i])
            while stack:
                j = stack.pop()
                if j >= k:
                    continue  # executed after the failure: output in memory
                if regenerated[j]:
                    continue  # already recovered / re-executed for an earlier task
                regenerated[j] = True
                if members is not None:
                    members.append(j)
                if checkpointed[j]:
                    lost_r += recovery_cost[j]
                else:
                    lost_w += weight[j]
                    stack.extend(predecessors[j])
            work_rows[k][i] = lost_w
            recovery_rows[k][i] = lost_r
            if member_rows is not None:
                member_rows[k][i] = frozenset(members)


def compute_lost_work(schedule: Schedule, *, keep_members: bool = False) -> LostWork:
    """Compute all :math:`W^i_k`, :math:`R^i_k` values for a schedule.

    Parameters
    ----------
    schedule:
        The schedule (linearization + checkpoint set) to analyse.
    keep_members:
        Also record the membership sets :math:`T^{\\downarrow k}_i`
        (quadratic memory; read only by tests and trace tooling).

    Returns
    -------
    LostWork
        Arrays indexed by 1-based positions, ``work[k][i]`` / ``recovery[k][i]``
        defined for ``1 <= k <= i <= n`` (and zero elsewhere).
    """
    workflow = schedule.workflow
    order = schedule.order
    n = len(order)

    _, weight, recovery_cost, predecessors = _position_tables(workflow, order)
    checkpointed = [False] * (n + 1)
    for pos_zero, task_index in enumerate(order):
        checkpointed[pos_zero + 1] = schedule.is_checkpointed(task_index)

    work_rows: list[list[float]] = [[0.0] * (n + 1) for _ in range(n + 1)]
    recovery_rows: list[list[float]] = [[0.0] * (n + 1) for _ in range(n + 1)]
    member_rows: list[list[frozenset[int]]] | None = None
    if keep_members:
        member_rows = [[frozenset()] * (n + 1) for _ in range(n + 1)]

    _fill_rows(
        n, weight, recovery_cost, checkpointed, predecessors,
        work_rows, recovery_rows, member_rows,
    )

    return LostWork(
        work=tuple(tuple(row) for row in work_rows),
        recovery=tuple(tuple(row) for row in recovery_rows),
        members=(
            tuple(tuple(row) for row in member_rows) if member_rows is not None else None
        ),
    )


def lost_and_needed_tasks(
    schedule: Schedule,
    target_position: int,
    in_memory_positions: frozenset[int] | set[int],
) -> tuple[list[int], float, float]:
    """Dynamic variant of the T↓ closure used by the Monte-Carlo engine.

    Given the set of positions whose output currently sits in memory, return
    the positions that must be recovered or re-executed before the task at
    ``target_position`` (1-based) can run, together with the total re-execution
    weight and total recovery cost.  The returned list is in topological order
    (ancestors first) so the simulator can execute it as written.

    Unlike :func:`compute_lost_work`, this helper makes no assumption about
    *when* the last failure happened: it just inspects the memory state, which
    is what a runtime system would do.
    """
    workflow = schedule.workflow
    order = schedule.order
    n = len(order)
    if not 1 <= target_position <= n:
        raise ValueError(f"target_position must be within 1..{n}")
    position = {task: pos + 1 for pos, task in enumerate(order)}

    def preds_of(pos: int) -> tuple[int, ...]:
        return tuple(position[p] for p in workflow.predecessors(order[pos - 1]))

    # Iterative reachability: walk up from the target through predecessors whose
    # output is not in memory; stop below checkpointed tasks (they are recovered
    # from disk, so their own inputs are not needed).
    found: set[int] = set()
    stack = [j for j in preds_of(target_position) if j not in in_memory_positions]
    while stack:
        j = stack.pop()
        if j in found or j in in_memory_positions:
            continue
        found.add(j)
        if not schedule.is_checkpointed(order[j - 1]):
            stack.extend(
                p for p in preds_of(j) if p not in in_memory_positions and p not in found
            )

    # Positions form a valid topological order of the linearized DAG, so sorting
    # by position yields an executable recovery plan (ancestors first).
    needed = sorted(found)
    total_work = 0.0
    total_recovery = 0.0
    for j in needed:
        task_index = order[j - 1]
        task = workflow.task(task_index)
        if schedule.is_checkpointed(task_index):
            total_recovery += task.recovery_cost
        else:
            total_work += task.weight
    return needed, total_work, total_recovery
