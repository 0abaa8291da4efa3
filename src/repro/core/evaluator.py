"""Expected-makespan evaluation of a schedule (Theorem 3 of the paper).

This is the paper's main theoretical contribution: a polynomial-time algorithm
that computes the *exact* expected makespan of a given schedule (linearization
plus checkpoint set) of an arbitrary DAG under exponentially distributed
failures with constant downtime.

Notation (Section 4.2)
----------------------
* :math:`X_i` — time elapsed between the completions of the ``(i-1)``-th and
  ``i``-th scheduled tasks; the expected makespan is
  :math:`E[\\sum_i X_i] = \\sum_i E[X_i]`.
* :math:`Z^i_k` — event "the last failure before the ``i``-th task completes
  its predecessors' interval happened during :math:`X_k`" (``k = 0`` means no
  failure at all since the execution started).  The :math:`Z^i_k`,
  ``0 <= k <= i-1`` partition the probability space, hence
  :math:`E[X_i] = \\sum_k P(Z^i_k) E[X_i | Z^i_k]`.
* :math:`W^i_k`, :math:`R^i_k` — re-execution work and recovery cost needed by
  the ``i``-th task when :math:`Z^i_k` holds (see
  :mod:`repro.core.lost_work`).

The three properties proved in the paper and implemented here are:

* **[A]** for ``0 <= k < i - 1``:
  :math:`P(Z^i_k) = e^{-\\lambda \\sum_{j=k+1}^{i-1}(W^j_k + R^j_k + w_j +
  \\delta_j c_j)} \\cdot P(Z^{k+1}_k)`;
* **[B]** :math:`P(Z^i_{i-1}) = 1 - \\sum_{k=0}^{i-2} P(Z^i_k)`;
* **[C]** :math:`E[X_i | Z^i_k] = E[t(W^i_k + R^i_k + w_i;\\ \\delta_i c_i;\\
  W^i_i + R^i_i - (W^i_k + R^i_k))]` using Equation (1).

Complexity: computing the lost-work arrays costs :math:`O(n |E|)` (see
:mod:`repro.core.lost_work`); the probability recursion below is :math:`O(n^2)`
thanks to running prefix sums, so a full evaluation is far cheaper than the
paper's conservative :math:`O(n^4)` bound while producing the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .backend import BACKEND_REGISTRY, BackendSpec
from .expectation import OVERFLOW_EXPONENT, expected_execution_time
from .lost_work import LostWork, compute_lost_work
from .platform import Platform
from .schedule import Schedule

__all__ = ["MakespanEvaluation", "evaluate_schedule", "expected_makespan"]


@dataclass(frozen=True)
class MakespanEvaluation:
    """Result of evaluating a schedule on a platform.

    Attributes
    ----------
    expected_makespan:
        :math:`E[\\sum_i X_i]`, the expected completion time of the whole
        workflow (seconds).
    expected_task_times:
        Per-position expectations :math:`E[X_i]` (1-based position ``i`` maps to
        ``expected_task_times[i - 1]``).
    failure_free_makespan:
        Makespan of the same schedule when no failure occurs (all work plus all
        checkpoints).
    failure_free_work:
        Total task weight :math:`\\sum_i w_i` (the paper's :math:`T_{inf}`,
        i.e. the makespan of a failure-free, checkpoint-free execution).
    event_probabilities:
        Optional list of tuples: ``event_probabilities[i - 1][k]`` is
        :math:`P(Z^i_k)`.  Only populated when ``keep_probabilities=True``.
    """

    expected_makespan: float
    expected_task_times: tuple[float, ...]
    failure_free_makespan: float
    failure_free_work: float
    event_probabilities: tuple[tuple[float, ...], ...] | None = None

    @property
    def overhead_ratio(self) -> float:
        """The paper's evaluation metric ``T / T_inf``.

        Ratio of the expected makespan over the failure-free, checkpoint-free
        makespan (lower is better, 1.0 is the unreachable ideal).
        """
        if self.failure_free_work == 0.0:
            return 1.0 if self.expected_makespan == 0.0 else math.inf
        return self.expected_makespan / self.failure_free_work

    @property
    def slowdown(self) -> float:
        """Expected makespan over the failure-free makespan *with* checkpoints."""
        if self.failure_free_makespan == 0.0:
            return 1.0 if self.expected_makespan == 0.0 else math.inf
        return self.expected_makespan / self.failure_free_makespan


def evaluate_schedule(
    schedule: Schedule,
    platform: Platform,
    *,
    lost_work: LostWork | None = None,
    keep_probabilities: bool = False,
    backend: str | BackendSpec | None = None,
) -> MakespanEvaluation:
    """Compute the expected makespan of ``schedule`` on ``platform``.

    Parameters
    ----------
    schedule:
        The schedule (linearization + checkpoint set) to evaluate.
    platform:
        The failure-prone platform (failure rate :math:`\\lambda`, downtime ``D``).
    lost_work:
        Pre-computed :class:`~repro.core.lost_work.LostWork` arrays for this
        schedule; useful when evaluating many platforms for one schedule.
        Diagnostic: the evaluation then runs on the Python reference,
        whatever backend was requested.
    keep_probabilities:
        When true, the full :math:`P(Z^i_k)` table is attached to the result
        (quadratic memory).  Diagnostic, like ``lost_work``: served by the
        Python reference.
    backend:
        A registered backend name (``"auto"`` / ``"python"`` / ``"numpy"``
        / ``"native"``), a :class:`~repro.core.backend.BackendSpec`, or
        ``None`` for ``"auto"`` — see
        :meth:`repro.core.backend.BackendRegistry.resolve`.  The array
        backends evaluate through a fresh
        :class:`~repro.core.sweep.SweepState` (a sweep of length one), so a
        one-shot equals a sweep bit for bit on each backend.  Backends agree
        with each other within 1e-9 relative, not bit for bit.

    Returns
    -------
    MakespanEvaluation
    """
    workflow = schedule.workflow
    order = schedule.order
    n = len(order)
    lam = platform.failure_rate
    downtime = platform.downtime

    # The trivial cases below are shared bookkeeping, so all backends are
    # bit-for-bit identical there; the recursion is where they diverge
    # (within floating-point noise — the property tests pin the bound).
    # Resolving first means an unknown or unavailable named backend raises
    # even on the diagnostic calls that run on the reference anyway.
    if n > 0 and lam != 0.0:
        resolved = BACKEND_REGISTRY.resolve(backend)
        if resolved.name != "python" and lost_work is None and not keep_probabilities:
            from .sweep import SweepState

            state = SweepState(workflow, order, platform, backend=resolved.name)
            return replace(
                state.evaluate(schedule.checkpointed),
                failure_free_makespan=schedule.failure_free_makespan,
            )

    weights = [workflow.task(t).weight for t in order]
    ckpt_costs = [
        workflow.task(t).checkpoint_cost if schedule.is_checkpointed(t) else 0.0
        for t in order
    ]
    failure_free_work = workflow.total_weight
    failure_free_makespan = schedule.failure_free_makespan

    if n == 0:
        return MakespanEvaluation(
            expected_makespan=0.0,
            expected_task_times=(),
            failure_free_makespan=0.0,
            failure_free_work=0.0,
            event_probabilities=() if keep_probabilities else None,
        )

    if lam == 0.0:
        per_task = tuple(w + c for w, c in zip(weights, ckpt_costs))
        probabilities = None
        if keep_probabilities:
            probabilities = tuple(
                tuple(1.0 if k == 0 else 0.0 for k in range(i)) for i in range(1, n + 1)
            )
        return MakespanEvaluation(
            expected_makespan=sum(per_task),
            expected_task_times=per_task,
            failure_free_makespan=failure_free_makespan,
            failure_free_work=failure_free_work,
            event_probabilities=probabilities,
        )

    lw = lost_work if lost_work is not None else compute_lost_work(schedule)
    work = lw.work
    recovery = lw.recovery

    # fault_prob[k] = P(F(X_k)) = P(Z^{k+1}_k): probability that at least one
    # failure strikes during X_k.  Filled in as the main loop advances
    # (property [B] applied to i = k + 1).
    fault_prob = [0.0] * (n + 1)

    # running_sum[k] = sum_{j=k+1}^{i-1} (W^j_k + R^j_k + w_j + delta_j c_j),
    # maintained incrementally as i grows (property [A]'s exponent).
    running_sum = [0.0] * (n + 1)

    expected_times: list[float] = []
    all_probabilities: list[tuple[float, ...]] = []
    total = 0.0

    for i in range(1, n + 1):
        w_i = weights[i - 1]
        c_i = ckpt_costs[i - 1]
        recovery_full = work[i][i] + recovery[i][i]

        probs: list[float] = []
        # Events Z^i_k for k = 0 .. i-2 via property [A].
        for k in range(0, i - 1):
            base = 1.0 if k == 0 else fault_prob[k]
            if base == 0.0:
                probs.append(0.0)
                continue
            exponent = lam * running_sum[k]
            # Saturate at the shared guard so both backends zero out the same
            # (astronomically unlikely) events.
            probs.append(
                math.exp(-exponent) * base if exponent <= OVERFLOW_EXPONENT else 0.0
            )
        # Property [B]: the last event takes the remaining probability mass.
        remaining = 1.0 - sum(probs)
        if remaining < 0.0:
            remaining = 0.0
        elif remaining > 1.0:
            remaining = 1.0
        probs.append(remaining)
        if i >= 2:
            fault_prob[i - 1] = remaining

        expected_xi = 0.0
        for k in range(0, i):
            p = probs[k]
            if p == 0.0:
                continue
            redo = work[k][i] + recovery[k][i]
            rec = recovery_full - redo
            if rec < 0.0:
                # Guard against floating point noise; the paper guarantees
                # T↓k_i ⊆ T↓i_i so the difference is mathematically >= 0.
                rec = 0.0
            expected_xi += p * expected_execution_time(
                redo + w_i, c_i, rec, lam, downtime
            )
        expected_times.append(expected_xi)
        total += expected_xi
        if keep_probabilities:
            all_probabilities.append(tuple(probs))

        # Advance the running prefix sums so that, at the next iteration,
        # running_sum[k] covers j = k+1 .. i.
        for k in range(0, i):
            running_sum[k] += work[k][i] + recovery[k][i] + w_i + c_i

    return MakespanEvaluation(
        expected_makespan=total,
        expected_task_times=tuple(expected_times),
        failure_free_makespan=failure_free_makespan,
        failure_free_work=failure_free_work,
        event_probabilities=tuple(all_probabilities) if keep_probabilities else None,
    )


def expected_makespan(schedule: Schedule, platform: Platform) -> float:
    """Convenience wrapper returning only the expected makespan (seconds)."""
    return evaluate_schedule(schedule, platform).expected_makespan
