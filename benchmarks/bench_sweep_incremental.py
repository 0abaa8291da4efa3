"""Incremental sweep engine versus per-candidate re-evaluation.

The checkpoint-set searches (the paper's exhaustive ``N = 1..n-1``
checkpoint-count search and the local-search refinement) evaluate long
sequences of near-identical candidates.  ``repro.core.sweep.SweepState``
prices each candidate incrementally — only the Algorithm-1 rows and the
Theorem-3 suffix behind the toggled positions are recomputed — with results
bit-for-bit identical to per-candidate evaluation.

This benchmark times both sweep shapes end to end on the CyberShake family
(the evaluator's stress family, as in ``bench_evaluator_scaling.py``):

* ``count_search`` — the exhaustive CkptW checkpoint-count sweep
  (``N = 0..n``, nested candidate sets, pure add-one toggles);
* ``local_search_round`` — one full round of local-search probes (every
  single-checkpoint toggle of a base schedule, in the refinement driver's
  descending-position order), which is the unit of work
  ``local_search_checkpoints`` repeats until convergence.

The eager baseline reproduces the pre-sweep ``batch_evaluate`` loop (shared
position tables, full Algorithm-1 fill and full Theorem-3 kernel per
candidate); it carries its own copy of the pre-sweep numpy Theorem-3 kernel
(:func:`eager_theorem3_kernel`) so the committed baseline stays comparable.
Timings are phase-split (Algorithm-1 loss fill vs Theorem-3 kernel vs
bookkeeping overhead) through ``SweepState(profile=True)``.

* ``pytest benchmarks/bench_sweep_incremental.py`` runs n ∈ {100, 250, 500}
  and writes ``benchmark_results/sweep_incremental.json`` (override with
  ``REPRO_BENCH_JSON``), asserting the ≥3x target at n = 500;
* ``python benchmarks/bench_sweep_incremental.py --sizes 250 --output o.json``
  runs standalone (the CI smoke step), checking result agreement along the
  way.  ``benchmarks/check_regression.py`` gates CI on the ``speedup``
  leaves: a >25% slowdown of the incremental path fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from pathlib import Path

from repro import Platform
from repro.core.evaluator_native import native_available
from repro.core.expectation import _SMALL_EXPOSURE, OVERFLOW_EXPONENT
from repro.core.lost_work import _position_tables
from repro.core.sweep import SweepState, _candidate_lists
from repro.heuristics import checkpoint_by_weight, linearize
from repro.workflows import pegasus

from _bench_utils import add_output_argument, report_scaffold, write_json_report

PLATFORM = Platform.from_platform_rate(1e-3)
COMPARISON_SIZES = (100, 250, 500)
#: End-to-end speedup floor the tentpole promises at n = 500.
TARGET_SPEEDUP = 3.0


def _instance(n_tasks: int):
    workflow = pegasus.cybershake(n_tasks, seed=1).with_checkpoint_costs(
        mode="proportional", factor=0.1
    )
    order = linearize(workflow, "DF")
    return workflow, order


def _count_search_sets(workflow, order) -> list[frozenset[int]]:
    """The distinct nested CkptW sets of the exhaustive count search."""
    sets: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for count in range(0, workflow.n_tasks + 1):
        selected = (
            frozenset()
            if count == 0
            else checkpoint_by_weight(workflow, order, count)
        )
        if selected not in seen:
            seen.add(selected)
            sets.append(selected)
    return sets


def _local_search_round_sets(workflow, order) -> list[frozenset[int]]:
    """Every single toggle of a base schedule, in the driver's probe order."""
    base = frozenset(order[::3])
    position = {task: pos for pos, task in enumerate(order)}
    tasks = sorted(range(workflow.n_tasks), key=lambda t: -position[t])
    return [base ^ frozenset({task}) for task in tasks]


def eager_theorem3_kernel(np, weights, ckpt_costs, loss, lam, downtime) -> list[float]:
    """The pre-sweep vectorized Theorem-3 recursion, kept for the baseline.

    ``weights`` / ``ckpt_costs`` are ``(n,)`` position-order vectors (costs
    zeroed where not checkpointed) and ``loss[k, i] = W^i_k + R^i_k``.
    Returns the per-position expectations.
    """
    n = weights.shape[0]
    # Equation (1) for every (k, i) pair at once; column i-1 holds
    # E[X_i | Z^i_k] (rows k > i-1 are finite garbage, never read).
    sub = loss[:, 1:]
    diagonal = loss.diagonal()[1:]
    with np.errstate(over="ignore"):
        exposure = lam * (sub + (weights + ckpt_costs))
        grown = np.expm1(np.minimum(exposure, OVERFLOW_EXPONENT))
        rec_exposure = lam * np.maximum(diagonal - sub, 0.0)
        values = np.exp(np.minimum(rec_exposure, OVERFLOW_EXPONENT)) * (
            grown / lam + downtime * grown
        )
    overflow = (exposure > OVERFLOW_EXPONENT) | (rec_exposure > OVERFLOW_EXPONENT)
    if overflow.any():
        values[overflow] = np.inf
    tiny = exposure < _SMALL_EXPOSURE
    if tiny.any():
        failure_free = sub + (weights + ckpt_costs)
        values[tiny] = failure_free[tiny]
    saturated = bool(np.isinf(values).any())

    # Properties [A] and [B]: the sequential probability recursion over
    # -lam-scaled running prefix sums, one np.exp per position.
    values_t = np.ascontiguousarray(values.T)
    neg_loss_t = np.ascontiguousarray(loss.T)
    neg_loss_t *= -lam
    neg_terms = (weights + ckpt_costs) * -lam
    base = np.zeros(n)
    base[0] = 1.0
    running = np.zeros(n + 1)
    with np.errstate(over="ignore"):
        exponent_bound = lam * float((diagonal + weights + ckpt_costs).sum())
    may_clip = not exponent_bound <= OVERFLOW_EXPONENT - 1.0
    expected_times: list[float] = []
    probs_buf = np.empty(n)
    for i in range(1, n + 1):
        m = i - 1
        probs = probs_buf[:i]
        if m:
            head = probs[:m]
            np.exp(running[:m], out=head)
            head *= base[:m]
            if may_clip:
                clipped = running[:m] < -OVERFLOW_EXPONENT
                if clipped.any():
                    head[clipped] = 0.0
            remaining = 1.0 - float(head.sum())
            if remaining < 0.0:
                remaining = 0.0
            elif remaining > 1.0:
                remaining = 1.0
        else:
            remaining = 1.0
        probs[m] = remaining
        if i >= 2:
            base[m] = remaining
        column = values_t[m, :i]
        if saturated:
            mask = probs > 0.0
            expected_times.append(float(probs[mask] @ column[mask]))
        else:
            expected_times.append(float(probs @ column))
        running[:i] += neg_loss_t[i, :i]
        running[:i] += neg_terms[m]
    return expected_times


def eager_batch_makespans(workflow, order, sets, platform) -> list[float]:
    """The pre-sweep ``batch_evaluate`` loop: full recompute per candidate.

    Shared position / predecessor / candidate tables, then one full
    Algorithm-1 traversal fill and one full Theorem-3 kernel per candidate —
    a faithful reproduction of the loop ``SweepState`` replaced (the
    original interpreted traversal included).
    """
    import numpy as np

    n = len(order)
    lam = platform.failure_rate
    position, weight, recovery_cost, predecessors = _position_tables(workflow, order)
    predecessors = [tuple(sorted(p)) for p in predecessors]
    candidates = _candidate_lists(n, predecessors)
    tasks = workflow.tasks
    weights = np.asarray(weight[1:], dtype=np.float64)
    raw_costs = np.fromiter(
        (tasks[t].checkpoint_cost for t in order), dtype=np.float64, count=n
    )
    makespans: list[float] = []
    loss = np.zeros((n + 1, n + 1))
    stack: list[int] = []
    for selected in sets:
        checkpointed = [False] * (n + 1)
        mask = np.zeros(n, dtype=bool)
        for task_index in selected:
            pos = position[task_index]
            checkpointed[pos] = True
            mask[pos - 1] = True
        ckpt_costs = np.where(mask, raw_costs, 0.0)
        loss.fill(0.0)
        for k in range(1, n + 1):
            regenerated = bytearray(n + 1)
            for i in candidates[k]:
                lost = 0.0
                for j in predecessors[i]:
                    if j >= k:
                        break
                    if not regenerated[j]:
                        regenerated[j] = 1
                        stack.append(j)
                while stack:
                    j = stack.pop()
                    if checkpointed[j]:
                        lost += recovery_cost[j]
                    else:
                        lost += weight[j]
                        for p in predecessors[j]:
                            if not regenerated[p]:
                                regenerated[p] = 1
                                stack.append(p)
                if lost:
                    loss[k, i] = lost
        expected_times = eager_theorem3_kernel(
            np, weights, ckpt_costs, loss, lam, platform.downtime
        )
        makespans.append(math.fsum(expected_times))
    return makespans


def _time_sweep(workflow, order, sets, platform, *, backend="numpy"):
    """Time the incremental sweep end to end (state construction included)."""
    import time

    start = time.perf_counter()
    state = SweepState(workflow, order, platform, backend=backend, profile=True)
    makespans = [
        state.evaluate(selected, keep_task_times=False).expected_makespan
        for selected in sets
    ]
    elapsed = time.perf_counter() - start
    return elapsed, makespans, state.stats


def _time_eager(workflow, order, sets, platform):
    import time

    start = time.perf_counter()
    makespans = eager_batch_makespans(workflow, order, sets, platform)
    return time.perf_counter() - start, makespans


def sweep_comparison(sizes=COMPARISON_SIZES, *, check_agreement: bool = True) -> dict:
    """Time both sweep shapes per size; return the JSON report."""
    report = report_scaffold(
        "sweep_incremental",
        family="cybershake",
        platform_rate=PLATFORM.failure_rate,
        sizes=list(sizes),
    )
    report["sweeps"] = {"count_search": {}, "local_search_round": {}}
    for n_tasks in sizes:
        workflow, order = _instance(n_tasks)
        shapes = {
            "count_search": _count_search_sets(workflow, order),
            "local_search_round": _local_search_round_sets(workflow, order),
        }
        for name, sets in shapes.items():
            eager_seconds, eager_values = _time_eager(
                workflow, order, sets, PLATFORM
            )
            incr_seconds, incr_values, stats = _time_sweep(
                workflow, order, sets, PLATFORM
            )
            if check_agreement:
                for got, ref in zip(incr_values, eager_values):
                    assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref)), (
                        name,
                        n_tasks,
                    )
            overhead = max(
                0.0, incr_seconds - stats.fill_seconds - stats.kernel_seconds
            )
            entry = {
                "candidates": len(sets),
                "eager_seconds": eager_seconds,
                "incremental_seconds": incr_seconds,
                "speedup": eager_seconds / incr_seconds,
                "phases": {
                    "loss_fill_seconds": stats.fill_seconds,
                    "kernel_seconds": stats.kernel_seconds,
                    "overhead_seconds": overhead,
                },
                "rows_refilled": stats.rows_refilled,
                "rows_restored": stats.rows_restored,
                "rows_skipped": stats.rows_skipped,
                "kernel_positions": stats.kernel_positions,
            }
            if native_available():
                native_seconds, native_values, _ = _time_sweep(
                    workflow, order, sets, PLATFORM, backend="native"
                )
                if check_agreement:
                    for got, ref in zip(native_values, eager_values):
                        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref)), (
                            name,
                            n_tasks,
                        )
                # Informational columns, deliberately not named "speedup":
                # the native regression gate lives in evaluator_native.json.
                entry["native_seconds"] = native_seconds
                entry["native_vs_numpy"] = incr_seconds / native_seconds
            report["sweeps"][name][str(n_tasks)] = entry
    return report


def _json_path() -> Path:
    return Path(
        os.environ.get("REPRO_BENCH_JSON", "benchmark_results/sweep_incremental.json")
    )


def _print_report(report: dict) -> None:
    for name, series in report["sweeps"].items():
        for size, entry in series.items():
            phases = entry["phases"]
            native = (
                f"  native {entry['native_seconds']:6.2f}s "
                f"({entry['native_vs_numpy']:.2f}x over numpy)"
                if "native_seconds" in entry
                else ""
            )
            print(
                f"{name:<18} n={size:<4} eager {entry['eager_seconds']:6.2f}s  "
                f"incremental {entry['incremental_seconds']:6.2f}s  "
                f"({entry['speedup']:.2f}x; fill {phases['loss_fill_seconds']:.2f}s "
                f"kernel {phases['kernel_seconds']:.2f}s "
                f"overhead {phases['overhead_seconds']:.2f}s){native}"
            )


def test_sweep_comparison_json():
    """Both sweep shapes hit the >=3x end-to-end target at n = 500."""
    report = sweep_comparison()
    path = write_json_report(report, _json_path())
    print(f"\nwrote {path}")
    _print_report(report)
    assert report["sweeps"]["count_search"]["500"]["speedup"] >= TARGET_SPEEDUP
    assert report["sweeps"]["local_search_round"]["500"]["speedup"] >= TARGET_SPEEDUP


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the incremental sweep engine against per-candidate "
        "re-evaluation."
    )
    parser.add_argument("--sizes", type=int, nargs="+", default=list(COMPARISON_SIZES))
    add_output_argument(parser)
    args = parser.parse_args(argv)
    report = sweep_comparison(tuple(args.sizes))
    _print_report(report)
    if args.output:
        path = write_json_report(report, Path(args.output))
        print(f"wrote {path}")
    else:
        print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
