"""Ablation — cost of the Theorem-3 evaluator as the workflow grows.

The paper bounds the evaluation of a schedule by O(n^4); the implementation
here is O(n·|E| + n^2) for sparse DAGs.  This benchmark times a single
evaluation on increasingly large CyberShake instances (the widest family) and
on long chains (the deepest recovery structures), which is the cost that
drives the checkpoint-count search of every heuristic.

It also compares the evaluation backends (pure-Python reference vs the
numpy sweep engine of ``repro.core.sweep``, whose one-shot is a sweep of
length one) and records the result as a JSON file, so later changes have a
perf trajectory to regress against:

* ``pytest benchmarks/bench_evaluator_scaling.py`` runs the comparison at
  n ∈ {50, 100, 250, 500} and writes ``benchmark_results/evaluator_backends.json``
  (override the path with ``REPRO_BENCH_JSON``);
* ``python benchmarks/bench_evaluator_scaling.py --sizes 50 --output out.json``
  runs the same comparison standalone (used by the CI smoke step), checking
  backend agreement along the way.

Speedups are family-dependent: the Theorem-3 recursion itself vectorizes
~10x (long chains are almost pure recursion), while wide Pegasus DAGs spend
most of their time in the Algorithm-1 graph traversal, which caps them at
~4x end to end.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import pytest

from repro import Platform, Schedule, evaluate_schedule
from repro.core.evaluator_native import native_available
from repro.heuristics import linearize
from repro.workflows import generators, pegasus

from _bench_utils import add_output_argument, report_scaffold, write_json_report


def _cybershake_schedule(n_tasks: int):
    workflow = pegasus.cybershake(n_tasks, seed=1).with_checkpoint_costs(
        mode="proportional", factor=0.1
    )
    order = linearize(workflow, "DF")
    return Schedule(workflow, order, set(order[::3]))


def _chain_schedule(n_tasks: int):
    workflow = generators.chain_workflow(n_tasks, seed=1, mean_weight=20.0).with_checkpoint_costs(
        mode="proportional", factor=0.1
    )
    return Schedule(workflow, range(n_tasks), set(range(0, n_tasks, 5)))


PLATFORM = Platform.from_platform_rate(1e-3)


@pytest.mark.parametrize("n_tasks", [50, 100, 200, 400])
def test_evaluator_scaling_cybershake(benchmark, n_tasks, preset):
    if preset == "smoke" and n_tasks > 200:
        pytest.skip("large sizes only at REPRO_BENCH_PRESET=paper")
    schedule = _cybershake_schedule(n_tasks)
    evaluation = benchmark(lambda: evaluate_schedule(schedule, PLATFORM))
    print(
        f"\ncybershake n={schedule.n_tasks}: E[makespan]={evaluation.expected_makespan:.1f}s "
        f"(ratio {evaluation.overhead_ratio:.3f})"
    )


@pytest.mark.parametrize("n_tasks", [50, 100, 200, 400])
def test_evaluator_scaling_chain(benchmark, n_tasks, preset):
    if preset == "smoke" and n_tasks > 200:
        pytest.skip("large sizes only at REPRO_BENCH_PRESET=paper")
    schedule = _chain_schedule(n_tasks)
    evaluation = benchmark(lambda: evaluate_schedule(schedule, PLATFORM))
    print(
        f"\nchain n={n_tasks}: E[makespan]={evaluation.expected_makespan:.1f}s "
        f"(ratio {evaluation.overhead_ratio:.3f})"
    )


@pytest.mark.parametrize("backend", ["python", "numpy", "native"])
@pytest.mark.parametrize("n_tasks", [100, 400])
def test_evaluator_backend_cybershake(benchmark, backend, n_tasks, preset):
    if preset == "smoke" and n_tasks > 200:
        pytest.skip("large sizes only at REPRO_BENCH_PRESET=paper")
    if backend == "native" and not native_available():
        pytest.skip("no C toolchain: native backend unavailable")
    schedule = _cybershake_schedule(n_tasks)
    evaluation = benchmark(lambda: evaluate_schedule(schedule, PLATFORM, backend=backend))
    assert evaluation.expected_makespan > 0


# ----------------------------------------------------------------------
# Backend comparison (python vs numpy) with a JSON artefact
# ----------------------------------------------------------------------
COMPARISON_SIZES = (50, 100, 250, 500)

_FAMILIES = {
    "cybershake": _cybershake_schedule,
    "chain": _chain_schedule,
}


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def backend_comparison(
    sizes=COMPARISON_SIZES, *, repeats: int = 3, check_agreement: bool = True
) -> dict:
    """Time one evaluation per (family, size, backend); return the report."""
    report = report_scaffold(
        "evaluator_backends", platform_rate=PLATFORM.failure_rate, sizes=list(sizes)
    )
    report["families"] = {}
    for family, build in _FAMILIES.items():
        series = {}
        for n_tasks in sizes:
            schedule = build(n_tasks)
            results = {
                backend: evaluate_schedule(schedule, PLATFORM, backend=backend)
                for backend in ("python", "numpy")
            }
            if check_agreement:
                py = results["python"].expected_makespan
                np_ = results["numpy"].expected_makespan
                assert abs(py - np_) <= 1e-9 * max(1.0, abs(py)), (family, n_tasks)
            timings = {
                backend: _best_of(
                    lambda b=backend: evaluate_schedule(schedule, PLATFORM, backend=b),
                    repeats,
                )
                for backend in ("python", "numpy")
            }
            series[str(n_tasks)] = {
                "python_seconds": timings["python"],
                "numpy_seconds": timings["numpy"],
                "speedup": timings["python"] / timings["numpy"],
            }
        report["families"][family] = series
    return report


def _json_path() -> Path:
    return Path(
        os.environ.get(
            "REPRO_BENCH_JSON", "benchmark_results/evaluator_backends.json"
        )
    )


def write_backend_comparison(report: dict, path: Path | None = None) -> Path:
    return write_json_report(report, path if path is not None else _json_path())


def test_backend_comparison_json():
    """Both backends agree; the numpy one is faster, >= 5x on chains at n=500."""
    report = backend_comparison()
    path = write_backend_comparison(report)
    print(f"\nwrote {path}")
    for family, series in report["families"].items():
        for size, entry in series.items():
            print(
                f"{family:<11} n={size:<4} python {entry['python_seconds'] * 1e3:7.1f}ms  "
                f"numpy {entry['numpy_seconds'] * 1e3:7.1f}ms  ({entry['speedup']:.1f}x)"
            )
    # The recursion-bound chain instance must hit the >= 5x target at n=500;
    # the traversal-bound cybershake instance must still win clearly.
    assert report["families"]["chain"]["500"]["speedup"] >= 5.0
    assert report["families"]["cybershake"]["500"]["speedup"] >= 2.0


# ----------------------------------------------------------------------
# Native kernel comparison (numpy vs the compiled C backend)
# ----------------------------------------------------------------------
def native_comparison(
    sizes=COMPARISON_SIZES, *, repeats: int = 3, check_agreement: bool = True
) -> dict:
    """Time one evaluation per (family, size) on numpy vs native.

    The ``speedup`` leaves are numpy-seconds over native-seconds — a
    same-run relative measurement like the python/numpy report, so the
    regression gate is robust to slow or fast CI runners.  Requires a C
    toolchain (callers should check :func:`native_available` first).
    """
    report = report_scaffold(
        "evaluator_native", platform_rate=PLATFORM.failure_rate, sizes=list(sizes)
    )
    report["families"] = {}
    for family, build in _FAMILIES.items():
        series = {}
        for n_tasks in sizes:
            schedule = build(n_tasks)
            if check_agreement:
                np_ = evaluate_schedule(schedule, PLATFORM, backend="numpy")
                nat = evaluate_schedule(schedule, PLATFORM, backend="native")
                ref = np_.expected_makespan
                assert abs(nat.expected_makespan - ref) <= 1e-9 * max(1.0, abs(ref)), (
                    family,
                    n_tasks,
                )
            timings = {
                backend: _best_of(
                    lambda b=backend: evaluate_schedule(schedule, PLATFORM, backend=b),
                    repeats,
                )
                for backend in ("numpy", "native")
            }
            series[str(n_tasks)] = {
                "numpy_seconds": timings["numpy"],
                "native_seconds": timings["native"],
                "speedup": timings["numpy"] / timings["native"],
            }
        report["families"][family] = series
    return report


def _native_json_path() -> Path:
    return Path(
        os.environ.get(
            "REPRO_BENCH_NATIVE_JSON", "benchmark_results/evaluator_native.json"
        )
    )


def test_native_comparison_json():
    """The compiled kernel beats numpy >= 5x on cybershake at n=500."""
    if not native_available():
        pytest.skip("no C toolchain: native backend unavailable")
    report = native_comparison(repeats=5)
    path = write_json_report(report, _native_json_path())
    print(f"\nwrote {path}")
    for family, series in report["families"].items():
        for size, entry in series.items():
            print(
                f"{family:<11} n={size:<4} numpy {entry['numpy_seconds'] * 1e3:7.2f}ms  "
                f"native {entry['native_seconds'] * 1e3:7.2f}ms  ({entry['speedup']:.1f}x)"
            )
    # The traversal-bound cybershake instance is where the C loss fill pays
    # off most; the recursion-bound chain must still win clearly.
    assert report["families"]["cybershake"]["500"]["speedup"] >= 5.0
    assert report["families"]["chain"]["500"]["speedup"] >= 2.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the python, numpy and native evaluation backends."
    )
    parser.add_argument("--sizes", type=int, nargs="+", default=list(COMPARISON_SIZES))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--native",
        action="store_true",
        help="compare numpy vs the compiled native kernel instead of python vs numpy",
    )
    add_output_argument(parser)
    args = parser.parse_args(argv)
    if args.native:
        if not native_available():
            print("error: native backend unavailable (no C toolchain)")
            return 1
        report = native_comparison(tuple(args.sizes), repeats=args.repeats)
        path = write_json_report(
            report, Path(args.output) if args.output else _native_json_path()
        )
    else:
        report = backend_comparison(tuple(args.sizes), repeats=args.repeats)
        path = write_backend_comparison(
            report, Path(args.output) if args.output else None
        )
    print(json.dumps(report, indent=2))
    print(f"wrote {path}")
    return 0


def test_lost_work_dominates_cost(benchmark):
    """The lost-work arrays can be reused across platforms: measure the split.

    A precomputed ``lost_work`` runs on the Python reference whatever the
    backend, so this times the reference's Theorem-3 recursion alone.
    """
    from repro import compute_lost_work

    schedule = _cybershake_schedule(150)
    lost_work = compute_lost_work(schedule)

    def evaluate_with_precomputed():
        return evaluate_schedule(schedule, PLATFORM, lost_work=lost_work)

    evaluation = benchmark(evaluate_with_precomputed)
    assert evaluation.expected_makespan > 0


if __name__ == "__main__":
    raise SystemExit(main())
