"""Cross-validation: analytical evaluator vs Monte-Carlo fault injection.

Theorem 3's evaluator and the discrete-event engine were written independently
from the paper's execution model; agreement between the two on a diverse set of
workflows is the strongest correctness evidence this reproduction can produce
without the authors' original OCaml code.
"""

from __future__ import annotations

import pytest

from repro import Platform, Schedule, evaluate_schedule, run_monte_carlo
from repro.core.evaluator_native import native_available
from repro.heuristics import linearize
from repro.workflows import generators, pegasus

#: Every Theorem-3 backend this machine can run (native needs a C toolchain).
BACKENDS = ("python", "numpy") + (("native",) if native_available() else ())


def assert_analytical_in_ci(schedule, platform, *, n_runs=3000, seed=0, widen=1.6):
    """Each backend's analytical value must fall inside a (slightly widened)
    95% CI of one Monte-Carlo run."""
    summary = run_monte_carlo(schedule, platform, n_runs=n_runs, rng=seed)
    low, high = summary.ci95
    margin = (high - low) / 2.0 * widen + 1e-9
    for backend in BACKENDS:
        analytical = evaluate_schedule(schedule, platform, backend=backend).expected_makespan
        assert abs(summary.mean_makespan - analytical) <= margin, (
            f"{backend}: analytical {analytical:.4f} outside MC interval "
            f"[{low:.4f}, {high:.4f}] (mean {summary.mean_makespan:.4f})"
        )


class TestAgreementOnStructuredDags:
    def test_chain_with_checkpoints(self):
        wf = generators.chain_workflow(6, weights=[20, 35, 10, 45, 25, 15]).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        platform = Platform.from_platform_rate(4e-3, downtime=2.0)
        assert_analytical_in_ci(Schedule(wf, range(6), {1, 3}), platform)

    def test_chain_without_checkpoints(self):
        wf = generators.chain_workflow(5, weights=[30, 20, 25, 15, 10]).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        platform = Platform.from_platform_rate(3e-3)
        assert_analytical_in_ci(Schedule(wf, range(5), ()), platform)

    def test_fork(self):
        wf = generators.fork_workflow(5, source_weight=40.0, seed=1, mean_weight=25.0).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        platform = Platform.from_platform_rate(3e-3, downtime=1.0)
        order = wf.topological_order()
        assert_analytical_in_ci(Schedule(wf, order, {0}), platform)

    def test_join(self):
        wf = generators.join_workflow(5, sink_weight=30.0, seed=2, mean_weight=30.0).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        platform = Platform.from_platform_rate(3e-3)
        order = wf.topological_order()
        assert_analytical_in_ci(Schedule(wf, order, {0, 2}), platform)

    def test_paper_example_schedule(self, paper_example_schedule):
        platform = Platform.from_platform_rate(8e-3, downtime=1.5)
        assert_analytical_in_ci(paper_example_schedule, platform, n_runs=4000)

    def test_diamond_with_downtime(self, diamond):
        platform = Platform.from_platform_rate(1e-2, downtime=5.0)
        assert_analytical_in_ci(Schedule(diamond, (0, 2, 1, 3), {0}), platform)


class TestAgreementOnRandomAndPegasusDags:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_layered_random(self, seed):
        wf = generators.layered_workflow(3, 3, density=0.7, seed=seed).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        platform = Platform.from_platform_rate(2e-3, downtime=1.0)
        order = linearize(wf, "DF")
        checkpointed = set(range(0, wf.n_tasks, 3))
        assert_analytical_in_ci(Schedule(wf, order, checkpointed), platform, n_runs=2500)

    def test_montage_heuristic_schedule(self):
        wf = pegasus.montage(25, seed=3).with_checkpoint_costs(mode="proportional", factor=0.1)
        platform = Platform.from_platform_rate(2e-3)
        order = linearize(wf, "DF")
        checkpointed = set(order[:: 4])
        assert_analytical_in_ci(Schedule(wf, order, checkpointed), platform, n_runs=2500)

    def test_cybershake_bf_schedule(self):
        wf = pegasus.cybershake(20, seed=4).with_checkpoint_costs(mode="constant", value=5.0)
        platform = Platform.from_platform_rate(1.5e-3, downtime=3.0)
        order = linearize(wf, "BF")
        checkpointed = set(order[1::3])
        assert_analytical_in_ci(Schedule(wf, order, checkpointed), platform, n_runs=2500)


class TestSmokeGridWithDowntime:
    """Theorem 3 vs Monte-Carlo on scenario-layer platforms with D > 0.

    This is the end-to-end guard for the downtime plumbing: the schedule is
    solved through the harness exactly as campaigns do, and the scenario's
    platform (downtime included) must price within the simulation CI on
    both Monte-Carlo backends.
    """

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("downtime", [5.0, 60.0])
    def test_scenario_analytical_within_ci(self, backend, downtime):
        from repro import solve_heuristic
        from repro.experiments import Scenario, build_workflow
        from repro.heuristics import heuristic_rng

        scenario = Scenario(
            family="montage", n_tasks=20, failure_rate=5e-3,
            downtime=downtime, heuristics=("DF-CkptW",), seed=4,
        )
        workflow = build_workflow(scenario)
        platform = scenario.platform
        assert platform.downtime == downtime
        result = solve_heuristic(
            workflow, platform, "DF-CkptW", rng=heuristic_rng(scenario.seed, "DF-CkptW")
        )
        summary = run_monte_carlo(
            result.schedule, platform, n_runs=3000, rng=0, backend=backend
        )
        low, high = summary.ci95
        margin = (high - low) / 2.0 * 1.6 + 1e-9
        assert abs(summary.mean_makespan - result.expected_makespan) <= margin

    def test_multi_processor_scenario_within_ci(self):
        from repro import solve_heuristic
        from repro.experiments import Scenario, build_workflow
        from repro.heuristics import heuristic_rng

        scenario = Scenario(
            family="montage", n_tasks=20, failure_rate=1e-3,
            downtime=10.0, processors=4, heuristics=("DF-CkptW",), seed=4,
        )
        workflow = build_workflow(scenario)
        platform = scenario.platform
        result = solve_heuristic(
            workflow, platform, "DF-CkptW", rng=heuristic_rng(scenario.seed, "DF-CkptW")
        )
        assert_analytical_in_ci(result.schedule, platform, n_runs=3000)


class TestHighFailureRegime:
    def test_agreement_when_failures_are_frequent(self):
        """Several failures per task on average: exercises deep recovery chains."""
        wf = generators.chain_workflow(4, weights=[30, 40, 20, 30]).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        platform = Platform.from_platform_rate(2.5e-2, downtime=1.0)
        assert_analytical_in_ci(Schedule(wf, range(4), {0, 1, 2, 3}), platform, n_runs=4000)

    def test_agreement_with_no_checkpoints_high_rate(self):
        wf = generators.diamond_workflow(weights=[15, 25, 10, 20]).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        platform = Platform.from_platform_rate(1.5e-2)
        assert_analytical_in_ci(Schedule(wf, (0, 1, 2, 3), ()), platform, n_runs=4000)
