"""Tests for the named-heuristic registry and end-to-end solver."""

from __future__ import annotations

import pytest

from repro import (
    HEURISTIC_NAMES,
    Platform,
    SweepState,
    evaluate_schedule,
    solve_all_heuristics,
    solve_heuristic,
)
from repro.heuristics import best_heuristic, linearize, parse_heuristic_name
from repro.workflows import pegasus

#: lambda = 0, then lambda > 0 without and with a downtime.
PLATFORMS = (
    Platform.from_platform_rate(0.0),
    Platform.from_platform_rate(1e-3),
    Platform.from_platform_rate(1e-3, downtime=30.0),
)


@pytest.fixture(scope="module")
def workflow():
    return pegasus.cybershake(30, seed=11).with_checkpoint_costs(mode="proportional", factor=0.1)


@pytest.fixture(scope="module")
def platform():
    return Platform.from_platform_rate(1e-3)


class TestNames:
    def test_fourteen_heuristics(self):
        assert len(HEURISTIC_NAMES) == 14
        assert len(set(HEURISTIC_NAMES)) == 14

    def test_baselines_only_with_df(self):
        assert "DF-CkptNvr" in HEURISTIC_NAMES
        assert "DF-CkptAlws" in HEURISTIC_NAMES
        assert "BF-CkptNvr" not in HEURISTIC_NAMES
        assert "RF-CkptAlws" not in HEURISTIC_NAMES

    def test_all_parameterised_combinations_present(self):
        for linearization in ("DF", "BF", "RF"):
            for strategy in ("CkptW", "CkptC", "CkptD", "CkptPer"):
                assert f"{linearization}-{strategy}" in HEURISTIC_NAMES

    def test_parse_valid(self):
        assert parse_heuristic_name("BF-CkptPer") == ("BF", "CkptPer")

    @pytest.mark.parametrize("bad", ["DFCkptW", "XX-CkptW", "DF-CkptX", "", "DF-"])
    def test_parse_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_heuristic_name(bad)


class TestSolveHeuristic:
    @pytest.mark.parametrize("name", HEURISTIC_NAMES)
    def test_every_heuristic_produces_a_valid_schedule(self, workflow, platform, name):
        result = solve_heuristic(workflow, platform, name, rng=0, counts=[1, 5, 10, 20])
        schedule = result.schedule
        assert workflow.is_linearization(schedule.order)
        assert all(0 <= i < workflow.n_tasks for i in schedule.checkpointed)
        assert result.expected_makespan > 0
        assert result.overhead_ratio >= 1.0
        # The reported evaluation corresponds to the reported schedule.
        assert result.expected_makespan == pytest.approx(
            evaluate_schedule(schedule, platform).expected_makespan
        )

    def test_baselines(self, workflow, platform):
        never = solve_heuristic(workflow, platform, "DF-CkptNvr")
        always = solve_heuristic(workflow, platform, "DF-CkptAlws")
        assert never.checkpoint_count == 0
        assert always.checkpoint_count == workflow.n_tasks

    def test_nonstandard_combination_accepted_for_ablation(self, workflow, platform):
        result = solve_heuristic(workflow, platform, "BF-CkptNvr")
        assert result.checkpoint_count == 0
        assert result.linearization == "BF"

    def test_search_improves_on_baselines(self, workflow, platform):
        ckptw = solve_heuristic(workflow, platform, "DF-CkptW")
        never = solve_heuristic(workflow, platform, "DF-CkptNvr")
        always = solve_heuristic(workflow, platform, "DF-CkptAlws")
        assert ckptw.expected_makespan <= never.expected_makespan + 1e-9
        assert ckptw.expected_makespan <= always.expected_makespan + 1e-9

    def test_failure_free_platform_avoids_checkpoints(self, workflow):
        result = solve_heuristic(workflow, Platform.failure_free(), "DF-CkptW")
        assert result.checkpoint_count == 0
        assert result.overhead_ratio == pytest.approx(1.0)

    def test_unknown_name_rejected(self, workflow, platform):
        with pytest.raises(ValueError):
            solve_heuristic(workflow, platform, "DF-CkptAmazing")


class TestSolveAll:
    def test_solve_all_returns_every_requested_heuristic(self, workflow, platform):
        subset = ("DF-CkptW", "DF-CkptC", "DF-CkptNvr")
        results = solve_all_heuristics(
            workflow, platform, heuristics=subset, rng=3, counts=[2, 8, 16]
        )
        assert set(results) == set(subset)

    def test_int_seed_reproducible_across_entry_points(self, workflow, platform):
        """solve_heuristic(rng=seed) must match the campaign/solve_all path."""
        single = solve_heuristic(workflow, platform, "RF-CkptW", rng=7, counts=[2, 8])
        grouped = solve_all_heuristics(
            workflow, platform, heuristics=("RF-CkptW",), rng=7, counts=[2, 8]
        )
        assert single.expected_makespan == grouped["RF-CkptW"].expected_makespan
        assert single.schedule.order == grouped["RF-CkptW"].schedule.order

    def test_best_heuristic_is_the_minimum(self, workflow, platform):
        subset = ("DF-CkptW", "DF-CkptC", "DF-CkptPer", "DF-CkptNvr")
        results = solve_all_heuristics(
            workflow, platform, heuristics=subset, rng=3, counts=[2, 8, 16]
        )
        best = best_heuristic(workflow, platform, heuristics=subset, rng=3, counts=[2, 8, 16])
        assert best.expected_makespan == pytest.approx(
            min(r.expected_makespan for r in results.values())
        )


class TestEvaluationIsTheOneShot:
    """A solve prices its schedule on the sweep that ranked its candidates;
    the whole evaluation, task times and ``failure_free_makespan``
    included, must still be the one-shot evaluation of that schedule."""

    @pytest.mark.parametrize("family", ["montage", "ligo", "cybershake", "genome"])
    def test_every_heuristic(self, available_backend, family):
        workflow = pegasus.generate(family, 16, seed=3).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        for platform in PLATFORMS:
            for name in HEURISTIC_NAMES:
                result = solve_heuristic(workflow, platform, name, rng=5, backend=available_backend)
                assert result.evaluation == evaluate_schedule(
                    result.schedule, platform, backend=available_backend
                ), (name, platform)


class TestSweepGuard:
    """A passed sweep must be over the solve's own instance and linearization."""

    @pytest.fixture(params=["DF-CkptW", "DF-CkptNvr"])
    def heuristic(self, request):
        return request.param

    def test_matching_sweep_gives_the_plain_result(self, workflow, platform, heuristic):
        sweep = SweepState(workflow, linearize(workflow, "DF"), platform)
        shared = solve_heuristic(workflow, platform, heuristic, sweep=sweep)
        assert shared == solve_heuristic(workflow, platform, heuristic)
        assert sweep.stats.evaluations > 0

    def test_rejects_another_order(self, workflow, platform, heuristic):
        order = linearize(workflow, "BF")
        assert order != linearize(workflow, "DF")
        sweep = SweepState(workflow, order, platform)
        with pytest.raises(ValueError, match="another workflow, linearization or platform"):
            solve_heuristic(workflow, platform, heuristic, sweep=sweep)

    def test_rejects_another_platform(self, workflow, platform, heuristic):
        other = Platform.from_platform_rate(2e-3)
        sweep = SweepState(workflow, linearize(workflow, "DF"), other)
        with pytest.raises(ValueError, match="another workflow, linearization or platform"):
            solve_heuristic(workflow, platform, heuristic, sweep=sweep)

    def test_rejects_another_workflow_object(self, workflow, platform, heuristic):
        twin = pegasus.cybershake(30, seed=11).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        assert twin is not workflow
        sweep = SweepState(twin, linearize(twin, "DF"), platform)
        with pytest.raises(ValueError, match="another workflow, linearization or platform"):
            solve_heuristic(workflow, platform, heuristic, sweep=sweep)

    def test_rejects_backend_with_sweep(self, workflow, platform, heuristic):
        sweep = SweepState(workflow, linearize(workflow, "DF"), platform, backend="numpy")
        with pytest.raises(ValueError, match="not both"):
            solve_heuristic(workflow, platform, heuristic, backend="numpy", sweep=sweep)
