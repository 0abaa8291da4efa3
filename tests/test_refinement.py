"""Tests for greedy construction and local-search refinement of checkpoint sets."""

from __future__ import annotations

import pytest

from repro import Platform, Schedule, evaluate_schedule, solve_heuristic
from repro.heuristics import (
    greedy_checkpoint_selection,
    linearize,
    local_search_checkpoints,
    refine_schedule,
)
from repro.theory import optimal_checkpoints_for_order, solve_chain
from repro.workflows import generators, pegasus


@pytest.fixture
def chain():
    return generators.chain_workflow(8, seed=2, mean_weight=50.0).with_checkpoint_costs(
        mode="proportional", factor=0.1
    )


@pytest.fixture
def platform():
    return Platform.from_platform_rate(5e-3, downtime=2.0)


class TestGreedySelection:
    def test_never_worse_than_empty_set(self, chain, platform):
        result = greedy_checkpoint_selection(chain, range(8), platform)
        empty = evaluate_schedule(Schedule(chain, range(8), ()), platform).expected_makespan
        assert result.expected_makespan <= empty + 1e-9
        assert result.initial_expected_makespan == pytest.approx(empty)
        assert result.improvement >= 0.0

    def test_failure_free_platform_selects_nothing(self, chain):
        result = greedy_checkpoint_selection(chain, range(8), Platform.failure_free())
        assert result.schedule.n_checkpointed == 0
        assert result.steps == 0

    def test_respects_budget(self, chain, platform):
        result = greedy_checkpoint_selection(chain, range(8), platform, max_checkpoints=2)
        assert result.schedule.n_checkpointed <= 2
        assert result.steps <= 2

    def test_respects_candidate_restriction(self, chain, platform):
        result = greedy_checkpoint_selection(chain, range(8), platform, candidates=[1, 3])
        assert result.schedule.checkpointed <= {1, 3}

    def test_matches_optimum_on_small_chain(self, platform):
        wf = generators.chain_workflow(6, seed=4, mean_weight=60.0).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        greedy = greedy_checkpoint_selection(wf, range(6), platform)
        brute = optimal_checkpoints_for_order(wf, platform, range(6))
        # Greedy is not guaranteed optimal in general, but on these small chains
        # it should land within 2% of the exhaustive optimum.
        assert greedy.expected_makespan <= brute.expected_makespan * 1.02

    def test_counts_evaluator_calls(self, chain, platform):
        result = greedy_checkpoint_selection(chain, range(8), platform)
        # One initial evaluation plus at most n per accepted step (+ final sweep).
        assert result.evaluations >= result.steps
        assert result.evaluations <= 1 + (result.steps + 1) * chain.n_tasks


class TestLocalSearch:
    def test_never_degrades_any_heuristic_schedule(self, platform):
        wf = pegasus.cybershake(30, seed=5).with_checkpoint_costs(mode="proportional", factor=0.1)
        plat = Platform.from_platform_rate(1e-3)
        for heuristic in ("DF-CkptNvr", "DF-CkptAlws", "DF-CkptPer", "DF-CkptW"):
            start = solve_heuristic(wf, plat, heuristic, counts=[3, 10, 20]).schedule
            start_value = evaluate_schedule(start, plat).expected_makespan
            refined = local_search_checkpoints(start, plat)
            assert refined.expected_makespan <= start_value + 1e-9
            assert refined.initial_expected_makespan == pytest.approx(start_value)

    def test_reaches_local_optimum(self, chain, platform):
        start = Schedule(chain, range(8), ())
        refined = local_search_checkpoints(start, platform)
        # At a local optimum, no single toggle improves the makespan.
        base = refined.expected_makespan
        for task in range(chain.n_tasks):
            toggled = (
                refined.schedule.checkpointed - {task}
                if task in refined.schedule.checkpointed
                else refined.schedule.checkpointed | {task}
            )
            value = evaluate_schedule(
                Schedule(chain, range(8), toggled), platform
            ).expected_makespan
            assert value >= base - 1e-9

    def test_removes_harmful_checkpoints(self, chain):
        """Starting from CkptAlws on a failure-free platform, everything is removed."""
        start = Schedule(chain, range(8), range(8))
        refined = local_search_checkpoints(start, Platform.failure_free())
        assert refined.schedule.n_checkpointed == 0
        assert refined.expected_makespan == pytest.approx(chain.total_weight)

    def test_max_steps_limits_work(self, chain):
        start = Schedule(chain, range(8), range(8))
        refined = local_search_checkpoints(start, Platform.failure_free(), max_steps=3)
        assert refined.steps <= 3
        assert refined.schedule.n_checkpointed >= 5

    def test_matches_chain_optimum_from_heuristic_start(self, platform):
        wf = generators.chain_workflow(7, seed=9, mean_weight=40.0).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        optimum = solve_chain(wf, platform).expected_makespan
        start = solve_heuristic(wf, platform, "DF-CkptPer").schedule
        refined = local_search_checkpoints(start, platform)
        assert refined.expected_makespan <= optimum * 1.02

    def test_refine_schedule_wrapper(self, chain, platform):
        start = Schedule(chain, range(8), ())
        refined = refine_schedule(start, platform)
        assert evaluate_schedule(refined, platform).expected_makespan <= evaluate_schedule(
            start, platform
        ).expected_makespan + 1e-9

    def test_candidate_restriction(self, chain, platform):
        start = Schedule(chain, range(8), ())
        refined = local_search_checkpoints(start, platform, candidates=[0, 1])
        assert refined.schedule.checkpointed <= {0, 1}


class TestRefinementOnGeneralDags:
    def test_improves_or_matches_ckptw_on_montage(self):
        wf = pegasus.montage(40, seed=8).with_checkpoint_costs(mode="proportional", factor=0.1)
        platform = Platform.from_platform_rate(1e-3)
        order = linearize(wf, "DF")
        heuristic = solve_heuristic(wf, platform, "DF-CkptW", counts=[5, 10, 20, 35])
        refined = local_search_checkpoints(heuristic.schedule, platform)
        assert refined.expected_makespan <= heuristic.expected_makespan + 1e-9
        # The refined schedule keeps the same linearization.
        assert refined.schedule.order == heuristic.schedule.order == order


class TestEvaluationAccounting:
    """Incremental probes count exactly like eager evaluator calls.

    ``RefinementResult.evaluations`` feeds the ablation benchmarks, so the
    sweep engine must not change the arithmetic: one probed candidate is one
    evaluator call, on either backend.
    """

    def test_greedy_counts_are_exact(self, chain, platform):
        result = greedy_checkpoint_selection(chain, range(8), platform)
        n = chain.n_tasks
        steps = result.steps
        assert steps < n  # proportional costs never justify checkpointing all
        # Round r probes the n - r remaining additions; the final round
        # probes n - steps candidates and finds no improvement.
        assert result.evaluations == 1 + sum(n - r for r in range(steps + 1))

    def test_local_search_counts_are_exact(self, chain, platform):
        result = local_search_checkpoints(Schedule(chain, range(8), {0}), platform)
        n = chain.n_tasks
        # Every round probes all n single toggles; the last round accepts
        # nothing (the search ran to a local optimum, not into a budget).
        assert result.evaluations == 1 + (result.steps + 1) * n

    def test_counts_match_across_backends(self, chain, platform):
        greedy = {
            backend: greedy_checkpoint_selection(
                chain, range(8), platform, backend=backend
            )
            for backend in ("python", "numpy")
        }
        assert greedy["python"].evaluations == greedy["numpy"].evaluations
        assert greedy["python"].steps == greedy["numpy"].steps
        local = {
            backend: local_search_checkpoints(
                Schedule(chain, range(8), {0, 3}), platform, backend=backend
            )
            for backend in ("python", "numpy")
        }
        assert local["python"].evaluations == local["numpy"].evaluations
        assert local["python"].steps == local["numpy"].steps


class TestEvaluationIsTheOneShot:
    """The start and final evaluations come from the climb's sweep; they must
    equal the one-shot evaluations of the start and final schedules."""

    @pytest.mark.parametrize("family", ["montage", "ligo", "cybershake", "genome"])
    def test_greedy_and_local_search(self, available_backend, family):
        workflow = pegasus.generate(family, 16, seed=2).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        order = linearize(workflow, "DF")
        for platform in (
            Platform.from_platform_rate(0.0),
            Platform.from_platform_rate(2e-3),
            Platform.from_platform_rate(2e-3, downtime=30.0),
        ):
            empty = Schedule(workflow, order, ())
            start = Schedule(workflow, order, set(order[::3]))
            greedy = greedy_checkpoint_selection(
                workflow, order, platform, backend=available_backend
            )
            local = local_search_checkpoints(start, platform, backend=available_backend)
            for result, begin in ((greedy, empty), (local, start)):
                assert result.evaluation == evaluate_schedule(
                    result.schedule, platform, backend=available_backend
                ), platform
                assert result.initial_expected_makespan == evaluate_schedule(
                    begin, platform, backend=available_backend
                ).expected_makespan
