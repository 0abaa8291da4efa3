"""Tests for the schedule analysis utilities (breakdown, utilities, comparisons)."""

from __future__ import annotations

import pytest

from repro import Platform, Schedule, evaluate_schedule
from repro.analysis import (
    analyse_schedule,
    checkpoint_utilities,
    compare_schedules,
    failure_rate_sensitivity,
)
from repro.workflows import generators, pegasus


@pytest.fixture
def schedule():
    wf = generators.chain_workflow(5, weights=[10, 40, 20, 30, 15]).with_checkpoint_costs(
        mode="proportional", factor=0.1
    )
    return Schedule(wf, range(5), {1, 3})


@pytest.fixture
def platform():
    return Platform.from_platform_rate(5e-3, downtime=2.0)


class TestBreakdown:
    def test_totals_are_consistent(self, schedule, platform):
        breakdown = analyse_schedule(schedule, platform)
        evaluation = evaluate_schedule(schedule, platform)
        assert breakdown.expected_makespan == pytest.approx(evaluation.expected_makespan)
        assert breakdown.useful_work == pytest.approx(schedule.workflow.total_weight)
        assert breakdown.checkpoint_time == pytest.approx(schedule.total_checkpoint_cost)
        assert breakdown.expected_waste == pytest.approx(
            evaluation.expected_makespan
            - schedule.workflow.total_weight
            - schedule.total_checkpoint_cost
        )
        assert 0.0 <= breakdown.waste_fraction < 1.0

    def test_per_task_entries(self, schedule, platform):
        breakdown = analyse_schedule(schedule, platform)
        assert len(breakdown.per_task) == 5
        total = sum(entry.expected_time for entry in breakdown.per_task)
        assert total == pytest.approx(breakdown.expected_makespan)
        for entry in breakdown.per_task:
            assert entry.expected_time >= entry.failure_free_time - 1e-9
            assert entry.overhead_ratio >= 1.0 - 1e-12
            assert entry.checkpointed == (entry.task_index in schedule.checkpointed)

    def test_failure_free_platform_has_zero_waste(self, schedule):
        breakdown = analyse_schedule(schedule, Platform.failure_free())
        assert breakdown.expected_waste == pytest.approx(0.0)
        assert breakdown.waste_fraction == pytest.approx(0.0)

    def test_worst_tasks_sorted(self, schedule, platform):
        breakdown = analyse_schedule(schedule, platform)
        worst = breakdown.worst_tasks(3)
        overheads = [entry.expected_overhead for entry in worst]
        assert overheads == sorted(overheads, reverse=True)

    def test_render_mentions_key_quantities(self, schedule, platform):
        text = analyse_schedule(schedule, platform).render(top=2)
        assert "expected makespan" in text
        assert "expected waste" in text
        assert "T1" in text or "T3" in text


class TestCheckpointUtilities:
    def test_one_entry_per_checkpoint(self, schedule, platform):
        utilities = checkpoint_utilities(schedule, platform)
        assert {u.task_index for u in utilities} == set(schedule.checkpointed)

    def test_utility_matches_direct_evaluation(self, schedule, platform):
        utilities = {u.task_index: u for u in checkpoint_utilities(schedule, platform)}
        base = evaluate_schedule(schedule, platform).expected_makespan
        for task_index, utility in utilities.items():
            without = schedule.with_checkpoints(schedule.checkpointed - {task_index})
            expected = evaluate_schedule(without, platform).expected_makespan - base
            assert utility.utility == pytest.approx(expected)

    def test_useful_checkpoint_has_positive_utility(self, platform):
        wf = generators.chain_workflow(4, weights=[100, 100, 100, 100]).with_checkpoint_costs(
            mode="proportional", factor=0.02
        )
        schedule = Schedule(wf, range(4), {1})
        (utility,) = checkpoint_utilities(schedule, platform)
        assert utility.utility > 0.0

    def test_useless_checkpoint_has_negative_utility(self):
        wf = generators.chain_workflow(3, weights=[10, 10, 10]).with_checkpoint_costs(
            mode="constant", value=5.0
        )
        schedule = Schedule(wf, range(3), {0})
        (utility,) = checkpoint_utilities(schedule, Platform.failure_free())
        assert utility.utility == pytest.approx(-5.0)

    def test_empty_checkpoint_set(self, platform):
        wf = generators.chain_workflow(3, seed=1).with_checkpoint_costs(mode="proportional", factor=0.1)
        assert checkpoint_utilities(Schedule(wf, range(3), ()), platform) == ()

    @pytest.mark.parametrize("family", ["montage", "ligo", "cybershake", "genome"])
    def test_values_are_the_one_shots(self, available_backend, family):
        """The base set and the probes share one sweep; each value must still
        be the one-shot makespan of its set, bit for bit."""
        wf = pegasus.generate(family, 30, seed=4).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        order = tuple(wf.topological_order())
        schedule = Schedule(wf, order, set(order[1::4]))
        for platform in (
            Platform.from_platform_rate(0.0),
            Platform.from_platform_rate(2e-3),
            Platform.from_platform_rate(2e-3, downtime=30.0),
        ):

            def one_shot(s):
                return evaluate_schedule(s, platform, backend=available_backend).expected_makespan

            for utility in checkpoint_utilities(schedule, platform, backend=available_backend):
                without = schedule.checkpointed - {utility.task_index}
                assert utility.expected_makespan_with == one_shot(schedule)
                assert utility.expected_makespan_without == one_shot(
                    schedule.with_checkpoints(without)
                )


class TestCompareSchedules:
    def test_ranks_schedules(self, platform):
        wf = pegasus.montage(25, seed=3).with_checkpoint_costs(mode="proportional", factor=0.1)
        order = wf.topological_order()
        comparison = compare_schedules(
            {
                "never": Schedule(wf, order, ()),
                "always": Schedule(wf, order, range(wf.n_tasks)),
                "half": Schedule(wf, order, range(0, wf.n_tasks, 2)),
            },
            Platform.from_platform_rate(1e-3),
        )
        assert set(comparison.expected_makespans) == {"never", "always", "half"}
        best = comparison.best_name
        assert comparison.gap_to_best(best) == pytest.approx(0.0)
        assert all(comparison.gap_to_best(name) >= 0.0 for name in comparison.expected_makespans)
        text = comparison.render()
        assert "vs best" in text and "never" in text

    def test_rejects_empty_and_mixed_workflows(self, platform):
        with pytest.raises(ValueError):
            compare_schedules({}, platform)
        wf_a = generators.chain_workflow(3, weights=[1, 2, 3])
        wf_b = generators.chain_workflow(3, weights=[4, 5, 6])
        with pytest.raises(ValueError):
            compare_schedules(
                {"a": Schedule(wf_a, range(3), ()), "b": Schedule(wf_b, range(3), ())},
                platform,
            )

    def test_equal_workflow_objects_allowed(self, platform):
        wf_a = generators.chain_workflow(3, weights=[1, 2, 3])
        wf_b = generators.chain_workflow(3, weights=[1, 2, 3])
        comparison = compare_schedules(
            {"a": Schedule(wf_a, range(3), ()), "b": Schedule(wf_b, range(3), {1})},
            platform,
        )
        assert len(comparison.expected_makespans) == 2


class TestSensitivity:
    def test_monotone_in_failure_rate(self, schedule, platform):
        points = failure_rate_sensitivity(schedule, platform, factors=(0.5, 1.0, 2.0, 4.0))
        makespans = [p.expected_makespan for p in points]
        assert makespans == sorted(makespans)
        assert points[1].expected_makespan == pytest.approx(
            evaluate_schedule(schedule, platform).expected_makespan
        )

    def test_zero_factor_gives_failure_free(self, schedule, platform):
        (point,) = failure_rate_sensitivity(schedule, platform, factors=(0.0,))
        assert point.expected_makespan == pytest.approx(schedule.failure_free_makespan)

    def test_validation(self, schedule, platform):
        with pytest.raises(ValueError):
            failure_rate_sensitivity(schedule, platform, factors=())
        with pytest.raises(ValueError):
            failure_rate_sensitivity(schedule, platform, factors=(-1.0,))
