"""Tests for the checkpoint-count search."""

from __future__ import annotations

import pytest

from repro import Platform, Schedule, SweepState, evaluate_schedule
from repro.heuristics import (
    candidate_counts,
    checkpoint_by_weight,
    linearize,
    search_checkpoint_count,
)
from repro.workflows import generators, pegasus


@pytest.fixture
def wf():
    return generators.chain_workflow(10, seed=4, mean_weight=40.0).with_checkpoint_costs(
        mode="proportional", factor=0.1
    )


@pytest.fixture
def platform():
    return Platform.from_platform_rate(5e-3)


class TestCandidateCounts:
    def test_exhaustive_covers_everything(self):
        assert candidate_counts(6) == (1, 2, 3, 4, 5, 6)

    def test_tiny_workflows(self):
        assert candidate_counts(1) == (0,)
        assert candidate_counts(0) == ()
        assert candidate_counts(2) == (1, 2)

    def test_geometric_respects_budget(self):
        counts = candidate_counts(500, mode="geometric", max_candidates=12)
        assert len(counts) <= 12
        assert counts[0] == 1 and counts[-1] == 500
        assert list(counts) == sorted(set(counts))

    def test_geometric_small_falls_back_to_exhaustive(self):
        assert candidate_counts(10, mode="geometric", max_candidates=30) == tuple(range(1, 11))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            candidate_counts(10, mode="fancy")


class TestSearch:
    def test_finds_the_best_count_exhaustively(self, wf, platform):
        order = linearize(wf, "DF")
        search = search_checkpoint_count(wf, order, platform, checkpoint_by_weight)
        # Recompute every candidate by hand and compare.
        best = min(
            evaluate_schedule(
                Schedule(wf, order, checkpoint_by_weight(wf, order, n)), platform
            ).expected_makespan
            for n in range(0, wf.n_tasks + 1)
        )
        assert search.best_evaluation.expected_makespan == pytest.approx(best)
        assert search.best_schedule.workflow is wf

    def test_reports_every_candidate(self, wf, platform):
        order = linearize(wf, "DF")
        search = search_checkpoint_count(wf, order, platform, checkpoint_by_weight)
        assert set(search.evaluated) == set(range(0, wf.n_tasks + 1))
        assert min(search.evaluated.values()) == pytest.approx(
            search.best_evaluation.expected_makespan
        )

    def test_subsampled_counts_are_respected(self, wf, platform):
        order = linearize(wf, "DF")
        search = search_checkpoint_count(
            wf, order, platform, checkpoint_by_weight, counts=[2, 5], include_zero=False
        )
        assert set(search.evaluated) == {2, 5}

    def test_include_zero_allows_empty_checkpoint_set(self, wf):
        order = linearize(wf, "DF")
        search = search_checkpoint_count(
            wf, order, Platform.failure_free(), checkpoint_by_weight
        )
        assert search.best_count == 0
        assert search.best_schedule.n_checkpointed == 0

    def test_invalid_count_rejected(self, wf, platform):
        order = linearize(wf, "DF")
        with pytest.raises(ValueError):
            search_checkpoint_count(
                wf, order, platform, checkpoint_by_weight, counts=[-3]
            )
        with pytest.raises(ValueError):
            search_checkpoint_count(
                wf, order, platform, checkpoint_by_weight, counts=[999]
            )

    def test_empty_counts_rejected(self, wf, platform):
        order = linearize(wf, "DF")
        with pytest.raises(ValueError):
            search_checkpoint_count(
                wf, order, platform, checkpoint_by_weight, counts=[], include_zero=False
            )

    def test_duplicate_selections_not_reevaluated(self, wf, platform):
        """CkptPer-style selectors can map several counts to the same set."""
        order = linearize(wf, "DF")

        calls = []

        def selector(workflow, order_, count):
            calls.append(count)
            return frozenset({0})  # constant selection regardless of count

        search = search_checkpoint_count(wf, order, platform, selector, counts=[1, 2, 3])
        assert len(set(search.evaluated.values())) == 2  # {0 checkpoints, {0}}
        assert len(calls) == 3


class TestIncrementalAccounting:
    """The incremental sweep prices every candidate exactly once per count.

    The ablation benchmarks compare evaluator-call counts across backends,
    so an incremental toggle must count exactly like an eager evaluation.
    """

    def test_evaluated_covers_every_count_on_both_backends(self, wf, platform):
        order = linearize(wf, "DF")
        by_backend = {
            backend: search_checkpoint_count(
                wf, order, platform, checkpoint_by_weight, backend=backend
            )
            for backend in ("python", "numpy")
        }
        python, numpy_ = by_backend["python"], by_backend["numpy"]
        # include_zero + exhaustive: one entry per count 0..n, whatever the
        # backend — the sweep never skips or double-counts a candidate.
        assert set(python.evaluated) == set(range(0, wf.n_tasks + 1))
        assert python.evaluated.keys() == numpy_.evaluated.keys()
        for count, value in python.evaluated.items():
            assert abs(value - numpy_.evaluated[count]) <= 1e-9 * max(1.0, abs(value))
        assert python.best_count == numpy_.best_count


class TestSweepGuard:
    """A search prices everything on the sweep it is given, which must be
    over its own workflow object, order and platform."""

    @pytest.fixture
    def instance(self):
        wf = pegasus.montage(20, seed=1).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        return wf, linearize(wf, "DF"), Platform.from_platform_rate(1e-3)

    def test_candidates_and_winner_priced_on_the_passed_sweep(self, instance):
        wf, order, platform = instance
        sweep = SweepState(wf, order, platform)
        search = search_checkpoint_count(
            wf, order, platform, checkpoint_by_weight, sweep=sweep
        )
        assert search == search_checkpoint_count(wf, order, platform, checkpoint_by_weight)
        # The n + 1 nested sets of N = 0 .. n, then the winner with task times.
        assert sweep.stats.evaluations == wf.n_tasks + 2
        assert search.best_evaluation == evaluate_schedule(search.best_schedule, platform)

    def test_rejects_another_order(self, instance):
        wf, order, platform = instance
        other = linearize(wf, "BF")
        assert other != order
        sweep = SweepState(wf, other, platform)
        with pytest.raises(ValueError, match="another workflow, linearization or platform"):
            search_checkpoint_count(wf, order, platform, checkpoint_by_weight, sweep=sweep)

    def test_rejects_another_platform(self, instance):
        wf, order, platform = instance
        sweep = SweepState(wf, order, Platform.from_platform_rate(1e-3, downtime=5.0))
        with pytest.raises(ValueError, match="another workflow, linearization or platform"):
            search_checkpoint_count(wf, order, platform, checkpoint_by_weight, sweep=sweep)

    def test_rejects_another_workflow_object(self, instance):
        wf, order, platform = instance
        twin = pegasus.montage(20, seed=1).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        sweep = SweepState(twin, order, platform)
        with pytest.raises(ValueError, match="another workflow, linearization or platform"):
            search_checkpoint_count(wf, order, platform, checkpoint_by_weight, sweep=sweep)

    def test_rejects_backend_with_sweep(self, instance):
        wf, order, platform = instance
        sweep = SweepState(wf, order, platform)
        with pytest.raises(ValueError, match="not both"):
            search_checkpoint_count(
                wf, order, platform, checkpoint_by_weight, backend="auto", sweep=sweep
            )
