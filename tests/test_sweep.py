"""Unit tests for the incremental sweep engine (:mod:`repro.core.sweep`).

The numerical heart of the engine — bit-for-bit equality with per-candidate
evaluation across random DAGs, platforms and toggle sequences — is pinned by
the property suite in ``tests/test_backend_equivalence.py``.  This module
covers the engine's contract: backend resolution and the eager fallback,
validation, bookkeeping (``current`` / ``stats``), refills that leave no stale
loss entries behind, and the saturation / structural-zero regimes.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro import (
    Platform,
    Schedule,
    SweepState,
    Task,
    Workflow,
    batch_evaluate,
    evaluate_schedule,
)
from repro.core.evaluator_native import native_available
from repro.heuristics import linearize
from repro.workflows import generators, pegasus

ARRAY_BACKENDS = [
    "numpy",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(),
            reason="no C toolchain: native backend unavailable",
        ),
    ),
]


@pytest.fixture
def instance():
    workflow = pegasus.montage(40, seed=5).with_checkpoint_costs(
        mode="proportional", factor=0.1
    )
    order = linearize(workflow, "DF")
    platform = Platform.from_platform_rate(1e-3, downtime=2.0)
    return workflow, order, platform


def _reference(workflow, order, selected, platform, backend="numpy"):
    return evaluate_schedule(
        Schedule(workflow, order, selected), platform, backend=backend
    )


class TestContract:
    def test_matches_per_candidate_evaluation_exactly(self, instance):
        workflow, order, platform = instance
        state = SweepState(workflow, order, platform, backend="numpy")
        for selected in [frozenset(), frozenset({3}), frozenset({3, 17}), frozenset({17})]:
            got = state.evaluate(selected)
            ref = _reference(workflow, order, selected, platform)
            assert got.expected_makespan == ref.expected_makespan
            assert got.expected_task_times == ref.expected_task_times

    def test_current_tracks_last_evaluated_set(self, instance):
        workflow, order, platform = instance
        state = SweepState(workflow, order, platform, backend="numpy")
        assert state.current == frozenset()
        state.evaluate({2, 5})
        assert state.current == frozenset({2, 5})
        state.evaluate({5})
        assert state.current == frozenset({5})

    def test_duplicate_set_is_served_from_state(self, instance):
        workflow, order, platform = instance
        state = SweepState(workflow, order, platform, backend="numpy")
        first = state.evaluate({1, 4})
        again = state.evaluate({1, 4})
        assert again == first
        assert state.stats.evaluations == 2
        assert state.stats.full_recomputes == 1

    def test_keep_task_times_flag(self, instance):
        workflow, order, platform = instance
        state = SweepState(workflow, order, platform, backend="numpy")
        slim = state.evaluate({2}, keep_task_times=False)
        assert slim.expected_task_times == ()
        full = state.evaluate({2}, keep_task_times=True)
        assert len(full.expected_task_times) == workflow.n_tasks
        assert full.expected_makespan == slim.expected_makespan

    def test_toggle_add_remove_readd_round_trips(self, instance):
        workflow, order, platform = instance
        state = SweepState(workflow, order, platform, backend="numpy")
        base = frozenset({0, 9, 21})
        values = {}
        for selected in (base, base | {13}, base, base | {13}):
            values.setdefault(selected, []).append(
                state.evaluate(selected).expected_makespan
            )
        for selected, observed in values.items():
            ref = _reference(workflow, order, selected, platform).expected_makespan
            assert all(value == ref for value in observed)

    def test_revert_to_base_matches_reference(self, instance):
        workflow, order, platform = instance
        state = SweepState(workflow, order, platform, backend="numpy")
        base = frozenset(order[::4])
        state.evaluate(frozenset())
        state.evaluate(base)
        state.evaluate(base | {order[1]})
        got = state.evaluate(base)    # the revert refills the probed rows
        ref = _reference(workflow, order, base, platform)
        assert got.expected_makespan == ref.expected_makespan
        assert got.expected_task_times == ref.expected_task_times

    @pytest.mark.parametrize("backend", ARRAY_BACKENDS)
    @pytest.mark.parametrize(
        "family, n_tasks, cost_factor",
        [
            ("montage", 63, 0.1),
            ("cybershake", 64, 0.1),
            ("ligo", 65, 0.1),
            # Zero recovery costs: visited sets of checkpointed positions
            # charge exactly 0.0, which must still overwrite a stale entry.
            ("montage", 64, 0.0),
        ],
    )
    def test_refill_leaves_no_stale_entries(self, backend, family, n_tasks, cost_factor):
        """Every refill overwrites its rows: the loss matrix after any walk
        equals the one a fresh state builds for the same set."""
        workflow = pegasus.generate(family, n_tasks, seed=11).with_checkpoint_costs(
            mode="proportional", factor=cost_factor
        )
        order = linearize(workflow, "DF")
        platform = Platform.from_platform_rate(1e-3, downtime=2.0)
        state = SweepState(workflow, order, platform, backend=backend)
        rng = random.Random(n_tasks)
        current: frozenset[int] = frozenset()
        previous = current
        for _ in range(40):
            if rng.random() < 0.3:
                current, previous = previous, current  # revert probe
            else:
                toggles = rng.sample(range(n_tasks), rng.randint(1, 3))
                current, previous = current ^ frozenset(toggles), current
            state.evaluate(current)
            fresh = SweepState(workflow, order, platform, backend=backend)
            fresh.evaluate(current)
            assert np.array_equal(state._loss_t, fresh._loss_t)
            if backend == "numpy":
                assert np.array_equal(state._neg_loss_t, fresh._neg_loss_t)

    def test_stats_accounting(self, instance):
        workflow, order, platform = instance
        state = SweepState(workflow, order, platform, backend="numpy", profile=True)
        state.evaluate({2})
        state.evaluate({2, 30})
        state.evaluate({30})
        stats = state.stats
        assert stats.evaluations == 3
        assert stats.full_recomputes == 1
        # 1 initial toggle, then one add and one remove.
        assert stats.toggles == 3
        assert stats.rows_refilled > 0
        assert stats.kernel_positions >= workflow.n_tasks
        assert stats.fill_seconds > 0.0
        assert stats.kernel_seconds > 0.0


class TestValidationAndFallback:
    def test_invalid_order_rejected(self, instance):
        workflow, _, platform = instance
        with pytest.raises(ValueError, match="permutation"):
            SweepState(workflow, [0, 0, 1], platform, backend="numpy")

    def test_dependency_violation_rejected(self, instance):
        workflow, order, platform = instance
        bad = tuple(reversed(order))
        with pytest.raises(ValueError, match="dependency"):
            SweepState(workflow, bad, platform, backend="numpy")

    def test_invalid_task_index_rejected(self, instance):
        workflow, order, platform = instance
        state = SweepState(workflow, order, platform, backend="numpy")
        with pytest.raises(ValueError, match="invalid task indices"):
            state.evaluate({workflow.n_tasks})

    def test_python_backend_is_eager_reference(self, instance):
        workflow, order, platform = instance
        state = SweepState(workflow, order, platform, backend="python")
        assert not state.is_incremental
        for selected in (frozenset({1}), frozenset({1, 2})):
            got = state.evaluate(selected)
            ref = _reference(workflow, order, selected, platform, backend="python")
            assert got == ref
        slim = state.evaluate({1}, keep_task_times=False)
        assert slim.expected_task_times == ()

    def test_failure_free_platform_is_eager(self, instance):
        workflow, order, _ = instance
        state = SweepState(workflow, order, Platform.failure_free(), backend="numpy")
        assert not state.is_incremental
        evaluation = state.evaluate(frozenset({0}))
        assert evaluation.expected_makespan == pytest.approx(
            Schedule(workflow, order, {0}).failure_free_makespan
        )

    def test_empty_workflow_is_eager(self):
        workflow = Workflow([], [])
        platform = Platform.from_platform_rate(1e-3)
        state = SweepState(workflow, (), platform, backend="numpy")
        assert not state.is_incremental
        assert state.evaluate(frozenset()).expected_makespan == 0.0

    def test_auto_backend_resolution(self, instance):
        workflow, order, platform = instance
        assert SweepState(workflow, order, platform, backend="numpy").backend == "numpy"
        assert SweepState(workflow, order, platform, backend="python").backend == "python"
        # montage-40 exceeds the auto threshold, so auto routes to numpy.
        assert SweepState(workflow, order, platform).is_incremental


class TestRegimes:
    def test_zero_recovery_costs_keep_structural_zero_semantics(self):
        workflow = pegasus.montage(30, seed=7).with_checkpoint_costs(
            mode="proportional", factor=0.0
        )
        order = linearize(workflow, "DF")
        platform = Platform.from_platform_rate(1e-2)
        state = SweepState(workflow, order, platform, backend="numpy")
        current: set[int] = set()
        for task in (3, 11, 3, 26, 11):
            current ^= {task}
            got = state.evaluate(frozenset(current))
            ref = _reference(workflow, order, frozenset(current), platform)
            assert got.expected_makespan == ref.expected_makespan
            assert got.expected_task_times == ref.expected_task_times

    def test_saturated_instances_toggle_exactly(self):
        """inf makespans (masked-dot regime) disable prefix reuse, not equality."""
        n_mid = 40
        weights = [6.45e10] + [1e9] * n_mid + [5e9]
        tasks = [Task(index=i, weight=w) for i, w in enumerate(weights)]
        workflow = Workflow(tasks, [(0, n_mid + 1)]).with_checkpoint_costs(
            mode="proportional", factor=0.0
        )
        order = tuple(range(n_mid + 2))
        platform = Platform.from_platform_rate(1e-8)
        state = SweepState(workflow, order, platform, backend="numpy")
        current: set[int] = set()
        saw_inf = False
        for task in (5, 0, 5, 17, 0):
            current ^= {task}
            got = state.evaluate(frozenset(current))
            ref = _reference(workflow, order, frozenset(current), platform)
            if math.isinf(ref.expected_makespan):
                saw_inf = True
            assert got.expected_makespan == ref.expected_makespan
            assert got.expected_task_times == ref.expected_task_times
        assert saw_inf

    def test_no_edge_workflow(self):
        tasks = [Task(index=i, weight=float(i + 1)) for i in range(6)]
        workflow = Workflow(tasks, [])
        platform = Platform.from_platform_rate(1e-2)
        state = SweepState(workflow, range(6), platform, backend="numpy")
        for selected in (frozenset(), frozenset({0, 3}), frozenset(range(6))):
            got = state.evaluate(selected)
            ref = _reference(workflow, range(6), selected, platform)
            assert got.expected_makespan == ref.expected_makespan


class TestBatchEvaluatePlumbing:
    def test_batch_evaluate_routes_through_the_sweep(self, instance):
        workflow, order, platform = instance
        sets = [frozenset(), frozenset({2}), frozenset({2, 7}), frozenset({7})]
        batch = batch_evaluate(workflow, order, sets, platform, backend="numpy")
        for selected, evaluation in zip(sets, batch):
            ref = _reference(workflow, order, selected, platform)
            assert evaluation.expected_makespan == ref.expected_makespan

    def test_batch_evaluate_validates_sets_up_front(self, instance):
        workflow, order, platform = instance
        with pytest.raises(ValueError, match="invalid task indices"):
            batch_evaluate(
                workflow, order, [frozenset(), {workflow.n_tasks}], platform,
                backend="numpy",
            )

    def test_chain_instances_match(self):
        workflow = generators.chain_workflow(24, seed=3).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        platform = Platform.from_platform_rate(2e-3, downtime=1.0)
        state = SweepState(workflow, range(24), platform, backend="numpy")
        current: set[int] = set()
        for task in (4, 9, 4, 20, 9, 4):
            current ^= {task}
            got = state.evaluate(frozenset(current))
            ref = _reference(workflow, range(24), frozenset(current), platform)
            assert got.expected_makespan == ref.expected_makespan
            assert got.expected_task_times == ref.expected_task_times


def _assert_recovers(state, workflow, order, platform, backend):
    for selected in ({1, 5, 9, 20}, {5, 9}, set()):
        got = state.evaluate(frozenset(selected))
        ref = _reference(workflow, order, frozenset(selected), platform, backend)
        assert got.expected_makespan == ref.expected_makespan
        assert got.expected_task_times == ref.expected_task_times


class TestAbortedEvaluationRecovery:
    def test_exception_mid_evaluation_poisons_then_recovers(self, instance):
        """An aborted evaluate() must not leave a half-updated state behind."""
        workflow, order, platform = instance
        state = SweepState(workflow, order, platform, backend="numpy")
        state.evaluate({1, 5, 9})

        original = state._refill_rows

        def boom(rows):
            raise MemoryError("injected mid-evaluation")

        state._refill_rows = boom  # type: ignore[method-assign]
        with pytest.raises(MemoryError):
            state.evaluate({1, 5, 9, 20})
        state._refill_rows = original  # type: ignore[method-assign]

        _assert_recovers(state, workflow, order, platform, "numpy")

    @pytest.mark.skipif(
        not native_available(), reason="no C toolchain: native backend unavailable"
    )
    @pytest.mark.parametrize("first", [False, True], ids=["incremental", "first"])
    @pytest.mark.parametrize("entry", ["fill_rows", "theorem3_kernel"])
    def test_native_failure_poisons_then_recovers(
        self, instance, monkeypatch, first, entry
    ):
        """The same contract on native, with the failure injected at a
        compiled entry point — at the fill, before it touches anything, or
        at the kernel, after the fill has already toggled, re-derived the
        masks and refilled — on the first evaluation of a state and on an
        incremental one."""
        workflow, order, platform = instance
        state = SweepState(workflow, order, platform, backend="native")
        if not first:
            state.evaluate({1, 5, 9})

        def boom(*args):
            raise MemoryError(f"injected at {entry}")

        with monkeypatch.context() as patch:
            patch.setattr(state._kernels, entry, boom)
            with pytest.raises(MemoryError):
                state.evaluate({1, 5, 9, 20})

        _assert_recovers(state, workflow, order, platform, "native")
