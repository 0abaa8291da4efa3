"""Unit tests for the expected-makespan evaluator (Theorem 3)."""

from __future__ import annotations

import dataclasses
import itertools
import math

import pytest

from repro import (
    Platform,
    Schedule,
    Task,
    Workflow,
    compute_lost_work,
    evaluate_schedule,
    expected_execution_time,
    expected_makespan,
)
from repro.core.evaluator_native import native_available
from repro.experiments.scenarios import DEFAULT_FAILURE_RATES
from repro.heuristics import linearize
from repro.theory import chain_expected_makespan, fork_expected_makespan, join_expected_makespan
from repro.theory.join import join_schedule
from repro.workflows import generators, pegasus

_NATIVE_MARK = pytest.mark.skipif(
    not native_available(), reason="no C toolchain: native backend unavailable"
)

#: The backends the oracles below run on besides the Python reference.
_ARRAY_BACKENDS = ["numpy", pytest.param("native", marks=_NATIVE_MARK)]


@pytest.fixture
def backend():
    """The backend an oracle checks: the Python reference, unless its class
    is parametrized over :data:`_ARRAY_BACKENDS`."""
    return "python"


class TestDegenerateCases:
    def test_empty_workflow(self):
        wf = Workflow([], [])
        evaluation = evaluate_schedule(Schedule(wf, (), ()), Platform.from_platform_rate(1e-3))
        assert evaluation.expected_makespan == 0.0
        assert evaluation.overhead_ratio == 1.0

    def test_single_task_matches_equation_one(self):
        task = Task(index=0, weight=50.0, checkpoint_cost=5.0, recovery_cost=5.0)
        wf = Workflow([task], [])
        platform = Platform.from_platform_rate(1e-2, downtime=1.0)
        with_ckpt = evaluate_schedule(Schedule(wf, (0,), {0}), platform).expected_makespan
        without = evaluate_schedule(Schedule(wf, (0,), ()), platform).expected_makespan
        assert with_ckpt == pytest.approx(expected_execution_time(50.0, 5.0, 0.0, 1e-2, 1.0))
        assert without == pytest.approx(expected_execution_time(50.0, 0.0, 0.0, 1e-2, 1.0))

    def test_failure_free_platform_gives_failure_free_makespan(self, diamond):
        schedule = Schedule(diamond, (0, 1, 2, 3), {1, 2})
        evaluation = evaluate_schedule(schedule, Platform.failure_free())
        assert evaluation.expected_makespan == pytest.approx(schedule.failure_free_makespan)
        assert evaluation.expected_task_times == pytest.approx(
            (10.0, 22.0, 5.5, 8.0)
        )


class TestGeneralProperties:
    @pytest.fixture
    def schedule(self, diamond):
        return Schedule(diamond, (0, 1, 2, 3), {1})

    def test_makespan_at_least_failure_free(self, schedule, platform):
        evaluation = evaluate_schedule(schedule, platform)
        assert evaluation.expected_makespan >= schedule.failure_free_makespan

    def test_monotonic_in_failure_rate(self, schedule, backend):
        rates = [0.0, 1e-4, 1e-3, 1e-2, 1e-1]
        values = [
            evaluate_schedule(
                schedule, Platform.from_platform_rate(r), backend=backend
            ).expected_makespan
            for r in rates
        ]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_monotonic_in_downtime(self, schedule, backend):
        low = evaluate_schedule(
            schedule, Platform.from_platform_rate(1e-2, downtime=0.0), backend=backend
        )
        high = evaluate_schedule(
            schedule, Platform.from_platform_rate(1e-2, downtime=10.0), backend=backend
        )
        assert high.expected_makespan > low.expected_makespan

    def test_task_times_sum_to_makespan(self, schedule, platform):
        evaluation = evaluate_schedule(schedule, platform)
        assert sum(evaluation.expected_task_times) == pytest.approx(evaluation.expected_makespan)

    def test_event_probabilities_sum_to_one(self, schedule, harsh_platform):
        evaluation = evaluate_schedule(schedule, harsh_platform, keep_probabilities=True)
        assert evaluation.event_probabilities is not None
        for row in evaluation.event_probabilities:
            assert sum(row) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0.0 for p in row)

    def test_precomputed_lost_work_gives_same_result(self, schedule, platform):
        # ``lost_work=`` always runs on the reference: compare like with like.
        lw = compute_lost_work(schedule)
        direct = evaluate_schedule(schedule, platform, backend="python").expected_makespan
        reused = evaluate_schedule(schedule, platform, lost_work=lw).expected_makespan
        assert direct == pytest.approx(reused)

    def test_expected_makespan_wrapper(self, schedule, platform):
        assert expected_makespan(schedule, platform) == pytest.approx(
            evaluate_schedule(schedule, platform).expected_makespan
        )

    def test_overhead_ratio_definition(self, schedule, platform):
        evaluation = evaluate_schedule(schedule, platform)
        assert evaluation.overhead_ratio == pytest.approx(
            evaluation.expected_makespan / schedule.workflow.total_weight
        )
        assert evaluation.slowdown == pytest.approx(
            evaluation.expected_makespan / schedule.failure_free_makespan
        )


@pytest.mark.parametrize("backend", _ARRAY_BACKENDS)
class TestMonotonicityOnArrayBackends:
    """The monotonicity oracles of :class:`TestGeneralProperties`, which runs
    them on the Python reference, on the array backends."""

    schedule = TestGeneralProperties.schedule
    test_monotonic_in_failure_rate = TestGeneralProperties.test_monotonic_in_failure_rate
    test_monotonic_in_downtime = TestGeneralProperties.test_monotonic_in_downtime


class TestAgainstClosedForms:
    """The evaluator must agree with every closed form derived in the paper."""

    @pytest.mark.parametrize("checkpoints", [(), (1,), (2,), (1, 3), (0, 1, 2, 3, 4)])
    def test_chain_segment_decomposition(self, checkpoints, backend):
        wf = generators.chain_workflow(5, weights=[4, 12, 7, 3, 9]).with_checkpoint_costs(
            mode="proportional", factor=0.15
        )
        platform = Platform.from_platform_rate(2e-2, downtime=1.0)
        schedule = Schedule(wf, range(5), checkpoints)
        value = evaluate_schedule(schedule, platform, backend=backend).expected_makespan
        assert value == pytest.approx(
            chain_expected_makespan(wf, platform, checkpoints)
        )

    @pytest.mark.parametrize("checkpoint_source", [True, False])
    def test_fork_formula(self, checkpoint_source, backend):
        wf = generators.fork_workflow(
            4, source_weight=20.0, sink_weights=[5, 10, 15, 20]
        ).with_checkpoint_costs(mode="proportional", factor=0.1)
        platform = Platform.from_platform_rate(1e-2, downtime=0.5)
        src = wf.sources[0]
        order = [src] + [i for i in range(wf.n_tasks) if i != src]
        schedule = Schedule(wf, order, {src} if checkpoint_source else ())
        value = evaluate_schedule(schedule, platform, backend=backend).expected_makespan
        assert value == pytest.approx(
            fork_expected_makespan(wf, platform, checkpoint_source=checkpoint_source)
        )

    def test_fork_sink_order_is_irrelevant(self, backend):
        """Theorem 1: any ordering of the sinks has the same expected makespan."""
        wf = generators.fork_workflow(4, source_weight=8.0, sink_weights=[3, 6, 9, 12]).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        platform = Platform.from_platform_rate(3e-2)
        values = []
        for perm in itertools.permutations(range(1, 5)):
            schedule = Schedule(wf, (0,) + perm, {0})
            values.append(
                evaluate_schedule(schedule, platform, backend=backend).expected_makespan
            )
        assert max(values) - min(values) < 1e-8 * max(values)

    @pytest.mark.parametrize("checkpoints", [(), (0,), (0, 2), (0, 1, 2, 3)])
    def test_join_equation_two(self, checkpoints, backend):
        wf = generators.join_workflow(
            4, sink_weight=6.0, source_weights=[10, 20, 5, 8]
        ).with_checkpoint_costs(mode="proportional", factor=0.2)
        platform = Platform.from_platform_rate(1.5e-2, downtime=2.0)
        schedule = join_schedule(wf, platform, checkpoints)
        value = evaluate_schedule(schedule, platform, backend=backend).expected_makespan
        assert value == pytest.approx(
            join_expected_makespan(wf, platform, checkpoints), rel=1e-9
        )

    def test_join_non_checkpointed_order_is_irrelevant(self, backend):
        """Lemma 2 proof: ordering of the non-checkpointed sources does not matter."""
        wf = generators.join_workflow(3, sink_weight=4.0, source_weights=[7, 11, 3]).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        platform = Platform.from_platform_rate(2e-2)
        values = []
        for perm in itertools.permutations(range(3)):
            schedule = Schedule(wf, tuple(perm) + (3,), ())
            values.append(
                evaluate_schedule(schedule, platform, backend=backend).expected_makespan
            )
        assert max(values) - min(values) < 1e-9 * max(values)


@pytest.mark.parametrize("backend", _ARRAY_BACKENDS)
class TestAgainstClosedFormsOnArrayBackends(TestAgainstClosedForms):
    """The closed forms of :class:`TestAgainstClosedForms`, which checks the
    Python reference, on the array backends."""


class TestCheckpointTradeoff:
    """The paper's core trade-off: checkpoints cost time but bound re-execution."""

    def test_checkpointing_helps_under_heavy_failures(self):
        wf = generators.chain_workflow(6, weights=[50] * 6).with_checkpoint_costs(
            mode="proportional", factor=0.05
        )
        platform = Platform.from_platform_rate(5e-3)
        never = evaluate_schedule(Schedule(wf, range(6), ()), platform).expected_makespan
        always = evaluate_schedule(Schedule(wf, range(6), range(6)), platform).expected_makespan
        assert always < never

    def test_checkpointing_hurts_when_failure_free(self):
        wf = generators.chain_workflow(6, weights=[50] * 6).with_checkpoint_costs(
            mode="proportional", factor=0.05
        )
        platform = Platform.failure_free()
        never = evaluate_schedule(Schedule(wf, range(6), ()), platform).expected_makespan
        always = evaluate_schedule(Schedule(wf, range(6), range(6)), platform).expected_makespan
        assert never < always

    def test_extreme_rate_saturates_to_infinity(self):
        wf = generators.chain_workflow(3, weights=[1e4] * 3).with_checkpoint_costs(
            mode="constant", value=0.0
        )
        platform = Platform.from_platform_rate(1.0)
        value = evaluate_schedule(Schedule(wf, range(3), ()), platform).expected_makespan
        assert math.isinf(value)


#: (family, size, backend): the four Pegasus families at paper sizes; the
#: pure-Python reference stops at n = 100 to keep the suite fast.
_SCALING_CASES = [
    pytest.param(
        family,
        n_tasks,
        backend,
        marks=[_NATIVE_MARK] if backend == "native" else [],
        id=f"{family}-{n_tasks}-{backend}",
    )
    for family in pegasus.WORKFLOW_FAMILIES
    for n_tasks in (20, 100, 300)
    for backend in ("python", "numpy", "native")
    if not (backend == "python" and n_tasks > 100)
]


class TestTimeScalingOracle:
    """Changing the unit of time is invisible to Theorem 3.

    Scaling every w, c, r and D by alpha and lambda by 1/alpha leaves every
    exposure ``lambda * t`` unchanged and scales every time by alpha, so
    E[T] must scale by alpha.  For a power-of-two alpha every scaled
    operand and every rounding is exact, so the relation holds bit for bit;
    any other alpha perturbs the inputs by an ulp and holds to 1e-12.  The
    oracle checks each backend at paper sizes without comparing one
    backend against another.
    """

    @staticmethod
    def _evaluate(workflow, order, checkpointed, family, alpha, backend):
        scaled = workflow.map_tasks(
            lambda t: dataclasses.replace(
                t,
                weight=t.weight * alpha,
                checkpoint_cost=t.checkpoint_cost * alpha,
                recovery_cost=t.recovery_cost * alpha,
            )
        )
        platform = Platform.from_platform_rate(
            DEFAULT_FAILURE_RATES[family] / alpha, downtime=30.0 * alpha
        )
        return evaluate_schedule(
            Schedule(scaled, order, checkpointed), platform, backend=backend
        )

    @pytest.mark.parametrize("family, n_tasks, backend", _SCALING_CASES)
    def test_scaling_time_scales_the_expected_makespan(self, family, n_tasks, backend):
        workflow = pegasus.generate(family, n_tasks, seed=4).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        order = linearize(workflow, "DF")
        checkpointed = frozenset(order[::3])
        base = self._evaluate(workflow, order, checkpointed, family, 1.0, backend)
        assert math.isfinite(base.expected_makespan)
        for alpha in (4.0, 0.125):
            scaled = self._evaluate(workflow, order, checkpointed, family, alpha, backend)
            assert scaled.expected_makespan == alpha * base.expected_makespan
            assert scaled.expected_task_times == tuple(
                alpha * t for t in base.expected_task_times
            )
        scaled = self._evaluate(workflow, order, checkpointed, family, 3.0, backend)
        assert scaled.expected_makespan == pytest.approx(
            3.0 * base.expected_makespan, rel=1e-12, abs=0.0
        )
