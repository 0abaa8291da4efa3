"""Native (compiled C) backend: equivalence, edge cases and diagnostics.

The native kernel of :mod:`repro.core.evaluator_native` must agree with
the pure-Python reference within 1e-9 relative (not bit for bit), exactly
like the numpy sweep engine, saturate overflow at the same
:data:`~repro.core.expectation.OVERFLOW_EXPONENT`, and its sweep and
one-shot evaluations must be bit-for-bit identical.

Every numerical test here is skipped when no C toolchain is present —
:mod:`tests.test_backend_registry` pins the graceful-degradation story for
that case.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Platform,
    Schedule,
    SweepState,
    Task,
    Workflow,
    batch_evaluate,
    evaluate_schedule,
)
from repro.cli import main
from repro.core.evaluator_native import native_available

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C toolchain: native backend unavailable"
)


# ----------------------------------------------------------------------
# Strategies (mirrors tests/test_backend_equivalence.py)
# ----------------------------------------------------------------------
rate_strategy = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=0.05, allow_nan=False, allow_infinity=False),
)


@st.composite
def random_instance(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=300.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    edge_flags = draw(
        st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    edges = []
    flag_index = 0
    for i in range(n):
        for j in range(i + 1, n):
            if edge_flags[flag_index]:
                edges.append((i, j))
            flag_index += 1
    factor = draw(st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
    tasks = [Task(index=i, weight=w) for i, w in enumerate(weights)]
    workflow = Workflow(tasks, edges).with_checkpoint_costs(
        mode="proportional", factor=factor
    )
    checkpoint_flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    checkpointed = {i for i, flag in enumerate(checkpoint_flags) if flag}
    schedule = Schedule(workflow, range(n), checkpointed)
    processors = draw(st.integers(min_value=1, max_value=8))
    platform = Platform(
        processors=processors,
        processor_failure_rate=draw(rate_strategy) / processors,
        downtime=draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
    )
    return workflow, schedule, platform


def _assert_close(a: float, b: float, *, rel: float = 1e-9) -> None:
    if math.isinf(a) or math.isinf(b):
        assert a == b
        return
    assert abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _chain(n: int, *, weight: float = 10.0, factor: float = 0.1) -> Workflow:
    return Workflow(
        [Task(index=i, weight=weight) for i in range(n)],
        [(i, i + 1) for i in range(n - 1)],
    ).with_checkpoint_costs(mode="proportional", factor=factor)


# ----------------------------------------------------------------------
# Three-way equivalence
# ----------------------------------------------------------------------
class TestNativeEquivalence:
    @given(data=random_instance())
    @settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_three_backends_agree_within_1e9_relative(self, data):
        _, schedule, platform = data
        py = evaluate_schedule(schedule, platform, backend="python")
        np_ = evaluate_schedule(schedule, platform, backend="numpy")
        nat = evaluate_schedule(schedule, platform, backend="native")
        _assert_close(py.expected_makespan, nat.expected_makespan)
        _assert_close(np_.expected_makespan, nat.expected_makespan)
        assert py.failure_free_work == nat.failure_free_work
        _assert_close(py.failure_free_makespan, nat.failure_free_makespan)
        assert len(py.expected_task_times) == len(nat.expected_task_times)
        for a, b in zip(py.expected_task_times, nat.expected_task_times):
            _assert_close(a, b)

    @given(data=random_instance())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_batch_evaluate_native_matches_python(self, data):
        workflow, schedule, platform = data
        n = workflow.n_tasks
        order = tuple(range(n))
        sets = [frozenset(), frozenset(schedule.checkpointed), frozenset(range(n))]
        native_rows = batch_evaluate(workflow, order, sets, platform, backend="native")
        python_rows = batch_evaluate(workflow, order, sets, platform, backend="python")
        for nat, py in zip(native_rows, python_rows):
            _assert_close(py.expected_makespan, nat.expected_makespan)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
class TestNativeEdgeCases:
    def test_failure_free_platform_is_bit_for_bit(self):
        workflow = _chain(40)
        schedule = Schedule(workflow, range(40), {9, 19, 29})
        platform = Platform(processors=4, processor_failure_rate=0.0, downtime=5.0)
        py = evaluate_schedule(schedule, platform, backend="python")
        nat = evaluate_schedule(schedule, platform, backend="native")
        # lambda = 0 delegates to the shared reference bookkeeping: exact.
        assert nat.expected_makespan == py.expected_makespan
        assert nat.expected_task_times == py.expected_task_times

    def test_empty_schedule_is_bit_for_bit(self):
        workflow = Workflow([], [])
        schedule = Schedule(workflow, [], set())
        platform = Platform(processors=1, processor_failure_rate=1e-3, downtime=0.0)
        py = evaluate_schedule(schedule, platform, backend="python")
        nat = evaluate_schedule(schedule, platform, backend="native")
        assert nat.expected_makespan == py.expected_makespan == 0.0

    def test_saturated_exponent_agrees_with_python(self):
        # lambda * (l + w + c) far beyond OVERFLOW_EXPONENT: both backends
        # clamp the exponent at the same point, so the (astronomically
        # large, possibly inf) results must still agree — never NaN.
        workflow = _chain(30, weight=1e6, factor=0.1)
        schedule = Schedule(workflow, range(30), set())
        platform = Platform(processors=1, processor_failure_rate=10.0, downtime=0.0)
        py = evaluate_schedule(schedule, platform, backend="python")
        nat = evaluate_schedule(schedule, platform, backend="native")
        assert not math.isnan(nat.expected_makespan)
        _assert_close(py.expected_makespan, nat.expected_makespan)

    def test_product_overflow_saturates_like_python(self):
        # The instance from the python/numpy suite: Equation (1)'s product
        # overflows to inf without either exponent crossing the guard.  The
        # native kernel must return inf exactly like the reference, not NaN.
        n_mid = 100
        weights = [6.45e10] + [1e9] * n_mid + [5e9]
        tasks = [Task(index=i, weight=w) for i, w in enumerate(weights)]
        wf = Workflow(tasks, [(0, n_mid + 1)]).with_checkpoint_costs(
            mode="proportional", factor=0.0
        )
        schedule = Schedule(wf, range(n_mid + 2), ())
        platform = Platform.from_platform_rate(1e-8)
        py = evaluate_schedule(schedule, platform, backend="python")
        nat = evaluate_schedule(schedule, platform, backend="native")
        assert math.isinf(py.expected_makespan)
        assert nat.expected_makespan == py.expected_makespan

    def test_single_task(self):
        workflow = _chain(1)
        schedule = Schedule(workflow, [0], {0})
        platform = Platform(processors=1, processor_failure_rate=1e-2, downtime=2.0)
        py = evaluate_schedule(schedule, platform, backend="python")
        nat = evaluate_schedule(schedule, platform, backend="native")
        _assert_close(py.expected_makespan, nat.expected_makespan)


# ----------------------------------------------------------------------
# Sweep contract
# ----------------------------------------------------------------------
class TestNativeSweep:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        toggles=st.lists(st.integers(min_value=0, max_value=39), min_size=1, max_size=12),
    )
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_sweep_is_bit_for_bit_vs_one_shot(self, seed, toggles):
        import numpy as np

        rng = np.random.default_rng(seed)
        n = 40
        weights = rng.uniform(1.0, 60.0, size=n)
        workflow = Workflow(
            [Task(index=i, weight=float(w)) for i, w in enumerate(weights)],
            [(i, i + 1) for i in range(n - 1)],
        ).with_checkpoint_costs(mode="proportional", factor=0.1)
        platform = Platform(processors=1, processor_failure_rate=2e-3, downtime=1.0)
        state = SweepState(workflow, tuple(range(n)), platform, backend="native")
        selected: set[int] = set()
        for t in toggles:
            selected.symmetric_difference_update({t})
            swept = state.evaluate(selected)
            one_shot = evaluate_schedule(
                Schedule(workflow, range(n), selected), platform, backend="native"
            )
            assert swept.expected_makespan == one_shot.expected_makespan
            assert swept.expected_task_times == one_shot.expected_task_times

    def test_numpy_and_native_sweeps_share_instance_tables(self):
        from repro.core.sweep import _instance_tables

        workflow = _chain(50)
        order = tuple(range(50))
        platform = Platform(processors=1, processor_failure_rate=1e-3, downtime=0.0)
        np_state = SweepState(workflow, order, platform, backend="numpy")
        nat_state = SweepState(workflow, order, platform, backend="native")
        assert _instance_tables(workflow, order) is np_state._tables
        assert np_state._tables is nat_state._tables


def _random_dag(n: int, seed: int) -> Workflow:
    """A random DAG whose tasks have up to three predecessors each, so
    predecessor lists straddle many rows (the truncated-frontier path)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    weights = rng.uniform(1.0, 60.0, size=n)
    edges = set()
    for j in range(1, n):
        for i in rng.choice(j, size=min(j, int(rng.integers(0, 4))), replace=False):
            edges.add((int(i), j))
    return Workflow(
        [Task(index=i, weight=float(w)) for i, w in enumerate(weights)], sorted(edges)
    ).with_checkpoint_costs(mode="proportional", factor=0.1)


def _counters(stats) -> dict:
    from dataclasses import asdict

    counters = asdict(stats)
    del counters["fill_seconds"], counters["kernel_seconds"]
    return counters


class TestNativeMaskMaintenance:
    """The compiled fill re-derives the traversal masks, applies the toggles
    and picks the rows to refill itself; the numpy engine keeps doing all
    three in Python.  Driven through the same sets, both must hold the same
    closure / frontier words and count the same work."""

    @given(
        n=st.sampled_from([63, 64, 65, 127, 128, 129]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        processors=st.integers(min_value=2, max_value=8),
        downtime=st.floats(min_value=0.5, max_value=60.0),
        toggles=st.lists(
            st.lists(st.integers(min_value=0, max_value=128), min_size=1, max_size=5),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_masks_and_counters_match_numpy(self, n, seed, processors, downtime, toggles):
        import numpy as np

        from repro.heuristics import linearize

        workflow = _random_dag(n, seed)
        order = linearize(workflow, "RF", rng=seed)
        platform = Platform(
            processors=processors,
            processor_failure_rate=1e-4 / processors,
            downtime=downtime,
        )
        numpy_state = SweepState(workflow, order, platform, backend="numpy")
        native_state = SweepState(workflow, order, platform, backend="native")
        selected: frozenset[int] = frozenset()
        for step in toggles:
            selected ^= frozenset(t % n for t in step)
            expected = numpy_state.evaluate(selected)
            got = native_state.evaluate(selected)
            assert np.array_equal(native_state._cwords, numpy_state._cwords)
            assert np.array_equal(native_state._fwords, numpy_state._fwords)
            _assert_close(got.expected_makespan, expected.expected_makespan)
        assert _counters(native_state.stats) == _counters(numpy_state.stats)


# ----------------------------------------------------------------------
# `repro backends` CLI
# ----------------------------------------------------------------------
class TestBackendsCommand:
    # The module-level skip applies here too; the no-toolchain rendering of
    # the command is covered by tests/test_backend_registry.py instead.

    @pytest.fixture(autouse=True)
    def _no_ambient_backend_env(self, monkeypatch):
        # What "auto" resolves to is part of the assertions: an inherited
        # REPRO_EVAL_BACKEND (e.g. CI forcing native) must not leak in.
        from repro.core.backend import BACKEND_ENV_VAR

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)

    def test_table_lists_builtins(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("python", "numpy", "native"):
            assert name in out
        assert "auto resolves to:" in out

    def test_json_payload(self, capsys):
        assert main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["auto"] == "native"
        rows = {row["name"]: row for row in payload["backends"]}
        assert rows["native"]["available"] is True
        assert rows["python"]["capabilities"] == ["evaluate", "monte_carlo"]
        assert rows["native"]["capabilities"] == ["evaluate"]
