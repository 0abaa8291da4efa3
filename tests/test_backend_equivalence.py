"""Evaluation-backend equivalence (property-based).

The array backends (numpy, and native when a C toolchain is present) run
the sweep engine of :mod:`repro.core.sweep`.  On any instance they have to
agree with the pure-Python reference of :mod:`repro.core.evaluator` within
floating-point noise (1e-9 relative, not bit for bit), bit-for-bit on the
shared trivial cases (``lambda = 0``, empty schedules), and cache keys must
not depend on the backend so that a warm cache serves both.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    BACKEND_REGISTRY,
    Platform,
    Schedule,
    SweepState,
    Task,
    Workflow,
    batch_evaluate,
    compute_lost_work,
    evaluate_schedule,
)
from repro.core.backend import BACKEND_ENV_VAR
from repro.core.evaluator_native import native_available
from repro.runtime import ResultCache
from repro.runtime.keys import evaluation_key
from repro.runtime.runner import WorkUnit, evaluate_schedule_cached, plan_unit
from repro.experiments.campaign import run_campaign
from repro.experiments.scenarios import Scenario, scenario_grid
from repro.workflows import generators


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
rate_strategy = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=0.05, allow_nan=False, allow_infinity=False),
)
downtime_strategy = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def random_instance(draw):
    """A random DAG, a valid schedule with a random checkpoint set, a platform."""
    n = draw(st.integers(min_value=1, max_value=12))
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=300.0, allow_nan=False, allow_infinity=False),
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
    # Natural order 0..n-1 is always a valid linearization for i<j edges.
    schedule = Schedule(workflow, range(n), checkpointed)
    # The platform draw covers the full scenario space: D > 0 and p > 1
    # are first-class grid axes, so the backends must agree there too.  The
    # drawn rate bounds the *effective* platform rate (p x rate/p), keeping
    # the failure pressure in the same regime the p=1 strategy explored.
    processors = draw(st.integers(min_value=1, max_value=8))
    platform = Platform(
        processors=processors,
        processor_failure_rate=draw(rate_strategy) / processors,
        downtime=draw(downtime_strategy),
    )
    return workflow, schedule, platform


def _assert_close(a: float, b: float, *, rel: float = 1e-9) -> None:
    if math.isinf(a) or math.isinf(b):
        assert a == b
        return
    assert abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ----------------------------------------------------------------------
# Numerical equivalence
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @given(data=random_instance())
    @settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_backends_agree_within_1e9_relative(self, data):
        _, schedule, platform = data
        py = evaluate_schedule(schedule, platform, backend="python")
        np_ = evaluate_schedule(schedule, platform, backend="numpy")
        _assert_close(py.expected_makespan, np_.expected_makespan)
        assert py.failure_free_work == np_.failure_free_work
        _assert_close(py.failure_free_makespan, np_.failure_free_makespan)
        assert len(py.expected_task_times) == len(np_.expected_task_times)
        for a, b in zip(py.expected_task_times, np_.expected_task_times):
            _assert_close(a, b)

    @given(data=random_instance())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_probability_tables_agree(self, data):
        """``keep_probabilities`` is a diagnostic that runs on the Python
        reference whatever the backend, so the tables are identical and the
        makespan matches the reference bit for bit."""
        _, schedule, platform = data
        py = evaluate_schedule(
            schedule, platform, backend="python", keep_probabilities=True
        )
        np_ = evaluate_schedule(
            schedule, platform, backend="numpy", keep_probabilities=True
        )
        assert py.event_probabilities is not None
        assert np_.event_probabilities is not None
        assert np_.event_probabilities == py.event_probabilities
        assert np_.expected_makespan == py.expected_makespan

    @given(data=random_instance())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_precomputed_lost_work_matches_internal_fill(self, data):
        """The numpy sweep fills its own loss matrix; a precomputed LostWork
        sends the call to the Python reference, which must agree."""
        _, schedule, platform = data
        lw = compute_lost_work(schedule)
        direct = evaluate_schedule(schedule, platform, backend="numpy")
        reused = evaluate_schedule(
            schedule, platform, backend="numpy", lost_work=lw
        )
        _assert_close(direct.expected_makespan, reused.expected_makespan)

    @given(data=random_instance())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_batch_evaluate_matches_per_schedule(self, data):
        workflow, schedule, platform = data
        n = workflow.n_tasks
        sets = [
            frozenset(),
            schedule.checkpointed,
            frozenset(range(n)),
            frozenset(range(0, n, 2)),
        ]
        batch = batch_evaluate(workflow, schedule.order, sets, platform, backend="numpy")
        assert len(batch) == len(sets)
        for selected, evaluation in zip(sets, batch):
            ref = evaluate_schedule(
                Schedule(workflow, schedule.order, selected), platform, backend="python"
            )
            _assert_close(evaluation.expected_makespan, ref.expected_makespan)
            _assert_close(evaluation.failure_free_makespan, ref.failure_free_makespan)

    def test_failure_free_platform_is_bit_for_bit(self):
        wf = generators.chain_workflow(7, weights=[3, 1, 4, 1, 5, 9, 2]).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        schedule = Schedule(wf, range(7), {1, 4})
        platform = Platform.failure_free()
        py = evaluate_schedule(schedule, platform, backend="python")
        np_ = evaluate_schedule(schedule, platform, backend="numpy")
        # lambda = 0 short-circuits through shared code: exact equality.
        assert py.expected_makespan == np_.expected_makespan
        assert py.expected_task_times == np_.expected_task_times

    def test_product_overflow_saturates_like_python(self):
        """inf can arise from Equation (1)'s *product* (exp(~695)/lam for a
        tiny lam) without either exponent crossing the overflow guard; the
        numpy kernel must still return inf, not NaN, when such a value meets
        a clipped-to-zero event probability."""
        n_mid = 100
        weights = [6.45e10] + [1e9] * n_mid + [5e9]
        tasks = [Task(index=i, weight=w) for i, w in enumerate(weights)]
        wf = Workflow(tasks, [(0, n_mid + 1)]).with_checkpoint_costs(
            mode="proportional", factor=0.0
        )
        schedule = Schedule(wf, range(n_mid + 2), ())
        platform = Platform.from_platform_rate(1e-8)
        py = evaluate_schedule(schedule, platform, backend="python")
        np_ = evaluate_schedule(schedule, platform, backend="numpy")
        assert math.isinf(py.expected_makespan)
        assert np_.expected_makespan == py.expected_makespan

    def test_empty_schedule_is_bit_for_bit(self):
        wf = Workflow([], [])
        schedule = Schedule(wf, (), ())
        platform = Platform.from_platform_rate(1e-3)
        py = evaluate_schedule(schedule, platform, backend="python")
        np_ = evaluate_schedule(schedule, platform, backend="numpy")
        assert py == np_
        assert py.expected_makespan == 0.0


# ----------------------------------------------------------------------
# Incremental sweep engine: bit-for-bit with per-candidate evaluation
# ----------------------------------------------------------------------
class TestIncrementalSweep:
    """The delta engine is a pure performance knob on the numpy backend.

    Whatever sequence of checkpoint sets a :class:`SweepState` is driven
    through — single toggles, add/remove/re-add round trips, arbitrary
    multi-toggle jumps — every evaluation must be *bit-for-bit* equal to a
    fresh per-candidate ``evaluate_schedule(..., backend="numpy")``, and
    within float noise of the pure-Python reference.  The instances cover
    ``D > 0`` and ``p > 1`` platforms (the ``random_instance`` strategy
    draws both).
    """

    @given(
        data=random_instance(),
        toggles=st.lists(
            st.integers(min_value=0, max_value=10**6), min_size=1, max_size=14
        ),
        jump=st.lists(st.integers(min_value=0, max_value=10**6), max_size=8),
        readd=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_sweep_is_bit_for_bit_vs_per_candidate(self, data, toggles, jump, readd):
        workflow, schedule, platform = data
        n = workflow.n_tasks
        order = schedule.order
        state = SweepState(workflow, order, platform, backend="numpy")

        def check(selected: frozenset[int]) -> None:
            got = state.evaluate(selected)
            ref = evaluate_schedule(
                Schedule(workflow, order, selected), platform, backend="numpy"
            )
            assert got.expected_makespan == ref.expected_makespan
            assert got.expected_task_times == ref.expected_task_times
            _assert_close(got.failure_free_makespan, ref.failure_free_makespan)
            py = evaluate_schedule(
                Schedule(workflow, order, selected), platform, backend="python"
            )
            _assert_close(py.expected_makespan, got.expected_makespan)

        current = set(schedule.checkpointed)
        check(frozenset(current))  # initial (multi-toggle from empty)
        for raw in toggles:  # single-toggle moves, incl. remove / re-add
            current ^= {raw % n}
            check(frozenset(current))
        current = {raw % n for raw in jump}  # arbitrary multi-toggle jump
        check(frozenset(current))
        task = readd % n  # explicit add -> remove -> re-add round trip
        for _ in range(3):
            current ^= {task}
            check(frozenset(current))

    @given(data=random_instance())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_batch_evaluate_is_bit_for_bit_on_numpy(self, data):
        """The batch front door inherits the sweep's exactness guarantee."""
        workflow, schedule, platform = data
        n = workflow.n_tasks
        sets = [
            frozenset(),
            schedule.checkpointed,
            schedule.checkpointed | {0},
            schedule.checkpointed - {0},
            frozenset(range(n)),
        ]
        batch = batch_evaluate(workflow, schedule.order, sets, platform, backend="numpy")
        for selected, evaluation in zip(sets, batch):
            ref = evaluate_schedule(
                Schedule(workflow, schedule.order, selected), platform, backend="numpy"
            )
            assert evaluation.expected_makespan == ref.expected_makespan


# ----------------------------------------------------------------------
# Multi-word masks: instances straddling 64-bit word boundaries
# ----------------------------------------------------------------------
#: Sizes around the 1 -> 2 -> 3 word steps of the closure / frontier masks
#: (position 0 is padding, so ``n`` tasks need ``n + 1`` bits).
WORD_BOUNDARY_SIZES = (63, 64, 65, 127, 128, 129)


def _array_backends() -> list[str]:
    return ["numpy", "native"] if native_available() else ["numpy"]


@st.composite
def word_boundary_instance(draw):
    """A random DAG with ``n`` across a mask-word boundary, plus a platform.

    The DAG comes from ``random.Random(seed)`` rather than one hypothesis
    draw per edge: ``n (n - 1) / 2`` booleans would overflow the example
    buffer at ``n = 129``.  Each task gets up to three predecessors drawn
    from its whole prefix, so closures and frontiers span several words.
    """
    n = draw(st.sampled_from(WORD_BOUNDARY_SIZES))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    edges = set()
    for v in range(1, n):
        for u in rng.sample(range(v), min(v, rng.randint(0, 3))):
            edges.add((u, v))
    tasks = [Task(index=i, weight=rng.uniform(1.0, 100.0)) for i in range(n)]
    workflow = Workflow(tasks, sorted(edges)).with_checkpoint_costs(
        mode="proportional", factor=rng.uniform(0.0, 0.5)
    )
    checkpointed = frozenset(i for i in range(n) if rng.random() < 0.3)
    processors = rng.randint(1, 4)
    platform = Platform(
        processors=processors,
        processor_failure_rate=10 ** rng.uniform(-6.0, -3.0) / processors,
        downtime=rng.uniform(0.0, 10.0),
    )
    return workflow, checkpointed, platform


class TestMaskWordBoundaries:
    @given(
        data=word_boundary_instance(),
        toggles=st.lists(
            st.integers(min_value=0, max_value=10**6), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_backends_and_sweeps_agree_across_word_boundaries(self, data, toggles):
        workflow, checkpointed, platform = data
        n = workflow.n_tasks
        order = tuple(range(n))
        schedule = Schedule(workflow, order, checkpointed)

        py = evaluate_schedule(schedule, platform, backend="python")
        for backend in _array_backends():
            got = evaluate_schedule(schedule, platform, backend=backend)
            _assert_close(py.expected_makespan, got.expected_makespan)
            assert len(got.expected_task_times) == n
            for a, b in zip(py.expected_task_times, got.expected_task_times):
                _assert_close(a, b)

        sets = [checkpointed]
        for raw in toggles:
            sets.append(sets[-1] ^ {raw % n})
        for backend in _array_backends():
            state = SweepState(workflow, order, platform, backend=backend)
            for selected in sets:
                swept = state.evaluate(selected)
                fresh = SweepState(workflow, order, platform, backend=backend).evaluate(
                    selected
                )
                assert swept.expected_makespan == fresh.expected_makespan
                assert swept.expected_task_times == fresh.expected_task_times


# ----------------------------------------------------------------------
# Cache-key equivalence: warm caches are backend-agnostic
# ----------------------------------------------------------------------
class TestCacheKeyEquivalence:
    def _schedule(self):
        wf = generators.layered_workflow(3, 4, seed=7).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        return Schedule(wf, wf.topological_order(), {1, 5})

    def test_evaluation_key_ignores_backend(self):
        schedule = self._schedule()
        platform = Platform.from_platform_rate(1e-3)
        # The key is a pure function of (schedule, platform): no backend enters.
        assert evaluation_key(schedule, platform) == evaluation_key(schedule, platform)

    def test_cache_warmed_by_python_serves_numpy(self):
        schedule = self._schedule()
        platform = Platform.from_platform_rate(1e-3)
        cache = ResultCache()
        warmed = evaluate_schedule_cached(schedule, platform, cache, backend="python")
        hit = evaluate_schedule_cached(schedule, platform, cache, backend="numpy")
        # The second call is a hit: it returns the python-computed values
        # verbatim, whatever backend was requested.
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert hit.expected_makespan == warmed.expected_makespan
        assert hit.expected_task_times == warmed.expected_task_times

    def test_cache_warmed_by_numpy_serves_python(self):
        schedule = self._schedule()
        platform = Platform.from_platform_rate(1e-3)
        cache = ResultCache()
        warmed = evaluate_schedule_cached(schedule, platform, cache, backend="numpy")
        hit = evaluate_schedule_cached(schedule, platform, cache, backend="python")
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert hit.expected_makespan == warmed.expected_makespan

    def test_unit_key_ignores_backend(self):
        scenario = Scenario(
            family="montage", n_tasks=20, failure_rate=1e-3, seed=3, label="eq"
        )
        keys = {
            plan_unit(
                WorkUnit(scenario=scenario, heuristic="DF-CkptW", backend=backend)
            ).key
            for backend in (None, "auto", "python", "numpy")
        }
        assert len(keys) == 1


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestBackendResolution:
    @staticmethod
    def _auto_array_backend() -> str:
        """What ``auto`` resolves to on this machine.

        The compiled backend outranks numpy when a C toolchain is present;
        without one, ``auto`` silently keeps numpy (the explicit assertion
        of the graceful-degradation contract lives in
        ``tests/test_backend_registry.py``).
        """
        return "native" if native_available() else "numpy"

    @staticmethod
    def _resolve(backend, **kwargs) -> str:
        return BACKEND_REGISTRY.resolve(backend, **kwargs).name

    def test_known_names(self):
        assert set(BACKEND_REGISTRY.choices()) == {"auto", "python", "numpy", "native"}
        assert self._resolve("python") == "python"
        assert self._resolve("numpy") == "numpy"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown evaluation backend"):
            self._resolve("fortran")

    def test_auto_ignores_instance_size(self, monkeypatch):
        # ``n_tasks=`` is a no-op kept for old callers: ``auto`` is one
        # array backend at every size, and never the Python reference.
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        array_backend = self._auto_array_backend()
        for n_tasks in (1, 10, 31, 32, 10_000):
            assert self._resolve("auto", n_tasks=n_tasks) == array_backend
        assert self._resolve(None) == array_backend
        assert self._resolve(None, require="monte_carlo", n_tasks=1) == "numpy"

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert self._resolve(None, n_tasks=10_000) == "python"
        assert self._resolve("auto", n_tasks=10_000) == "python"
        # An explicit argument wins over the environment.
        assert self._resolve("numpy", n_tasks=10_000) == "numpy"
        monkeypatch.setenv(BACKEND_ENV_VAR, "not-a-backend")
        with pytest.raises(ValueError, match="unknown evaluation backend"):
            self._resolve(None)

    def test_environment_auto_is_auto(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
        assert self._resolve(None, n_tasks=10_000) == self._auto_array_backend()

    def test_diagnostic_options_still_validate_the_backend(self):
        wf = generators.chain_workflow(5, seed=1)
        schedule = Schedule(wf, range(5), {2})
        platform = Platform.from_platform_rate(1e-3)
        with pytest.raises(ValueError, match="unknown evaluation backend"):
            evaluate_schedule(
                schedule, platform, backend="fortran", keep_probabilities=True
            )

    def test_default_campaign_rows_are_the_array_backends(self, monkeypatch):
        # Sizes 10-30, where the reference and the array backends differ in
        # the last ulp on most rows: the default must not route by size.
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        scenarios = scenario_grid(
            ("montage", "cybershake", "ligo", "genome"),
            (10, 20, 30),
            heuristics=("DF-CkptW", "BF-CkptC", "RF-CkptD", "DF-CkptPer"),
        )

        def rows(backend):
            result = run_campaign(scenarios, seeds=(0,), max_candidates=6, backend=backend)
            return [dataclasses.replace(row, solve_seconds=0.0) for row in result.rows]

        assert rows(None) == rows(self._auto_array_backend())


# ----------------------------------------------------------------------
# End-to-end: heuristic rows through both backends
# ----------------------------------------------------------------------
class TestHeuristicBackends:
    @pytest.mark.parametrize("heuristic", ["DF-CkptW", "BF-CkptPer", "DF-CkptAlws"])
    def test_solve_heuristic_backend_agreement(self, heuristic):
        from repro import solve_heuristic

        wf = generators.layered_workflow(4, 5, seed=11).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        platform = Platform.from_platform_rate(2e-3)
        py = solve_heuristic(wf, platform, heuristic, rng=0, backend="python")
        np_ = solve_heuristic(wf, platform, heuristic, rng=0, backend="numpy")
        _assert_close(py.expected_makespan, np_.expected_makespan, rel=1e-9)
        # The searches walk identical candidate lists, so the winning
        # schedule can only differ on exact floating-point ties.
        assert py.schedule.order == np_.schedule.order

    def test_refinement_backend_agreement(self):
        from repro.heuristics import local_search_checkpoints

        wf = generators.layered_workflow(3, 4, seed=2).with_checkpoint_costs(
            mode="proportional", factor=0.2
        )
        schedule = Schedule(wf, wf.topological_order(), {0})
        platform = Platform.from_platform_rate(5e-3)
        py = local_search_checkpoints(schedule, platform, backend="python")
        np_ = local_search_checkpoints(schedule, platform, backend="numpy")
        _assert_close(py.expected_makespan, np_.expected_makespan, rel=1e-9)
        assert py.evaluations == np_.evaluations
