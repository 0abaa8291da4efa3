"""Tests for the campaign runner: cache integration, parallel == serial.

These are the acceptance tests of the runtime subsystem:

* a warm cache answers a repeated sweep with *zero* evaluator calls;
* ``jobs>1`` reproduces the ``jobs=1`` aggregates bit-for-bit;
* cached rows are re-stamped with the requesting sweep's identity fields.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields, replace

import pytest

from repro.core.evaluator import evaluate_schedule
from repro.core.evaluator_native import native_available
from repro.core.platform import Platform
from repro.core.schedule import Schedule
from repro.core.sweep import SweepState
from repro.experiments import Scenario, run_campaign, run_grid
from repro.experiments.scenarios import build_workflow
from repro.heuristics import HEURISTIC_NAMES, linearize, solve_heuristic
from repro.heuristics.search import candidate_counts
from repro.runtime import CampaignJournal, NullProgress, ResultCache
from repro.runtime.runner import (
    CampaignRunner,
    WorkUnit,
    evaluate_schedule_cached,
    expand_work_units,
    plan_unit,
    solve_group,
)
from repro.workflows import pegasus


HEURISTICS = ("DF-CkptW", "RF-CkptC")  # one deterministic, one randomized


@pytest.fixture
def scenario():
    return Scenario(
        family="montage",
        n_tasks=15,
        failure_rate=1e-3,
        heuristics=HEURISTICS,
        label="runner-test",
    )


def _rows_equal_except_timing(a, b):
    names = [f.name for f in fields(type(a))]
    return all(
        getattr(a, name) == getattr(b, name)
        for name in names
        if name != "solve_seconds"
    )


class TestExpandWorkUnits:
    def test_grid_semantics_keep_scenario_seed(self, scenario):
        units = expand_work_units([scenario.with_updates(seed=9)])
        assert [u.scenario.seed for u in units] == [9, 9]
        assert [u.heuristic for u in units] == list(HEURISTICS)

    def test_campaign_semantics_repeat_per_seed(self, scenario):
        units = expand_work_units([scenario], seeds=(0, 1, 2))
        assert len(units) == 3 * len(HEURISTICS)
        assert sorted({u.scenario.seed for u in units}) == [0, 1, 2]


class TestRunnerValidation:
    def test_invalid_jobs_rejected_at_construction(self):
        """A bad --jobs value must fail eagerly, warm cache or not."""
        with pytest.raises(ValueError):
            CampaignRunner(jobs=-3)

    def test_runner_recovers_after_failed_parallel_batch(self, scenario, monkeypatch):
        """A failed batch must not poison the runner's worker pool."""
        import repro.runtime.runner as runner_module

        real = runner_module.solve_group

        def boom(*args, **kwargs):
            raise RuntimeError("simulated worker failure")

        with CampaignRunner(jobs=2, search_mode="geometric", max_candidates=5) as runner:
            monkeypatch.setattr(runner_module, "solve_group", boom)
            with pytest.raises(RuntimeError):
                runner.run_rows([scenario])
            monkeypatch.setattr(runner_module, "solve_group", real)
            rows = runner.run_rows([scenario])
        assert len(rows) == len(HEURISTICS)


class TestParallelMatchesSerial:
    def test_campaign_aggregates_identical(self, scenario):
        serial = run_campaign(
            [scenario], seeds=(0, 1), search_mode="geometric", max_candidates=5
        )
        parallel = run_campaign(
            [scenario], seeds=(0, 1), search_mode="geometric", max_candidates=5,
            jobs=2,
        )
        # Bit-for-bit: AggregatedResult is a frozen dataclass of floats.
        assert parallel.aggregated == serial.aggregated
        assert len(parallel.rows) == len(serial.rows)
        assert all(
            _rows_equal_except_timing(a, b)
            for a, b in zip(serial.rows, parallel.rows)
        )

    def test_grid_rows_identical(self, scenario):
        serial = run_grid([scenario], search_mode="geometric", max_candidates=5)
        parallel = run_grid(
            [scenario], search_mode="geometric", max_candidates=5, jobs=2
        )
        assert all(
            _rows_equal_except_timing(a, b) for a, b in zip(serial, parallel)
        )

    def test_jobs_none_means_all_cpus_not_serial_shortcut(self, scenario):
        """``jobs=None`` must follow the runtime contract (all CPUs)."""
        from unittest import mock

        with mock.patch(
            "repro.runtime.runner.CampaignRunner.run_units", autospec=True
        ) as spy:
            spy.return_value = []
            run_grid([scenario], search_mode="geometric", jobs=None)
        assert spy.called
        rows = run_grid(
            [scenario], search_mode="geometric", max_candidates=5, jobs=None
        )
        serial = run_grid(
            [scenario], search_mode="geometric", max_candidates=5, jobs=1
        )
        assert all(
            _rows_equal_except_timing(a, b) for a, b in zip(serial, rows)
        )

    def test_campaign_rows_match_direct_solves(self):
        """Oracle outside the runner: every row equals a plain per-unit
        solve_heuristic call bit for bit, although the runner solves the
        units of one instance and linearization through a shared sweep."""
        scenarios = [
            Scenario(family="montage", n_tasks=n, failure_rate=1e-3, label="oracle")
            for n in (15, 40)
        ]
        assert len(scenarios[0].heuristics) == len(HEURISTIC_NAMES) == 14
        seeds = (0, 1)
        for mode in ("exhaustive", "geometric"):
            result = run_campaign(
                scenarios, seeds=seeds, search_mode=mode, max_candidates=8
            )
            rows = {
                (row.n_tasks, row.seed, row.heuristic): row for row in result.rows
            }
            assert len(rows) == 2 * len(seeds) * len(HEURISTIC_NAMES)
            for scenario in scenarios:
                for seed in seeds:
                    instance = scenario.with_updates(seed=seed)
                    workflow = build_workflow(instance)
                    counts = candidate_counts(
                        workflow.n_tasks, mode=mode, max_candidates=8
                    )
                    for heuristic in HEURISTIC_NAMES:
                        direct = solve_heuristic(
                            workflow, instance.platform, heuristic,
                            rng=seed, counts=counts,
                        )
                        row = rows[(scenario.n_tasks, seed, heuristic)]
                        assert (
                            row.expected_makespan,
                            row.n_checkpointed,
                            row.failure_free_work,
                            row.overhead_ratio,
                        ) == (
                            direct.expected_makespan,
                            direct.checkpoint_count,
                            direct.evaluation.failure_free_work,
                            direct.overhead_ratio,
                        ), (mode, scenario.n_tasks, seed, heuristic)


class TestOneSweepPerGroup:
    @pytest.mark.parametrize(
        "backend",
        [
            "numpy",
            pytest.param(
                "native",
                marks=pytest.mark.skipif(
                    not native_available(),
                    reason="no C toolchain: native backend unavailable",
                ),
            ),
        ],
    )
    def test_df_group_builds_one_sweep_and_no_one_shot(self, backend, monkeypatch):
        """The six DF units of an instance form one group; the four searches
        and both baselines price every set, winners included, on one
        sweep."""
        scenario = Scenario(
            family="montage", n_tasks=20, failure_rate=1e-3, label="one-sweep"
        )
        names = [name for name in HEURISTIC_NAMES if name.startswith("DF-")]
        plans = [
            plan_unit(WorkUnit(scenario=scenario, heuristic=name, backend=backend))
            for name in names
        ]
        assert len(plans) == 6 and len({plan.group for plan in plans}) == 1

        built: list[SweepState] = []
        real_init = SweepState.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(SweepState, "__init__", counting_init)
        one_shots = []

        def counting_evaluate(*args, **kwargs):
            one_shots.append(args)
            return evaluate_schedule(*args, **kwargs)

        # Every module that imported the one-shot by name.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, "evaluate_schedule", None) is evaluate_schedule
            ):
                monkeypatch.setattr(module, "evaluate_schedule", counting_evaluate)

        solved = solve_group(plans)
        assert len(built) == 1
        assert one_shots == []
        assert solved.evaluations == built[0].stats.evaluations > len(plans)


class TestCaching:
    def test_warm_cache_performs_zero_evaluator_calls(self, scenario, monkeypatch):
        cache = ResultCache()
        cold = run_campaign(
            [scenario], seeds=(0, 1), search_mode="geometric", max_candidates=5,
            cache=cache,
        )
        assert cache.stats.misses == len(cold.rows)
        assert cache.stats.hits == 0

        # Any attempt to solve a unit on the warm pass is a hard failure.
        import repro.runtime.runner as runner_module

        def forbidden(*args, **kwargs):
            raise AssertionError("evaluator was called despite a warm cache")

        monkeypatch.setattr(runner_module, "solve_group", forbidden)
        warm = run_campaign(
            [scenario], seeds=(0, 1), search_mode="geometric", max_candidates=5,
            cache=cache,
        )
        assert cache.stats.hits == len(warm.rows)
        assert warm.aggregated == cold.aggregated
        assert all(
            _rows_equal_except_timing(a, b)
            for a, b in zip(cold.rows, warm.rows)
        )
        # A hit spent no solve time, and must say so rather than replaying
        # the wall-clock of whoever computed the entry.
        assert all(row.solve_seconds == 0.0 for row in warm.rows)

    def test_interrupted_run_keeps_completed_results(self, scenario, monkeypatch):
        """Each result is persisted on arrival, not after the whole sweep."""
        import repro.runtime.runner as runner_module

        cache = ResultCache()
        real = runner_module.solve_group
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("simulated mid-sweep failure")
            return real(*args, **kwargs)

        # Each (seed, linearization) is a group of one unit here, so the
        # third group is the third unit.
        monkeypatch.setattr(runner_module, "solve_group", flaky)
        with pytest.raises(RuntimeError):
            run_campaign(
                [scenario], seeds=(0, 1), search_mode="geometric",
                max_candidates=5, cache=cache,
            )
        assert cache.stats.puts == 2  # everything computed before the failure

    def test_cache_persists_across_runner_instances(self, scenario, tmp_path):
        path = tmp_path / "rows.sqlite"
        with ResultCache.open(path) as cache:
            run_campaign(
                [scenario], seeds=(0,), search_mode="geometric", max_candidates=5,
                cache=cache,
            )
        with ResultCache.open(path) as cache:
            run_campaign(
                [scenario], seeds=(0,), search_mode="geometric", max_candidates=5,
                cache=cache,
            )
            assert cache.stats.misses == 0
            assert cache.stats.hits == len(HEURISTICS)

    def test_cached_rows_are_restamped_with_requesting_label(self, scenario):
        cache = ResultCache()
        first = run_grid(
            [scenario], search_mode="geometric", max_candidates=5, cache=cache
        )
        relabeled = scenario.with_updates(label="other-sweep")
        second = run_grid(
            [relabeled], search_mode="geometric", max_candidates=5, cache=cache
        )
        assert cache.stats.hits == len(second)
        assert all(row.label == "other-sweep" for row in second)
        assert [r.overhead_ratio for r in second] == [r.overhead_ratio for r in first]

    def test_distinct_configurations_do_not_collide(self, scenario):
        cache = ResultCache()
        run_grid([scenario], search_mode="geometric", max_candidates=5, cache=cache)
        # Different search budget -> different key -> fresh computation.
        run_grid([scenario], search_mode="geometric", max_candidates=7, cache=cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2 * len(HEURISTICS)

    def test_invalid_search_mode_fails_warm_and_cold(self, scenario):
        """A warm cache must not smuggle a typoed mode past validation."""
        baselines = scenario.with_updates(heuristics=("DF-CkptNvr",))
        cache = ResultCache()
        run_grid([baselines], search_mode="geometric", max_candidates=5, cache=cache)
        with pytest.raises(ValueError, match="search mode"):
            run_grid([baselines], search_mode="bogus", cache=cache)

    def test_exhaustive_units_hit_across_budgets(self, scenario):
        """max_candidates is ignored in exhaustive mode, so it must not key."""
        cache = ResultCache()
        run_grid([scenario], search_mode="exhaustive", max_candidates=5, cache=cache)
        run_grid([scenario], search_mode="exhaustive", max_candidates=50, cache=cache)
        assert cache.stats.misses == len(HEURISTICS)
        assert cache.stats.hits == len(HEURISTICS)

    def test_small_geometric_sweep_hits_exhaustive_entries(self, scenario):
        """With budget >= n, geometric counts equal exhaustive counts, so
        the two configurations must share cache entries."""
        cache = ResultCache()
        run_grid([scenario], search_mode="exhaustive", cache=cache)
        run_grid([scenario], search_mode="geometric", max_candidates=100, cache=cache)
        assert cache.stats.misses == len(HEURISTICS)
        assert cache.stats.hits == len(HEURISTICS)

    def test_baseline_units_hit_across_search_modes(self, scenario):
        """CkptNvr/CkptAlws results do not depend on the count search, so a
        sweep in one mode warms the baselines of a sweep in another."""
        baselines = scenario.with_updates(
            heuristics=("DF-CkptNvr", "DF-CkptAlws")
        )
        cache = ResultCache()
        run_grid([baselines], search_mode="geometric", max_candidates=5, cache=cache)
        run_grid([baselines], search_mode="exhaustive", cache=cache)
        assert cache.stats.misses == 2
        assert cache.stats.hits == 2


class TestRepeatedKeys:
    """A unit whose key already appeared in the same run takes the first
    occurrence's outcome: it is solved, journaled and cached once, its row
    keeps its own label and reports no solve time, and it is dropped with
    its source when that group is quarantined."""

    @pytest.fixture
    def units(self, scenario):
        first = scenario.with_updates(label="first")
        again = scenario.with_updates(label="again")
        options = dict(search_mode="geometric", max_candidates=5)
        return [
            WorkUnit(scenario=first, heuristic="DF-CkptW", **options),
            WorkUnit(scenario=first, heuristic="RF-CkptC", **options),
            WorkUnit(scenario=again, heuristic="DF-CkptW", **options),
        ]

    @staticmethod
    def _solve_group_spy(monkeypatch, poisoned=None):
        """Record the key of every unit solved; raise for group ``poisoned``."""
        import repro.runtime.runner as runner_module

        real = runner_module.solve_group
        solved: list[str] = []

        def spy(plans):
            if plans[0].group == poisoned:
                raise RuntimeError("poisoned group")
            solved.extend(plan.key for plan in plans)
            return real(plans)

        monkeypatch.setattr(runner_module, "solve_group", spy)
        return solved

    def test_repeat_is_solved_journaled_and_cached_once(
        self, units, tmp_path, monkeypatch
    ):
        keys = [plan_unit(unit).key for unit in units]
        assert keys[0] == keys[2] and len(set(keys)) == 2
        solved = self._solve_group_spy(monkeypatch)
        recorded: list[str] = []
        real_record = CampaignJournal.record

        def counting_record(journal, key, outcome):
            recorded.append(key)
            real_record(journal, key, outcome)

        monkeypatch.setattr(CampaignJournal, "record", counting_record)
        cache = ResultCache()
        path = tmp_path / "journal.jsonl"
        with CampaignRunner(cache=cache, journal=str(path)) as runner:
            first, other, again = runner.run_units(units)

        assert sorted(solved) == sorted(recorded) == sorted(set(keys))
        assert cache.stats.puts == 2 and cache.stats.lookups == 2
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert sorted(r["key"] for r in records if r["kind"] == "unit") == sorted(
            set(keys)
        )
        assert (first.label, other.label, again.label) == ("first", "first", "again")
        assert again.solve_seconds == 0.0 < first.solve_seconds
        assert replace(again, label="first", solve_seconds=first.solve_seconds) == first

    def test_repeat_of_a_hit_is_not_looked_up_again(self, units):
        cache = ResultCache()
        with CampaignRunner(cache=cache) as runner:
            cold = runner.run_units(units)
            warm = runner.run_units(units)
        assert (cache.stats.hits, cache.stats.misses) == (2, 2)
        assert all(row.solve_seconds == 0.0 for row in warm)
        assert [replace(row, solve_seconds=0.0) for row in warm] == [
            replace(row, solve_seconds=0.0) for row in cold
        ]

    def test_repeat_is_dropped_with_its_quarantined_source(self, units, monkeypatch):
        # On another backend the repeat plans into a group of its own (the
        # backend stays out of the key), yet it still shares its source's fate.
        units[2] = replace(units[2], backend="numpy")
        assert plan_unit(units[2]).group != plan_unit(units[0]).group
        solved = self._solve_group_spy(monkeypatch, poisoned=plan_unit(units[0]).group)
        with CampaignRunner(quarantine=True, max_retries=0) as runner:
            rows = runner.run_units(units)
            failures = list(runner.failures)
        assert [(row.label, row.heuristic) for row in rows] == [("first", "RF-CkptC")]
        assert solved == [plan_unit(units[1]).key]
        assert [(f.unit.scenario.label, f.unit.heuristic) for f in failures] == [
            ("first", "DF-CkptW"),
            ("again", "DF-CkptW"),
        ]


class TestProgressReporting:
    def test_progress_protocol_receives_every_unit(self, scenario):
        class Recorder(NullProgress):
            def __init__(self):
                self.events = []

            def start(self, total):
                self.events.append(("start", total))

            def update(self, done, info=""):
                self.events.append(("update", done))

            def finish(self):
                self.events.append(("finish",))

        recorder = Recorder()
        runner = CampaignRunner(
            jobs=1, search_mode="geometric", max_candidates=5, progress=recorder
        )
        rows = runner.run_rows([scenario])
        assert recorder.events[0] == ("start", len(rows))
        assert recorder.events[-1] == ("finish",)
        dones = [d for kind, *rest in recorder.events if kind == "update" for d in rest]
        assert dones[-1] == len(rows)


class TestEvaluateScheduleCached:
    def test_hit_reproduces_evaluation_exactly(self):
        workflow = pegasus.ligo(18, seed=2).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        order = linearize(workflow, "DF")
        schedule = Schedule(workflow, order, set(order[::3]))
        platform = Platform.from_platform_rate(1e-3)
        cache = ResultCache()

        direct = evaluate_schedule(schedule, platform)
        first = evaluate_schedule_cached(schedule, platform, cache)
        second = evaluate_schedule_cached(schedule, platform, cache)
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert first.expected_makespan == direct.expected_makespan
        assert second.expected_task_times == direct.expected_task_times
        assert second.overhead_ratio == direct.overhead_ratio


class TestRunMonteCarloCached:
    def test_hit_reproduces_summary_exactly(self):
        from repro.runtime.runner import run_monte_carlo_cached

        workflow = pegasus.ligo(18, seed=2).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        order = linearize(workflow, "DF")
        schedule = Schedule(workflow, order, set(order[::3]))
        platform = Platform.from_platform_rate(1e-3)
        cache = ResultCache()

        first = run_monte_carlo_cached(schedule, platform, cache, n_runs=200, seed=3)
        second = run_monte_carlo_cached(schedule, platform, cache, n_runs=200, seed=3)
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert second == first

    def test_law_and_run_count_miss_separately(self):
        from repro.runtime.runner import run_monte_carlo_cached

        workflow = pegasus.montage(16, seed=1).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        order = linearize(workflow, "DF")
        schedule = Schedule(workflow, order, set(order[::4]))
        platform = Platform.from_platform_rate(1e-3)
        cache = ResultCache()

        run_monte_carlo_cached(schedule, platform, cache, n_runs=100, seed=0)
        run_monte_carlo_cached(
            schedule, platform, cache, n_runs=100, seed=0,
            failure_spec={"law": "weibull", "scale": 1000.0, "shape": 0.7},
        )
        run_monte_carlo_cached(schedule, platform, cache, n_runs=200, seed=0)
        assert cache.stats.misses == 3 and cache.stats.hits == 0

    def test_backend_shares_cache_entries(self):
        from repro.runtime.runner import run_monte_carlo_cached

        workflow = pegasus.montage(16, seed=1).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        order = linearize(workflow, "DF")
        schedule = Schedule(workflow, order, set(order[::4]))
        platform = Platform.from_platform_rate(1e-3)
        cache = ResultCache()

        python = run_monte_carlo_cached(
            schedule, platform, cache, n_runs=150, seed=0, backend="python"
        )
        numpy_ = run_monte_carlo_cached(
            schedule, platform, cache, n_runs=150, seed=0, backend="numpy"
        )
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert numpy_ == python
