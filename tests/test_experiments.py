"""Tests for the experiment harness (scenarios, runs, reporting, figures)."""

from __future__ import annotations

import csv
import io

import pytest

from repro.experiments import (
    CampaignSpec,
    DEFAULT_FAILURE_RATES,
    LAMBDA_DOWNTIME_DOWNTIMES,
    LAMBDA_DOWNTIME_RATES,
    Scenario,
    best_by_strategy,
    build_workflow,
    figure2,
    figure7,
    format_ratio_table,
    lambda_downtime_grid,
    parse_shard,
    ratio_table,
    rows_from_csv,
    rows_to_csv,
    rows_to_markdown,
    run_heuristic,
    run_scenario,
    save_rows_csv,
    scenario_grid,
    series_by_heuristic,
    shard_scenarios,
)
from repro.heuristics import HEURISTIC_NAMES


SMALL_HEURISTICS = ("DF-CkptNvr", "DF-CkptAlws", "DF-CkptW", "DF-CkptC")


@pytest.fixture(scope="module")
def rows():
    scenario = Scenario(
        family="cybershake",
        n_tasks=25,
        failure_rate=1e-3,
        heuristics=SMALL_HEURISTICS,
        seed=3,
        label="unit",
    )
    return run_scenario(scenario, search_mode="geometric", max_candidates=8)


class TestScenario:
    def test_platform_matches_rate(self):
        scenario = Scenario(family="ligo", n_tasks=50, failure_rate=2e-4)
        assert scenario.platform.failure_rate == pytest.approx(2e-4)
        assert scenario.platform.downtime == 0.0

    def test_platform_carries_downtime(self):
        """Regression: Scenario.platform used to hard-code downtime=0."""
        scenario = Scenario(family="ligo", n_tasks=50, failure_rate=2e-4, downtime=60.0)
        assert scenario.platform.downtime == 60.0
        assert scenario.platform_spec.downtime == 60.0

    def test_platform_carries_processors(self):
        scenario = Scenario(family="ligo", n_tasks=50, failure_rate=1e-4, processors=8)
        assert scenario.platform.processors == 8
        assert scenario.platform.failure_rate == pytest.approx(8e-4)

    def test_downtime_changes_the_evaluated_makespan(self):
        """The end-to-end bug: a D > 0 scenario must not price like D = 0."""
        base = Scenario(
            family="montage", n_tasks=20, failure_rate=5e-3, seed=1,
            heuristics=("DF-CkptW",),
        )
        with_downtime = base.with_updates(downtime=120.0)
        row_zero = run_heuristic(base, "DF-CkptW", search_mode="geometric",
                                 max_candidates=5)
        row_down = run_heuristic(with_downtime, "DF-CkptW", search_mode="geometric",
                                 max_candidates=5)
        assert row_down.expected_makespan > row_zero.expected_makespan
        assert row_down.downtime == 120.0 and row_zero.downtime == 0.0

    def test_describe(self):
        scenario = Scenario(family="montage", n_tasks=50, failure_rate=1e-3)
        text = scenario.describe()
        assert "montage" in text and "n=50" in text
        assert "D=" not in text and "p=" not in text  # paper defaults stay terse
        constant = scenario.with_updates(checkpoint_mode="constant", checkpoint_value=5.0)
        assert "c=5" in constant.describe()

    def test_describe_labels_platform_axes(self):
        """Distinct platform grid points must never share a label."""
        base = Scenario(family="montage", n_tasks=50, failure_rate=1e-3)
        down = base.with_updates(downtime=60.0)
        procs = base.with_updates(processors=8)
        assert "D=60" in down.describe()
        assert "p=8" in procs.describe()
        labels = {base.describe(), down.describe(), procs.describe(),
                  base.with_updates(downtime=60.0, processors=8).describe()}
        assert len(labels) == 4

    def test_build_workflow_assigns_costs(self):
        scenario = Scenario(
            family="montage", n_tasks=40, failure_rate=1e-3, checkpoint_factor=0.1, seed=1
        )
        wf = build_workflow(scenario)
        assert all(
            t.checkpoint_cost == pytest.approx(0.1 * t.weight) for t in wf.tasks
        )
        assert all(t.recovery_cost == pytest.approx(t.checkpoint_cost) for t in wf.tasks)

    def test_scenario_grid(self):
        scenarios = scenario_grid(("montage", "genome"), (50, 100), label="x")
        assert len(scenarios) == 4
        rates = {s.family: s.failure_rate for s in scenarios}
        assert rates["montage"] == DEFAULT_FAILURE_RATES["montage"]
        assert rates["genome"] == DEFAULT_FAILURE_RATES["genome"]

    def test_scenario_grid_unknown_family(self):
        with pytest.raises(ValueError):
            scenario_grid(("unknown",), (50,))

    def test_scenario_grid_platform_axes(self):
        scenarios = scenario_grid(
            ("montage",), (30,), downtimes=(0.0, 60.0), processors=(1, 8)
        )
        assert len(scenarios) == 4
        points = {(s.downtime, s.processors) for s in scenarios}
        assert points == {(0.0, 1), (0.0, 8), (60.0, 1), (60.0, 8)}
        # Deterministic order: downtime is the outer platform axis.
        assert [(s.downtime, s.processors) for s in scenarios] == [
            (0.0, 1), (0.0, 8), (60.0, 1), (60.0, 8),
        ]

    def test_scenario_grid_rejects_empty_platform_axes(self):
        with pytest.raises(ValueError):
            scenario_grid(("montage",), (30,), downtimes=())
        with pytest.raises(ValueError):
            scenario_grid(("montage",), (30,), processors=())


class TestSharding:
    def _grid(self):
        return scenario_grid(
            ("montage", "genome"), (30, 60), downtimes=(0.0, 30.0), processors=(1, 4)
        )

    def test_parse_shard(self):
        assert parse_shard("1/2") == (1, 2)
        assert parse_shard(" 3/4 ") == (3, 4)
        for bad in ("", "1", "0/2", "3/2", "a/b", "1/2/3", "1/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_shards_partition_the_grid(self):
        grid = self._grid()
        shards = [shard_scenarios(grid, k, 3) for k in (1, 2, 3)]
        merged = [s for shard in shards for s in shard]
        assert sorted(merged, key=grid.index) == grid
        assert sum(len(s) for s in shards) == len(grid)
        assert max(len(s) for s in shards) - min(len(s) for s in shards) <= 1

    def test_sharding_is_deterministic(self):
        spec = CampaignSpec(sizes=(30, 60), downtimes=(0.0, 30.0), n_shards=2)
        first = spec.shard(1)
        again = CampaignSpec(sizes=(30, 60), downtimes=(0.0, 30.0), n_shards=2).shard(1)
        assert first == again
        full = scenario_grid(("montage",), (30, 60), downtimes=(0.0, 30.0), label="campaign")
        assert first == full[0::2]
        assert spec.scenarios() == full

    def test_single_shard_is_the_whole_grid(self):
        grid = self._grid()
        assert shard_scenarios(grid, 1, 1) == grid

    def test_out_of_range_shard_rejected(self):
        with pytest.raises(ValueError):
            shard_scenarios(self._grid(), 3, 2)


class TestLambdaDowntimePreset:
    def test_grid_shape_and_order(self):
        scenarios = lambda_downtime_grid(("montage",), n_tasks=40)
        expected = len(LAMBDA_DOWNTIME_RATES) * len(LAMBDA_DOWNTIME_DOWNTIMES)
        assert len(scenarios) == expected
        assert all(s.n_tasks == 40 for s in scenarios)
        assert all(s.label == "lambda-x-downtime" for s in scenarios)
        points = {(s.failure_rate, s.downtime) for s in scenarios}
        assert len(points) == expected

    def test_custom_axes_and_processors(self):
        scenarios = lambda_downtime_grid(
            ("montage",), n_tasks=20, rates=(1e-3,), downtimes=(0.0, 5.0),
            processors=(1, 2),
        )
        assert len(scenarios) == 4
        assert {s.processors for s in scenarios} == {1, 2}

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            lambda_downtime_grid(("bogus",))


class TestRunScenario:
    def test_one_row_per_heuristic(self, rows):
        assert len(rows) == len(SMALL_HEURISTICS)
        assert {r.heuristic for r in rows} == set(SMALL_HEURISTICS)

    def test_rows_have_consistent_ratios(self, rows):
        for row in rows:
            assert row.overhead_ratio == pytest.approx(
                row.expected_makespan / row.failure_free_work
            )
            assert row.overhead_ratio >= 1.0
            assert row.solve_seconds >= 0.0

    def test_invalid_search_mode_rejected_even_for_baselines(self):
        # CkptNvr never consumes the candidate counts, but a typoed mode
        # must still fail loudly instead of polluting results/cache keys.
        scenario = Scenario(
            family="montage", n_tasks=15, failure_rate=1e-3,
            heuristics=("DF-CkptNvr",),
        )
        with pytest.raises(ValueError, match="search mode"):
            run_scenario(scenario, search_mode="bogus")

    def test_searchful_heuristics_beat_baselines(self, rows):
        by_name = {r.heuristic: r for r in rows}
        assert by_name["DF-CkptW"].overhead_ratio <= by_name["DF-CkptNvr"].overhead_ratio + 1e-9
        assert by_name["DF-CkptW"].overhead_ratio <= by_name["DF-CkptAlws"].overhead_ratio + 1e-9


class TestAggregation:
    def test_series_by_heuristic(self, rows):
        series = series_by_heuristic(rows)
        assert set(series) == set(SMALL_HEURISTICS)
        for points in series.values():
            assert all(len(point) == 2 for point in points)

    def test_series_invalid_axis(self, rows):
        with pytest.raises(ValueError):
            series_by_heuristic(rows, x_axis="seed")

    def test_best_by_strategy_keeps_minimum(self, rows):
        best = best_by_strategy(rows)
        for (family, n, strategy), row in best.items():
            assert row.checkpoint_strategy == strategy
            assert row.family == family

    def test_ratio_table(self, rows):
        table = ratio_table(rows)
        assert len(table) == 1
        ((key, values),) = table.items()
        assert set(values) == set(SMALL_HEURISTICS)


class TestReporting:
    def test_csv_round_trip(self, rows):
        text = rows_to_csv(rows)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(rows)
        assert parsed[0]["heuristic"] == rows[0].heuristic

    def test_save_csv(self, rows, tmp_path):
        path = save_rows_csv(rows, tmp_path / "rows.csv")
        assert path.exists()
        assert "heuristic" in path.read_text()

    def test_markdown(self, rows):
        text = rows_to_markdown(rows)
        assert text.startswith("| family |")
        assert text.count("\n") == len(rows) + 1

    def test_format_ratio_table_marks_best(self, rows):
        text = format_ratio_table(rows)
        assert "*" in text
        assert "cybershake" in text

    def test_csv_round_trips_through_loader(self, rows):
        parsed = rows_from_csv(rows_to_csv(rows))
        assert parsed == list(rows)

    def test_loader_rejects_foreign_csv(self):
        with pytest.raises(ValueError, match="unknown result-row column"):
            rows_from_csv("family,surprise\nmontage,1\n")
        with pytest.raises(ValueError, match="missing required column"):
            rows_from_csv("family,n_tasks\nmontage,30\n")

    def test_loader_rejects_malformed_lines(self, rows):
        text = rows_to_csv(rows)
        header, first, *_ = text.splitlines()
        with pytest.raises(ValueError, match="too many fields"):
            rows_from_csv(f"{header}\n{first},EXTRA\n")
        short = ",".join(first.split(",")[:-2])
        with pytest.raises(ValueError, match="short line"):
            rows_from_csv(f"{header}\n{short}\n")


def _platform_rows():
    """Rows spanning two downtimes and two processor counts (one scenario each)."""
    rows = []
    for downtime, procs in ((0.0, 1), (60.0, 1), (0.0, 8), (60.0, 8)):
        scenario = Scenario(
            family="montage", n_tasks=15, failure_rate=1e-3,
            downtime=downtime, processors=procs,
            heuristics=("DF-CkptW",), seed=2, label="platform",
        )
        rows.append(run_heuristic(scenario, "DF-CkptW", search_mode="geometric",
                                  max_candidates=5))
    return rows


class TestPlatformAwareReporting:
    @pytest.fixture(scope="class")
    def platform_rows(self):
        return _platform_rows()

    def test_ratio_table_keeps_platform_points_apart(self, platform_rows):
        table = ratio_table(platform_rows)
        assert len(table) == 4  # one entry per platform point, none overwritten

    def test_format_ratio_table_labels_platform_axes(self, platform_rows):
        text = format_ratio_table(platform_rows)
        header = text.splitlines()[0]
        assert "D" in header.split() and "p" in header.split()
        # All four platform points render distinct lines.
        assert len(text.splitlines()) == 2 + 4

    def test_markdown_grows_platform_columns(self, platform_rows):
        text = rows_to_markdown(platform_rows)
        assert "downtime" in text and "processors" in text
        # Column order matches every other renderer: D before p.
        header = text.splitlines()[0]
        assert header.index("downtime") < header.index("processors")
        # ... but only when the axis actually varies.
        single = rows_to_markdown(platform_rows[:1])
        assert "downtime" not in single and "processors" not in single

    def test_series_disambiguates_hidden_platform_dims(self, platform_rows):
        series = series_by_heuristic(platform_rows, x_axis="n_tasks")
        assert len(series) == 4
        assert any("D=60" in key for key in series)
        assert any("p=8" in key for key in series)

    def test_series_by_platform_axis(self, platform_rows):
        rows = [r for r in platform_rows if r.processors == 1]
        series = series_by_heuristic(rows, x_axis="downtime")
        assert set(series) == {"DF-CkptW"}
        xs = [x for x, _ in series["DF-CkptW"]]
        assert xs == [0.0, 60.0]

    def test_series_disambiguates_rate_sweeps_within_a_family(self):
        """lambda x D rows: each swept rate gets its own series, but a
        purely per-family rate (paper grids) stays implicit."""
        rows = []
        for rate in (1e-3, 2e-3):
            scenario = Scenario(
                family="montage", n_tasks=15, failure_rate=rate,
                heuristics=("DF-CkptNvr",), seed=2,
            )
            for downtime in (0.0, 60.0):
                rows.append(run_heuristic(
                    scenario.with_updates(downtime=downtime), "DF-CkptNvr",
                    search_mode="geometric", max_candidates=5,
                ))
        series = series_by_heuristic(rows, x_axis="downtime")
        assert len(series) == 2
        assert all("lambda=" in key for key in series)
        assert all(len(points) == 2 for points in series.values())
        # Per-family rates alone (montage vs genome defaults) add no tag.
        per_family = scenario_grid(("montage", "genome"), (15,),
                                   heuristics=("DF-CkptNvr",))
        family_rows = [run_heuristic(s, "DF-CkptNvr", search_mode="geometric",
                                     max_candidates=5) for s in per_family]
        assert set(series_by_heuristic(family_rows)) == {"DF-CkptNvr"}


class TestFigures:
    def test_figure2_smoke(self):
        result = figure2(sizes=(20,), seed=1, search_mode="geometric")
        assert result.figure == "figure2"
        assert set(result.panels) == {"cybershake", "ligo", "genome"}
        series = result.series("cybershake")
        assert set(series) == {
            "DF-CkptW", "BF-CkptW", "RF-CkptW", "DF-CkptC", "BF-CkptC", "RF-CkptC",
        }
        best = result.best_heuristic_per_x("cybershake")
        assert len(best) == 1

    def test_figure7_smoke(self):
        result = figure7(
            n_tasks=20,
            seed=1,
            search_mode="geometric",
            rates={"montage": (1e-4, 9e-4)},
        )
        assert result.x_axis == "failure_rate"
        series = result.series("montage")
        assert set(series) == set(HEURISTIC_NAMES)
        # The overhead grows with the failure rate for every heuristic.
        for points in series.values():
            assert points[0][1] <= points[-1][1] + 1e-6

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            figure2(preset="gigantic")
