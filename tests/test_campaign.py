"""Tests for multi-seed campaigns and aggregation."""

from __future__ import annotations

import math
import re

import pytest

from repro.experiments import Scenario, lambda_downtime_grid
from repro.experiments.campaign import (
    AggregatedResult,
    CampaignResult,
    CampaignSpec,
    aggregate_rows,
    run_campaign,
)


HEURISTICS = ("DF-CkptW", "DF-CkptNvr")


@pytest.fixture(scope="module")
def campaign():
    scenario = Scenario(
        family="montage",
        n_tasks=20,
        failure_rate=1e-3,
        heuristics=HEURISTICS,
        label="campaign-test",
    )
    return run_campaign([scenario], seeds=(0, 1, 2), search_mode="geometric", max_candidates=6)


class TestRunCampaign:
    def test_row_count(self, campaign):
        assert len(campaign.rows) == 3 * len(HEURISTICS)
        assert {row.seed for row in campaign.rows} == {0, 1, 2}

    def test_aggregation_one_entry_per_heuristic(self, campaign):
        assert len(campaign.aggregated) == len(HEURISTICS)
        for entry in campaign.aggregated:
            assert entry.n_seeds == 3
            assert entry.min_ratio <= entry.mean_ratio <= entry.max_ratio
            assert entry.std_ratio >= 0.0
            assert entry.sem_ratio == pytest.approx(entry.std_ratio / 3 ** 0.5)

    def test_ranking_and_best(self, campaign):
        ranking = campaign.ranking("montage", 20)
        assert [entry.heuristic for entry in ranking][0] == campaign.best_heuristic("montage", 20)
        printed = [float(f"{entry.mean_ratio:.3f}") for entry in ranking]
        assert printed == sorted(printed)
        # The searchful heuristic cannot lose to never-checkpointing on average.
        assert campaign.best_heuristic("montage", 20) == "DF-CkptW"

    def test_best_heuristic_unknown_point(self, campaign):
        with pytest.raises(KeyError):
            campaign.best_heuristic("montage", 999)

    def test_render(self, campaign):
        text = campaign.render()
        assert "montage" in text
        assert "DF-CkptW" in text
        assert len(text.splitlines()) == 1 + len(HEURISTICS)

    def test_requires_at_least_one_seed(self):
        scenario = Scenario(family="montage", n_tasks=20, failure_rate=1e-3, heuristics=HEURISTICS)
        with pytest.raises(ValueError):
            run_campaign([scenario], seeds=())


class TestPlatformAxes:
    @pytest.fixture(scope="class")
    def platform_campaign(self):
        base = Scenario(
            family="montage", n_tasks=15, failure_rate=1e-3,
            heuristics=("DF-CkptW",), label="platform-campaign",
        )
        scenarios = [
            base,
            base.with_updates(downtime=60.0),
            base.with_updates(processors=8),
        ]
        return run_campaign(scenarios, seeds=(0, 1), search_mode="geometric",
                            max_candidates=5)

    def test_platform_points_aggregate_separately(self, platform_campaign):
        # One aggregate per (platform point, heuristic) — D and p are part
        # of the grouping key, so distinct points are never averaged.
        assert len(platform_campaign.aggregated) == 3
        points = {(a.downtime, a.processors) for a in platform_campaign.aggregated}
        assert points == {(0.0, 1), (60.0, 1), (0.0, 8)}

    def test_downtime_point_costs_more(self, platform_campaign):
        by_point = {(a.downtime, a.processors): a for a in platform_campaign.aggregated}
        assert by_point[(60.0, 1)].mean_ratio > by_point[(0.0, 1)].mean_ratio
        assert by_point[(0.0, 8)].mean_ratio > by_point[(0.0, 1)].mean_ratio

    def test_render_grows_platform_columns(self, platform_campaign):
        text = platform_campaign.render()
        header = text.splitlines()[0].split()
        assert "D" in header and "p" in header
        assert len(text.splitlines()) == 1 + 3

    def test_ranking_filters_by_platform_point(self, platform_campaign):
        all_points = platform_campaign.ranking("montage", 15)
        assert len(all_points) == 3
        only_downtime = platform_campaign.ranking("montage", 15, downtime=60.0)
        assert len(only_downtime) == 1
        assert only_downtime[0].downtime == 60.0
        only_procs = platform_campaign.ranking("montage", 15, processors=8)
        assert len(only_procs) == 1 and only_procs[0].processors == 8

    def test_default_render_has_no_platform_columns(self, campaign):
        header = campaign.render().splitlines()[0].split()
        assert "D" not in header and "p" not in header


class TestAggregateRows:
    def test_single_row_statistics(self, campaign):
        single = aggregate_rows(campaign.rows[:1])
        assert len(single) == 1
        entry = single[0]
        assert entry.n_seeds == 1
        assert entry.std_ratio == 0.0
        assert entry.mean_ratio == pytest.approx(campaign.rows[0].overhead_ratio)

    def test_groups_by_heuristic(self, campaign):
        aggregated = aggregate_rows(campaign.rows)
        assert {entry.heuristic for entry in aggregated} == set(HEURISTICS)

    def test_empty(self):
        assert aggregate_rows([]) == ()


class TestReportOrder:
    @staticmethod
    def _entry(heuristic, mean_ratio):
        return AggregatedResult(
            family="montage",
            n_tasks=20,
            failure_rate=1e-3,
            heuristic=heuristic,
            n_seeds=3,
            mean_ratio=mean_ratio,
            std_ratio=0.0,
            min_ratio=mean_ratio,
            max_ratio=mean_ratio,
            mean_makespan=1.0,
            mean_checkpoints=1.0,
        )

    def test_ties_in_the_printed_mean_follow_name_order(self):
        """Means 1 ulp apart print the same, so the name decides the order —
        whichever of the two carries the larger last bit."""
        low = 1.2345678
        high = math.nextafter(low, math.inf)
        names = []
        reports = []
        for bf_mean, df_mean in ((high, low), (low, high)):
            result = CampaignResult(
                rows=(),
                aggregated=(
                    self._entry("DF-CkptW", df_mean),
                    self._entry("BF-CkptW", bf_mean),
                ),
            )
            names.append([a.heuristic for a in result.ranking("montage", 20)])
            reports.append(result.render())
            assert result.best_heuristic("montage", 20) == "BF-CkptW"
        assert names == [["BF-CkptW", "DF-CkptW"]] * 2
        assert reports[0] == reports[1]
        assert reports[0].index("BF-CkptW") < reports[0].index("DF-CkptW")

    def test_printed_mean_still_ranks_first(self):
        result = CampaignResult(
            rows=(),
            aggregated=(self._entry("BF-CkptW", 1.236), self._entry("DF-CkptW", 1.235)),
        )
        assert [a.heuristic for a in result.ranking("montage", 20)] == [
            "DF-CkptW",
            "BF-CkptW",
        ]


class TestCampaignSpec:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"families": ("nonsense",)}, "no default failure rate known for family 'nonsense'"),
            ({"preset": "lambda-downtime", "families": ("bogus",)},
             "unknown workflow family 'bogus'"),
            ({"heuristics": ("XX-CkptW",)}, "unknown linearization 'XX'"),
            ({"families": ()}, "at least one family is required"),
            ({"sizes": ()}, "at least one size is required"),
            ({"seeds": ()}, "at least one seed is required"),
            ({"downtimes": ()}, "at least one downtime is required"),
            ({"processors": ()}, "at least one processor count is required"),
            ({"preset": "nonsense"}, "unknown preset 'nonsense'"),
            ({"max_candidates": 1}, "max_candidates must be >= 2 for geometric mode"),
            ({"n_shards": 0}, "shard count must be >= 1, got 0"),
            ({"sizes": (30, -5)}, "this family needs at least 10 tasks, got -5"),
            ({"families": ("montage", "cybershake"), "sizes": (9, 10)},
             "this family needs at least 10 tasks, got 9"),
            ({"preset": "lambda-downtime", "families": ("ligo",), "sizes": (8,)},
             "this family needs at least 9 tasks, got 8"),
        ],
    )
    def test_constructor_refuses_a_bad_grid(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CampaignSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"families": ("montage", "ligo", "montage")}, "family 'montage'"),
            ({"sizes": (30, 60, 30)}, "size 30"),
            ({"seeds": (0, 0)}, "seed 0"),
            ({"heuristics": ("DF-CkptW", "DF-CkptW")}, "heuristic 'DF-CkptW'"),
            ({"downtimes": (0, 30.0, 0.0)}, "downtime 0.0"),
            ({"processors": (1, 4, 4)}, "processor count 4"),
        ],
    )
    def test_constructor_refuses_a_repeated_axis_value(self, kwargs, message):
        # A repeat would aggregate one instance as several.
        with pytest.raises(ValueError, match=re.escape(f"{message} is given more than once")):
            CampaignSpec(**kwargs)

    def test_a_payload_is_revalidated(self):
        payload = CampaignSpec().to_payload() | {"families": ["nonsense"]}
        with pytest.raises(ValueError, match="no default failure rate"):
            CampaignSpec.from_payload(payload)

    def test_grid_follows_the_preset(self):
        spec = CampaignSpec(preset="lambda-downtime", sizes=(20, 40), processors=(1, 2))
        assert spec.scenarios() == lambda_downtime_grid(
            ("montage",), n_tasks=20, processors=(1, 2)
        )
