"""Tests for the service planner (repro.service.planner).

The load-bearing claims of the service PR live here:

* **bit-identity** — a planner response carries exactly the numbers the
  direct :func:`repro.solve_heuristic` call produces (the shared sweep and
  the cache are invisible in the output);
* **coalescing** — N same-family solve requests cost fewer sweep passes
  than N (one shared pass per linearization, observable via the metrics
  counters);
* **cache interop** — the planner reads and writes the campaign runner's
  exact cache payloads under the unchanged content-addressed keys.
"""

from __future__ import annotations

import pytest

from repro import SweepState, solve_heuristic
from repro.experiments.scenarios import build_workflow
from repro.heuristics.registry import heuristic_rng
from repro.heuristics.search import candidate_counts
from repro.runtime.cache import ResultCache
from repro.runtime.runner import CampaignRunner
from repro.service.metrics import build_service_registry
from repro.service.planner import ServicePlanner
from repro.service.schema import (
    ServiceError,
    parse_analyse_request,
    parse_evaluate_request,
    parse_solve_request,
)


def solve_payload(**overrides):
    payload = {"family": "montage", "n_tasks": 20, "seed": 1}
    payload.update(overrides)
    return payload


def make_planner(cache: ResultCache | None = None):
    registry = build_service_registry()
    planner = ServicePlanner(cache=cache, registry=registry, jobs=1)
    return planner, registry


def direct_solve(request):
    """The reference path: what `repro solve` computes for this request."""
    workflow = build_workflow(request.scenario)
    counts = None
    if not request.heuristic.endswith(("CkptNvr", "CkptAlws")):
        counts = candidate_counts(
            workflow.n_tasks,
            mode=request.search_mode,
            max_candidates=request.max_candidates,
        )
    return solve_heuristic(
        workflow,
        request.scenario.platform,
        request.heuristic,
        rng=heuristic_rng(request.scenario.seed, request.heuristic),
        counts=counts,
        backend=request.backend,
    )


class TestSharedSweep:
    def test_order_guard_rejects_mismatched_sweep(self):
        request = parse_solve_request(solve_payload(heuristic="DF-CkptW"))
        workflow = build_workflow(request.scenario)
        from repro.heuristics.linearization import linearize

        bf_order = linearize(workflow, "BF")
        df_order = linearize(workflow, "DF")
        if bf_order == df_order:
            pytest.skip("families where DF == BF cannot exercise the guard")
        sweep = SweepState(workflow, bf_order, request.scenario.platform)
        with pytest.raises(ValueError, match="another workflow, linearization"):
            solve_heuristic(
                workflow,
                request.scenario.platform,
                "DF-CkptW",
                rng=heuristic_rng(request.scenario.seed, "DF-CkptW"),
                counts=candidate_counts(workflow.n_tasks, mode="exhaustive"),
                sweep=sweep,
            )


class TestBitIdentity:
    @pytest.mark.parametrize(
        "heuristic",
        ["DF-CkptW", "DF-CkptPer", "BF-CkptC", "RF-CkptW", "DF-CkptNvr", "DF-CkptAlws"],
    )
    def test_planner_matches_direct_solve(self, heuristic):
        request = parse_solve_request(
            solve_payload(heuristic=heuristic, include_schedule=True)
        )
        planner, _ = make_planner()
        (payload,) = planner.solve_batch([request])
        assert not isinstance(payload, Exception), payload
        reference = direct_solve(request)
        assert payload["expected_makespan"] == reference.expected_makespan
        assert payload["overhead_ratio"] == reference.overhead_ratio
        assert payload["n_checkpointed"] == reference.checkpoint_count
        assert payload["schedule"]["order"] == list(reference.schedule.order)
        assert payload["schedule"]["checkpointed"] == sorted(
            reference.schedule.checkpointed
        )

    def test_batched_same_family_responses_equal_solo_responses(self):
        heuristics = ["DF-CkptW", "DF-CkptPer", "DF-CkptC"]
        requests = [
            parse_solve_request(solve_payload(heuristic=h)) for h in heuristics
        ]
        planner, _ = make_planner()
        batched = planner.solve_batch(requests)
        for request, payload in zip(requests, batched):
            solo_planner, _ = make_planner()
            (solo,) = solo_planner.solve_batch([request])
            assert payload["expected_makespan"] == solo["expected_makespan"]
            assert payload["n_checkpointed"] == solo["n_checkpointed"]
            assert payload["cache_key"] == solo["cache_key"]


class TestCoalescing:
    def test_same_family_batch_shares_one_sweep_pass(self):
        heuristics = ["DF-CkptW", "DF-CkptC", "DF-CkptD", "DF-CkptPer"]
        requests = [
            parse_solve_request(solve_payload(heuristic=h)) for h in heuristics
        ]
        planner, registry = make_planner()
        results = planner.solve_batch(requests)
        assert all(not isinstance(r, Exception) for r in results)
        # Four searches over the same DF linearization ride ONE sweep pass:
        # strictly fewer backend passes than requests (the acceptance bar).
        passes = registry.get("repro_solve_sweep_passes_total").value()
        assert passes == 1 < len(requests)
        assert registry.get("repro_solve_computed_total").value() == len(requests)

    def test_distinct_linearizations_get_their_own_pass(self):
        requests = [
            parse_solve_request(solve_payload(heuristic="DF-CkptW")),
            parse_solve_request(solve_payload(heuristic="BF-CkptW")),
        ]
        planner, registry = make_planner()
        planner.solve_batch(requests)
        assert registry.get("repro_solve_sweep_passes_total").value() == 2

    def test_distinct_families_never_share(self):
        requests = [
            parse_solve_request(solve_payload(family="montage", heuristic="DF-CkptW")),
            parse_solve_request(
                solve_payload(family="cybershake", heuristic="DF-CkptW")
            ),
        ]
        planner, registry = make_planner()
        results = planner.solve_batch(requests)
        assert registry.get("repro_solve_sweep_passes_total").value() == 2
        assert results[0]["expected_makespan"] != results[1]["expected_makespan"]

    def test_rf_units_are_singletons_with_private_sweeps(self):
        requests = [
            parse_solve_request(solve_payload(heuristic="RF-CkptW", seed=1)),
            parse_solve_request(solve_payload(heuristic="RF-CkptW", seed=2)),
        ]
        planner, registry = make_planner()
        results = planner.solve_batch(requests)
        assert all(not isinstance(r, Exception) for r in results)
        assert registry.get("repro_solve_sweep_passes_total").value() == 2

    def test_identical_requests_in_one_batch_single_flight(self):
        request = parse_solve_request(solve_payload(heuristic="DF-CkptW"))
        planner, registry = make_planner()
        results = planner.solve_batch([request, request, request])
        assert registry.get("repro_solve_computed_total").value() == 1
        assert registry.get("repro_solve_coalesced_total").value() == 2
        sources = sorted(r["cache"] for r in results)
        assert sources == ["coalesced", "coalesced", "computed"]
        assert len({r["expected_makespan"] for r in results}) == 1

    def test_bad_unit_does_not_poison_the_batch(self):
        import dataclasses

        good = parse_solve_request(solve_payload(heuristic="DF-CkptW"))
        # Fabricate a unit that fails during planning (an impossible
        # heuristic name cannot pass parse_solve_request, so splice it in).
        bad = dataclasses.replace(good, heuristic="ZZ-Nope")
        planner, registry = make_planner()
        results = planner.solve_batch([bad, good])
        assert isinstance(results[0], Exception)
        assert not isinstance(results[1], Exception)
        assert registry.get("repro_solve_errors_total").value() >= 1


class TestCacheInterop:
    def test_second_batch_is_served_from_cache(self):
        request = parse_solve_request(solve_payload(heuristic="DF-CkptW"))
        planner, registry = make_planner(ResultCache())
        (first,) = planner.solve_batch([request])
        (second,) = planner.solve_batch([request])
        assert first["cache"] == "computed"
        assert second["cache"] == "cache"
        assert second["expected_makespan"] == first["expected_makespan"]
        assert registry.get("repro_solve_cache_hits_total").value() == 1
        assert planner.cache_hit_rate() > 0.0

    def test_campaign_warmed_cache_serves_the_daemon(self, tmp_path):
        """A cache written by `repro campaign` answers service requests."""
        request = parse_solve_request(solve_payload(heuristic="DF-CkptW"))
        path = tmp_path / "cache.sqlite"
        with ResultCache.open(path) as cache:
            with CampaignRunner(jobs=1, cache=cache) as runner:
                (row,) = runner.run_rows([request.scenario])
        with ResultCache.open(path) as cache:
            planner, registry = make_planner(cache)
            (payload,) = planner.solve_batch([request])
        assert payload["cache"] == "cache"
        assert payload["expected_makespan"] == row.expected_makespan
        assert registry.get("repro_solve_sweep_passes_total").value() == 0

    def test_daemon_warmed_cache_serves_a_campaign(self, tmp_path, monkeypatch):
        """A cache written by `repro serve` answers a campaign: zero solves."""
        import repro.runtime.runner as runner_module

        scenario = parse_solve_request(solve_payload()).scenario.with_updates(
            heuristics=("DF-CkptW", "BF-CkptC", "RF-CkptD", "DF-CkptNvr"),
            label="from-the-daemon",
        )
        requests = [
            parse_solve_request(solve_payload(heuristic=h))
            for h in scenario.heuristics
        ]
        path = tmp_path / "cache.sqlite"
        with ResultCache.open(path) as cache:
            planner, _ = make_planner(cache)
            served = planner.solve_batch(requests)
        assert [p["cache"] for p in served] == ["computed"] * len(requests)

        def forbidden(plans):
            raise AssertionError("a daemon-warmed unit was solved again")

        monkeypatch.setattr(runner_module, "solve_group", forbidden)
        with ResultCache.open(path) as cache:
            with CampaignRunner(jobs=1, cache=cache) as runner:
                rows = runner.run_rows([scenario])
            assert cache.stats.hits == len(requests)
            assert cache.stats.misses == 0
        assert [row.expected_makespan for row in rows] == [
            p["expected_makespan"] for p in served
        ]
        assert [row.n_checkpointed for row in rows] == [
            p["n_checkpointed"] for p in served
        ]

    def test_include_schedule_recomputes_on_lru_miss_with_same_outcome(self):
        import dataclasses

        request = parse_solve_request(solve_payload(heuristic="DF-CkptW"))
        with_schedule = dataclasses.replace(request, include_schedule=True)
        planner, _ = make_planner(ResultCache())
        (first,) = planner.solve_batch([request])
        planner._schedules.clear()  # drop the in-memory schedule layer
        (second,) = planner.solve_batch([with_schedule])
        assert second["cache"] == "computed"  # outcome cached, schedule gone
        assert second["expected_makespan"] == first["expected_makespan"]
        assert len(second["schedule"]["order"]) == second["actual_n_tasks"]
        assert len(second["schedule"]["checkpointed"]) == second["n_checkpointed"]


class TestEvaluateAnalyse:
    @pytest.fixture
    def schedule_payload(self):
        from repro.workflows.serialization import schedule_to_dict

        request = parse_solve_request(solve_payload(heuristic="DF-CkptW"))
        result = direct_solve(request)
        return schedule_to_dict(result.schedule)

    def test_evaluate_matches_direct_evaluation(self, schedule_payload):
        from repro.core.evaluator import evaluate_schedule
        from repro.workflows.serialization import schedule_from_dict

        request = parse_evaluate_request(
            {"schedule": schedule_payload, "failure_rate": 1e-3}
        )
        planner, _ = make_planner()
        payload = planner.evaluate(request)
        reference = evaluate_schedule(
            schedule_from_dict(schedule_payload), request.platform
        )
        assert payload["expected_makespan"] == reference.expected_makespan
        assert payload["overhead_ratio"] == reference.overhead_ratio

    def test_analyse_breakdown_fields(self, schedule_payload):
        request = parse_analyse_request(
            {
                "schedule": schedule_payload,
                "failure_rate": 1e-3,
                "top": 3,
                "utilities": True,
            }
        )
        planner, _ = make_planner()
        payload = planner.analyse(request)
        assert payload["expected_makespan"] > 0
        assert payload["waste_fraction"] >= 0
        assert len(payload["worst_tasks"]) <= 3
        assert {"task_index", "name", "overhead_ratio"} <= set(payload["worst_tasks"][0])
        utilities = payload["utilities"]
        assert utilities == sorted(utilities, key=lambda u: -u["utility"])


class TestSchemaValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown field"):
            parse_solve_request(solve_payload(typo_field=1))

    def test_unknown_family_rejected(self):
        with pytest.raises(ServiceError, match="unknown workflow family"):
            parse_solve_request(solve_payload(family="nope"))

    def test_boolean_is_not_an_int(self):
        with pytest.raises(ServiceError, match="boolean"):
            parse_solve_request(solve_payload(n_tasks=True))

    def test_bad_heuristic_rejected(self):
        with pytest.raises(ServiceError):
            parse_solve_request(solve_payload(heuristic="XX-Nope"))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ServiceError, match="unknown backend"):
            parse_solve_request(solve_payload(backend="fortran"))

    def test_failure_rate_defaults_to_family_paper_value(self):
        from repro.experiments.scenarios import DEFAULT_FAILURE_RATES

        request = parse_solve_request(solve_payload(family="genome"))
        assert request.scenario.failure_rate == DEFAULT_FAILURE_RATES["genome"]

    def test_error_payload_shape(self):
        error = ServiceError("nope", status=422, code="unprocessable")
        assert error.to_payload() == {
            "error": {"code": "unprocessable", "message": "nope"}
        }

    def test_evaluate_requires_schedule_object(self):
        with pytest.raises(ServiceError, match="schedule"):
            parse_evaluate_request({"failure_rate": 1e-3})
