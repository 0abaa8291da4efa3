"""Tests for content-addressed cache keys (repro.runtime.keys)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import Platform, Schedule
from repro.experiments import Scenario, build_workflow
from repro.heuristics import heuristic_rng
from repro.runtime import (
    canonical_json,
    digest,
    evaluation_key,
    platform_fingerprint,
    scenario_unit_key,
    schedule_fingerprint,
    stable_seed_words,
    workflow_fingerprint,
)
from repro.workflows import pegasus


@pytest.fixture(scope="module")
def workflow():
    return pegasus.montage(20, seed=7).with_checkpoint_costs(
        mode="proportional", factor=0.1
    )


class TestCanonicalization:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_digest_is_hex_sha256(self):
        key = digest({"x": 1.5})
        assert len(key) == 64
        assert int(key, 16) >= 0

    def test_digest_rejects_non_finite(self):
        with pytest.raises(ValueError):
            digest({"x": float("inf")})

    def test_stable_seed_words_shape_and_determinism(self):
        words = stable_seed_words("heuristic-rng", 3, "RF-CkptW")
        assert len(words) == 4
        assert all(0 <= w < 2**64 for w in words)
        assert words == stable_seed_words("heuristic-rng", 3, "RF-CkptW")
        assert words != stable_seed_words("heuristic-rng", 3, "RF-CkptC")


class TestFingerprints:
    def test_workflow_fingerprint_matches_regenerated_instance(self, workflow):
        again = pegasus.montage(20, seed=7).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        assert workflow_fingerprint(workflow) == workflow_fingerprint(again)

    def test_workflow_fingerprint_sees_content_changes(self, workflow):
        other_seed = pegasus.montage(20, seed=8).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        other_costs = pegasus.montage(20, seed=7).with_checkpoint_costs(
            mode="proportional", factor=0.01
        )
        assert workflow_fingerprint(workflow) != workflow_fingerprint(other_seed)
        assert workflow_fingerprint(workflow) != workflow_fingerprint(other_costs)

    def test_workflow_fingerprint_ignores_names(self, workflow):
        from dataclasses import replace

        renamed = workflow.map_tasks(
            lambda t: replace(t, name=f"renamed-{t.index}"), name="renamed"
        )
        assert workflow_fingerprint(workflow) == workflow_fingerprint(renamed)

    def test_platform_fingerprint(self):
        a = Platform.from_platform_rate(1e-3)
        b = Platform.from_platform_rate(1e-3, downtime=0.0)
        c = Platform.from_platform_rate(1e-4)
        assert platform_fingerprint(a) == platform_fingerprint(b)
        assert platform_fingerprint(a) != platform_fingerprint(c)

    def test_platform_fingerprint_carries_full_platform(self):
        """v2 keys: downtime and processor count are part of the content."""
        base = Platform.from_platform_rate(1e-3)
        downtime = Platform.from_platform_rate(1e-3, downtime=60.0)
        eight = Platform(processors=8, processor_failure_rate=1e-3)
        assert platform_fingerprint(base) != platform_fingerprint(downtime)
        assert platform_fingerprint(base) != platform_fingerprint(eight)

    def test_key_version_is_bumped_for_the_platform_schema(self):
        from repro.runtime import KEY_VERSION

        # v1 caches were written through a scenario layer that dropped the
        # downtime; the schema bump deliberately invalidates them once.
        assert KEY_VERSION >= 2

    def test_schedule_fingerprint_sees_order_and_checkpoints(self, workflow):
        from repro.heuristics import linearize

        order = linearize(workflow, "DF")
        base = Schedule(workflow, order, {order[0]})
        same = Schedule(workflow, order, {order[0]})
        other_ckpt = Schedule(workflow, order, {order[0], order[1]})
        assert schedule_fingerprint(base) == schedule_fingerprint(same)
        assert schedule_fingerprint(base) != schedule_fingerprint(other_ckpt)

    def test_evaluation_key_distinguishes_kinds(self, workflow):
        from repro.heuristics import linearize

        schedule = Schedule(workflow, linearize(workflow, "DF"), ())
        platform = Platform.from_platform_rate(1e-3)
        a = evaluation_key(schedule, platform)
        b = evaluation_key(schedule, platform, kind="with-probabilities")
        assert a != b


class TestUnitKeys:
    def test_unit_key_varies_with_each_input(self, workflow):
        platform = Platform.from_platform_rate(1e-3)
        base = dict(
            workflow=workflow,
            platform=platform,
            heuristic="DF-CkptW",
            search_mode="geometric",
            max_candidates=10,
            seed=0,
        )
        reference = scenario_unit_key(**base)
        assert reference == scenario_unit_key(**base)
        for change in (
            {"heuristic": "DF-CkptC"},
            {"search_mode": "exhaustive"},
            {"max_candidates": 20},
            {"seed": 1},
            {"platform": Platform.from_platform_rate(2e-3)},
            {"platform": Platform.from_platform_rate(1e-3, downtime=30.0)},
            {"platform": Platform(processors=4, processor_failure_rate=1e-3)},
        ):
            assert scenario_unit_key(**{**base, **change}) != reference

    def test_key_stability_across_processes(self):
        """The same scenario must produce the same key in a fresh interpreter."""
        scenario = Scenario(
            family="cybershake", n_tasks=18, failure_rate=1e-3, seed=5
        )
        workflow = build_workflow(scenario)
        local = scenario_unit_key(
            workflow=workflow,
            platform=scenario.platform,
            heuristic="RF-CkptW",
            search_mode="geometric",
            max_candidates=8,
            seed=scenario.seed,
        )
        script = (
            "from repro.experiments import Scenario, build_workflow\n"
            "from repro.runtime import scenario_unit_key\n"
            "scenario = Scenario(family='cybershake', n_tasks=18, failure_rate=1e-3, seed=5)\n"
            "workflow = build_workflow(scenario)\n"
            "print(scenario_unit_key(workflow=workflow, platform=scenario.platform,"
            " heuristic='RF-CkptW', search_mode='geometric', max_candidates=8,"
            " seed=scenario.seed))\n"
        )
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"  # keys must not depend on hash salting
        remote = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        assert remote == local


class TestHeuristicRng:
    def test_streams_are_reproducible(self):
        a = heuristic_rng(3, "RF-CkptW").integers(1 << 30, size=8)
        b = heuristic_rng(3, "RF-CkptW").integers(1 << 30, size=8)
        assert list(a) == list(b)

    def test_streams_are_independent_per_heuristic_and_seed(self):
        base = list(heuristic_rng(3, "RF-CkptW").integers(1 << 30, size=8))
        assert base != list(heuristic_rng(3, "RF-CkptC").integers(1 << 30, size=8))
        assert base != list(heuristic_rng(4, "RF-CkptW").integers(1 << 30, size=8))


class TestMonteCarloKeys:
    """Cache-key sensitivity of the Monte-Carlo / robustness keys."""

    def test_monte_carlo_key_varies_with_each_input(self, workflow):
        from repro.runtime import monte_carlo_key

        platform = Platform.from_platform_rate(1e-3)
        schedule = Schedule(workflow, workflow.topological_order(), {0})
        base = dict(
            failure_spec={"law": "exponential", "rate": 1e-3},
            n_runs=1000,
            seed=0,
            checkpoint_overlap=0.0,
        )
        reference = monte_carlo_key(schedule, platform, **base)
        assert reference == monte_carlo_key(schedule, platform, **base)
        for change in (
            {"failure_spec": {"law": "exponential", "rate": 2e-3}},
            {"failure_spec": {"law": "weibull", "scale": 1000.0, "shape": 0.7}},
            {"n_runs": 2000},
            {"seed": 1},
            {"checkpoint_overlap": 0.5},
        ):
            assert monte_carlo_key(schedule, platform, **{**base, **change}) != reference
        other_platform = Platform.from_platform_rate(1e-3, downtime=5.0)
        assert monte_carlo_key(schedule, other_platform, **base) != reference

    def test_law_parameters_alone_change_the_key(self, workflow):
        """Same law family, different shape parameter: keys must differ."""
        from repro.runtime import monte_carlo_key

        platform = Platform.from_platform_rate(1e-3)
        schedule = Schedule(workflow, workflow.topological_order(), {0})
        shapes = [0.5, 0.7, 1.0]
        keys = {
            monte_carlo_key(
                schedule,
                platform,
                failure_spec={"law": "weibull", "scale": 1000.0, "shape": shape},
                n_runs=500,
                seed=0,
            )
            for shape in shapes
        }
        assert len(keys) == len(shapes)

    def test_robustness_unit_key_varies_with_mc_inputs(self, workflow):
        from repro.runtime import robustness_unit_key

        platform = Platform.from_platform_rate(1e-3)
        base = dict(
            workflow=workflow,
            platform=platform,
            heuristic="DF-CkptW",
            search_mode="geometric",
            max_candidates=10,
            seed=0,
            failure_spec={"law": "lognormal", "mu": 6.4, "sigma": 1.0},
            n_runs=1000,
            mc_seed=0,
        )
        reference = robustness_unit_key(**base)
        assert reference == robustness_unit_key(**base)
        for change in (
            {"failure_spec": {"law": "lognormal", "mu": 6.4, "sigma": 1.2}},
            {"n_runs": 500},
            {"mc_seed": 3},
            {"heuristic": "RF-CkptW"},
            {"checkpoint_overlap": 0.25},
        ):
            assert robustness_unit_key(**{**base, **change}) != reference

    def test_mc_unit_key_is_backend_agnostic(self):
        """The engines are bit-for-bit identical, so the backend must not key."""
        from repro.runtime.runner import MonteCarloUnit, _plan_mc_unit

        scenario = Scenario(family="montage", n_tasks=20, failure_rate=1e-3, seed=2)
        keys = {
            _plan_mc_unit(
                MonteCarloUnit(scenario=scenario, n_runs=100, backend=backend)
            ).key
            for backend in (None, "auto", "python", "numpy")
        }
        assert len(keys) == 1
