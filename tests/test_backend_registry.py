"""Unit tests for the pluggable backend registry (:mod:`repro.core.backend`).

These cover the registry mechanics themselves — registration, capability-
aware resolution, environment overrides and availability errors —
independently of any numerical equivalence (which :mod:`tests.test_backend_equivalence` and
:mod:`tests.test_native_backend` pin).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.backend import (
    BACKEND_ENV_VAR,
    BACKEND_REGISTRY,
    Backend,
    BackendRegistry,
)


@pytest.fixture(autouse=True)
def _no_ambient_backend_env(monkeypatch):
    # Resolution semantics are under test here: an inherited
    # REPRO_EVAL_BACKEND (e.g. the CI job forcing native) must not leak in.
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)


def _registry_with(*backends: Backend) -> BackendRegistry:
    registry = BackendRegistry()
    for backend in backends:
        registry.register(backend)
    return registry


def _backend(
    name: str,
    *,
    priority: int = 0,
    capabilities=("evaluate",),
    available=None,
    unavailable_reason=None,
) -> Backend:
    return Backend(
        name,
        capabilities=capabilities,
        priority=priority,
        available=available,
        unavailable_reason=unavailable_reason,
    )


class TestRegistration:
    def test_register_and_get(self):
        registry = _registry_with(_backend("one"))
        assert registry.get("one").name == "one"

    def test_duplicate_name_rejected(self):
        registry = _registry_with(_backend("one"))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(_backend("one"))

    def test_auto_is_reserved(self):
        registry = _registry_with()
        with pytest.raises(ValueError, match="reserved"):
            registry.register(_backend("auto"))

    def test_names_in_auto_preference_order(self):
        registry = _registry_with(
            _backend("slow", priority=0),
            _backend("fast", priority=20),
            _backend("mid", priority=10),
        )
        assert registry.names() == ("slow", "mid", "fast")
        assert registry.choices() == ("auto", "slow", "mid", "fast")


class TestResolution:
    def test_unknown_name_lists_choices(self):
        registry = _registry_with(_backend("one"))
        with pytest.raises(ValueError, match="unknown evaluation backend 'nope'"):
            registry.resolve("nope")

    def test_named_unavailable_raises_with_reason(self):
        registry = _registry_with(
            _backend("one"),
            _backend(
                "broken",
                available=lambda: False,
                unavailable_reason=lambda: "no toolchain on this box",
            ),
        )
        with pytest.raises(ValueError, match="no toolchain on this box"):
            registry.resolve("broken")

    def test_auto_prefers_highest_priority_available(self):
        registry = _registry_with(
            _backend("slow", priority=0),
            _backend("fast", priority=20),
        )
        assert registry.resolve(None).name == "fast"
        assert registry.resolve("auto").name == "fast"

    def test_auto_skips_unavailable(self):
        registry = _registry_with(
            _backend("slow", priority=0),
            _backend("fast", priority=20, available=lambda: False),
        )
        assert registry.resolve(None).name == "slow"

    def test_named_without_capability_falls_back_to_capable(self):
        registry = _registry_with(
            _backend("sim", priority=0, capabilities=("evaluate", "monte_carlo")),
            _backend("kernel", priority=20, capabilities=("evaluate",)),
        )
        # The kernel backend has no simulation path, so a Monte-Carlo call
        # naming it degrades to the best capable backend instead of erroring.
        assert registry.resolve("kernel", require="monte_carlo").name == "sim"
        assert registry.resolve("kernel", require="evaluate").name == "kernel"

    def test_no_capable_backend_raises(self):
        registry = _registry_with(_backend("one", capabilities=("evaluate",)))
        with pytest.raises(ValueError, match="implements 'monte_carlo'"):
            registry.resolve(None, require="monte_carlo")

    def test_env_override_applies_to_auto(self, monkeypatch):
        registry = _registry_with(
            _backend("slow", priority=0),
            _backend("fast", priority=20),
        )
        monkeypatch.setenv(BACKEND_ENV_VAR, "slow")
        assert registry.resolve(None).name == "slow"
        assert registry.resolve("auto").name == "slow"
        # An explicit argument still wins over the environment.
        assert registry.resolve("fast").name == "fast"

    def test_env_auto_means_auto(self, monkeypatch):
        registry = _registry_with(
            _backend("slow", priority=0),
            _backend("fast", priority=20),
        )
        monkeypatch.setenv(BACKEND_ENV_VAR, "AUTO")
        assert registry.resolve(None).name == "fast"

    def test_describe_rows(self):
        registry = _registry_with(
            _backend("ok", priority=5),
            _backend(
                "broken",
                available=lambda: False,
                unavailable_reason=lambda: "why not",
            ),
        )
        rows = {row["name"]: row for row in registry.describe()}
        assert rows["ok"]["available"] is True
        assert rows["ok"]["priority"] == 5
        assert rows["ok"]["capabilities"] == ["evaluate"]
        assert "unavailable_reason" not in rows["ok"]
        assert rows["broken"]["available"] is False
        assert rows["broken"]["unavailable_reason"] == "why not"


class TestGlobalRegistry:
    def test_builtins_present(self):
        names = BACKEND_REGISTRY.names()
        assert ("python", "numpy", "native") == names[:3] or set(
            ("python", "numpy", "native")
        ) <= set(names)

    def test_builtin_priorities_order_auto(self):
        python = BACKEND_REGISTRY.get("python")
        numpy_ = BACKEND_REGISTRY.get("numpy")
        native = BACKEND_REGISTRY.get("native")
        assert python.priority < numpy_.priority < native.priority

    def test_native_lacks_monte_carlo(self):
        native = BACKEND_REGISTRY.get("native")
        assert "monte_carlo" not in native.capabilities
        assert "evaluate" in native.capabilities


class TestNativeFallbackWithoutToolchain:
    """With the native build disabled, ``auto`` must degrade silently to
    numpy at every instance size while an explicit ``backend="native"`` must
    raise a clear error.

    Run in a subprocess so the parent's memoized probe (and any compiled
    kernels) are untouched.
    """

    _SCRIPT = r"""
import json
from repro.core.backend import BACKEND_REGISTRY
from repro.core.evaluator_native import native_available, native_unavailable_reason
from repro import Platform, Schedule, Task, Workflow, evaluate_schedule

wf = Workflow([Task(index=i, weight=5.0) for i in range(40)],
              [(i, i + 1) for i in range(39)]).with_checkpoint_costs(
    mode="proportional", factor=0.1)
sched = Schedule(wf, range(40), {9, 19, 29})
plat = Platform(processors=1, processor_failure_rate=1e-3, downtime=1.0)

out = {
    "available": native_available(),
    "reason": native_unavailable_reason(),
    "auto": BACKEND_REGISTRY.resolve(None, n_tasks=40).name,
    "auto_4_tasks": BACKEND_REGISTRY.resolve(None, n_tasks=4).name,
    "auto_value": evaluate_schedule(sched, plat, backend="auto").expected_makespan,
}
try:
    evaluate_schedule(sched, plat, backend="native")
    out["explicit_error"] = None
except ValueError as exc:
    out["explicit_error"] = str(exc)
print(json.dumps(out))
"""

    def _run_disabled(self):
        env = {
            **os.environ,
            "PYTHONPATH": "src",
            "REPRO_NATIVE_DISABLE": "1",
        }
        env.pop(BACKEND_ENV_VAR, None)  # the fallback under test is "auto"
        proc = subprocess.run(
            [sys.executable, "-c", self._SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            cwd=Path(__file__).resolve().parent.parent,
            check=True,
        )
        return json.loads(proc.stdout)

    def test_auto_falls_back_and_explicit_raises(self):
        out = self._run_disabled()
        assert out["available"] is False
        assert "REPRO_NATIVE_DISABLE" in out["reason"]
        assert out["auto"] == "numpy"  # silently degraded
        assert out["auto_4_tasks"] == "numpy"
        assert out["auto_value"] > 0.0
        assert out["explicit_error"] is not None
        assert "native" in out["explicit_error"]
        assert "not available" in out["explicit_error"]

    def test_invalidate_probe_cache_sees_env_change(self, monkeypatch):
        from repro.core import evaluator_native

        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        evaluator_native.invalidate_probe_cache()
        try:
            assert evaluator_native.native_available() is False
            reason = evaluator_native.native_unavailable_reason()
            assert reason is not None and "REPRO_NATIVE_DISABLE" in reason
        finally:
            monkeypatch.delenv("REPRO_NATIVE_DISABLE")
            evaluator_native.invalidate_probe_cache()
