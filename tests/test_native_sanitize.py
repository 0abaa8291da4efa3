"""Sanitizer-hardened native kernel (``REPRO_NATIVE_SANITIZE``).

Two layers of coverage:

* knob semantics — validation, the object-cache key separating sanitized
  from plain builds, and the refuse-up-front guard (dlopen of an ASan
  library without its runtime preloaded *aborts the process*, so
  ``native_available()`` must say no before trying);
* in-process instrumented runs — the UBSan build loads via ctypes and must
  agree with the pure-Python reference (any UBSan diagnostic aborts, so
  agreement doubles as "no undefined behaviour on this instance"); the
  ASan build does the same in a subprocess with the runtime preloaded.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.evaluator_native import (
    NativeBuildError,
    _build_key,
    _sanitizers,
    invalidate_probe_cache,
    native_available,
    native_unavailable_reason,
)

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C toolchain: native backend unavailable"
)


@pytest.fixture
def fresh_probe(monkeypatch, tmp_path):
    """Isolate the build probe: private object cache, reset memo both ways."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "native-cache"))
    invalidate_probe_cache()
    yield monkeypatch
    invalidate_probe_cache()


# ----------------------------------------------------------------------
# Knob semantics
# ----------------------------------------------------------------------
def test_sanitize_knob_empty_and_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
    assert _sanitizers() == ()
    monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "ubsan")
    assert _sanitizers() == ("ubsan",)
    # deduplicated, order-insensitive, whitespace-tolerant
    monkeypatch.setenv("REPRO_NATIVE_SANITIZE", " ubsan , asan,ubsan ")
    assert _sanitizers() == ("asan", "ubsan")


def test_sanitize_knob_rejects_unknown(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "asan,msan")
    with pytest.raises(NativeBuildError, match="unknown sanitizer"):
        _sanitizers()


def test_build_key_separates_sanitizer_sets():
    source = b"int x;"
    keys = {
        _build_key("cc", ["-O3"], source, sanitizers)
        for sanitizers in ((), ("asan",), ("ubsan",), ("asan", "ubsan"))
    }
    assert len(keys) == 4, "sanitized and plain builds must never collide"


def test_unknown_sanitizer_degrades_gracefully(fresh_probe):
    fresh_probe.setenv("REPRO_NATIVE_SANITIZE", "bogus")
    invalidate_probe_cache()
    assert not native_available()
    assert "unknown sanitizer" in (native_unavailable_reason() or "")


def test_asan_refused_without_preloaded_runtime(fresh_probe):
    if "libasan" in Path("/proc/self/maps").read_text():
        pytest.skip("ASan runtime already present in this process")
    fresh_probe.setenv("REPRO_NATIVE_SANITIZE", "asan")
    fresh_probe.delenv("LD_PRELOAD", raising=False)
    invalidate_probe_cache()
    assert not native_available()
    assert "LD_PRELOAD" in (native_unavailable_reason() or "")


# ----------------------------------------------------------------------
# Instrumented in-process runs
# ----------------------------------------------------------------------
def _sanitizer_runtime(name: str) -> Path | None:
    """Absolute path of the compiler's sanitizer runtime, if it exists."""
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        return None
    proc = subprocess.run(
        [cc, f"-print-file-name=lib{name}.so"], capture_output=True, text=True
    )
    candidate = Path(proc.stdout.strip())
    return candidate if candidate.is_absolute() and candidate.exists() else None


#: Evaluates one deterministic instance on the native backend and compares
#: it against the pure-Python reference; exits nonzero on disagreement.
#: Run both in this process (ubsan) and under an ASan preload (subprocess).
_EQUIVALENCE_SNIPPET = textwrap.dedent(
    """
    import math
    from repro import Platform, Schedule, Task, Workflow, evaluate_schedule
    from repro.core.evaluator_native import load_kernels

    kernels = load_kernels()
    tasks = [Task(index=i, weight=3.0 + i, checkpoint_cost=1.0 + 0.25 * i,
                  recovery_cost=0.5 + 0.125 * i) for i in range(10)]
    edges = [(i, i + 1) for i in range(9)] + [(0, 5), (2, 7)]
    wf = Workflow(tasks=tuple(tasks), edges=edges)
    sched = Schedule(workflow=wf, order=tuple(range(10)),
                     checkpointed=frozenset({1, 4, 8}))
    platform = Platform(processors=1, processor_failure_rate=0.01,
                        downtime=2.0)
    native = evaluate_schedule(sched, platform, backend="native")
    python = evaluate_schedule(sched, platform, backend="python")
    rel = abs(native.expected_makespan - python.expected_makespan) / (
        python.expected_makespan or 1.0
    )
    assert rel < 1e-9, (native.expected_makespan, python.expected_makespan)
    print("equivalence-ok", sorted(kernels.sanitizers))
    """
)


def test_ubsan_build_loads_and_agrees(fresh_probe):
    """UBSan instruments in-process: agreement implies no UB diagnostics
    fired (``-fno-sanitize-recover`` would have aborted)."""
    fresh_probe.setenv("REPRO_NATIVE_SANITIZE", "ubsan")
    invalidate_probe_cache()
    assert native_available(), native_unavailable_reason()
    scope: dict = {}
    exec(_EQUIVALENCE_SNIPPET, scope)  # aborts or raises on any violation


def test_asan_build_agrees_under_preload(fresh_probe, tmp_path):
    runtime = _sanitizer_runtime("asan")
    if runtime is None:
        pytest.skip("no libasan runtime on this toolchain")
    env = dict(os.environ)
    env.update(
        {
            "REPRO_NATIVE_SANITIZE": "asan",
            "REPRO_NATIVE_CACHE": str(tmp_path / "asan-cache"),
            "LD_PRELOAD": str(runtime),
            # CPython's arenas look like leaks at exit; everything else
            # (overflows, use-after-free) still aborts loudly.
            "ASAN_OPTIONS": "detect_leaks=0",
        }
    )
    proc = subprocess.run(
        [sys.executable, "-c", _EQUIVALENCE_SNIPPET],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "equivalence-ok ['asan']" in proc.stdout
    assert "ERROR: AddressSanitizer" not in proc.stderr
