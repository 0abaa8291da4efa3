"""Sanitizer-hardened native kernel (``REPRO_NATIVE_SANITIZE``).

Three layers of coverage:

* knob semantics — validation, the mutually-exclusive asan/tsan pair, the
  object-cache key separating sanitized from plain builds, and the
  refuse-up-front guards (dlopen of an ASan library without its runtime
  preloaded *aborts the process*, so ``native_available()`` must say no
  before trying);
* in-process instrumented runs — the UBSan build loads via ctypes and must
  agree with the pure-Python reference (any UBSan diagnostic aborts, so
  agreement doubles as "no undefined behaviour on this instance"); the
  ASan build does the same in a subprocess with the runtime preloaded;
* the ThreadSanitizer pass — TSan's runtime cannot be injected into
  CPython, so the OpenMP row fill is exercised by a standalone C driver
  compiled against the real ``_theorem3.c`` with ``-fsanitize=thread``;
  the driver also pins the determinism contract (threads=1 and threads=8
  produce bit-identical output).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core import evaluator_native as nat
from repro.core.evaluator_native import (
    NativeBuildError,
    _build_key,
    _sanitizers,
    invalidate_probe_cache,
    native_available,
    native_unavailable_reason,
)

SOURCE = Path(nat.__file__).with_name("_theorem3.c")

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


def test_sanitize_knob_rejects_asan_tsan_combination(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "tsan,asan")
    with pytest.raises(NativeBuildError, match="cannot be combined"):
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


def test_tsan_refused_in_process(fresh_probe):
    fresh_probe.setenv("REPRO_NATIVE_SANITIZE", "tsan")
    invalidate_probe_cache()
    assert not native_available()
    assert "standalone driver" in (native_unavailable_reason() or "")


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


# ----------------------------------------------------------------------
# ThreadSanitizer: standalone driver over the OpenMP row fill
# ----------------------------------------------------------------------
#: A self-contained harness for ``repro_fill_rows``: a chain-plus-shortcuts
#: instance small enough to embed but wide enough that the
#: ``schedule(dynamic, 16)`` loop actually spreads rows across threads.
#: ``loss_t`` starts out filled with a -1.0 sentinel, so ``entries=`` counts
#: the slots the fill wrote.  Prints one line with that count and a
#: position-weighted checksum, both taken over the whole ``loss_t``; any
#: data race is TSan's to report.
_TSAN_DRIVER = textwrap.dedent(
    """
    #include <stdint.h>
    #include <stdio.h>
    #include <stdlib.h>
    #include <string.h>

    void repro_fill_rows(
        int64_t n_rows, const int64_t *rows, int64_t words,
        const uint64_t *fwords, const uint64_t *cwords,
        const int64_t *cand_ptr, const int64_t *cand_idx,
        const int64_t *pred_ptr, const int64_t *pred_idx,
        const double *charges, double *loss_t, int64_t n1,
        int64_t threads);

    enum { N = 48, WORDS = 1 };

    int main(int argc, char **argv) {
        int64_t threads = argc > 1 ? strtoll(argv[1], NULL, 10) : 1;
        int64_t n = N, n1 = N + 1;

        /* every task's single predecessor is task 0, so every candidate
         * takes the precomputed-frontier path and every candidate of a row
         * charges something -- n-k+1 written entries per row, maximising
         * concurrent writes into the shared loss matrix */
        int64_t pred_ptr[N + 2], pred_idx[N + 1];
        for (int64_t i = 0; i <= n; i++) {
            pred_ptr[i] = i;
            pred_idx[i] = 0;
        }
        pred_ptr[n + 1] = n + 1;

        /* row k considers candidates i = k..n */
        int64_t cand_ptr[N + 2];
        int64_t *cand_idx = malloc(sizeof(int64_t) * N * (N + 1));
        int64_t pos = 0;
        cand_ptr[0] = 0;
        for (int64_t k = 1; k <= n; k++) {
            cand_ptr[k] = pos;
            for (int64_t i = k; i <= n; i++)
                cand_idx[pos++] = i;
        }
        cand_ptr[n + 1] = pos;

        uint64_t fwords[N + 1], cwords[N + 1];
        for (int64_t i = 0; i <= n; i++) {
            fwords[i] = i >= 64 ? ~0ULL : ((1ULL << i) - 1);
            cwords[i] = i + 1 >= 64 ? ~0ULL : ((1ULL << (i + 1)) - 1);
        }

        double charges[WORDS * 64];
        for (int b = 0; b < WORDS * 64; b++)
            charges[b] = 0.5 * (double)(b + 1);

        size_t cells = (size_t)(n + 1) * (size_t)n1;
        double *loss_t = malloc(cells * sizeof(double));
        for (size_t c = 0; c < cells; c++)
            loss_t[c] = -1.0;
        int64_t rows[N];
        for (int64_t r = 0; r < n; r++)
            rows[r] = r + 1;

        repro_fill_rows(n, rows, WORDS, fwords, cwords, cand_ptr, cand_idx,
                        pred_ptr, pred_idx, charges, loss_t, n1, threads);

        double checksum = 0.0;
        int64_t entries = 0;
        for (size_t c = 0; c < cells; c++) {
            if (loss_t[c] != -1.0)
                entries++;
            checksum += loss_t[c] * (double)(c + 1);
        }
        printf("entries=%lld checksum=%.17g\\n",
               (long long)entries, checksum);
        free(cand_idx); free(loss_t);
        return 0;
    }
    """
)


def _compile_tsan_driver(tmp_path: Path) -> Path | None:
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        return None
    driver_c = tmp_path / "tsan_driver.c"
    driver_c.write_text(_TSAN_DRIVER, encoding="utf-8")
    binary = tmp_path / "tsan_driver"
    proc = subprocess.run(
        [
            cc,
            "-O1",
            "-g",
            "-fopenmp",
            "-fsanitize=thread",
            str(driver_c),
            str(SOURCE),
            "-lm",
            "-o",
            str(binary),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        return None  # toolchain lacks libtsan (or OpenMP): skip
    return binary


#: GCC's libgomp is not TSan-instrumented: the implicit barrier ending a
#: parallel region is invisible to TSan, so the *driver main's* post-region
#: reads of the output arrays are reported as racing with worker writes.
#: Suppressing frames in ``main`` removes exactly that false positive —
#: a real race inside the fill (worker vs worker, e.g. shared scratch or
#: overlapping output slices) involves only ``repro_fill_rows._omp_fn`` /
#: ``fill_one_row`` frames and still aborts the run.
_TSAN_SUPPRESSIONS = "race:main\n"


def test_tsan_openmp_fill_is_race_free_and_deterministic(tmp_path):
    binary = _compile_tsan_driver(tmp_path)
    if binary is None:
        pytest.skip("toolchain cannot build with -fsanitize=thread -fopenmp")
    suppressions = tmp_path / "tsan.supp"
    suppressions.write_text(_TSAN_SUPPRESSIONS, encoding="utf-8")
    outputs = {}
    for threads in (1, 8):
        proc = subprocess.run(
            [str(binary), str(threads)],
            capture_output=True,
            text=True,
            timeout=300,
            env={
                **os.environ,
                "TSAN_OPTIONS": (
                    f"suppressions={suppressions} halt_on_error=1"
                ),
            },
        )
        assert proc.returncode == 0, (
            f"threads={threads}: rc={proc.returncode}\n{proc.stderr}"
        )
        assert "WARNING: ThreadSanitizer" not in proc.stderr, proc.stderr
        outputs[threads] = proc.stdout.strip()
    assert outputs[1] == outputs[8], (
        "thread count changed the fill output — the rows-are-independent "
        f"contract is broken: {outputs}"
    )
    # Row k writes one entry per candidate i = k..N: N (N + 1) / 2 in all.
    assert outputs[1].startswith(f"entries={48 * 49 // 2} "), outputs[1]
