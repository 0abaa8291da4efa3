"""Native (compiled C) backend for the Theorem-3 / Algorithm-1 kernels.

The two hot loops of the evaluation pipeline — the Algorithm-1 lost-work
fill and the sequential Theorem-3 recursion — are implemented once more in
plain C (``_theorem3.c``, shipped next to this module) and compiled **on
first use** with whatever C compiler the machine has (``cc``/``gcc``/
``clang``; no ``Python.h`` needed, the library is loaded through
:mod:`ctypes`).  Compiled objects are cached on disk keyed by a hash of the
source, compiler and flags, so every later process start is a plain
``dlopen``.

Why compile at runtime instead of requiring numba/Cython at install time:
the package stays a pure-Python install, machines without a toolchain
degrade silently (``backend="auto"`` keeps the numpy path — see
:meth:`repro.core.backend.BackendRegistry.resolve`), and the kernel is
compiled with ``-O3 -march=native`` for the actual CPU it runs on.

Entry points
------------
* :func:`native_available` / :func:`native_unavailable_reason` — probe (and
  memoize) whether the kernel can be built and loaded here;
* :func:`load_kernels` — the ctypes bindings used by
  :class:`repro.core.sweep.SweepState` for its native fill / kernel phases.
  Every native evaluation, one-shot included, runs through a sweep state.

Environment knobs
-----------------
``REPRO_NATIVE_CC``
    Compiler executable (default: ``cc``, then ``gcc``, then ``clang`` —
    first one found on ``PATH``).
``REPRO_NATIVE_CFLAGS``
    Optimization flags (default ``-O3 -march=native``); OpenMP is probed
    separately and dropped when unsupported.
``REPRO_NATIVE_CACHE``
    Directory for compiled objects (default
    ``~/.cache/repro-workflows/native``).
``REPRO_NATIVE_DISABLE``
    Any non-empty value marks the backend unavailable (useful to pin the
    numpy path, and to exercise the fallback in tests).
``REPRO_NATIVE_THREADS``
    Worker threads for bulk row fills (default: the CPU count; fills of a
    few rows always stay serial).  Thread count can never change a value —
    rows are priced independently.
``REPRO_NATIVE_SANITIZE``
    Comma-separated sanitizers to compile the kernel with: ``asan``,
    ``ubsan``, ``tsan`` (CI hardening; see the ``native-sanitize`` job).
    The sanitizer set is part of the object-cache key, so sanitized and
    plain builds never collide.  Caveats: an ASan-instrumented library
    only loads into CPython when the ASan runtime is preloaded
    (``LD_PRELOAD=$(cc -print-file-name=libasan.so)`` plus
    ``ASAN_OPTIONS=detect_leaks=0`` — CPython itself "leaks" arenas at
    exit); TSan's runtime cannot be preloaded into CPython at all, so
    thread-race coverage runs through a standalone compiled driver (see
    ``tests/test_native_sanitize.py``), not through ctypes.  ``asan`` and
    ``tsan`` are mutually exclusive.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform as _platform
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = [
    "NativeBuildError",
    "load_kernels",
    "native_available",
    "native_unavailable_reason",
]

#: ABI version this module expects; must match ``repro_abi_version()`` in
#: the C source (bumped together whenever an exported signature changes).
_ABI_VERSION = 2

_SOURCE_PATH = Path(__file__).with_name("_theorem3.c")

#: Memoized build outcome: ``None`` = not probed yet, otherwise a tuple of
#: (kernels-or-None, failure-reason-or-None).
_STATE: tuple["NativeKernels | None", str | None] | None = None


class NativeBuildError(RuntimeError):
    """The native kernel could not be compiled or loaded on this machine."""


class NativeKernels:
    """ctypes bindings of the compiled kernel library.

    ``fill_rows`` and ``theorem3_kernel`` mirror the C signatures; callers
    pass raw data pointers (``ndarray.ctypes.data``) of C-contiguous arrays
    they own for the duration of the call.
    """

    def __init__(
        self,
        lib: ctypes.CDLL,
        path: Path,
        openmp: bool,
        sanitizers: tuple[str, ...] = (),
    ) -> None:
        self.path = path
        self.openmp = openmp
        self.sanitizers = sanitizers
        self.fill_rows = lib.repro_fill_rows
        self.fill_rows.restype = None
        self.fill_rows.argtypes = (
            [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
            + [ctypes.c_void_p] * 8  # fwords..charges, loss_t
            + [ctypes.c_int64] * 2  # n1, threads
        )
        self.theorem3_kernel = lib.repro_theorem3_kernel
        self.theorem3_kernel.restype = None
        self.theorem3_kernel.argtypes = [
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_double,
            ctypes.c_double,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
        ]
        self.fill_threads = _fill_threads()


def _fill_threads() -> int:
    raw = os.environ.get("REPRO_NATIVE_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def _compiler() -> str | None:
    override = os.environ.get("REPRO_NATIVE_CC", "").strip()
    if override:
        return override if shutil.which(override) else None
    for cc in ("cc", "gcc", "clang"):
        if shutil.which(cc):
            return cc
    return None


def _cflags() -> list[str]:
    raw = os.environ.get("REPRO_NATIVE_CFLAGS", "").strip()
    return raw.split() if raw else ["-O3", "-march=native"]


#: Sanitizer name -> compile/link flags.  ``-fno-sanitize-recover`` turns
#: every UBSan diagnostic into an abort so CI cannot scroll past one.
_SANITIZER_FLAGS: dict[str, tuple[str, ...]] = {
    "asan": ("-fsanitize=address",),
    "ubsan": ("-fsanitize=undefined", "-fno-sanitize-recover=undefined"),
    "tsan": ("-fsanitize=thread",),
}


def _sanitizers() -> tuple[str, ...]:
    """The validated ``REPRO_NATIVE_SANITIZE`` set (sorted, deduplicated)."""
    raw = os.environ.get("REPRO_NATIVE_SANITIZE", "").strip()
    if not raw:
        return ()
    names = sorted({part.strip().lower() for part in raw.split(",") if part.strip()})
    unknown = [name for name in names if name not in _SANITIZER_FLAGS]
    if unknown:
        known = ", ".join(sorted(_SANITIZER_FLAGS))
        raise NativeBuildError(
            f"REPRO_NATIVE_SANITIZE names unknown sanitizer(s) "
            f"{', '.join(unknown)}; known: {known}"
        )
    if "asan" in names and "tsan" in names:
        raise NativeBuildError(
            "REPRO_NATIVE_SANITIZE: asan and tsan cannot be combined "
            "(their runtimes are mutually exclusive)"
        )
    return tuple(names)


def _sanitizer_flags(sanitizers: tuple[str, ...]) -> list[str]:
    flags: list[str] = []
    for name in sanitizers:
        flags.extend(_SANITIZER_FLAGS[name])
    if sanitizers:
        flags.append("-g")  # line numbers in sanitizer reports
    return flags


def _asan_runtime_loaded() -> bool:
    """Whether the ASan runtime is already in this process.

    dlopen'ing an ASan-instrumented library without the runtime preloaded
    does not fail with a catchable ``OSError`` — the runtime's init
    *aborts the process*.  So the probe must refuse up front.
    """
    try:
        if "libasan" in Path("/proc/self/maps").read_text():
            return True
    except OSError:
        pass
    return "asan" in os.environ.get("LD_PRELOAD", "")


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE", "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-workflows" / "native"


def _build_key(
    cc: str, flags: list[str], source: bytes, sanitizers: tuple[str, ...] = ()
) -> str:
    payload = "\0".join(
        [
            cc,
            " ".join(flags),
            ",".join(sanitizers),
            _platform.machine(),
            str(_ABI_VERSION),
        ]
    ).encode() + source
    return hashlib.sha256(payload).hexdigest()[:16]


def _compile(cc: str, flags: list[str], output: Path) -> bool:
    """Compile the kernel to ``output``; returns whether OpenMP was linked.

    The OpenMP variant is tried first and silently dropped when the
    toolchain rejects ``-fopenmp`` — the parallel pragma compiles away and
    fills run serially, with identical values.  Concurrent builders (e.g.
    campaign workers on a cold cache) race benignly: each compiles to its
    own temporary file and the ``os.replace`` into place is atomic.
    """
    output.parent.mkdir(parents=True, exist_ok=True)
    base = ["-shared", "-fPIC", str(_SOURCE_PATH), "-lm"]
    for openmp in (True, False):
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=output.parent)
        os.close(fd)
        cmd = [cc, *flags, *(["-fopenmp"] if openmp else []), *base, "-o", tmp]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            os.unlink(tmp)
            raise NativeBuildError(f"compiler invocation failed: {exc}") from exc
        if proc.returncode == 0:
            os.replace(tmp, output)
            return openmp
        os.unlink(tmp)
        if not openmp:
            raise NativeBuildError(
                f"compilation failed ({' '.join(cmd[:-2])}): "
                f"{proc.stderr.strip()[:500]}"
            )
    raise NativeBuildError("unreachable")  # pragma: no cover


def _build_and_load() -> NativeKernels:
    if os.environ.get("REPRO_NATIVE_DISABLE", "").strip():
        raise NativeBuildError(
            "native backend disabled via REPRO_NATIVE_DISABLE"
        )
    cc = _compiler()
    if cc is None:
        raise NativeBuildError(
            "no C compiler found (looked for cc/gcc/clang on PATH; "
            "set REPRO_NATIVE_CC to override)"
        )
    if not _SOURCE_PATH.is_file():
        raise NativeBuildError(f"kernel source missing: {_SOURCE_PATH}")
    source = _SOURCE_PATH.read_bytes()
    sanitizers = _sanitizers()
    if "tsan" in sanitizers:
        raise NativeBuildError(
            "REPRO_NATIVE_SANITIZE=tsan: a TSan-instrumented kernel cannot "
            "be loaded into CPython (the TSan runtime must own the main "
            "executable); ThreadSanitizer coverage of the OpenMP fill runs "
            "through the standalone driver in tests/test_native_sanitize.py"
        )
    if "asan" in sanitizers and not _asan_runtime_loaded():
        raise NativeBuildError(
            "REPRO_NATIVE_SANITIZE=asan requires the ASan runtime to be "
            "preloaded (dlopen of an instrumented kernel aborts otherwise): "
            "run under LD_PRELOAD=$(cc -print-file-name=libasan.so) with "
            "ASAN_OPTIONS=detect_leaks=0"
        )
    flags = _cflags() + _sanitizer_flags(sanitizers)
    try:
        cache = _cache_dir()
        cache.mkdir(parents=True, exist_ok=True)
    except OSError:
        cache = Path(tempfile.gettempdir()) / "repro-native"
    lib_path = cache / f"theorem3-{_build_key(cc, flags, source, sanitizers)}.so"

    openmp = True  # unknown for cache hits; reprobed below via omp symbol
    if not lib_path.is_file():
        openmp = _compile(cc, flags, lib_path)
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError:
        # Stale or truncated cache entry (e.g. built by an incompatible
        # toolchain): rebuild once from scratch.
        try:
            lib_path.unlink()
        except OSError:
            pass
        openmp = _compile(cc, flags, lib_path)
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError as exc:
            raise NativeBuildError(f"compiled kernel failed to load: {exc}") from exc

    abi = lib.repro_abi_version
    abi.restype = ctypes.c_int64
    if int(abi()) != _ABI_VERSION:
        # A cache entry from an older source revision whose hash collided
        # (practically impossible) or a hand-placed library: reject it.
        raise NativeBuildError(
            f"cached kernel has ABI {int(abi())}, expected {_ABI_VERSION}"
        )
    selftest = lib.repro_native_selftest
    selftest.restype = ctypes.c_double
    error = float(selftest())
    if not error < 1e-12:
        raise NativeBuildError(
            f"kernel self-test failed (max transcendental error {error:g})"
        )
    return NativeKernels(lib, lib_path, openmp, sanitizers)


def _probe() -> tuple[NativeKernels | None, str | None]:
    global _STATE
    if _STATE is None:
        try:
            _STATE = (_build_and_load(), None)
        except NativeBuildError as exc:
            _STATE = (None, str(exc))
    return _STATE


def invalidate_probe_cache() -> None:
    """Forget the memoized build outcome (test hook: environment changes
    such as ``REPRO_NATIVE_DISABLE`` are only seen by the next probe)."""
    global _STATE
    _STATE = None


def native_available() -> bool:
    """Whether the native backend can be compiled and loaded here.

    The first call on a cold cache pays one compiler invocation (~a second);
    every later call in the process is a memo read, and later processes
    reuse the on-disk object.
    """
    return _probe()[0] is not None


def native_unavailable_reason() -> str | None:
    """Why :func:`native_available` is false (``None`` when available)."""
    return _probe()[1]


def load_kernels() -> NativeKernels:
    """The compiled kernel bindings; raises :class:`NativeBuildError` with
    the build failure when the backend is unavailable."""
    kernels, reason = _probe()
    if kernels is None:
        raise NativeBuildError(reason or "native backend unavailable")
    return kernels
