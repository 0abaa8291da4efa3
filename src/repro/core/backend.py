"""Evaluation-backend registry.

The Theorem-3 evaluator runs on one of three backends:

* ``"python"`` — the always-available reference loop of
  :mod:`repro.core.evaluator`, kept deliberately close to the paper's
  notation (the oracle every other backend is tested against);
* ``"numpy"`` — the vectorized engine of :mod:`repro.core.sweep`;
* ``"native"`` — the same engine with its Algorithm-1 fill and Theorem-3
  recursion swapped for the compiled C kernels of
  :mod:`repro.core.evaluator_native`, built on first use when a C
  toolchain is present.

The two array backends evaluate everything through
:class:`repro.core.sweep.SweepState`; a one-shot evaluation is a sweep of
length one.  All backends saturate overflows at the same
:data:`repro.core.expectation.OVERFLOW_EXPONENT` and agree within 1e-9
relative (property-tested), but not bit for bit: the last ulp can differ
between backends.  Cache keys nevertheless exclude the backend, so a cache
warmed by one backend serves the others with the warming backend's values.

Backends are :class:`Backend` objects registered in a process-wide
:class:`BackendRegistry` (:data:`BACKEND_REGISTRY`).  Each carries:

* ``capabilities`` — ``"evaluate"`` (Theorem 3) and/or ``"monte_carlo"``
  (the fault-injection simulator); resolution is capability-aware, so the
  Monte-Carlo engine can never be handed the native kernel, which has no
  simulation path;
* ``priority`` — the ``"auto"`` preference order (higher wins);
* ``available()`` — a lazy, memoized probe (C toolchain present?).

Selection rules, in decreasing precedence:

1. an explicit ``backend="python"`` / ``"numpy"`` / ``"native"`` argument;
2. the ``REPRO_EVAL_BACKEND`` environment variable (consulted when the
   argument is omitted or ``"auto"``);
3. ``"auto"`` — the highest-priority backend that is available and
   implements the required capability: ``native`` when its kernel builds,
   else ``numpy``, for Theorem 3; ``numpy`` for Monte Carlo.  The instance
   size plays no part, so ``auto`` resolves to one backend per process and
   never picks the Python reference, which stays the oracle the tests
   compare against and the explicit ``backend="python"`` choice.  The
   reference is faster only in two corners no benchmark workload covers:
   native one-shots below about 10 tasks, and, without a C compiler, numpy
   below about 20 tasks per count search and 30 per one-shot.

A named backend that exists but lacks the *required capability* falls back
to the automatic choice among capable backends (so ``backend="native"``
keeps working on a Monte-Carlo call instead of erroring); a named backend
that is *unavailable* on this machine raises a clear :class:`ValueError`.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .evaluator_native import NativeKernels

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKEND_REGISTRY",
    "Backend",
    "BackendRegistry",
]

#: Environment variable overriding the default backend choice.  It applies
#: wherever the backend is left unspecified (or explicitly ``"auto"``), which
#: makes it the one-line switch for whole campaigns — worker processes
#: inherit it, so a parallel sweep follows it too.
BACKEND_ENV_VAR = "REPRO_EVAL_BACKEND"


# ----------------------------------------------------------------------
# Backend objects
# ----------------------------------------------------------------------
class Backend:
    """One evaluation backend: capabilities, availability and sweep hooks.

    Parameters
    ----------
    name:
        Registry key (the value callers pass as ``backend="..."``).
    capabilities:
        What this backend can run: ``"evaluate"`` (Theorem 3) and/or
        ``"monte_carlo"`` (the fault-injection simulator).
    priority:
        ``"auto"`` preference (higher wins among available backends).
    available:
        Zero-argument availability probe (default: always available).  The
        registry calls it lazily — an expensive probe (e.g. the native
        backend's first-use compilation) should memoize internally.
    unavailable_reason:
        Zero-argument callable returning a human-readable reason when the
        probe fails (used by diagnostics such as ``repro backends``).
    sweep_kernels:
        Zero-argument callable returning the backend's compiled sweep hooks
        (see :class:`repro.core.sweep.SweepState`); only meaningful for
        backends whose sweep phases live outside the shared numpy engine.
    """

    def __init__(
        self,
        name: str,
        *,
        capabilities: Iterable[str],
        priority: int = 0,
        available: Callable[[], bool] | None = None,
        unavailable_reason: Callable[[], str | None] | None = None,
        sweep_kernels: Callable[[], Any] | None = None,
    ) -> None:
        self.name = str(name)
        self.capabilities = frozenset(capabilities)
        self.priority = int(priority)
        self._available = available
        self._unavailable_reason = unavailable_reason
        self._sweep_kernels = sweep_kernels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Backend({self.name!r}, capabilities={sorted(self.capabilities)})"

    def available(self) -> bool:
        """Whether this backend can run in this process (lazy probe)."""
        return True if self._available is None else bool(self._available())

    def unavailable_reason(self) -> str | None:
        """Human-readable availability diagnosis (``None`` when available)."""
        if self.available():
            return None
        if self._unavailable_reason is not None:
            return self._unavailable_reason()
        return f"the {self.name} backend is not available in this process"

    def sweep_kernels(self) -> Any:
        """Compiled sweep hooks, or ``None`` when the shared engine's own
        phases serve this backend."""
        return None if self._sweep_kernels is None else self._sweep_kernels()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class BackendRegistry:
    """Process-wide table of :class:`Backend` objects with resolution rules.

    Use the module-level :data:`BACKEND_REGISTRY` instance; constructing
    private registries is supported for tests.
    """

    def __init__(self) -> None:
        self._backends: dict[str, Backend] = {}

    # -- registration ---------------------------------------------------
    def register(self, backend: Backend) -> Backend:
        """Add ``backend`` under its name (names are unique)."""
        name = backend.name
        if name == "auto":
            raise ValueError("'auto' is reserved for automatic resolution")
        if name in self._backends:
            raise ValueError(f"backend {name!r} is already registered")
        self._backends[name] = backend
        return backend

    # -- introspection --------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """Registered backend names, in ``"auto"`` preference order."""
        ordered = sorted(
            self._backends.values(), key=lambda b: (b.priority, b.name)
        )
        return tuple(b.name for b in ordered)

    def choices(self) -> tuple[str, ...]:
        """Valid ``backend=`` values: ``"auto"`` plus every registered name
        (what CLI flags and request validators should accept)."""
        return ("auto", *self.names())

    def get(self, name: str) -> Backend:
        """The backend registered under ``name`` (:class:`ValueError` if
        unknown — with the historical message, so error-matching callers
        and tests keep working)."""
        try:
            return self._backends[name]
        except KeyError:
            raise ValueError(
                f"unknown evaluation backend {name!r}; "
                f"expected one of {self.choices()}"
            ) from None

    # -- resolution -----------------------------------------------------
    def resolve(
        self,
        name: str | None = None,
        *,
        n_tasks: int | None = None,
        require: str = "evaluate",
    ) -> Backend:
        """Resolve a backend request to a concrete :class:`Backend`.

        Parameters
        ----------
        name:
            A backend name or ``None``.  ``None`` and ``"auto"`` defer to
            :data:`BACKEND_ENV_VAR`, then to the automatic choice, which
            never depends on the instance size and never picks the Python
            reference (see the module docstring for the two small-instance
            corners where the reference is faster).
        n_tasks:
            Ignored: the choice does not depend on the instance size.  Kept
            only because the benchmark harness under ``perfbench/`` still
            passes it.
        require:
            Capability the caller is about to use.  A *named* backend
            lacking it falls back to the automatic choice among capable
            backends; ``"auto"`` only ever considers capable ones.

        Raises
        ------
        ValueError
            For an unknown backend name, or when a named backend is not
            available on this machine (e.g. no C toolchain).
        """
        if name is None or name == "auto":
            env = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
            name = env if env and env != "auto" else "auto"
        if name != "auto":
            backend = self.get(name)
            if require not in backend.capabilities:
                # E.g. backend="native" on a Monte-Carlo call: the kernel
                # has no simulation path, so the request degrades to the
                # automatic choice instead of erroring out mid-campaign.
                return self._auto(require)
            if not backend.available():
                raise ValueError(
                    f"the {name} evaluation backend was requested but is "
                    f"not available: {backend.unavailable_reason()}"
                )
            return backend
        return self._auto(require)

    def _auto(self, require: str) -> Backend:
        for backend in sorted(
            self._backends.values(),
            key=lambda b: (-b.priority, b.name),
        ):
            if require in backend.capabilities and backend.available():
                return backend
        raise ValueError(
            f"no available evaluation backend implements {require!r}"
        )

    def describe(self) -> list[dict[str, Any]]:
        """Machine-readable registry listing (the ``repro backends`` data).

        One mapping per backend: name, priority, sorted capabilities,
        availability and — when unavailable — the reason.
        """
        rows: list[dict[str, Any]] = []
        for name in self.names():
            backend = self.get(name)
            available = backend.available()
            row: dict[str, Any] = {
                "name": backend.name,
                "priority": backend.priority,
                "capabilities": sorted(backend.capabilities),
                "available": available,
            }
            if not available:
                row["unavailable_reason"] = backend.unavailable_reason()
            rows.append(row)
        return rows


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------
def _native_ok() -> bool:
    from .evaluator_native import native_available

    return native_available()


def _native_reason() -> str | None:
    from .evaluator_native import native_unavailable_reason

    return native_unavailable_reason()


def _native_kernels() -> "NativeKernels":
    from .evaluator_native import load_kernels

    return load_kernels()


BACKEND_REGISTRY = BackendRegistry()
BACKEND_REGISTRY.register(
    Backend(
        "python",
        capabilities=("evaluate", "monte_carlo"),
        priority=0,
    )
)
BACKEND_REGISTRY.register(
    Backend(
        "numpy",
        capabilities=("evaluate", "monte_carlo"),
        priority=10,
    )
)
BACKEND_REGISTRY.register(
    Backend(
        "native",
        capabilities=("evaluate",),
        priority=20,
        available=_native_ok,
        unavailable_reason=_native_reason,
        sweep_kernels=_native_kernels,
    )
)
