"""JSON request schema of the checkpoint-planning service.

Requests describe instances with exactly the vocabulary the rest of the
repository uses: a solve request carries the fields of a
:class:`~repro.experiments.scenarios.Scenario` (family, size, platform
triple, checkpoint-cost assignment, seed), evaluate / analyse requests carry
a serialized schedule (the ``repro-schedule`` format of
:mod:`repro.workflows.serialization`) plus the platform triple of the
single-platform CLI commands.  Building on those shared descriptions is what
makes a service response bit-for-bit comparable to the equivalent direct
call: both sides construct the same workflow, the same platform and the same
random stream from the same payload.

Validation errors raise :class:`ServiceError`, which maps onto an HTTP
status and a machine-readable error code — the JSON analogue of the CLI's
``error: ...`` stderr line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..core.backend import BACKEND_REGISTRY
from ..core.platform import Platform, PlatformSpec
from ..core.schedule import Schedule
from ..experiments.scenarios import DEFAULT_FAILURE_RATES, Scenario
from ..heuristics.registry import parse_heuristic_name
from ..heuristics.search import SEARCH_MODES
from ..workflows.serialization import schedule_from_dict

__all__ = [
    "ServiceError",
    "SolveRequest",
    "ScheduleRequest",
    "parse_solve_request",
    "parse_evaluate_request",
    "parse_analyse_request",
]


class ServiceError(Exception):
    """A request the service refuses, with its HTTP status and error code.

    ``code`` is a stable machine-readable slug (``bad-request``,
    ``not-found``, ``overloaded``, ...); ``message`` is the human-readable
    detail.  :meth:`to_payload` renders the JSON error body every endpoint
    uses, so clients parse one shape for every failure.
    """

    def __init__(self, message: str, *, status: int = 400, code: str = "bad-request"):
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)

    def to_payload(self) -> dict[str, Any]:
        return {"error": {"code": self.code, "message": str(self)}}


@dataclass(frozen=True)
class SolveRequest:
    """One validated ``POST /v1/solve`` request."""

    scenario: Scenario
    heuristic: str
    search_mode: str
    max_candidates: int
    backend: str | None
    include_schedule: bool


@dataclass(frozen=True)
class ScheduleRequest:
    """One validated ``POST /v1/evaluate`` or ``POST /v1/analyse`` request."""

    schedule: Schedule
    platform: Platform
    backend: str | None
    # analyse-only knobs (defaulted for evaluate)
    top: int = 5
    utilities: bool = False


def _require_object(payload: Any) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise ServiceError("request body must be a JSON object")
    return payload


_ALLOWED_SOLVE_FIELDS = frozenset(
    {
        "family",
        "n_tasks",
        "failure_rate",
        "downtime",
        "processors",
        "checkpoint_mode",
        "checkpoint_factor",
        "checkpoint_value",
        "seed",
        "heuristic",
        "search_mode",
        "max_candidates",
        "backend",
        "include_schedule",
        "async",
    }
)


def _field(
    payload: Mapping[str, Any],
    name: str,
    kind,
    default: Any,
    *,
    required: bool = False,
):
    """One typed field with a service-flavoured error on mismatch."""
    if name not in payload:
        if required:
            raise ServiceError(f"missing required field {name!r}")
        return default
    value = payload[name]
    # bool is an int subclass; a JSON true for n_tasks must not pass as 1.
    if kind in (int, float) and isinstance(value, bool):
        raise ServiceError(f"field {name!r} must be a {kind.__name__}, got a boolean")
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ServiceError(
            f"field {name!r} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _validated_backend(payload: Mapping[str, Any]) -> str | None:
    backend = payload.get("backend")
    if backend is None:
        return None
    # Validate against the live registry, names only: whether the backend
    # is *available* in this process is a solve-time concern with its own
    # structured error.
    choices = BACKEND_REGISTRY.choices()
    if backend not in choices:
        raise ServiceError(
            f"unknown backend {backend!r}; expected one of {choices}"
        )
    return str(backend)


def parse_solve_request(payload: Any) -> SolveRequest:
    """Validate a solve payload into a :class:`SolveRequest`.

    The platform / checkpoint fields default exactly like the CLI's
    (``D = 0``, ``p = 1``, proportional ``c = 0.1 w``); the failure rate
    defaults to the family's paper value from
    :data:`~repro.experiments.scenarios.DEFAULT_FAILURE_RATES`.
    """
    payload = _require_object(payload)
    unknown = sorted(set(payload) - _ALLOWED_SOLVE_FIELDS)
    if unknown:
        raise ServiceError(f"unknown field(s) {', '.join(map(repr, unknown))}")

    family = str(_field(payload, "family", str, None, required=True)).strip().lower()
    if family not in DEFAULT_FAILURE_RATES:
        raise ServiceError(
            f"unknown workflow family {family!r}; expected one of "
            f"{', '.join(sorted(DEFAULT_FAILURE_RATES))}"
        )
    n_tasks = _field(payload, "n_tasks", int, None, required=True)
    if n_tasks < 1:
        raise ServiceError(f"n_tasks must be >= 1, got {n_tasks}")

    heuristic = str(_field(payload, "heuristic", str, "DF-CkptW"))
    try:
        parse_heuristic_name(heuristic)
    except ValueError as exc:
        raise ServiceError(str(exc)) from exc

    search_mode = str(_field(payload, "search_mode", str, "exhaustive"))
    if search_mode not in SEARCH_MODES:
        raise ServiceError(
            f"unknown search mode {search_mode!r}; expected one of {SEARCH_MODES}"
        )
    max_candidates = _field(payload, "max_candidates", int, 30)
    if search_mode == "geometric" and max_candidates < 2:
        raise ServiceError(
            f"max_candidates must be >= 2 for geometric mode, got {max_candidates}"
        )

    failure_rate = _field(payload, "failure_rate", float, DEFAULT_FAILURE_RATES[family])
    if failure_rate < 0.0:
        raise ServiceError(f"failure_rate must be >= 0, got {failure_rate}")
    downtime = _field(payload, "downtime", float, 0.0)
    if downtime < 0.0:
        raise ServiceError(f"downtime must be >= 0, got {downtime}")
    processors = _field(payload, "processors", int, 1)
    if processors < 1:
        raise ServiceError(f"processors must be >= 1, got {processors}")

    checkpoint_mode = str(_field(payload, "checkpoint_mode", str, "proportional"))
    if checkpoint_mode not in ("proportional", "constant"):
        raise ServiceError(
            f"checkpoint_mode must be 'proportional' or 'constant', got {checkpoint_mode!r}"
        )
    scenario = Scenario(
        family=family,
        n_tasks=int(n_tasks),
        failure_rate=float(failure_rate),
        downtime=float(downtime),
        processors=int(processors),
        checkpoint_mode=checkpoint_mode,
        checkpoint_factor=float(_field(payload, "checkpoint_factor", float, 0.1)),
        checkpoint_value=float(_field(payload, "checkpoint_value", float, 0.0)),
        heuristics=(heuristic,),
        seed=int(_field(payload, "seed", int, 0)),
        label="service",
    )
    return SolveRequest(
        scenario=scenario,
        heuristic=heuristic,
        search_mode=search_mode,
        max_candidates=int(max_candidates),
        backend=_validated_backend(payload),
        include_schedule=bool(_field(payload, "include_schedule", bool, False)),
    )


def _parse_schedule_request(payload: Any, *, analyse: bool) -> ScheduleRequest:
    payload = _require_object(payload)
    allowed = {"schedule", "failure_rate", "downtime", "processors", "backend"}
    if analyse:
        allowed |= {"top", "utilities"}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ServiceError(f"unknown field(s) {', '.join(map(repr, unknown))}")
    schedule_payload = payload.get("schedule")
    if not isinstance(schedule_payload, Mapping):
        raise ServiceError(
            "field 'schedule' must be a serialized repro-schedule object "
            "(the JSON written by 'repro solve --output')"
        )
    try:
        schedule = schedule_from_dict(schedule_payload)
    except (ValueError, KeyError, TypeError) as exc:
        raise ServiceError(f"invalid schedule payload: {exc}") from exc
    failure_rate = _field(payload, "failure_rate", float, 1e-3)
    downtime = _field(payload, "downtime", float, 0.0)
    processors = _field(payload, "processors", int, 1)
    if failure_rate < 0.0 or downtime < 0.0 or processors < 1:
        raise ServiceError("invalid platform: rates/downtime >= 0, processors >= 1")
    # The same construction the CLI and Scenario use, so a service request
    # and `repro evaluate` price the same platform by construction.
    platform = PlatformSpec(
        failure_rate=float(failure_rate),
        downtime=float(downtime),
        processors=int(processors),
    ).build()
    top = _field(payload, "top", int, 5) if analyse else 5
    if analyse and top < 1:
        raise ServiceError(f"top must be >= 1, got {top}")
    return ScheduleRequest(
        schedule=schedule,
        platform=platform,
        backend=_validated_backend(payload),
        top=int(top),
        utilities=bool(_field(payload, "utilities", bool, False)) if analyse else False,
    )


def parse_evaluate_request(payload: Any) -> ScheduleRequest:
    """Validate an evaluate payload (schedule + platform triple + backend)."""
    return _parse_schedule_request(payload, analyse=False)


def parse_analyse_request(payload: Any) -> ScheduleRequest:
    """Validate an analyse payload (evaluate fields plus ``top`` / ``utilities``)."""
    return _parse_schedule_request(payload, analyse=True)
