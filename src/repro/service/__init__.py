"""Checkpoint-planning service: async HTTP daemon over the campaign runtime.

``repro serve`` turns the one-shot solve / evaluate / analyse commands into a
long-running service:

* :mod:`repro.service.metrics` — the daemon's Prometheus-style metric set,
  declared on the :mod:`repro.obs` registry;
* :mod:`repro.service.schema` — the JSON request/response schema, built on
  the same :class:`~repro.experiments.scenarios.Scenario` /
  :class:`~repro.core.platform.PlatformSpec` descriptions the CLI and the
  campaign layer use, so a service request and the equivalent direct call
  price the same instance by construction;
* :mod:`repro.service.planner` — the bridge into the runtime: cache lookups
  through the existing content-addressed keys, single-flight deduplication
  of identical in-flight solves, and the campaign runner's own solve core
  (:func:`~repro.runtime.runner.solve_group`), which lets requests of one
  instance and linearization ride one :class:`~repro.core.sweep.SweepState`
  pass;
* :mod:`repro.service.batcher` — the asyncio request queue feeding the
  planner's worker threads;
* :mod:`repro.service.app` — the stdlib-only HTTP/1.1 daemon exposing
  ``POST /v1/solve``, ``POST /v1/evaluate``, ``POST /v1/analyse``,
  ``GET /v1/jobs/<id>``, ``GET /healthz`` and ``GET /metrics``.

Responses are bit-for-bit identical to the equivalent direct library calls;
cache keys are the unchanged :mod:`repro.runtime.keys` digests, so a cache
warmed by a campaign serves the daemon and vice versa.
"""

from .app import BackgroundServer, ServiceConfig, ServiceServer, run_server
from .batcher import RequestBatcher
from .metrics import build_service_registry
from .planner import ServicePlanner
from .schema import (
    ServiceError,
    parse_analyse_request,
    parse_evaluate_request,
    parse_solve_request,
)

__all__ = [
    "BackgroundServer",
    "RequestBatcher",
    "ServiceConfig",
    "ServiceError",
    "ServicePlanner",
    "ServiceServer",
    "build_service_registry",
    "parse_analyse_request",
    "parse_evaluate_request",
    "parse_solve_request",
    "run_server",
]
