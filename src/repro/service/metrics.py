"""The planning service's metric set (``GET /metrics``).

The metric primitives live in :mod:`repro.obs`; this module declares the
daemon's metrics in one place, because their names are the public contract
that dashboards and the load benchmark scrape.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..obs import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

__all__ = ["build_service_registry"]


def build_service_registry(
    *,
    queue_depth: Callable[[], float] | None = None,
    cache_hit_rate: Callable[[], float] | None = None,
    buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
) -> MetricsRegistry:
    """The daemon's metric set, in one place (names are the public contract).

    Callbacks are optional so the registry can be built before the queue /
    cache exist (the app wires them in as it assembles the server); a
    missing callback exposes the gauge at 0.
    """
    registry = MetricsRegistry()
    registry.counter(
        "repro_requests_total",
        "HTTP requests received, by endpoint and status code.",
        labels=("endpoint", "status"),
    )
    registry.counter(
        "repro_solve_requests_total", "Solve requests accepted into the queue."
    )
    registry.counter(
        "repro_solve_cache_hits_total",
        "Solve requests answered from the content-addressed result cache.",
    )
    registry.counter(
        "repro_solve_computed_total",
        "Solve requests that required a fresh heuristic computation.",
    )
    registry.counter(
        "repro_solve_coalesced_total",
        "Solve requests coalesced onto another request's computation "
        "(batch duplicates plus in-flight joins).",
    )
    registry.counter(
        "repro_solve_sweep_passes_total",
        "SweepState construction passes performed by the planner.",
    )
    registry.counter(
        "repro_solve_evaluations_total",
        "Sweep evaluations performed by the planner's solves.",
    )
    registry.counter("repro_solve_batches_total", "Request batches dispatched.")
    registry.counter(
        "repro_solve_errors_total", "Solve computations that raised an error."
    )
    registry.counter(
        "repro_pool_crashes_total",
        "Times the solve worker pool broke (crashed / killed worker) and "
        "was disposed for healing.",
    )
    registry.counter(
        "repro_solve_retries_total",
        "Solve groups re-submitted after a worker-pool crash.",
    )
    registry.counter(
        "repro_solve_timeouts_total",
        "Requests rejected with 503 for exceeding --request-timeout.",
    )
    registry.gauge(
        "repro_queue_depth",
        "Solve requests currently waiting in the batcher queue.",
        callback=queue_depth,
    )
    registry.gauge(
        "repro_cache_hit_rate",
        "Lifetime fraction of solve lookups served by the result cache.",
        callback=cache_hit_rate,
    )
    registry.histogram(
        "repro_solve_latency_seconds",
        "End-to-end solve latency (queue wait plus computation), seconds.",
        buckets=tuple(buckets),
    )
    registry.histogram(
        "repro_request_latency_seconds",
        "HTTP request handling latency by endpoint, seconds.",
        buckets=tuple(buckets),
        labels=("endpoint",),
    )
    return registry
