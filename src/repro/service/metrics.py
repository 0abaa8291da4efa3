"""Prometheus-style metrics: counters, gauges, histograms, text exposition.

A deliberately small, dependency-free subset of the Prometheus client model —
exactly what the service daemon needs to expose cache hit rate, queue depth,
batch coalescing and solve-latency percentiles on ``GET /metrics``:

* :class:`Counter` — monotonically increasing totals, with optional labels;
* :class:`Gauge` — settable values, or computed at scrape time through a
  callback (e.g. the current queue depth, the lifetime hit rate);
* :class:`Histogram` — cumulative buckets plus ``_sum`` / ``_count``, from
  which Prometheus derives p50/p99 via ``histogram_quantile``;
* :class:`MetricsRegistry` — owns the metrics and renders the `text
  exposition format
  <https://prometheus.io/docs/instrumenting/exposition_formats/>`_.

All mutating operations are thread-safe (one registry-wide lock): the daemon
observes metrics from asyncio handlers, worker threads and pool callbacks
alike.  Scraping renders under the same lock, so a scrape never sees a
histogram whose bucket counts and sum disagree.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "build_fabric_registry",
    "build_service_registry",
    "format_value",
]

#: Default buckets of the latency histograms (seconds).  Spans sub-millisecond
#: cache hits up to multi-second exhaustive searches on large instances.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def format_value(value: float) -> str:
    """Render a sample value the way Prometheus text exposition expects."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"' for name, value in labels.items()
    )
    return "{" + inner + "}"


_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(ch not in _NAME_OK for ch in name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class _Metric:
    """Shared plumbing of the three metric types (naming, labels, lock)."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        *,
        label_names: Sequence[str] = (),
        lock: threading.RLock | None = None,
    ) -> None:
        self.name = _check_name(name)
        self.help_text = str(help_text)
        self.label_names = tuple(str(n) for n in label_names)
        for label in self.label_names:
            _check_name(label)
        self._lock = lock if lock is not None else threading.RLock()
        # Label-value tuple -> per-series state.  Unlabelled metrics use the
        # empty tuple, created eagerly so they always appear in a scrape.
        self._series: dict[tuple[str, ...], Any] = {}
        if not self.label_names:
            self._series[()] = self._new_series()

    def _new_series(self) -> Any:
        raise NotImplementedError

    def _series_for(self, labels: Mapping[str, Any] | None) -> Any:
        values = self._label_values(labels)
        with self._lock:
            series = self._series.get(values)
            if series is None:
                series = self._new_series()
                self._series[values] = series
            return series

    def _label_values(self, labels: Mapping[str, Any] | None) -> tuple[str, ...]:
        labels = dict(labels or {})
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def header_lines(self) -> list[str]:
        return [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def sample_lines(self) -> list[str]:
        lines: list[str] = []
        with self._lock:
            for values, series in sorted(self._series.items()):
                labels = dict(zip(self.label_names, values))
                lines.extend(self._render_series(labels, series))
        return lines

    def _render_series(self, labels: dict[str, str], series: Any) -> list[str]:
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing total (optionally labelled)."""

    kind = "counter"

    def _new_series(self) -> list[float]:
        return [0.0]

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters can only increase")
        series = self._series_for(labels)
        with self._lock:
            series[0] += amount

    def value(self, **labels: Any) -> float:
        """Current total of one series (0.0 if never incremented)."""
        values = self._label_values(labels)
        with self._lock:
            series = self._series.get(values)
            return float(series[0]) if series is not None else 0.0

    def _render_series(self, labels: dict[str, str], series: list[float]) -> list[str]:
        return [f"{self.name}{_render_labels(labels)} {format_value(series[0])}"]


class Gauge(_Metric):
    """Settable value; ``callback`` computes the value at scrape time."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str,
        *,
        label_names: Sequence[str] = (),
        callback: Callable[[], float] | None = None,
        lock: threading.RLock | None = None,
    ) -> None:
        if callback is not None and label_names:
            raise ValueError("callback gauges cannot be labelled")
        self.callback = callback
        super().__init__(name, help_text, label_names=label_names, lock=lock)

    def _new_series(self) -> list[float]:
        return [0.0]

    def set_callback(self, callback: Callable[[], float]) -> None:
        """Attach a scrape-time callback to an (unlabelled) gauge.

        Lets the registry be declared before the objects the gauge reads
        exist (the server wires queue depth / hit rate in as it assembles).
        """
        if self.label_names:
            raise ValueError("callback gauges cannot be labelled")
        self.callback = callback

    def set(self, value: float, **labels: Any) -> None:
        if self.callback is not None:
            raise ValueError(f"gauge {self.name} is computed by a callback")
        series = self._series_for(labels)
        with self._lock:
            series[0] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if self.callback is not None:
            raise ValueError(f"gauge {self.name} is computed by a callback")
        series = self._series_for(labels)
        with self._lock:
            series[0] += amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        if self.callback is not None:
            return float(self.callback())
        values = self._label_values(labels)
        with self._lock:
            series = self._series.get(values)
            return float(series[0]) if series is not None else 0.0

    def _render_series(self, labels: dict[str, str], series: list[float]) -> list[str]:
        value = float(self.callback()) if self.callback is not None else series[0]
        return [f"{self.name}{_render_labels(labels)} {format_value(value)}"]


class Histogram(_Metric):
    """Cumulative-bucket histogram (``le`` buckets, ``_sum`` and ``_count``)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        label_names: Sequence[str] = (),
        lock: threading.RLock | None = None,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        if bounds and bounds[-1] == math.inf:
            bounds = bounds[:-1]  # +Inf is implicit
        self.bounds = bounds
        super().__init__(name, help_text, label_names=label_names, lock=lock)

    def _new_series(self) -> dict[str, Any]:
        return {"counts": [0] * (len(self.bounds) + 1), "sum": 0.0, "count": 0}

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation."""
        value = float(value)
        series = self._series_for(labels)
        with self._lock:
            index = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            series["counts"][index] += 1
            series["sum"] += value
            series["count"] += 1

    def snapshot(self, **labels: Any) -> dict[str, Any]:
        """Copy of one series: cumulative bucket counts, sum and count."""
        values = self._label_values(labels)
        with self._lock:
            series = self._series.get(values)
            if series is None:
                series = self._new_series()
            cumulative: list[int] = []
            running = 0
            for count in series["counts"]:
                running += count
                cumulative.append(running)
            return {
                "bounds": self.bounds,
                "cumulative": cumulative,
                "sum": float(series["sum"]),
                "count": int(series["count"]),
            }

    def quantile(self, q: float, **labels: Any) -> float:
        """Bucket-interpolated quantile (the ``histogram_quantile`` estimate).

        Good enough for reports and the load benchmark; Prometheus itself
        computes the same estimate server-side from the exposed buckets.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        snap = self.snapshot(**labels)
        total = snap["count"]
        if total == 0:
            return float("nan")
        rank = q * total
        previous_bound = 0.0
        previous_cumulative = 0
        for bound, cumulative in zip(snap["bounds"], snap["cumulative"]):
            if cumulative >= rank:
                in_bucket = cumulative - previous_cumulative
                if in_bucket == 0:
                    return bound
                fraction = (rank - previous_cumulative) / in_bucket
                return previous_bound + fraction * (bound - previous_bound)
            previous_bound = bound
            previous_cumulative = cumulative
        return snap["bounds"][-1] if snap["bounds"] else float("nan")

    def _render_series(self, labels: dict[str, str], series: dict[str, Any]) -> list[str]:
        lines: list[str] = []
        running = 0
        for bound, count in zip(self.bounds, series["counts"]):
            running += count
            bucket_labels = dict(labels)
            bucket_labels["le"] = format_value(bound)
            lines.append(
                f"{self.name}_bucket{_render_labels(bucket_labels)} {running}"
            )
        running += series["counts"][len(self.bounds)]
        bucket_labels = dict(labels)
        bucket_labels["le"] = "+Inf"
        lines.append(f"{self.name}_bucket{_render_labels(bucket_labels)} {running}")
        rendered = _render_labels(labels)
        lines.append(f"{self.name}_sum{rendered} {format_value(series['sum'])}")
        lines.append(f"{self.name}_count{rendered} {series['count']}")
        return lines


class MetricsRegistry:
    """Ordered collection of metrics with Prometheus text exposition."""

    #: Content type of the exposition format (what ``GET /metrics`` serves).
    CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> Any:
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(f"metric {metric.name} is already registered")
            self._metrics[metric.name] = metric
        return metric

    def counter(
        self, name: str, help_text: str, *, labels: Sequence[str] = ()
    ) -> Counter:
        """Create and register a :class:`Counter`."""
        return self._register(
            Counter(name, help_text, label_names=labels, lock=self._lock)
        )

    def gauge(
        self,
        name: str,
        help_text: str,
        *,
        labels: Sequence[str] = (),
        callback: Callable[[], float] | None = None,
    ) -> Gauge:
        """Create and register a :class:`Gauge`."""
        return self._register(
            Gauge(name, help_text, label_names=labels, callback=callback, lock=self._lock)
        )

    def histogram(
        self,
        name: str,
        help_text: str,
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Sequence[str] = (),
    ) -> Histogram:
        """Create and register a :class:`Histogram`."""
        return self._register(
            Histogram(name, help_text, buckets=buckets, label_names=labels, lock=self._lock)
        )

    def get(self, name: str) -> Any:
        """Look up a registered metric by name (KeyError when absent)."""
        with self._lock:
            return self._metrics[name]

    def names(self) -> list[str]:
        with self._lock:
            return list(self._metrics)

    def render(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: list[str] = []
        with self._lock:
            for metric in self._metrics.values():
                lines.extend(metric.header_lines())
                lines.extend(metric.sample_lines())
        return "\n".join(lines) + "\n"


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


def build_fabric_registry(
    *,
    active_leases: Callable[[], float] | None = None,
    pending_shards: Callable[[], float] | None = None,
    breaker_open: Callable[[], float] | None = None,
) -> MetricsRegistry:
    """The fabric coordinator's metric set (names are the public contract).

    Counters follow the lease lifecycle (grants, renewals, expirations,
    reassignments, quarantines, completions) plus the cache-net client's
    retry count folded in from worker completion reports; the gauges track
    live queue state through callbacks, like :func:`build_service_registry`.
    """
    registry = MetricsRegistry()
    registry.counter(
        "repro_fabric_leases_granted_total", "Shard leases granted to workers."
    )
    registry.counter(
        "repro_fabric_lease_renewals_total", "Lease renewals (worker heartbeats)."
    )
    registry.counter(
        "repro_fabric_lease_expirations_total",
        "Leases that expired without completion (dead or stalled worker).",
    )
    registry.counter(
        "repro_fabric_shard_reassignments_total",
        "Shards returned to the pending pool for another worker.",
    )
    registry.counter(
        "repro_fabric_shards_poisoned_total",
        "Shards quarantined after exhausting their grant budget.",
    )
    registry.counter(
        "repro_fabric_shards_completed_total", "Shards completed and journaled."
    )
    registry.counter(
        "repro_fabric_cache_net_retries_total",
        "Cache-net transport retries reported by workers.",
    )
    registry.counter(
        "repro_fabric_cache_degradations_total",
        "Worker shard runs that finished with the cache circuit open "
        "(served by the local cache only).",
    )
    registry.gauge(
        "repro_fabric_active_leases",
        "Shard leases currently held by workers.",
        callback=active_leases,
    )
    registry.gauge(
        "repro_fabric_pending_shards",
        "Shards waiting for a worker.",
        callback=pending_shards,
    )
    registry.gauge(
        "repro_fabric_cache_breaker_open",
        "1 while the most recent worker report had its cache circuit open.",
        callback=breaker_open,
    )
    return registry
