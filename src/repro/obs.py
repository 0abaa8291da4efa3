"""Prometheus-style metrics: counters, gauges, histograms, text exposition.

A deliberately small, dependency-free subset of the Prometheus client model,
shared by the service daemon (``GET /metrics``, see
:func:`repro.service.metrics.build_service_registry`) and the fabric
coordinator (``repro fabric coordinate --metrics-output``):

* :class:`Counter` — monotonically increasing totals, with optional labels;
* :class:`Gauge` — settable values;
* :class:`Histogram` — cumulative buckets plus ``_sum`` / ``_count``, from
  which Prometheus derives p50/p99 via ``histogram_quantile``;
* :class:`MetricsRegistry` — owns the metrics and renders the `text
  exposition format
  <https://prometheus.io/docs/instrumenting/exposition_formats/>`_.

An unlabelled counter or gauge can instead be computed at scrape time
through a callback: a lifetime count another object keeps (a lease queue's
grants, a worker pool's resets), the current queue depth, a hit rate.

All mutating operations are thread-safe (one registry-wide lock): the daemon
observes metrics from asyncio handlers, worker threads and pool callbacks
alike.  Scraping renders under the same lock, so a scrape never sees a
histogram whose bucket counts and sum disagree.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Mapping, Sequence

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
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


class _Scalar(_Metric):
    """One value per series, or one computed at scrape time by ``callback``."""

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
            raise ValueError(f"callback {self.kind}s cannot be labelled")
        self.callback = callback
        super().__init__(name, help_text, label_names=label_names, lock=lock)

    def _new_series(self) -> list[float]:
        return [0.0]

    def set_callback(self, callback: Callable[[], float]) -> None:
        """Attach a scrape-time callback to an (unlabelled) metric.

        Lets the registry be declared before the objects the metric reads
        exist (the server wires queue depth / hit rate in as it assembles).
        """
        if self.label_names:
            raise ValueError(f"callback {self.kind}s cannot be labelled")
        self.callback = callback

    def _add(self, amount: float, labels: Mapping[str, Any]) -> None:
        if self.callback is not None:
            raise ValueError(f"{self.kind} {self.name} is computed by a callback")
        series = self._series_for(labels)
        with self._lock:
            series[0] += amount

    def value(self, **labels: Any) -> float:
        """Current value of one series (0.0 if never touched)."""
        if self.callback is not None:
            return float(self.callback())
        values = self._label_values(labels)
        with self._lock:
            series = self._series.get(values)
            return float(series[0]) if series is not None else 0.0

    def _render_series(self, labels: dict[str, str], series: list[float]) -> list[str]:
        value = float(self.callback()) if self.callback is not None else series[0]
        return [f"{self.name}{_render_labels(labels)} {format_value(value)}"]


class Counter(_Scalar):
    """Monotonically increasing total (optionally labelled)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters can only increase")
        self._add(amount, labels)


class Gauge(_Scalar):
    """Settable value (optionally labelled)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        if self.callback is not None:
            raise ValueError(f"gauge {self.name} is computed by a callback")
        series = self._series_for(labels)
        with self._lock:
            series[0] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        self._add(amount, labels)

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)


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
        self,
        name: str,
        help_text: str,
        *,
        labels: Sequence[str] = (),
        callback: Callable[[], float] | None = None,
    ) -> Counter:
        """Create and register a :class:`Counter`."""
        return self._register(
            Counter(name, help_text, label_names=labels, callback=callback, lock=self._lock)
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
