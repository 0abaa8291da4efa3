"""Tests for the Prometheus-style metrics (repro.obs) and the service's set."""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_value,
)
from repro.service.metrics import build_service_registry


class TestFormatValue:
    def test_integers_render_bare(self):
        assert format_value(3.0) == "3"
        assert format_value(0.0) == "0"

    def test_floats_keep_precision(self):
        assert format_value(0.25) == "0.25"
        assert float(format_value(0.1)) == 0.1

    def test_special_values(self):
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"
        assert format_value(float("nan")) == "NaN"


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c_total", "help")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_rejects_decrease(self):
        counter = Counter("c_total", "help")
        with pytest.raises(ValueError, match="only increase"):
            counter.inc(-1)

    def test_labelled_series_are_independent(self):
        counter = Counter("req_total", "help", label_names=("endpoint", "status"))
        counter.inc(endpoint="/v1/solve", status="200")
        counter.inc(endpoint="/v1/solve", status="200")
        counter.inc(endpoint="/healthz", status="200")
        assert counter.value(endpoint="/v1/solve", status="200") == 2.0
        assert counter.value(endpoint="/healthz", status="200") == 1.0
        assert counter.value(endpoint="/healthz", status="500") == 0.0

    def test_wrong_label_set_rejected(self):
        counter = Counter("req_total", "help", label_names=("endpoint",))
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc(status="200")

    def test_callback_counter_reads_a_lifetime_count_at_scrape_time(self):
        box = {"n": 2}
        counter = Counter("grants_total", "help", callback=lambda: box["n"])
        assert counter.value() == 2.0
        box["n"] = 5
        assert "grants_total 5" in "\n".join(counter.sample_lines())
        with pytest.raises(ValueError, match="computed by a callback"):
            counter.inc()

    def test_callback_counters_cannot_be_labelled(self):
        with pytest.raises(ValueError, match="callback counters cannot be labelled"):
            Counter("c_total", "help", label_names=("a",), callback=lambda: 1.0)
        counter = Counter("c_total", "help", label_names=("a",))
        with pytest.raises(ValueError, match="cannot be labelled"):
            counter.set_callback(lambda: 1.0)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth", "help")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 4.0

    def test_callback_gauge_reads_at_scrape_time(self):
        box = {"v": 1.0}
        gauge = Gauge("depth", "help", callback=lambda: box["v"])
        assert gauge.value() == 1.0
        box["v"] = 7.0
        assert gauge.value() == 7.0
        with pytest.raises(ValueError, match="callback"):
            gauge.set(3)

    def test_set_callback_after_construction(self):
        gauge = Gauge("depth", "help")
        gauge.set_callback(lambda: 42.0)
        assert gauge.value() == 42.0
        assert "depth 42" in "\n".join(gauge.sample_lines())


class TestHistogram:
    def test_observations_fill_cumulative_buckets(self):
        hist = Histogram("lat", "help", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        snap = hist.snapshot()
        # cumulative: <=0.1 -> 1, <=1.0 -> 3, <=10.0 -> 4, +Inf -> 5
        assert snap["cumulative"] == [1, 3, 4, 5]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)

    def test_rendering_has_inf_sum_count(self):
        hist = Histogram("lat", "help", buckets=(0.1, 1.0))
        hist.observe(0.5)
        text = "\n".join(hist.header_lines() + hist.sample_lines())
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="0.1"} 0' in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 0.5" in text
        assert "lat_count 1" in text

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("lat", "help", buckets=(1.0, 0.5))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("lat", "help", buckets=())

    def test_quantile_interpolates(self):
        hist = Histogram("lat", "help", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        # p50 has rank 2 -> falls in the (1.0, 2.0] bucket
        assert 1.0 <= hist.quantile(0.5) <= 2.0
        assert math.isnan(Histogram("l2", "h", buckets=(1.0,)).quantile(0.5))
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_labelled_histogram_series(self):
        hist = Histogram("lat", "help", buckets=(1.0,), label_names=("endpoint",))
        hist.observe(0.5, endpoint="/v1/solve")
        snap = hist.snapshot(endpoint="/v1/solve")
        assert snap["count"] == 1
        assert hist.snapshot(endpoint="/healthz")["count"] == 0


class TestRegistry:
    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "help")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("a_total", "help")

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("9starts-with-digit", "help")

    def test_render_is_valid_exposition(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "Cache hits.")
        registry.gauge("depth", "Queue depth.", callback=lambda: 3.0)
        counter.inc(2)
        text = registry.render()
        assert text.endswith("\n")
        assert "# HELP hits_total Cache hits." in text
        assert "# TYPE hits_total counter" in text
        assert "hits_total 2" in text
        assert "depth 3" in text
        # every non-comment line is "name{labels} value"
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert name
            float(value.replace("+Inf", "inf"))

    def test_concurrent_increments_do_not_lose_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("n_total", "help")
        hist = registry.histogram("lat", "help", buckets=(1.0,))

        def worker():
            for _ in range(500):
                counter.inc()
                hist.observe(0.5)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == 8 * 500
        assert hist.snapshot()["count"] == 8 * 500


class TestServiceRegistry:
    """build_service_registry declares the daemon's metric contract."""

    EXPECTED = {
        "repro_requests_total",
        "repro_solve_requests_total",
        "repro_solve_cache_hits_total",
        "repro_solve_computed_total",
        "repro_solve_coalesced_total",
        "repro_solve_sweep_passes_total",
        "repro_solve_evaluations_total",
        "repro_solve_batches_total",
        "repro_solve_errors_total",
        "repro_pool_crashes_total",
        "repro_solve_retries_total",
        "repro_solve_timeouts_total",
        "repro_queue_depth",
        "repro_cache_hit_rate",
        "repro_solve_latency_seconds",
        "repro_request_latency_seconds",
    }

    def test_declares_all_service_metrics(self):
        registry = build_service_registry()
        assert set(registry.names()) == self.EXPECTED

    def test_renders_without_callbacks(self):
        text = build_service_registry().render()
        assert "repro_queue_depth 0" in text
        assert 'repro_solve_latency_seconds_bucket{le="+Inf"} 0' in text

    def test_callbacks_feed_the_gauges(self):
        registry = build_service_registry(
            queue_depth=lambda: 4.0, cache_hit_rate=lambda: 0.25
        )
        assert registry.get("repro_queue_depth").value() == 4.0
        assert "repro_cache_hit_rate 0.25" in registry.render()

    def test_default_buckets_cover_sub_millisecond_to_ten_seconds(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.001
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 10.0

    def test_content_type_is_prometheus_text(self):
        assert MetricsRegistry.CONTENT_TYPE.startswith("text/plain; version=0.0.4")
