"""The metrics registry: instruments and snapshot correctness."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    RATE_BUCKETS,
    TICK_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_accumulates_and_defaults_to_one(self):
        registry = MetricsRegistry()
        registry.counter("testpoints").inc()
        registry.counters.testpoints.inc()
        registry.counter("testpoints").inc(0.5)
        assert registry.counter("testpoints").value == 2.5

    def test_rejects_negative_increment(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="must be >= 0"):
            registry.counter("x").inc(-1.0)

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_attribute_views_look_each_name_up_once(self):
        registry = MetricsRegistry()
        assert registry.snapshot()["counters"] == {}
        counter = registry.counters.testpoints
        assert counter is registry.counter("testpoints")
        assert registry.counters.testpoints is counter
        assert registry.gauges.backoff_level is registry.gauge("backoff_level")
        # Listed from first access, as a direct lookup would be; nothing else.
        assert list(registry.snapshot()["counters"]) == ["testpoints"]
        assert list(registry.snapshot()["gauges"]) == ["backoff_level"]
        with pytest.raises(AttributeError):
            registry.counters._private

    def test_histogram_view_uses_each_names_buckets(self):
        registry = MetricsRegistry()
        rate = registry.histograms.progress_rate
        assert rate is registry.histogram("progress_rate")
        assert rate.bounds == RATE_BUCKETS
        assert registry.histograms.engine_tick_latency.bounds == TICK_LATENCY_BUCKETS
        assert registry.histograms.testpoint_duration.bounds == DEFAULT_BUCKETS
        assert registry.histograms.progress_rate is rate
        assert list(registry.snapshot()["histograms"]) == [
            "engine_tick_latency", "progress_rate", "testpoint_duration"
        ]


class TestGauge:
    def test_last_value_wins(self):
        registry = MetricsRegistry()
        registry.gauge("backoff_level").set(1.0)
        registry.gauge("backoff_level").set(3.0)
        assert registry.gauge("backoff_level").value == 3.0

    def test_unset_gauge_is_none(self):
        assert MetricsRegistry().gauge("fresh").value is None


class TestHistogram:
    def test_bucketing_and_stats(self):
        h = Histogram("suspension_delay", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            h.observe(value)
        assert h.count == 4
        assert h.total == pytest.approx(104.5)
        assert h.min == 0.5
        assert h.max == 100.0
        assert h.mean == pytest.approx(104.5 / 4)
        # counts: <=1.0 gets 0.5 and 1.0; <=2.0 none; <=4.0 gets 3.0; +inf gets 100.
        assert h.counts == [2, 0, 1, 1]

    def test_quantiles(self):
        h = Histogram("d", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.6, 1.5, 3.0):
            h.observe(value)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 4.0
        assert h.quantile(0.0) is not None
        assert Histogram("empty").quantile(0.5) is None

    def test_overflow_quantile_reports_true_max(self):
        h = Histogram("d", buckets=(1.0,))
        h.observe(50.0)
        assert h.quantile(1.0) == 50.0

    def test_rejects_empty_buckets_and_bad_quantile(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=())
        h = Histogram("d")
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestSnapshot:
    def test_snapshot_is_json_safe_and_complete(self):
        registry = MetricsRegistry()
        registry.counters.testpoints.inc(3)
        registry.gauge("target_rate").set(9.5)
        registry.histogram("suspension_delay", buckets=(1.0, 2.0)).observe(1.5)
        snap = registry.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["counters"]["testpoints"] == 3
        assert snap["gauges"]["target_rate"] == 9.5
        hist = snap["histograms"]["suspension_delay"]
        assert hist["count"] == 1
        assert hist["buckets"][-1][0] == "+inf"

    def test_derived_duty_cycle(self):
        registry = MetricsRegistry()
        registry.counter("execution_seconds").inc(3.0)
        registry.counter("suspension_seconds").inc(1.0)
        assert registry.snapshot()["derived"]["duty_cycle"] == pytest.approx(0.75)

    def test_no_duty_cycle_without_standard_counters(self):
        registry = MetricsRegistry()
        registry.counters.testpoints.inc()
        assert "duty_cycle" not in registry.snapshot()["derived"]
