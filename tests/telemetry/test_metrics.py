"""Metric instruments, registry identity rules and Prometheus rendering."""

from __future__ import annotations

import pytest

from repro.telemetry import MetricRegistry, prometheus_name, render_prometheus


def test_counter_accumulates_and_rejects_negative():
    registry = MetricRegistry()
    counter = registry.counter("agg.quarantined")
    counter.add()
    counter.add(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.add(-1)


def test_gauge_overwrites():
    registry = MetricRegistry()
    gauge = registry.gauge("taco.mean_alpha")
    gauge.set(0.3)
    gauge.set(0.7)
    assert gauge.value == 0.7


def test_histogram_statistics():
    registry = MetricRegistry()
    hist = registry.histogram("round.wall_seconds")
    for value in (1.0, 2.0, 3.0, 4.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.total == 10.0
    assert hist.quantile(0.5) == 2.5
    snap = hist.snapshot()
    assert snap["min"] == 1.0 and snap["max"] == 4.0
    assert snap["p50"] == 2.5


def test_empty_histogram_snapshot():
    registry = MetricRegistry()
    hist = registry.histogram("round.wall_seconds")
    assert hist.snapshot() == {"count": 0, "sum": 0.0}
    assert hist.quantile(0.9) == 0.0


def test_identity_is_name_plus_labels():
    registry = MetricRegistry()
    a = registry.gauge("taco.alpha", client=3)
    b = registry.gauge("taco.alpha", client=3)
    c = registry.gauge("taco.alpha", client=4)
    assert a is b
    assert a is not c
    assert len(registry) == 2


def test_label_order_is_irrelevant():
    registry = MetricRegistry()
    a = registry.counter("x", foo=1, bar=2)
    b = registry.counter("x", bar=2, foo=1)
    assert a is b


def test_kind_conflict_rejected():
    registry = MetricRegistry()
    registry.counter("transport.uplink_bytes")
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("transport.uplink_bytes")


def test_snapshot_groups_series_by_name():
    registry = MetricRegistry()
    registry.gauge("taco.alpha", client=0).set(0.1)
    registry.gauge("taco.alpha", client=1).set(0.2)
    registry.counter("server.rounds").add(3)
    snap = registry.snapshot()
    assert snap["taco.alpha"]["kind"] == "gauge"
    assert len(snap["taco.alpha"]["series"]) == 2
    assert snap["server.rounds"]["series"][0]["value"] == 3


def test_names_and_reset():
    registry = MetricRegistry()
    registry.counter("b")
    registry.gauge("a")
    assert registry.names() == ["a", "b"]
    registry.reset()
    assert len(registry) == 0
    assert registry.names() == []
    # A reset registry accepts the old name under a new kind.
    registry.histogram("b")


def test_prometheus_name_sanitises():
    assert prometheus_name("round.wall-seconds") == "round_wall_seconds"


def test_render_prometheus_text_format():
    registry = MetricRegistry()
    registry.counter("transport.uplink_bytes").add(1200)
    registry.gauge("taco.alpha", client=3).set(0.5)
    hist = registry.histogram("round.wall_seconds")
    hist.observe(1.0)
    hist.observe(3.0)
    text = render_prometheus(registry)
    assert "# TYPE transport_uplink_bytes counter" in text
    assert "transport_uplink_bytes 1200.0" in text
    assert 'taco_alpha{client="3"} 0.5' in text
    assert "# TYPE round_wall_seconds summary" in text
    assert "round_wall_seconds_count 2" in text
    assert "round_wall_seconds_sum 4.0" in text
    assert 'round_wall_seconds{quantile="0.5"} 2.0' in text


def test_render_prometheus_empty_registry():
    assert render_prometheus(MetricRegistry()) == ""


class TestPercentiles:
    """Histogram.percentile / .percentiles — exact and bucketed modes."""

    def test_exact_percentile_matches_numpy(self):
        import numpy as np

        registry = MetricRegistry()
        hist = registry.histogram("serving.e2e_seconds")
        values = [0.5, 1.0, 2.0, 4.0, 8.0]
        for value in values:
            hist.observe(value)
        for q in (0.0, 50.0, 90.0, 99.0, 100.0):
            assert hist.percentile(q) == pytest.approx(np.percentile(values, q))

    def test_percentiles_returns_tuple_in_order(self):
        registry = MetricRegistry()
        hist = registry.histogram("serving.e2e_seconds")
        for value in range(1, 101):
            hist.observe(float(value))
        p50, p90, p99 = hist.percentiles((50.0, 90.0, 99.0))
        assert p50 < p90 < p99
        assert p50 == pytest.approx(50.5)

    def test_percentile_rejects_out_of_range(self):
        registry = MetricRegistry()
        hist = registry.histogram("serving.e2e_seconds")
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.percentile(-1.0)
        with pytest.raises(ValueError):
            hist.percentile(101.0)

    def test_empty_histogram_percentile_is_zero(self):
        registry = MetricRegistry()
        hist = registry.histogram("serving.e2e_seconds")
        assert hist.percentile(99.0) == 0.0
        assert hist.minimum == 0.0 and hist.maximum == 0.0

    def test_minimum_maximum(self):
        registry = MetricRegistry()
        hist = registry.histogram("serving.e2e_seconds")
        for value in (3.0, 1.0, 2.0):
            hist.observe(value)
        assert hist.minimum == 1.0
        assert hist.maximum == 3.0
