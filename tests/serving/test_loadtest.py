"""Open-loop load-test harness: config validation, payload shape, knee."""

import json

import pytest

from repro.serving import (
    DEFAULT_KNEE_FRACTION,
    LoadTestConfig,
    detect_knee,
    run_loadtest,
    run_loadtest_point,
)

TINY = LoadTestConfig(rate_factors=(0.5, 2.0), bursts=8)
#: The ``repro loadtest --smoke`` sweep.
SMOKE = LoadTestConfig(rate_factors=(0.5, 2.0, 8.0, 32.0), bursts=10)


class TestConfigValidation:
    def test_unknown_trace_rejected(self):
        with pytest.raises(ValueError, match="poisson"):
            LoadTestConfig(trace="tsunami")

    def test_rate_factors_must_be_positive(self):
        with pytest.raises(ValueError):
            LoadTestConfig(rate_factors=(0.0, 1.0))

    def test_rate_factors_must_ascend(self):
        with pytest.raises(ValueError):
            LoadTestConfig(rate_factors=(4.0, 1.0))

    def test_rate_factors_must_be_nonempty(self):
        with pytest.raises(ValueError):
            LoadTestConfig(rate_factors=())

    def test_knee_fraction_range(self):
        with pytest.raises(ValueError):
            LoadTestConfig(knee_fraction=0.0)
        with pytest.raises(ValueError):
            LoadTestConfig(knee_fraction=1.5)

    def test_diurnal_trace_accepted(self):
        config = LoadTestConfig(trace="diurnal")
        assert config.trace == "diurnal"


class TestSweepPoint:
    def test_point_shape(self):
        point = run_loadtest_point(TINY, 0.5)
        assert point["rate_factor"] == 0.5
        assert point["offered_rate"] > 0
        assert point["throughput"] > 0
        assert point["flushed"] > 0
        assert point["virtual_time"] > 0
        latency = point["latency"]
        assert latency["max"] >= latency["p99"] >= latency["p90"] >= latency["p50"] > 0
        for stage in ("queue_wait", "compute", "network", "buffer"):
            assert stage in point["stages"]
            assert point["stages"][stage]["mean"] >= 0.0

    def test_higher_rate_raises_offered_load(self):
        slow = run_loadtest_point(TINY, 0.5)
        fast = run_loadtest_point(TINY, 2.0)
        assert fast["offered_rate"] == pytest.approx(slow["offered_rate"] * 4.0)


class TestKneeDetection:
    def point(self, factor, offered, throughput):
        return {
            "rate_factor": factor,
            "offered_rate": offered,
            "throughput": throughput,
            "latency": {"p50": 0.01, "p99": 0.02},
        }

    def test_detects_first_saturated_point(self):
        points = [
            self.point(1.0, 100.0, 99.0),
            self.point(4.0, 400.0, 300.0),  # 300 < 0.8 * 400: saturated
            self.point(16.0, 1600.0, 310.0),
        ]
        knee = detect_knee(points, DEFAULT_KNEE_FRACTION)
        assert knee["saturated"] is True
        assert knee["rate_factor"] == 4.0
        assert knee["p99"] == 0.02

    def test_unsaturated_sweep_reports_last_point(self):
        points = [self.point(1.0, 100.0, 99.0), self.point(2.0, 200.0, 190.0)]
        knee = detect_knee(points, DEFAULT_KNEE_FRACTION)
        assert knee["saturated"] is False
        assert knee["rate_factor"] == 2.0

    def test_empty_sweep_raises(self):
        with pytest.raises(ValueError):
            detect_knee([], DEFAULT_KNEE_FRACTION)


class TestRunLoadtest:
    def test_payload_shape_and_knee(self):
        payload = run_loadtest(TINY)
        serving = payload["serving"]
        assert serving["trace"] == "poisson"
        assert len(serving["sweep"]) == 2
        assert serving["knee"]["rate_factor"] in (0.5, 2.0)
        # the payload is plain JSON (what `repro loadtest --out` writes)
        json.dumps(payload)

    def test_deterministic_across_runs(self):
        first = run_loadtest(TINY)
        second = run_loadtest(TINY)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_smoke_sweep_saturates_with_ordered_latencies(self):
        """The capacity floors: >= 4 points, throughput > 0 everywhere,
        p99 >= p50 > 0, and a sweep that reaches the saturation knee."""
        serving = run_loadtest(SMOKE)["serving"]
        assert len(serving["sweep"]) >= 4
        for point in serving["sweep"]:
            assert point["throughput"] > 0, point
            assert point["latency"]["p99"] >= point["latency"]["p50"] > 0, point
        assert serving["knee"]["saturated"]
