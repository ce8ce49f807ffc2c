"""Delivery spans: span trees, outcomes, flush summaries, zero overhead."""

import json
from collections import defaultdict

import numpy as np
import pytest

from repro.algorithms import make_strategy
from repro.federation import SMOKE_CONFIG, AsyncCoordinator, ClientRegistry, build_coordinator
from repro.federation import coordinator as coordinator_module
from repro.federation.tracing import trace_delivery, trace_flush
from repro.serving import SERVING_STAGES
from repro.telemetry import JsonlExporter, Telemetry, telemetry_session

#: A lossy, deadline-bound, staleness-capped run whose deliveries end in
#: every outcome: flushed, lost, late, abandoned and stale.
EVERY_OUTCOME = SMOKE_CONFIG.with_overrides(
    loss_rate=0.3,
    retry_limit=0,
    uplink_latency=0.01,
    lease_timeout=0.02,
    round_deadline=0.008,
    buffer_size=3,
    max_staleness=0,
    rounds=6,
)


def trace_one(telemetry, end_time=2.5, outcome="flushed", **overrides):
    kwargs = dict(
        client_id=7,
        version=2,
        tier="fast",
        dispatch_time=1.0,
        compute_start=1.1,
        compute_end=1.6,
        arrival_time=1.9,
    )
    kwargs.update(overrides)
    return trace_delivery(telemetry, end_time=end_time, outcome=outcome, **kwargs)


def coordinator(seed=0, rounds=3):
    registry = ClientRegistry(
        population=100, seed=seed, samples_per_client=16, batch_size=8
    )
    strategy = make_strategy("fedavg", local_lr=0.05, local_steps=2, rounds=rounds)
    return AsyncCoordinator(
        registry=registry,
        strategy=strategy,
        test_set=registry.test_set(40),
        cohort_size=8,
        buffer_size=4,
        seed=seed,
        model=registry.make_model(width_multiplier=0.5),
    )


def forbid_spans(monkeypatch):
    """Fail the test if the coordinator writes any delivery or flush span."""

    def refuse(*args, **kwargs):
        raise AssertionError("a delivery span was written with telemetry off")

    monkeypatch.setattr(coordinator_module, "trace_delivery", refuse)
    monkeypatch.setattr(coordinator_module, "trace_flush", refuse)


class TestRecorder:
    """The span functions that record one delivery and one flush."""

    def test_flushed_delivery_emits_full_span_tree(self):
        telemetry = Telemetry()
        stages = trace_one(telemetry, flush_version=3)
        trace_flush(telemetry, 3, 2.5, [stages])

        spans = {span.name: span for span in telemetry.tracer.finished}
        root = spans["serving.delivery"]
        assert root.start == 1.0 and root.end == 2.5
        assert root.attributes["outcome"] == "flushed"
        assert root.attributes["lane"] == "tier:fast"
        assert root.attributes["flush_version"] == 3
        for stage in SERVING_STAGES:
            child = spans[f"serving.{stage}"]
            assert child.parent_id == root.span_id
            assert child.depth == 1
            assert child.attributes["lane"] == "tier:fast"
        # stage boundaries partition [dispatch, flush]
        assert spans["serving.queue_wait"].start == 1.0
        assert spans["serving.queue_wait"].end == pytest.approx(1.1)
        assert spans["serving.compute"].end == pytest.approx(1.6)
        assert spans["serving.network"].end == pytest.approx(1.9)
        assert spans["serving.buffer"].end == pytest.approx(2.5)
        flush = spans["serving.flush"]
        assert flush.attributes["lane"] == "coordinator"
        assert flush.attributes["updates"] == 1

    def test_lost_delivery_has_no_buffer_span(self):
        telemetry = Telemetry()
        stages = trace_one(telemetry, end_time=2.0, outcome="lost", arrival_time=None)
        names = {span.name for span in telemetry.tracer.finished}
        assert "serving.buffer" not in names
        assert "serving.network" in names
        assert stages["buffer"] == 0.0

    def test_failure_outcomes_excluded_from_percentiles(self):
        telemetry = Telemetry()
        good = trace_one(telemetry, flush_version=1)
        trace_one(telemetry, outcome="stale", dispatch_time=0.5, flush_version=1)
        trace_flush(telemetry, 1, 2.5, [good])
        assert telemetry.histogram("serving.e2e_seconds").count == 1
        assert telemetry.counter("serving.deliveries", outcome="stale").value == 1
        (flush,) = [s for s in telemetry.tracer.finished if s.name == "serving.flush"]
        assert flush.attributes["updates"] == 1
        # percentiles come only from the flushed delivery: e2e = 2.5 - 1.0
        assert flush.attributes["e2e_p50"] == pytest.approx(1.5)
        assert flush.attributes["e2e_max"] == pytest.approx(1.5)

    def test_clamping_never_produces_negative_durations(self):
        telemetry = Telemetry()
        # terminal event before compute nominally ends (e.g. abandoned early)
        stages = trace_one(
            telemetry, end_time=1.3, outcome="abandoned", compute_end=5.0, arrival_time=None
        )
        assert all(duration >= 0.0 for duration in stages.values())
        for span in telemetry.tracer.finished:
            assert span.end >= span.start

    def test_summary_shape(self):
        telemetry = Telemetry()
        trace_flush(telemetry, 0, 2.5, [trace_one(telemetry, flush_version=0)])
        trace_flush(telemetry, 1, 3.0, [], skipped=True)
        full, empty = [s for s in telemetry.tracer.finished if s.name == "serving.flush"]
        summary = {"e2e_p50", "e2e_p90", "e2e_p99", "e2e_max"}
        summary |= {f"{stage}_mean" for stage in SERVING_STAGES}
        assert summary <= set(full.attributes)
        assert full.attributes["version"] == 0 and full.attributes["updates"] == 1
        assert full.attributes["buffer_mean"] == pytest.approx(0.6)
        assert empty.attributes["skipped"] and empty.attributes["updates"] == 0
        assert all(empty.attributes[name] == 0.0 for name in summary)


class TestCoordinatorIntegration:
    def test_tracing_off_builds_no_recorder(self, monkeypatch):
        forbid_spans(monkeypatch)
        untraced = coordinator()
        untraced.run(2)
        assert untraced.serving_summary() is None

    def test_tracing_records_every_flush(self):
        with telemetry_session() as telemetry:
            coordinator().run(3)
            spans = list(telemetry.tracer.finished)
        flushes = [s for s in spans if s.name == "serving.flush"]
        assert len([s for s in spans if s.name == "serving.delivery"]) >= 12
        assert [s.attributes["version"] for s in flushes] == [0, 1, 2]
        for flush in flushes:
            assert flush.attributes["updates"] == 4  # 3 flushes x buffer 4
            assert flush.attributes["e2e_p99"] >= flush.attributes["e2e_p50"] > 0.0

    def test_tracing_is_bit_identical(self):
        plain = coordinator().run(3)
        with telemetry_session():
            traced = coordinator().run(3)
        assert plain.final_params.tobytes() == traced.final_params.tobytes()
        assert np.all(np.isfinite(traced.final_params))

    def test_spans_stream_to_jsonl_when_telemetry_enabled(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with telemetry_session([JsonlExporter(str(path))]):
            coordinator().run(2)

        spans = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line).get("type") == "span"
        ]
        names = {span["name"] for span in spans}
        assert {"serving.delivery", "serving.compute", "serving.flush"} <= names
        delivery = next(s for s in spans if s["name"] == "serving.delivery")
        assert delivery["attributes"]["lane"].startswith("tier:")

    def test_every_outcome_gets_its_tree(self, monkeypatch):
        with telemetry_session() as telemetry:
            traced = build_coordinator(EVERY_OUTCOME).run(EVERY_OUTCOME.rounds)
            spans = list(telemetry.tracer.finished)
        children = defaultdict(list)
        for span in spans:
            if span.parent_id is not None and span.name.startswith("serving."):
                children[span.parent_id].append(span.name)
        roots = [s for s in spans if s.name == "serving.delivery"]
        outcomes = {root.attributes["outcome"] for root in roots}
        assert {"flushed", "lost", "late", "abandoned", "stale"} <= outcomes
        for root in roots:
            stages = ["serving.queue_wait", "serving.compute", "serving.network"]
            if root.attributes["outcome"] == "flushed":
                stages.append("serving.buffer")
            assert children[root.span_id] == stages, root.attributes

        # Telemetry off: no span is made, and training is the traced run's.
        forbid_spans(monkeypatch)
        untraced = build_coordinator(EVERY_OUTCOME).run(EVERY_OUTCOME.rounds)
        assert untraced.final_params.tobytes() == traced.final_params.tobytes()
