"""End-to-end telemetry guarantees on real federated runs.

The two acceptance criteria from the telemetry work:

1. Telemetry disabled (the default no-op) is invisible — a seeded fedavg,
   scaffold, stem or taco run produces bit-identical final parameters and
   history whether or not a live telemetry session was active, and the
   no-op path emits zero events.
2. Telemetry enabled on a faulty, transport-tracked 2-round run emits spans
   for round/client/aggregate, counters for transport bytes and
   quarantined updates, and one ``algo.diagnostics`` event per round.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import NoCompression, Transport
from repro.experiments import run_algorithm
from repro.experiments.runner import make_experiment_strategy
from repro.faults import FaultPlan
from repro.runrecord import build_run_record
from repro.telemetry import InMemoryExporter, NOOP, get_telemetry, telemetry_session


def _run(config, algorithm="taco", **kwargs):
    # Passing an explicit strategy bypasses the runner's result cache, so
    # every call here is a genuinely fresh training run.
    return run_algorithm(
        config, algorithm, strategy=make_experiment_strategy(config, algorithm), **kwargs
    )


def test_noop_is_default_and_stateless(tiny_config):
    assert get_telemetry() is NOOP
    assert not NOOP.enabled
    # Shared inert singletons: no per-call allocation, nothing recorded.
    assert NOOP.span("round") is NOOP.span("client", client=1)
    assert NOOP.counter("x") is NOOP.histogram("y")
    result = _run(tiny_config)
    assert get_telemetry() is NOOP  # the run did not install anything


@pytest.mark.parametrize("algorithm", ["fedavg", "scaffold", "stem", "taco"])
def test_training_is_bit_identical_with_and_without_telemetry(tiny_config, algorithm):
    baseline = _run(tiny_config, algorithm)

    exporter = InMemoryExporter()
    with telemetry_session([exporter]):
        instrumented = _run(tiny_config, algorithm)
    assert exporter.events, "enabled telemetry recorded nothing"

    again = _run(tiny_config, algorithm)

    for other in (instrumented, again):
        assert np.array_equal(baseline.final_params, other.final_params)
        assert np.array_equal(baseline.output_params, other.output_params)
        assert baseline.final_accuracy == other.final_accuracy
        assert len(baseline.history.records) == len(other.history.records)
        for mine, theirs in zip(baseline.history.records, other.history.records):
            assert mine.test_accuracy == theirs.test_accuracy
            assert mine.round_sim_time == theirs.round_sim_time
            assert mine.participating == theirs.participating


def test_enabled_run_emits_required_spans_and_counters(tiny_config):
    config = tiny_config.with_overrides(rounds=2)
    fault_plan = FaultPlan(seed=config.seed, corrupt_rate=0.5, drop_rate=0.2)
    transport = Transport(NoCompression(), seed=config.seed)

    exporter = InMemoryExporter()
    with telemetry_session([exporter]) as telemetry:
        _run(config, fault_plan=fault_plan, transport=transport)
        span_names = {record.name for record in telemetry.tracer.finished}
        names = set(telemetry.registry.names())

    assert {"round", "broadcast", "client", "aggregate", "evaluate"} <= span_names
    required = {
        "round.wall_seconds",
        "round.sim_seconds",
        "client.local_steps",
        "transport.uplink_bytes",
        "transport.downlink_bytes",
        "agg.quarantined",
    }
    assert required <= names, f"missing metrics: {sorted(required - names)}"
    diagnostics = [e["fields"] for e in exporter.events if e.get("name") == "algo.diagnostics"]
    assert [fields["round"] for fields in diagnostics] == [0, 1]
    assert all(fields["per_client"]["taco.alpha"] for fields in diagnostics)
    uplink = telemetry.registry.counter("transport.uplink_bytes")
    assert uplink.value > 0
    quarantined = telemetry.registry.counter("agg.quarantined")
    assert quarantined.value > 0  # corrupt_rate=0.5 over 2 rounds must hit


def test_telemetry_alone_collects_round_diagnostics(tiny_config):
    """Without --introspect, a telemetry session alone fills the diagnostics."""
    config = tiny_config.with_overrides(rounds=2)
    exporter = InMemoryExporter()
    with telemetry_session([exporter]) as telemetry:
        result = _run(config)
        names = set(telemetry.registry.names())
    record = build_run_record(result, algorithm="taco", config=config)
    assert [d.round for d in result.diagnostics] == [0, 1]
    assert [d["round"] for d in record["diagnostics"]] == [0, 1]

    events = [e["fields"] for e in exporter.events if e.get("name") == "algo.diagnostics"]
    assert [e["round"] for e in events] == [0, 1]
    for fields, diagnostics in zip(events, result.diagnostics):
        alphas = fields["per_client"]["taco.alpha"]
        assert alphas == {str(c): a for c, a in diagnostics.per_client["taco.alpha"].items()}
        assert all(0.0 <= alpha <= 1.0 for alpha in alphas.values())
    # Each algorithm fact is published once: into the diagnostics, not as gauges.
    assert not {"taco.alpha", "taco.mean_alpha", "taco.strikes", "taco.expelled"} & names


def test_server_facts_are_published_once(tiny_config):
    """The global-step norm and the test metrics are diagnostics, not gauges."""
    config = tiny_config.with_overrides(rounds=2)
    with telemetry_session() as telemetry:
        result = _run(config)
        names = set(telemetry.registry.names())
    assert not {"server.global_delta_norm", "round.test_accuracy", "round.test_loss"} & names
    for diagnostics in result.diagnostics:
        assert diagnostics.scalars["server.global_delta_norm"] > 0.0
        assert "server.test_accuracy" in diagnostics.scalars


def test_round_spans_nest_client_spans(tiny_config):
    config = tiny_config.with_overrides(rounds=1)
    with telemetry_session([InMemoryExporter()]) as telemetry:
        _run(config)
        finished = list(telemetry.tracer.finished)
    rounds = [r for r in finished if r.name == "round"]
    clients = [r for r in finished if r.name == "client"]
    assert len(rounds) == 1
    assert clients, "no client spans recorded"
    for client in clients:
        assert client.parent_id == rounds[0].span_id
        assert client.depth == 1


def test_simulation_run_resets_stale_telemetry_state(tiny_config):
    config = tiny_config.with_overrides(rounds=2)
    with telemetry_session([InMemoryExporter()]) as telemetry:
        _run(config)
        first_rounds = telemetry.registry.counter("server.rounds").value
        _run(config)
        # The second run's non-resume start resets the registry (mirroring
        # Transport.reset), so counts do not accumulate across runs.
        assert telemetry.registry.counter("server.rounds").value == first_rounds


def test_history_carries_split_traffic_and_wall_times(tiny_config):
    config = tiny_config.with_overrides(rounds=2)
    transport = Transport(NoCompression(), seed=config.seed)
    result = _run(config, transport=transport)
    history = result.history
    assert history.total_uplink_bytes > 0
    assert history.total_downlink_bytes > 0
    assert len(history.wall_times) == 2
    assert (history.wall_times > 0).all()
    assert result.elapsed_seconds > 0
    np.testing.assert_allclose(
        history.cumulative_wall_times, np.cumsum(history.wall_times)
    )
