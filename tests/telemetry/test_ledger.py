"""The round record is the one ledger of a round.

Both engines fill its bytes by one rule, and every counter whose value is
a record field is published from the record, so over a telemetry session
the counters sum to the history's totals, under faults and chaos alike.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_algorithm
from repro.experiments.runner import make_experiment_strategy
from repro.faults import FaultPlan
from repro.federation.runner import FederateConfig, build_coordinator
from repro.network import NetworkPlan, RetryPolicy
from repro.telemetry import telemetry_session
from tests.federation.test_chaos import chaos_coordinator


def labelled(registry, name, label):
    """``{label value: counter value}`` over every series of one counter."""
    return {
        dict(instrument.labels)[label]: instrument.value
        for instrument in registry.instruments()
        if instrument.name == name
    }


def assert_counters_sum_to_history(registry, history):
    records = history.records
    assert registry.counter("transport.uplink_bytes").value == history.total_uplink_bytes
    assert registry.counter("transport.downlink_bytes").value == history.total_downlink_bytes
    assert history.total_uplink_bytes > 0 and history.total_downlink_bytes > 0
    assert labelled(registry, "agg.quarantined", "reason") == history.quarantine_reasons()
    assert labelled(registry, "network.deliveries", "outcome") == history.delivery_summary()
    assert registry.counter("agg.aggregated").value == sum(r.aggregated for r in records)
    assert registry.counter("agg.dropped").value == history.total_dropped
    assert registry.counter("agg.stragglers").value == history.total_stragglers
    assert registry.counter("agg.skipped_rounds").value == history.skipped_rounds
    assert registry.counter("agg.expelled").value == len(history.expelled_clients)
    assert registry.counter("agg.retries").value == sum(
        sum(r.retries.values()) for r in records
    )


def test_sync_counters_sum_to_history_under_faults(tiny_config):
    config = tiny_config.with_overrides(rounds=4)
    plan = FaultPlan(seed=1, drop_rate=0.2, corrupt_rate=0.3, transient_rate=0.6)
    with telemetry_session() as telemetry:
        result = run_algorithm(
            config, "taco", strategy=make_experiment_strategy(config, "taco"), fault_plan=plan
        )
        registry = telemetry.registry
        history = result.history
        # The faults happened: crashes, quarantined NaN uploads, retries.
        assert history.total_dropped and history.quarantine_reasons()
        assert any(r.retries for r in history.records)
        assert_counters_sum_to_history(registry, history)


def test_async_counters_sum_to_history_under_chaos():
    plan = NetworkPlan(
        seed=0,
        loss_rate=0.3,
        duplicate_rate=0.3,
        uplink_latency=0.05,
        retry=RetryPolicy(limit=1),
        lease_timeout=1.5,
    )
    with telemetry_session() as telemetry:
        coordinator = chaos_coordinator(network=plan)
        coordinator.run(4)
        history = coordinator.history
        outcomes = history.delivery_summary()
        assert outcomes.get("lost") and outcomes.get("duplicate_copies")
        assert_counters_sum_to_history(telemetry.registry, history)


@pytest.mark.parametrize("engine", ["sync", "async"])
def test_bytes_follow_the_one_rule_on_a_clean_run(engine, tiny_config):
    """Down: one copy of w_t per client that starts local work; up: one
    payload per upload (no retries, no duplicates on a clean run)."""
    if engine == "sync":
        result = run_algorithm(tiny_config, "fedavg")
        param_bytes = result.final_params.nbytes
    else:
        coordinator = chaos_coordinator()
        result = coordinator.run(3)
        param_bytes = coordinator.server.state.global_params.nbytes
    for record in result.history.records:
        if engine == "sync":
            assert record.downlink_bytes == param_bytes * len(record.participating)
            assert record.uplink_bytes == param_bytes * len(record.participating)
        else:
            # Dispatches run ahead of the flush that aggregates them, but
            # each costs one copy each way.
            assert record.downlink_bytes == record.uplink_bytes > 0
            assert record.downlink_bytes % param_bytes == 0


def test_lease_only_run_bills_the_perfect_wire_bytes():
    """A lease that never fires changes no byte: the ledger is the same rule
    with or without a network plan."""
    config = FederateConfig(
        population=200,
        cohort_size=6,
        buffer_size=6,
        rounds=2,
        local_steps=2,
        samples_per_client=16,
        batch_size=8,
        test_size=60,
        width_multiplier=0.5,
    )
    wire = build_coordinator(config)
    leased = build_coordinator(config.with_overrides(lease_timeout=50.0))
    assert leased.network is not None
    perfect, with_lease = wire.run(config.rounds), leased.run(config.rounds)
    assert perfect.final_params.tobytes() == with_lease.final_params.tobytes()
    billed = [(r.uplink_bytes, r.downlink_bytes) for r in perfect.history.records]
    assert billed == [(r.uplink_bytes, r.downlink_bytes) for r in with_lease.history.records]
    # Every flush aggregates one cohort of six, each a copy of w_t each way.
    cohort_bytes = 6 * wire.server.state.global_params.nbytes
    assert billed == [(cohort_bytes, cohort_bytes)] * config.rounds


def test_retries_are_the_attempts_after_the_first_on_both_engines(tiny_config):
    """``RoundRecord.retries`` counts the sends after the first of every upload
    that left its client, one lost after its retries too, by one rule on both
    engines; each upload bills its payload once per send."""
    config = tiny_config.with_overrides(rounds=2)
    plan = FaultPlan(seed=1, transient_rate=1.0, retry_limit=0)  # every first send fails
    sync = run_algorithm(
        config, "fedavg", strategy=make_experiment_strategy(config, "fedavg"), fault_plan=plan
    )
    payload = sync.final_params.nbytes
    for record in sync.history.records:
        assert record.retries == {}  # the policy allows no retry
        assert record.dropped == record.participating  # every upload lost
        assert record.uplink_bytes == payload * len(record.participating)
    assert sync.history.fault_summary()["retried_uploads"] == 0

    lossy = FederateConfig(
        population=200,
        cohort_size=5,
        buffer_size=5,
        rounds=2,
        local_steps=2,
        samples_per_client=16,
        batch_size=8,
        test_size=60,
        width_multiplier=0.5,
        loss_rate=1.0,
        retry_limit=2,
    )
    coordinator = build_coordinator(lossy)
    history = coordinator.run(lossy.rounds).history
    payload = coordinator.server.state.global_params.nbytes
    lost = history.total_dropped
    assert lost == history.delivery_summary()["lost"] > 0
    retries = [n for record in history.records for n in record.retries.values()]
    assert retries == [2] * lost  # each lost upload was sent three times
    assert history.delivery_summary()["retried"] == sum(retries)
    assert history.total_uplink_bytes == lost * 3 * payload
