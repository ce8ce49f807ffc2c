"""Async coordinator: determinism, sync-oracle bit-identity, staleness,
degradation, expulsion records, and the O(cohort) memory contract."""

import tracemalloc

import numpy as np
import pytest

from repro.algorithms import make_strategy
from repro.federation import (
    AsyncCoordinator,
    ClientRegistry,
    FederateConfig,
    run_federation,
)
from repro.fl.degradation import REASON_STALE, DegradationPolicy
from repro.fl.sampling import FullParticipation
from repro.fl.simulation import FederatedSimulation
from repro.runrecord import build_run_record
from repro.scenarios import AggregationDefence
from repro.telemetry import InMemoryExporter, telemetry_session


def small_coordinator(algorithm="fedavg", seed=0, strategy=None, **kwargs):
    registry = ClientRegistry(
        population=200, seed=seed, samples_per_client=16, batch_size=8
    )
    if strategy is None:
        strategy = make_strategy(algorithm, local_lr=0.05, local_steps=2, rounds=6)
    defaults = dict(
        cohort_size=10,
        buffer_size=4,
        seed=seed,
        model=registry.make_model(width_multiplier=0.5),
    )
    defaults.update(kwargs)
    return AsyncCoordinator(
        registry=registry,
        strategy=strategy,
        test_set=registry.test_set(60),
        **defaults,
    )


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        """Same seed: identical event order, weights, params, runrecord."""
        results = []
        for _ in range(2):
            coordinator = small_coordinator(
                degradation=DegradationPolicy(over_selection=0.25)
            )
            result = coordinator.run(5)
            results.append((coordinator, result))
        (coord_a, res_a), (coord_b, res_b) = results

        assert res_a.final_params.tobytes() == res_b.final_params.tobytes()
        assert len(coord_a.flush_log) == len(coord_b.flush_log)
        for flush_a, flush_b in zip(coord_a.flush_log, coord_b.flush_log):
            assert flush_a.arrivals == flush_b.arrivals
            assert flush_a.staleness == flush_b.staleness
            assert flush_a.weights == flush_b.weights
            assert flush_a.virtual_time == flush_b.virtual_time

        record_a = build_run_record(res_a, algorithm="fedavg")
        record_b = build_run_record(res_b, algorithm="fedavg")
        record_a.pop("timing"), record_b.pop("timing")
        assert record_a == record_b

    def test_seed_changes_selection(self):
        coord_a = small_coordinator(seed=0)
        coord_b = small_coordinator(seed=1)
        coord_a.run(3), coord_b.run(3)
        arrivals_a = [f.arrivals for f in coord_a.flush_log]
        arrivals_b = [f.arrivals for f in coord_b.flush_log]
        assert arrivals_a != arrivals_b


class TestSyncOracle:
    """B == cohort == population, zero staleness ⇒ bit-identical to the
    synchronous FederatedSimulation."""

    @pytest.mark.parametrize("algorithm", ["fedavg", "taco"])
    def test_bit_identical_to_sync(self, algorithm):
        population, rounds, seed = 8, 4, 0

        def registry():
            return ClientRegistry(
                population=population, seed=seed, samples_per_client=16, batch_size=8
            )

        def strategy():
            return make_strategy(algorithm, local_lr=0.05, local_steps=2, rounds=rounds)

        async_reg = registry()
        coordinator = AsyncCoordinator(
            registry=async_reg,
            strategy=strategy(),
            test_set=async_reg.test_set(60),
            cohort_size=population,
            buffer_size=population,
            participation=FullParticipation(),
            seed=seed,
            model=async_reg.make_model(width_multiplier=0.5),
        )
        async_result = coordinator.run(rounds)

        sync_reg = registry()
        simulation = FederatedSimulation(
            model=sync_reg.make_model(width_multiplier=0.5),
            clients=[sync_reg.materialize(cid) for cid in sync_reg.ids()],
            strategy=strategy(),
            test_set=sync_reg.test_set(60),
            participation=FullParticipation(),
            seed=seed,
        )
        sync_result = simulation.run(rounds)

        assert async_result.final_params.tobytes() == sync_result.final_params.tobytes()
        assert async_result.final_accuracy == sync_result.final_accuracy
        assert all(not f.staleness or max(f.staleness.values()) == 0
                   for f in coordinator.flush_log)
        assert all(w == 1.0 for f in coordinator.flush_log for w in f.weights.values())


class TestStaleness:
    def test_weights_follow_power_law(self):
        coordinator = small_coordinator(staleness_power=0.5)
        coordinator.run(6)
        observed = set()
        for flush in coordinator.flush_log:
            for cid, tau in flush.staleness.items():
                weight = flush.weights[cid]
                assert weight == (1.0 + tau) ** -0.5 if tau else weight == 1.0
                observed.add(tau)
        # A 10-in-flight / 4-buffer run must actually produce stale arrivals.
        assert max(observed) >= 1

    def test_power_zero_keeps_unit_weights(self):
        coordinator = small_coordinator(staleness_power=0.0)
        coordinator.run(4)
        assert all(
            w == 1.0 for f in coordinator.flush_log for w in f.weights.values()
        )

    def test_max_staleness_drops_arrivals(self):
        coordinator = small_coordinator(
            degradation=DegradationPolicy(max_staleness=0)
        )
        result = coordinator.run(6)
        dropped = [cid for f in coordinator.flush_log for cid in f.stale_dropped]
        assert dropped  # buffer < cohort guarantees τ >= 1 arrivals exist
        # Everyone who survived the gate (has a weight) had τ == 0; the
        # flush log still records dropped clients' τ for auditability.
        for flush in coordinator.flush_log:
            assert all(flush.staleness[cid] == 0 for cid in flush.weights)
            assert all(flush.staleness[cid] > 0 for cid in flush.stale_dropped)
        stale_marks = [
            cid
            for record in result.history.records
            for cid, reason in record.quarantined.items()
            if reason == REASON_STALE
        ]
        assert sorted(stale_marks) == sorted(dropped)


class TestDegradation:
    def test_quorum_failure_skips_flush(self):
        coordinator = small_coordinator(
            buffer_size=2,
            degradation=DegradationPolicy(min_quorum=3),
        )
        result = coordinator.run(3)
        assert all(record.skipped for record in result.history.records)
        initial = small_coordinator().model.parameters_vector()
        np.testing.assert_array_equal(result.final_params, initial)

    def test_deadline_abandons_stragglers(self):
        coordinator = small_coordinator(
            # Virtual upload durations for this workload span ~4.5-14 ms;
            # an 8 ms deadline abandons the slow tail without stalling.
            degradation=DegradationPolicy(round_deadline=0.008, over_selection=0.5)
        )
        result = coordinator.run(4)
        assert sum(len(r.stragglers) for r in result.history.records) > 0

    def test_impossible_deadline_stalls_loudly(self):
        coordinator = small_coordinator(
            degradation=DegradationPolicy(round_deadline=1e-9)
        )
        with pytest.raises(RuntimeError, match="stalled"):
            coordinator.run(2)


class TestExpulsions:
    @pytest.mark.parametrize("defended", [False, True], ids=["taco", "taco+median"])
    def test_expelled_clients_are_recorded(self, defended):
        """TACO's expulsions reach the flush's RoundRecord and the
        ``agg.expelled`` counter, also under a robust aggregate."""
        taco = make_strategy("taco", local_lr=0.05, local_steps=2, rounds=6)
        strategy = taco
        if defended:
            median = make_strategy("median", local_lr=0.05, local_steps=2)
            strategy = AggregationDefence(taco, median)
        coordinator = small_coordinator(strategy=strategy)
        with telemetry_session([InMemoryExporter()]) as telemetry:
            coordinator.run(1)
            taco.load_state_dict({**taco.state_dict(), "expelled": {7, 11}})
            result = coordinator.run(3)
            counted = telemetry.registry.counter("agg.expelled").value
        assert [r.expelled for r in result.history.records] == [[], [7, 11], []]
        assert counted == 2


class TestMemoryContract:
    def test_million_client_registry_stays_in_budget(self):
        """Peak traced memory at 1M clients: absolute budget AND within
        2x of the identical 1k-client run."""

        def measured_run(population):
            config = FederateConfig(
                population=population,
                cohort_size=20,
                buffer_size=10,
                rounds=5,
                local_steps=2,
                samples_per_client=16,
                batch_size=8,
                test_size=80,
                width_multiplier=0.5,
            )
            tracemalloc.start()
            try:
                run_federation(config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak

        small_peak = measured_run(1_000)
        large_peak = measured_run(1_000_000)
        assert large_peak < 64 * 1024 * 1024  # absolute: 64 MB
        assert large_peak <= 2.0 * small_peak
