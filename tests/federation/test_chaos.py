"""Unreliable-network layer on the async coordinator: inert-plan
bit-identity, seeded chaos determinism, idempotent aggregation, leases,
open-loop traces, mid-chaos checkpoint/resume, and the graded chaos
campaign behind ``repro chaos``."""

import numpy as np
import pytest

from repro.algorithms import make_strategy
from repro.federation import AsyncCoordinator, ClientRegistry
from repro.fl.degradation import REASON_LATE, REASON_LOST
from repro.network import (
    ArrivalTrace,
    NetworkPlan,
    PartitionEpisode,
    RetryPolicy,
    poisson_trace,
)
from repro.network.harness import ChaosSpec, run_chaos


def chaos_coordinator(algorithm="fedavg", seed=0, network=None, **kwargs):
    registry = ClientRegistry(
        population=200, seed=seed, samples_per_client=16, batch_size=8
    )
    strategy = make_strategy(algorithm, local_lr=0.05, local_steps=2, rounds=6)
    defaults = dict(
        cohort_size=10,
        buffer_size=4,
        seed=seed,
        model=registry.make_model(width_multiplier=0.5),
        network=network,
    )
    defaults.update(kwargs)
    return AsyncCoordinator(
        registry=registry,
        strategy=strategy,
        test_set=registry.test_set(60),
        **defaults,
    )


def chaotic_plan(seed=0, **overrides):
    base = dict(
        seed=seed,
        loss_rate=0.3,
        duplicate_rate=0.25,
        uplink_latency=0.05,
        downlink_latency=0.02,
        retry=RetryPolicy(jitter=0.2),
        lease_timeout=1.5,
    )
    base.update(overrides)
    return NetworkPlan(**base)


class TestInertPlanBitIdentity:
    def test_none_plan_matches_no_network(self):
        """NetworkPlan.none() takes the exact PR-perfect-wire code path."""
        plain = chaos_coordinator(network=None)
        inert = chaos_coordinator(network=NetworkPlan.none())
        assert inert.network is None  # inert plans are discarded up front

        res_plain = plain.run(4)
        res_inert = inert.run(4)
        assert (
            res_plain.final_params.tobytes() == res_inert.final_params.tobytes()
        )
        for a, b in zip(plain.history.records, inert.history.records):
            assert a.participating == b.participating
            assert a.test_accuracy == b.test_accuracy
            assert a.deliveries == b.deliveries == {}

    def test_perfect_wire_records_have_no_delivery_counters(self):
        coordinator = chaos_coordinator()
        coordinator.run(3)
        for record in coordinator.history.records:
            assert record.deliveries == {}
            assert record.duplicated == []


class TestChaosDeterminism:
    def test_same_seed_same_chaos(self):
        runs = []
        for _ in range(2):
            coordinator = chaos_coordinator(network=chaotic_plan())
            result = coordinator.run(5)
            runs.append((coordinator, result))
        (coord_a, res_a), (coord_b, res_b) = runs
        assert res_a.final_params.tobytes() == res_b.final_params.tobytes()
        for a, b in zip(coord_a.history.records, coord_b.history.records):
            assert a.deliveries == b.deliveries
            assert a.retries == b.retries
            assert a.duplicated == b.duplicated
            assert a.quarantined == b.quarantined
            assert a.round_sim_time == b.round_sim_time

    def test_chaos_actually_happened(self):
        coordinator = chaos_coordinator(network=chaotic_plan())
        coordinator.run(5)
        summary = coordinator.history.delivery_summary()
        assert summary.get("dispatched", 0) > 0
        assert summary.get("retried", 0) + summary.get("duplicate_copies", 0) > 0


class TestIdempotentAggregation:
    def test_duplicates_never_double_count(self):
        """At-least-once copies are deduplicated before the buffer."""
        plan = chaotic_plan(loss_rate=0.0, duplicate_rate=1.0, lease_timeout=None)
        coordinator = chaos_coordinator(network=plan)
        coordinator.run(5)
        summary = coordinator.history.delivery_summary()
        # Every delivery ships a copy; copies still in flight at run end
        # explain any surplus over the deduplicated count.
        assert summary["duplicate_copies"] >= summary.get("deduplicated", 0)
        for flush in coordinator.flush_log:
            assert len(flush.arrivals) == len(set(flush.arrivals))
        deduped = summary.get("deduplicated", 0)
        assert deduped > 0
        assert coordinator.history.total_duplicated == deduped

    def test_dedup_visible_in_round_records(self):
        plan = chaotic_plan(loss_rate=0.0, duplicate_rate=1.0, lease_timeout=None)
        coordinator = chaos_coordinator(network=plan)
        coordinator.run(5)
        assert any(r.duplicated for r in coordinator.history.records)


class TestLossAndLeases:
    def test_retry_exhaustion_drops_upload(self):
        plan = chaotic_plan(
            loss_rate=0.7,
            duplicate_rate=0.0,
            retry=RetryPolicy(limit=1),
            lease_timeout=None,
        )
        coordinator = chaos_coordinator(network=plan)
        coordinator.run(4)
        summary = coordinator.history.delivery_summary()
        assert summary.get("lost", 0) > 0
        # Losses are decided at dispatch; the drop lands in history when
        # the give-up event is absorbed, so in-flight losses at run end
        # may not have surfaced yet.
        assert 0 < coordinator.history.total_dropped <= summary["lost"]

    def test_total_loss_skips_rounds_but_terminates(self):
        plan = chaotic_plan(loss_rate=1.0, duplicate_rate=0.0)
        coordinator = chaos_coordinator(network=plan)
        result = coordinator.run(3)
        assert len(coordinator.history.records) == 3
        assert coordinator.history.skipped_rounds == 3
        assert not result.diverged

    def test_lease_expiry_quarantines_lost_and_redispatches(self):
        """A delivery held past its lease is revoked as REASON_LOST and
        the slot re-dispatched (here the partition never heals, so the
        revoked copy never arrives to upgrade the reason to late)."""
        plan = NetworkPlan(
            seed=0,
            lease_timeout=0.05,
            partitions=(PartitionEpisode(start=0.0, end=1e9, fraction=0.15),),
        )
        coordinator = chaos_coordinator(network=plan)
        coordinator.run(20)
        reasons = coordinator.history.quarantine_reasons()
        assert reasons.get(REASON_LOST, 0) > 0
        summary = coordinator.history.delivery_summary()
        assert summary["lease_expired"] > 0
        # Revoked slots were re-dispatched: more dispatches than deliveries.
        assert summary["dispatched"] > summary["delivered"]

    def test_post_revocation_arrival_quarantined_late(self):
        """A copy arriving after its lease revoked is REASON_LATE."""
        plan = NetworkPlan(
            seed=0,
            lease_timeout=0.5,
            partitions=(PartitionEpisode(start=0.0, end=2.0, fraction=0.4),),
        )
        coordinator = chaos_coordinator(network=plan)
        coordinator.run(6)
        reasons = coordinator.history.quarantine_reasons()
        assert reasons.get(REASON_LATE, 0) > 0
        summary = coordinator.history.delivery_summary()
        assert summary["late"] > 0
        assert summary["lease_expired"] > 0

    def test_partition_holds_then_heals(self):
        plan = NetworkPlan(
            seed=0,
            partitions=(PartitionEpisode(start=0.0, end=3.0, fraction=0.6),),
        )
        coordinator = chaos_coordinator(network=plan)
        coordinator.run(3)
        summary = coordinator.history.delivery_summary()
        assert summary.get("partition_held", 0) > 0
        assert summary["delivered"] > 0  # held uploads eventually arrive


class TestTrafficReplay:
    def test_open_loop_trace_is_deterministic(self):
        trace = poisson_trace(seed=2, bursts=24, mean_gap=0.01, mean_size=3.0)
        params = []
        for _ in range(2):
            coordinator = chaos_coordinator(
                network=chaotic_plan(loss_rate=0.2), arrival_trace=trace
            )
            result = coordinator.run(3)
            params.append(result.final_params.tobytes())
        assert params[0] == params[1]

    def test_trace_drives_dispatch_volume(self):
        trace = poisson_trace(seed=2, bursts=24, mean_gap=0.01, mean_size=3.0)
        coordinator = chaos_coordinator(
            network=chaotic_plan(loss_rate=0.0, duplicate_rate=0.0),
            arrival_trace=trace,
        )
        coordinator.run(3)
        summary = coordinator.history.delivery_summary()
        assert summary["dispatched"] > 0
        assert len(coordinator.history.records) == 3

    def test_zero_rate_trace_falls_back_to_closed_loop(self):
        """An empty trace never fires; the run still completes closed-loop."""
        trace = ArrivalTrace(name="idle", events=())
        assert trace.offered_rate == 0.0
        coordinator = chaos_coordinator(arrival_trace=trace)
        result = coordinator.run(2)
        assert len(coordinator.history.records) == 2
        assert np.all(np.isfinite(result.final_params))

    def test_single_client_trace_completes(self):
        """One burst of one client, then closed-loop top-up finishes the run."""
        trace = ArrivalTrace(name="solo", events=((0.0, 1),))
        coordinator = chaos_coordinator(
            network=chaotic_plan(loss_rate=0.0, duplicate_rate=0.0),
            arrival_trace=trace,
        )
        coordinator.run(2)
        summary = coordinator.history.delivery_summary()
        assert summary["dispatched"] >= 1
        assert len(coordinator.history.records) == 2

    def test_trace_longer_than_run_is_truncated(self):
        """A long trace does not extend the run past the requested rounds;
        the same prefix replays identically regardless of trace tail."""
        long_trace = poisson_trace(seed=2, bursts=200, mean_gap=0.01, mean_size=3.0)
        coordinator = chaos_coordinator(arrival_trace=long_trace)
        result = coordinator.run(2)
        assert len(coordinator.history.records) == 2
        short = chaos_coordinator(arrival_trace=long_trace)
        short_result = short.run(1)
        assert len(short.history.records) == 1
        assert np.all(np.isfinite(result.final_params))
        assert np.all(np.isfinite(short_result.final_params))


class TestMidChaosResume:
    def test_resume_mid_chaos_is_bit_exact(self, tmp_path):
        """Checkpoint taken with duplicates, delays and leases in flight
        resumes byte-identically to the uninterrupted run."""

        def build():
            return chaos_coordinator(algorithm="scaffold", network=chaotic_plan())

        straight = build().run(6)
        first = build()
        first.run(3, checkpoint_every=3, checkpoint_dir=tmp_path)
        resumed = build().run(6, resume_from=tmp_path)

        assert resumed.final_params.tobytes() == straight.final_params.tobytes()
        for mine, theirs in zip(resumed.history.records, straight.history.records):
            assert mine.round == theirs.round
            assert mine.test_accuracy == theirs.test_accuracy
            assert mine.deliveries == theirs.deliveries
            assert mine.retries == theirs.retries
            assert mine.duplicated == theirs.duplicated
            assert mine.quarantined == theirs.quarantined
            assert mine.dropped == theirs.dropped

    def test_resume_under_different_plan_rejected(self, tmp_path):
        coordinator = chaos_coordinator(network=chaotic_plan())
        coordinator.run(3, checkpoint_every=3, checkpoint_dir=tmp_path)
        other = chaos_coordinator(network=chaotic_plan(loss_rate=0.9))
        with pytest.raises(ValueError, match="network plan"):
            other.run(6, resume_from=tmp_path)

    def test_resume_plain_checkpoint_into_plain_coordinator(self, tmp_path):
        """No-network checkpoints still round-trip (v2 loader, v1 fields)."""
        straight = chaos_coordinator().run(4)
        first = chaos_coordinator()
        first.run(2, checkpoint_every=2, checkpoint_dir=tmp_path)
        resumed = chaos_coordinator().run(4, resume_from=tmp_path)
        assert resumed.final_params.tobytes() == straight.final_params.tobytes()


class TestByteAccounting:
    def test_retries_and_duplicates_cost_uplink_bytes(self):
        clean = chaos_coordinator(
            network=chaotic_plan(
                loss_rate=0.0, duplicate_rate=0.0, lease_timeout=None
            )
        )
        clean.run(3)
        noisy = chaos_coordinator(
            network=chaotic_plan(
                loss_rate=0.5, duplicate_rate=0.5, lease_timeout=None
            )
        )
        noisy.run(3)
        assert (
            noisy.history.total_uplink_bytes > clean.history.total_uplink_bytes
        )

    def test_downlink_charged_per_dispatch(self):
        coordinator = chaos_coordinator(
            network=chaotic_plan(loss_rate=0.0, duplicate_rate=0.0)
        )
        coordinator.run(3)
        param_bytes = coordinator.server.state.global_params.nbytes
        summary = coordinator.history.delivery_summary()
        assert (
            coordinator.history.total_downlink_bytes
            == summary["dispatched"] * param_bytes
        )


class TestChaosCampaign:
    def test_default_campaign_holds_invariants_and_survives_loss(self):
        """The default campaign's invariants hold, and every algorithm on
        the grid still clears the accuracy floor at 30% upload loss."""
        chaos = run_chaos(ChaosSpec())["chaos"]
        assert chaos["invariants"] == {
            "none_plan_bit_identical": True,
            "same_seed_deterministic": True,
        }
        thresholds = chaos["loss_thresholds"]
        assert set(thresholds) == {"fedavg", "taco", "scaffold"}
        for algorithm, threshold in thresholds.items():
            assert threshold is not None and threshold >= 0.3, (algorithm, threshold)
