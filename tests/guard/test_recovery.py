"""Recovery-ladder tests driven through a real (tiny) simulation.

Scheduled ``nan-stealth`` corruption + a disabled non-finite quarantine
force critical anomalies at chosen rounds, so each rung of the escalation
ladder — skip, rollback with lr backoff, quarantine tightening, abort —
can be exercised deterministically.
"""

import numpy as np
import pytest

from repro.algorithms import make_strategy
from repro.data import IIDPartitioner, load_dataset
from repro.faults import FaultPlan
from repro.fl import Client, FederatedSimulation
from repro.fl.degradation import DegradationPolicy
from repro.guard import GuardPolicy
from repro.runrecord import build_run_record, write_run_record
from repro.telemetry import AlgoDiagnostics, InMemoryExporter, telemetry_session


def make_sim(
    guard=None,
    corrupt_schedule=None,
    quarantine=False,
    seed=0,
    algorithm="fedavg",
    **policy_kwargs,
):
    bundle = load_dataset("adult", 160, 60, seed=0)
    parts = IIDPartitioner().partition(bundle.train.labels, 4, np.random.default_rng(5))
    clients = [
        Client(i, bundle.train.subset(p), 8, np.random.default_rng(100 + i))
        for i, p in enumerate(parts)
    ]
    model = bundle.spec.make_model(rng=np.random.default_rng(seed))
    strategy = make_strategy(algorithm, local_lr=0.05, local_steps=2)
    plan = None
    if corrupt_schedule is not None:
        plan = FaultPlan(seed=7, corrupt_schedule=corrupt_schedule)
    return FederatedSimulation(
        model,
        clients,
        strategy,
        bundle.test,
        seed=seed,
        fault_plan=plan,
        degradation=DegradationPolicy(quarantine_nonfinite=quarantine),
        guard=guard if guard is not None else GuardPolicy(**policy_kwargs),
    )


class TestSkipRung:
    def test_single_bad_round_is_skipped_not_rolled_back(self):
        # Round 1 (only) delivers a stealth-NaN upload: the first anomaly
        # after a healthy round costs a skip, not a rollback.
        sim = make_sim(corrupt_schedule={1: {0: "nan-stealth"}})
        result = sim.run(4)
        assert not result.diverged
        assert sim.history.total_skips == 1
        assert sim.history.total_rollbacks == 0
        assert len(sim.history) == 4  # the skipped round keeps its slot
        assert np.isfinite(result.final_params).all()

    def test_skip_carries_last_good_metrics(self):
        sim = make_sim(corrupt_schedule={1: {0: "nan-stealth"}})
        sim.run(3)
        skipped = sim.history.records[1]
        assert skipped.recovery == "skip"
        assert skipped.test_loss == sim.history.records[0].test_loss
        assert skipped.test_accuracy == sim.history.records[0].test_accuracy
        assert "non-finite-params" in skipped.anomalies

    def test_skipped_round_diagnostics_describe_restored_model(self):
        # Everything the round computed from the undone step describes the
        # poisoned model: like a quorum-skipped round, the skipped record
        # keeps no alphas and an empty diagnostics record for its round.
        sim = make_sim(corrupt_schedule={1: {0: "nan-stealth"}}, algorithm="taco")
        with telemetry_session():
            result = sim.run(3)
        skipped = sim.history.records[1]
        assert skipped.recovery == "skip"
        assert skipped.alphas == {}
        assert result.diagnostics[1] is skipped.diagnostics
        assert skipped.diagnostics == AlgoDiagnostics(round=1, algorithm="taco")
        assert sim.history.records[2].alphas  # the next round decides afresh
        # The poisoned upload's norm is what the client sent: it stays.
        assert np.isnan(skipped.update_norms[0])

    def test_skipped_taco_round_writes_one_nan_token(self, tmp_path):
        # The poisoned upload's norm is the only non-finite value left: no
        # alpha, theory proxy or diagnostics channel of the undone step.
        sim = make_sim(corrupt_schedule={1: {0: "nan-stealth"}}, algorithm="taco")
        with telemetry_session():
            result = sim.run(3)
        path = write_run_record(
            build_run_record(result, algorithm="taco"), tmp_path / "runrecord.json"
        )
        assert path.read_text().count("NaN") == 1

    def test_skipped_round_event_matches_its_history_entry(self):
        # The trace streams a round once the guard has answered, so the
        # skipped round's event is the record the history keeps.
        exporter = InMemoryExporter()
        sim = make_sim(corrupt_schedule={1: {0: "nan-stealth"}}, algorithm="taco")
        with telemetry_session([exporter]):
            sim.run(3)
        events = [e["fields"] for e in exporter.events if e.get("name") == "round.record"]
        assert events == [record.to_dict() for record in sim.history.records]
        assert events[1]["recovery"] == "skip" and events[1]["alphas"] == {}

    def test_skip_restores_previous_parameters(self):
        clean = make_sim()
        clean_r1 = clean.run(1)
        sim = make_sim(corrupt_schedule={1: {0: "nan-stealth"}})
        sim.run(2)
        # After the skip, w_2 = w_1 of the clean run.
        np.testing.assert_array_equal(
            sim.server.state.global_params, clean_r1.final_params
        )


class TestRollbackRung:
    def test_round_zero_anomaly_rolls_back_and_tightens(self):
        # Round 0 poisoned: the prime snapshot has no metrics, so the skip
        # rung is unavailable; deterministic fault replay re-poisons round 0
        # until the second rollback tightens the quarantine.
        sim = make_sim(corrupt_schedule={0: {0: "nan-stealth"}}, tighten_after=2)
        result = sim.run(3)
        assert not result.diverged
        assert sim.history.total_rollbacks == 2
        assert sim.recovery.tightened
        assert sim.degradation.quarantine_nonfinite  # forced on
        assert len(sim.history) == 3

    def test_rolled_back_rounds_are_still_streamed(self):
        exporter = InMemoryExporter()
        sim = make_sim(corrupt_schedule={0: {0: "nan-stealth"}}, tighten_after=2)
        with telemetry_session([exporter]):
            sim.run(3)
        events = [e["fields"] for e in exporter.events if e.get("name") == "round.record"]
        assert [(e["round"], e["recovery"]) for e in events] == [
            (0, "rollback"), (0, "rollback"), (0, None), (1, None), (2, None)
        ]
        assert events[2:] == [record.to_dict() for record in sim.history.records]

    def test_rollback_applies_lr_backoff(self):
        sim = make_sim(corrupt_schedule={0: {0: "nan-stealth"}}, lr_backoff=0.5)
        sim.run(3)
        assert sim.recovery.lr_scale == pytest.approx(0.25)  # two rollbacks
        assert sim.server.global_lr == pytest.approx(sim.global_lr * 0.25)

    def test_rollback_truncates_poisoned_history(self):
        sim = make_sim(corrupt_schedule={2: {0: "nan-stealth"}, 3: {0: "nan-stealth"}})
        with telemetry_session():
            result = sim.run(5)
        # One record per surviving round: the loop invariant holds after
        # every mix of skips and rollbacks, and each round's diagnostics
        # go with its record.
        assert len(sim.history) == sim.server.state.round == 5
        rounds = [r.round for r in sim.history.records]
        assert rounds == list(range(5))
        assert [d.round for d in result.diagnostics] == list(range(5))

    def test_recovery_events_are_audited(self):
        sim = make_sim(corrupt_schedule={0: {0: "nan-stealth"}})
        sim.run(2)
        events = sim.history.recoveries
        assert [e.action for e in events] == ["rollback", "rollback"]
        assert all(e.rolled_back_to == 0 for e in events)
        assert all(0 in e.blamed_clients for e in events)
        assert events[-1].lr_scale == pytest.approx(0.25)
        summary = sim.history.recovery_summary()
        assert summary["rollbacks"] == 2 and not summary["aborted"]


class TestAbortRung:
    def test_budget_exhaustion_aborts_as_divergence(self):
        # Quarantine stays off (tighten_after above the budget), so round 0
        # re-poisons forever; the budget must stop the loop.
        sim = make_sim(
            corrupt_schedule={0: {0: "nan-stealth"}},
            max_rollbacks=1,
            tighten_after=5,
        )
        result = sim.run(3)
        assert result.diverged
        assert sim.history.aborted
        assert sim.recovery.aborted
        assert sim.history.recoveries[-1].action == "abort"
        assert sim.history.total_rollbacks == 1

    def test_zero_budget_aborts_immediately(self):
        sim = make_sim(
            corrupt_schedule={0: {0: "nan-stealth"}},
            max_rollbacks=0,
            tighten_after=1,
        )
        result = sim.run(3)
        assert result.diverged
        assert [e.action for e in sim.history.recoveries] == ["abort"]


class TestSnapshots:
    def test_ring_buffer_capped_at_rollback_window(self):
        sim = make_sim(rollback_window=2)
        sim.run(5)
        assert len(sim.recovery.snapshots) == 2
        assert [s.round for s in sim.recovery.snapshots] == [4, 5]

    def test_controller_state_round_trips(self):
        sim = make_sim(corrupt_schedule={0: {0: "nan-stealth"}})
        sim.run(3)
        state = sim.recovery.state_dict()
        clone = make_sim()
        clone.recovery.load_state_dict(state)
        assert clone.recovery.lr_scale == sim.recovery.lr_scale
        assert clone.recovery.rollbacks_used == sim.recovery.rollbacks_used
        assert clone.recovery.tightened == sim.recovery.tightened
        assert [s.round for s in clone.recovery.snapshots] == [
            s.round for s in sim.recovery.snapshots
        ]
        np.testing.assert_array_equal(
            clone.recovery.snapshots[-1].global_params,
            sim.recovery.snapshots[-1].global_params,
        )
