"""Recovery-ladder tests driven through a real (tiny) simulation.

Scheduled ``nan-stealth`` corruption + a disabled non-finite quarantine
force critical anomalies at chosen rounds, so each rung of the escalation
ladder — skip, rollback with lr backoff, quarantine tightening, abort —
can be exercised deterministically.
"""

import json

import numpy as np
import pytest

from repro.algorithms import make_strategy
from repro.cli import main
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


def make_resnet_sim():
    """A guarded ResNet-18, whose BatchNorm buffers are state beyond w_t.

    Rounds 2 and 3 deliver stealth-NaN uploads past a disabled quarantine:
    the guard skips round 2, rolls round 3 back to round 2, then the
    replayed round 2 back to round 1, and the second rollback tightens
    the quarantine.
    """
    bundle = load_dataset("cifar100", 64, 32, seed=0)
    parts = IIDPartitioner().partition(bundle.train.labels, 2, np.random.default_rng(5))
    clients = [
        Client(i, bundle.train.subset(p), 8, np.random.default_rng(100 + i))
        for i, p in enumerate(parts)
    ]
    model = bundle.spec.make_model(rng=np.random.default_rng(0), width_multiplier=0.05)
    plan = FaultPlan(seed=7, corrupt_schedule={2: {0: "nan-stealth"}, 3: {0: "nan-stealth"}})
    return FederatedSimulation(
        model,
        clients,
        make_strategy("fedavg", local_lr=0.05, local_steps=1),
        bundle.test,
        seed=0,
        fault_plan=plan,
        degradation=DegradationPolicy(quarantine_nonfinite=False),
        guard=GuardPolicy(),
    )


def buffer_bytes(model):
    return {name: value.tobytes() for name, value in model.named_buffers()}


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
        assert [s["state"]["server"]["round"] for s in sim.recovery.snapshots] == [4, 5]

    def test_controller_state_round_trips(self):
        sim = make_sim(corrupt_schedule={0: {0: "nan-stealth"}})
        sim.run(3)
        state = sim.recovery.state_dict()
        clone = make_sim()
        clone.recovery.load_state_dict(state)
        assert clone.recovery.lr_scale == sim.recovery.lr_scale
        assert clone.recovery.rollbacks_used == sim.recovery.rollbacks_used
        assert clone.recovery.tightened == sim.recovery.tightened
        assert [s["state"]["server"]["round"] for s in clone.recovery.snapshots] == [
            s["state"]["server"]["round"] for s in sim.recovery.snapshots
        ]
        np.testing.assert_array_equal(
            clone.recovery.snapshots[-1]["state"]["server"]["global_params"],
            sim.recovery.snapshots[-1]["state"]["server"]["global_params"],
        )


class TestModelBuffers:
    def test_skip_and_rollbacks_restore_the_kept_buffers(self):
        # After each recovery the model holds, byte for byte, the buffers
        # the engine held when the restored state was kept, not the
        # statistics of the rounds the guard rejected.
        sim = make_resnet_sim()
        recovery = sim.recovery
        kept = {}  # server round -> buffers when its state was kept
        newest = []
        prime, note_healthy, respond = recovery.prime, recovery.note_healthy, recovery.respond

        def keep(engine):
            kept[engine.server.state.round] = buffer_bytes(engine.model)
            newest.append(engine.server.state.round)

        def watched_prime(engine):
            prime(engine)
            keep(engine)

        def watched_note_healthy(engine, record):
            note_healthy(engine, record)
            keep(engine)

        outcomes = []

        def watched_respond(engine, record, anomalies):
            rejected = buffer_bytes(engine.model)
            action = respond(engine, record, anomalies)
            event = engine.history.recoveries[-1]
            target = event.rolled_back_to if action == "rollback" else newest[-1]
            restored = buffer_bytes(engine.model)
            outcomes.append((action, target, rejected != kept[target], restored == kept[target]))
            return action

        recovery.prime = watched_prime
        recovery.note_healthy = watched_note_healthy
        recovery.respond = watched_respond
        sim.run(5)
        assert len(kept[0]) == 24  # ResNet-18's BatchNorm running statistics
        # Each rejected round had moved the buffers; each recovery restored them.
        assert outcomes == [
            ("skip", 2, True, True),
            ("rollback", 2, True, True),
            ("rollback", 1, True, True),
        ]

    def test_mid_ladder_resume_matches_the_uninterrupted_run(self, tmp_path):
        straight = make_resnet_sim()
        straight.run(5)

        make_resnet_sim().run(3, checkpoint_every=1, checkpoint_dir=tmp_path)
        guard = json.loads((tmp_path / "meta.json").read_text())["guard_scalars"]
        # The checkpoint holds the ladder after the skip, before its rollbacks.
        assert guard["recovery|consecutive"] == 1 and guard["recovery|rollbacks_used"] == 0

        resumed = make_resnet_sim()
        resumed.run(5, resume_from=tmp_path)
        assert [e.action for e in resumed.history.recoveries] == ["skip", "rollback", "rollback"]
        assert (
            resumed.server.state.global_params.tobytes()
            == straight.server.state.global_params.tobytes()
        )
        assert buffer_bytes(resumed.model) == buffer_bytes(straight.model)
        assert resumed.history.accuracies.tolist() == straight.history.accuracies.tolist()

    def test_ring_without_engine_states_fails_with_one_line(self, tmp_path, capsys):
        # Older versions kept each ring entry's fields flat, with no engine
        # state to restore the model's buffers from: resuming fails with
        # one line naming the checkpoint, and ``repro run`` exits 2.
        checkpoints = str(tmp_path)
        argv = [
            "run", "--dataset", "adult", "--clients", "3", "--local-steps", "2",
            "--train-size", "120", "--test-size", "50", "--guard",
            "--checkpoint-dir", checkpoints,
        ]
        assert main([*argv, "--rounds", "2", "--checkpoint-every", "1"]) == 0
        with np.load(tmp_path / "arrays.npz") as archive:
            arrays = {key.replace("|state|", "|"): archive[key] for key in archive.files}
        np.savez(tmp_path / "arrays.npz", **arrays)
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["guard_scalars"] = {
            key.replace("|state|", "|"): value for key, value in meta["guard_scalars"].items()
        }
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()

        assert main([*argv, "--rounds", "3", "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot resume from {checkpoints}")
        assert err.count("\n") == 1  # one line, no traceback
