"""Tests for checkpoint persistence."""

import json

import numpy as np
import pytest

from repro.algorithms import make_strategy
from repro.comm import Transport
from repro.data import IIDPartitioner, load_dataset
from repro.faults import FaultPlan
from repro.fl import Client, FederatedSimulation, RoundRecord, TrainingHistory
from repro.fl.checkpoint import (
    load_history,
    load_simulation,
    save_history,
    save_simulation,
)
from repro.nn.models import PaperCNN


class TestHistoryCheckpoints:
    def make_history(self):
        history = TrainingHistory()
        history.append(
            RoundRecord(
                round=0,
                test_accuracy=0.5,
                test_loss=1.2,
                round_sim_time=0.3,
                cumulative_sim_time=0.3,
                round_wall_time=0.1,
                participating=[0, 1, 2],
                alphas={0: 0.2, 1: 0.4},
                expelled=[2],
                update_norms={0: 1.5},
            )
        )
        return history

    def test_round_trip(self, tmp_path):
        history = self.make_history()
        save_history(history, tmp_path / "history.json")
        restored = load_history(tmp_path / "history.json")
        assert len(restored) == 1
        record = restored.records[0]
        assert record.test_accuracy == pytest.approx(0.5)
        assert record.alphas == {0: 0.2, 1: 0.4}
        assert record.expelled == [2]
        assert record.update_norms == {0: 1.5}

    def test_metrics_survive(self, tmp_path):
        history = self.make_history()
        save_history(history, tmp_path / "h.json")
        restored = load_history(tmp_path / "h.json")
        assert restored.rounds_to_accuracy(0.4) == 1
        assert restored.time_to_accuracy(0.4) == pytest.approx(0.3)

    def test_fault_fields_round_trip_with_int_keys(self, tmp_path):
        """Every fault field survives JSON, with client-id keys back as ints."""
        history = TrainingHistory()
        history.append(
            RoundRecord(
                round=0,
                test_accuracy=0.4,
                test_loss=1.5,
                round_sim_time=2.0,
                cumulative_sim_time=2.0,
                round_wall_time=0.2,
                participating=[0, 1, 2, 3, 4],
                alphas={0: 0.3, 4: 0.7},
                dropped=[1],
                quarantined={2: "non-finite", 3: "bad-shape"},
                stragglers=[4],
                retries={0: 2},
                aggregated=2,
            )
        )
        history.append(
            RoundRecord(
                round=1,
                test_accuracy=0.4,
                test_loss=1.5,
                round_sim_time=0.0,
                cumulative_sim_time=2.0,
                round_wall_time=0.1,
                participating=[0, 1],
                dropped=[0, 1],
                skipped=True,
            )
        )
        save_history(history, tmp_path / "h.json")
        restored = load_history(tmp_path / "h.json")
        first, second = restored.records
        assert first.dropped == [1]
        assert first.quarantined == {2: "non-finite", 3: "bad-shape"}
        assert first.stragglers == [4]
        assert first.retries == {0: 2}
        assert first.aggregated == 2
        assert first.alphas == {0: 0.3, 4: 0.7}
        assert not first.skipped
        assert second.skipped
        assert restored.fault_summary() == history.fault_summary()

    def test_legacy_history_without_fault_fields_loads(self, tmp_path):
        """Histories written before fault tracking existed still load."""
        legacy = {
            "records": [
                {
                    "round": 0,
                    "test_accuracy": 0.6,
                    "test_loss": 0.9,
                    "round_sim_time": 1.0,
                    "cumulative_sim_time": 1.0,
                    "round_wall_time": 0.1,
                    "participating": [0, 1],
                    "alphas": {"0": 0.5},
                    "expelled": [],
                    "update_norms": {"0": 2.0},
                }
            ]
        }
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(legacy))
        restored = load_history(path)
        record = restored.records[0]
        assert record.dropped == [] and record.quarantined == {}
        assert record.stragglers == [] and record.retries == {}
        assert record.aggregated == 0 and not record.skipped
        assert record.fault_count == 0


def make_simulation(algorithm="taco", seed=0, fault_plan=None, transport=None):
    bundle = load_dataset("adult", 160, 60, seed=0)
    parts = IIDPartitioner().partition(bundle.train.labels, 4, np.random.default_rng(5))
    clients = [
        Client(i, bundle.train.subset(p), 8, np.random.default_rng(100 + i))
        for i, p in enumerate(parts)
    ]
    model = bundle.spec.make_model(rng=np.random.default_rng(seed))
    strategy = make_strategy(algorithm, local_lr=0.05, local_steps=2)
    return FederatedSimulation(
        model, clients, strategy, bundle.test, seed=seed, fault_plan=fault_plan,
        transport=transport,
    )


class TestSimulationCheckpoints:
    def test_round_trip_restores_round_and_params(self, tmp_path):
        sim = make_simulation()
        sim.run(3)
        save_simulation(sim, tmp_path / "ckpt")

        clone = make_simulation()
        completed = load_simulation(clone, tmp_path / "ckpt")
        assert completed == 3
        assert clone.server.state.round == 3
        np.testing.assert_array_equal(
            clone.server.state.global_params, sim.server.state.global_params
        )
        np.testing.assert_array_equal(
            clone.model.parameters_vector(), sim.model.parameters_vector()
        )
        assert len(clone.history) == len(sim.history)

    def test_round_trip_restores_taco_alphas_with_int_keys(self, tmp_path):
        sim = make_simulation("taco")
        sim.run(2)
        save_simulation(sim, tmp_path / "ckpt")

        clone = make_simulation("taco")
        load_simulation(clone, tmp_path / "ckpt")
        state = clone.strategy.state_dict()
        assert state["alphas"] and all(isinstance(k, int) for k in state["alphas"])
        assert state["alphas"] == sim.strategy.state_dict()["alphas"]
        assert state["alpha_memory"] == sim.strategy.state_dict()["alpha_memory"]

    def test_round_trip_restores_scaffold_controls(self, tmp_path):
        sim = make_simulation("scaffold")
        sim.run(2)
        save_simulation(sim, tmp_path / "ckpt")

        clone = make_simulation("scaffold")
        load_simulation(clone, tmp_path / "ckpt")
        original = sim.strategy.state_dict()
        restored = clone.strategy.state_dict()
        assert set(restored["client_controls"]) == set(original["client_controls"])
        assert all(isinstance(k, int) for k in restored["client_controls"])
        for cid, control in original["client_controls"].items():
            np.testing.assert_array_equal(restored["client_controls"][cid], control)

    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        """Continuing from a checkpoint replays the exact same trajectory."""
        full = make_simulation("scaffold")
        full_result = full.run(5)

        half = make_simulation("scaffold")
        half.run(3)
        save_simulation(half, tmp_path / "ckpt")

        resumed = make_simulation("scaffold")
        resumed_result = resumed.run(5, resume_from=tmp_path / "ckpt")
        np.testing.assert_array_equal(
            resumed_result.final_params, full_result.final_params
        )
        np.testing.assert_array_equal(
            resumed_result.history.accuracies, full_result.history.accuracies
        )

    def test_resume_under_faults_matches_uninterrupted(self, tmp_path):
        """Resume stays bit-exact when a fault plan perturbs the rounds."""
        plan = FaultPlan(seed=17, drop_rate=0.3, corrupt_rate=0.1)
        full = make_simulation("taco", fault_plan=plan)
        full_result = full.run(5)

        half = make_simulation("taco", fault_plan=plan)
        half.run(2)
        save_simulation(half, tmp_path / "ckpt")

        resumed = make_simulation("taco", fault_plan=plan)
        resumed_result = resumed.run(5, resume_from=tmp_path / "ckpt")
        np.testing.assert_array_equal(
            resumed_result.final_params, full_result.final_params
        )
        for a, b in zip(resumed_result.history.records, full_result.history.records):
            assert a.dropped == b.dropped
            assert a.quarantined == b.quarantined

    def test_resume_with_retries_keeps_traffic_log(self, tmp_path):
        """A resumed run's per-round bytes equal the uninterrupted run's,
        retransmitted bytes included."""
        plan = FaultPlan(seed=3, transient_rate=0.6)
        full = make_simulation("fedavg", fault_plan=plan, transport=Transport())
        full.run(4)
        # Dense uploads match the broadcast, so any excess is retransmission.
        history = full.history
        assert history.total_uplink_bytes > history.total_downlink_bytes

        half = make_simulation("fedavg", fault_plan=plan, transport=Transport())
        half.run(2)
        save_simulation(half, tmp_path / "ckpt")

        resumed = make_simulation("fedavg", fault_plan=plan, transport=Transport())
        resumed.run(4, resume_from=tmp_path / "ckpt")
        assert [(r.uplink_bytes, r.downlink_bytes) for r in resumed.history.records] == [
            (r.uplink_bytes, r.downlink_bytes) for r in history.records
        ]
        np.testing.assert_array_equal(
            resumed.server.state.global_params, full.server.state.global_params
        )

    def test_client_count_mismatch_rejected(self, tmp_path):
        sim = make_simulation()
        sim.run(1)
        save_simulation(sim, tmp_path / "ckpt")

        bundle = load_dataset("adult", 160, 60, seed=0)
        parts = IIDPartitioner().partition(bundle.train.labels, 3, np.random.default_rng(5))
        clients = [
            Client(i, bundle.train.subset(p), 8, np.random.default_rng(i))
            for i, p in enumerate(parts)
        ]
        model = bundle.spec.make_model(rng=np.random.default_rng(0))
        wrong = FederatedSimulation(
            model, clients, make_strategy("taco", local_lr=0.05, local_steps=2),
            bundle.test, seed=0,
        )
        with pytest.raises(ValueError):
            load_simulation(wrong, tmp_path / "ckpt")
