"""Edge-case tests for the simulation driver."""

import numpy as np
import pytest

from repro.algorithms import FedAvg, Strategy, make_strategy
from repro.data import IIDPartitioner, TensorDataset, load_dataset
from repro.fl import Client, FederatedSimulation
from repro.fl.state import ClientUpdate, ServerState


@pytest.fixture
def setup(rng):
    bundle = load_dataset("adult", 160, 60, seed=0)
    parts = IIDPartitioner().partition(bundle.train.labels, 3, rng)
    clients = [
        Client(i, bundle.train.subset(p), 8, np.random.default_rng(i))
        for i, p in enumerate(parts)
    ]
    return bundle, clients


class DivergingStrategy(Strategy):
    """Deliberately explodes the global model after one round."""

    name = "diverge"

    def aggregate(self, state, updates):
        return np.full_like(updates[0].delta, np.inf)


class ExpellingStrategy(FedAvg):
    """Expels client 0 after the first aggregation."""

    name = "expel"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._aggregated = False

    def post_round(self, state, updates):
        self._aggregated = True

    @property
    def expelled(self):
        return frozenset({0}) if self._aggregated else frozenset()


class TestDivergenceHandling:
    def test_diverged_run_stops_early_and_flags(self, setup):
        bundle, clients = setup
        model = bundle.spec.make_model(rng=np.random.default_rng(0))
        strategy = DivergingStrategy(local_lr=0.05, local_steps=2)
        sim = FederatedSimulation(model, clients, strategy, bundle.test, seed=0)
        result = sim.run(5)
        assert result.diverged
        assert len(result.history) < 5  # stopped at the diverging round

    def test_output_accuracy_zero_on_nonfinite_output(self, setup):
        bundle, clients = setup
        model = bundle.spec.make_model(rng=np.random.default_rng(0))
        strategy = DivergingStrategy(local_lr=0.05, local_steps=2)
        sim = FederatedSimulation(model, clients, strategy, bundle.test, seed=0)
        result = sim.run(3)
        assert result.output_accuracy == 0.0

    def test_diverged_final_params_reported_faithfully(self, setup):
        # The poisoned parameters are returned as-is — no silent repair on
        # the legacy (guard-off) path.
        bundle, clients = setup
        model = bundle.spec.make_model(rng=np.random.default_rng(0))
        strategy = DivergingStrategy(local_lr=0.05, local_steps=2)
        sim = FederatedSimulation(model, clients, strategy, bundle.test, seed=0)
        result = sim.run(3)
        assert not np.isfinite(result.final_params).all()
        np.testing.assert_array_equal(result.final_params, model.parameters_vector())

    def test_diverged_final_accuracy_is_stale_history(self, setup):
        # A diverged run skips the final re-evaluation: final_accuracy is
        # whatever the last (poisoned) history record measured, and the two
        # views must agree.
        bundle, clients = setup
        model = bundle.spec.make_model(rng=np.random.default_rng(0))
        strategy = DivergingStrategy(local_lr=0.05, local_steps=2)
        sim = FederatedSimulation(
            model, clients, strategy, bundle.test, seed=0, eval_every=2
        )
        result = sim.run(5)
        assert result.diverged
        assert result.final_accuracy == result.history.final_accuracy
        assert result.final_accuracy == result.history.records[-1].test_accuracy

    def test_diverging_round_record_kept_in_history(self, setup):
        bundle, clients = setup
        model = bundle.spec.make_model(rng=np.random.default_rng(0))
        strategy = DivergingStrategy(local_lr=0.05, local_steps=2)
        sim = FederatedSimulation(model, clients, strategy, bundle.test, seed=0)
        result = sim.run(3)
        assert len(result.history) == 1  # the fatal round is audited, not dropped
        assert not np.isfinite(result.history.records[-1].test_loss)


class TestExpulsionFlow:
    def test_expelled_client_leaves_participation(self, setup):
        bundle, clients = setup
        model = bundle.spec.make_model(rng=np.random.default_rng(0))
        strategy = ExpellingStrategy(local_lr=0.05, local_steps=2)
        sim = FederatedSimulation(model, clients, strategy, bundle.test, seed=0)
        result = sim.run(3)
        first, second = result.history.records[0], result.history.records[1]
        assert 0 in first.participating
        assert first.expelled == [0]
        assert 0 not in second.participating

    def test_run_round_usable_directly(self, setup):
        bundle, clients = setup
        model = bundle.spec.make_model(rng=np.random.default_rng(0))
        sim = FederatedSimulation(
            model, clients, FedAvg(local_lr=0.05, local_steps=2), bundle.test, seed=0
        )
        record = sim.run_round()
        assert record.round == 0
        assert sim.server.state.round == 1


class TestRecordContents:
    def test_update_norms_recorded(self, setup):
        bundle, clients = setup
        model = bundle.spec.make_model(rng=np.random.default_rng(0))
        sim = FederatedSimulation(
            model, clients, FedAvg(local_lr=0.05, local_steps=2), bundle.test, seed=0
        )
        record = sim.run_round()
        assert set(record.update_norms) == {0, 1, 2}
        assert all(norm > 0 for norm in record.update_norms.values())

    def test_wall_time_positive(self, setup):
        bundle, clients = setup
        model = bundle.spec.make_model(rng=np.random.default_rng(0))
        sim = FederatedSimulation(
            model, clients, FedAvg(local_lr=0.05, local_steps=2), bundle.test, seed=0
        )
        record = sim.run_round()
        assert record.round_wall_time > 0

    def test_taco_alphas_recorded(self, setup):
        bundle, clients = setup
        model = bundle.spec.make_model(rng=np.random.default_rng(0))
        strategy = make_strategy(
            "taco", local_lr=0.05, local_steps=2, detect_freeloaders=False
        )
        sim = FederatedSimulation(model, clients, strategy, bundle.test, seed=0)
        record = sim.run_round()
        assert set(record.alphas) == {0, 1, 2}
