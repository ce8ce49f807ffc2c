"""Integration tests: compression transport and partial participation."""

import numpy as np
import pytest

from repro.algorithms import make_strategy
from repro.comm import NoCompression, QuantizationCompressor, TopKCompressor, Transport
from repro.data import IIDPartitioner, load_dataset
from repro.fl import (
    AvailabilitySampling,
    Client,
    FederatedSimulation,
    UniformSampling,
)


@pytest.fixture
def fl_setup(rng):
    bundle = load_dataset("adult", 240, 80, seed=0)
    parts = IIDPartitioner().partition(bundle.train.labels, 4, rng)
    clients = [
        Client(i, bundle.train.subset(p), 16, np.random.default_rng(i))
        for i, p in enumerate(parts)
    ]
    return bundle, clients


def make_simulation(bundle, clients, **kwargs):
    model = bundle.spec.make_model(rng=np.random.default_rng(0))
    strategy = make_strategy("fedavg", local_lr=0.05, local_steps=4)
    return FederatedSimulation(model, clients, strategy, bundle.test, seed=0, **kwargs)


class TestTransportIntegration:
    def test_identity_transport_matches_no_transport(self, fl_setup):
        bundle, clients = fl_setup
        plain = make_simulation(bundle, clients).run(3)
        with_transport = make_simulation(
            bundle,
            [Client(c.client_id, c.dataset, 16, np.random.default_rng(c.client_id)) for c in clients],
            transport=Transport(NoCompression()),
        ).run(3)
        np.testing.assert_allclose(plain.final_params, with_transport.final_params)

    def test_traffic_logged_per_round(self, fl_setup):
        bundle, clients = fl_setup
        transport = Transport(NoCompression())
        result = make_simulation(bundle, clients, transport=transport).run(3)
        dim = bundle.spec.make_model().num_parameters()
        records = result.history.records
        assert [r.uplink_bytes for r in records] == [4 * dim * 8] * 3
        assert [r.downlink_bytes for r in records] == [4 * dim * 8] * 3

    def test_topk_still_trains(self, fl_setup):
        bundle, clients = fl_setup
        transport = Transport(TopKCompressor(fraction=0.25))
        result = make_simulation(bundle, clients, transport=transport).run(5)
        assert not result.diverged
        assert result.final_accuracy > 0.4

    def test_quantization_still_trains(self, fl_setup):
        bundle, clients = fl_setup
        transport = Transport(QuantizationCompressor(bits=8))
        result = make_simulation(bundle, clients, transport=transport).run(5)
        assert not result.diverged
        assert result.final_accuracy > 0.4


class TestPartialParticipation:
    def test_uniform_sampling_limits_round_size(self, fl_setup):
        bundle, clients = fl_setup
        sim = make_simulation(bundle, clients, participation=UniformSampling(0.5))
        result = sim.run(4)
        for record in result.history.records:
            assert len(record.participating) == 2

    def test_availability_sampling_varies(self, fl_setup):
        bundle, clients = fl_setup
        sim = make_simulation(
            bundle, clients, participation=AvailabilitySampling(0.6)
        )
        result = sim.run(6)
        sizes = {len(r.participating) for r in result.history.records}
        assert sizes  # ran; sizes in [1, 4]
        assert all(1 <= len(r.participating) <= 4 for r in result.history.records)

    def test_taco_with_partial_participation(self, fl_setup):
        bundle, clients = fl_setup
        model = bundle.spec.make_model(rng=np.random.default_rng(0))
        strategy = make_strategy(
            "taco", local_lr=0.05, local_steps=4, detect_freeloaders=False
        )
        sim = FederatedSimulation(
            model, clients, strategy, bundle.test,
            participation=UniformSampling(0.75), seed=0,
        )
        result = sim.run(4)
        assert not result.diverged
