"""Float32 compute mode: opt-in, scoped, and accurate enough for training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import algorithm_names, make_strategy
from repro.autograd import (
    Tensor,
    cross_entropy,
    default_dtype,
    get_default_dtype,
    set_default_dtype,
)
from repro.fl.state import ClientUpdate, ServerState
from repro.nn.models import MLP, PaperCNN
from repro.optim import SGD


@pytest.fixture(autouse=True)
def _restore_default_dtype():
    previous = get_default_dtype()
    yield
    set_default_dtype(previous)


class TestDtypeControls:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64
        assert Tensor(np.ones(3)).data.dtype == np.float64

    def test_context_manager_scopes_and_restores(self):
        with default_dtype("float32"):
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
        assert Tensor([1.0, 2.0]).data.dtype == np.float64

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)

    def test_cli_exposes_dtype_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "--dtype", "float32"])
        assert args.dtype == "float32"


def _train_steps(model_fn, x, y, steps=3, lr=0.1):
    model = model_fn()
    opt = SGD(model.parameters(), lr=lr)
    losses = []
    for _ in range(steps):
        model.zero_grad()
        loss = cross_entropy(model(Tensor(x)), y)
        loss.backward()
        opt.step()
        losses.append(float(loss.data))
    return np.asarray(losses), model.parameters_vector()


class TestFloat32Training:
    def test_mlp_step_tracks_float64(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(16, 12))
        y = rng.integers(0, 3, size=16)
        make = lambda: MLP(12, 3, hidden=(8, 6), rng=np.random.default_rng(5))

        losses64, params64 = _train_steps(make, x, y)
        with default_dtype("float32"):
            losses32, params32 = _train_steps(make, x, y)

        assert params32.dtype == np.float32 and params64.dtype == np.float64
        np.testing.assert_allclose(losses32, losses64, rtol=1e-4)
        np.testing.assert_allclose(params32, params64, rtol=1e-3, atol=1e-4)

    def test_cnn_step_tracks_float64(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 1, 12, 12))
        y = rng.integers(0, 4, size=4)
        make = lambda: PaperCNN(
            in_channels=1, image_size=12, num_classes=4,
            width_multiplier=0.25, rng=np.random.default_rng(6),
        )

        losses64, params64 = _train_steps(make, x, y)
        with default_dtype("float32"):
            losses32, params32 = _train_steps(make, x, y)

        assert params32.dtype == np.float32
        np.testing.assert_allclose(losses32, losses64, rtol=1e-3)
        np.testing.assert_allclose(params32, params64, rtol=1e-2, atol=1e-3)

    def test_float32_halves_parameter_memory(self):
        make = lambda: MLP(12, 3, hidden=(8, 6), rng=np.random.default_rng(5))
        vec64 = make().parameters_vector()
        with default_dtype("float32"):
            vec32 = make().parameters_vector()
        assert vec32.nbytes * 2 == vec64.nbytes


class TestStrategyDtype:
    """Strategy state lives in the compute dtype: no float64 leaks into a
    float32 run's directions, proximal gradients or aggregates."""

    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_round_zero_outputs_keep_float32(self, algorithm):
        rng = np.random.default_rng(0)

        def vector():
            return rng.normal(size=12).astype(np.float32)

        with default_dtype("float32"):
            strategy = make_strategy(algorithm, local_lr=0.05, local_steps=2, rounds=2)
            # Five clients: Krum needs more than byzantine_count + 2 updates.
            state = ServerState(global_params=vector(), num_clients=5)
            broadcast = strategy.broadcast(state)
            updates = []
            for cid in range(5):
                payload = strategy.client_payload(cid, state, broadcast)
                params = state.global_params + payload.get("start_shift", 0.0)
                prox = strategy.prox_gradient(params, payload)
                if prox is not None:
                    assert prox.dtype == np.float32
                direction = strategy.local_direction(
                    cid, 0, params, vector(), lambda _: vector(), payload
                )
                assert direction.dtype == np.float32
                extras = strategy.client_update_extras(cid, payload)
                updates.append(ClientUpdate(
                    cid, vector(), num_samples=10, num_steps=2, sim_time=0.0, extras=extras
                ))
            assert strategy.aggregate(state, updates).dtype == np.float32
