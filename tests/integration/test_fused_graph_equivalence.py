"""Acceptance: the fused graph nodes train runs bit for bit like the unfused ones.

``Linear`` records one ``linear`` node per call and the client loss one
``cross_entropy`` node, where the unfused graphs record three and five.
``LSTM`` records one ``lstm_sequence`` node per sequence, where the
previous production LSTM recorded one ``lstm_step`` node per time step
(plus the slices, splits and concatenate around them).  Each fused
backward replays its unfused graph's arithmetic, so whole training runs
must not move a bit: every run below trains twice from the same seed —
once as shipped, once with ``Linear.forward``, the client's
``cross_entropy`` and ``LSTM.forward`` swapped for the oracles in
``tests/reference_kernels.py`` — and the final parameter bytes must match,
for CharLSTM under float32 as well.  A PaperCNN run is held to the same
standard against the previous ``conv2d`` (``take_im2col_conv2d``, an
``np.take`` gather), which ``Conv2d.forward`` is swapped for.
"""

import numpy as np
import pytest

import repro.fl.client
from repro.algorithms import make_strategy
from repro.autograd import default_dtype
from repro.data import TensorDataset
from repro.fl import Client, FederatedSimulation
from repro.nn import LSTM, Conv2d, Linear
from repro.nn.models import MLP, CharLSTM, PaperCNN

from tests.reference_kernels import (
    naive_cross_entropy,
    naive_linear,
    step_lstm_forward,
    take_im2col_conv2d,
)

CLIENTS = 4
SHARD = 24
VOCAB = 12
SEQ_LEN = 5


def _mlp_task(rng):
    def shard(n):
        return TensorDataset(rng.normal(size=(n, 10)), rng.integers(0, 3, size=n))

    return lambda: MLP(10, 3, hidden=(16, 8), rng=np.random.default_rng(7)), shard


def _lstm_task(rng):
    def shard(n):
        tokens = rng.integers(0, VOCAB, size=(n, SEQ_LEN)).astype(np.float64)
        return TensorDataset(tokens, rng.integers(0, VOCAB, size=n))

    def model():
        return CharLSTM(VOCAB, embedding_dim=4, hidden_size=8, rng=np.random.default_rng(7))

    return model, shard


def _cnn_task(rng):
    def shard(n):
        return TensorDataset(rng.normal(size=(n, 1, 8, 8)), rng.integers(0, 3, size=n))

    def model():
        return PaperCNN(1, 8, 3, width_multiplier=0.25, rng=np.random.default_rng(7))

    return model, shard


def _train(task, algorithm):
    rng = np.random.default_rng(0)
    model_fn, shard = task(rng)
    sim = FederatedSimulation(
        model=model_fn(),
        clients=[
            Client(cid, shard(SHARD), 8, np.random.default_rng(100 + cid))
            for cid in range(CLIENTS)
        ],
        strategy=make_strategy(algorithm, local_lr=0.1, local_steps=3, rounds=2),
        test_set=shard(16),
        seed=3,
    )
    return sim.run(2).final_params


def _train_on_oracles(monkeypatch, task, algorithm):
    calls = {"linear": 0, "loss": 0, "lstm": 0}

    def unfused_forward(layer, x):
        calls["linear"] += 1
        return naive_linear(x, layer.weight, layer.bias)

    def unfused_loss(logits, targets):
        calls["loss"] += 1
        return naive_cross_entropy(logits, targets)

    def step_graph_forward(lstm, x, state=None):
        calls["lstm"] += 1
        return step_lstm_forward(lstm, x, state)

    with monkeypatch.context() as patch:
        patch.setattr(Linear, "forward", unfused_forward)
        patch.setattr(repro.fl.client, "cross_entropy", unfused_loss)
        patch.setattr(LSTM, "forward", step_graph_forward)
        oracle = _train(task, algorithm)
    assert calls["linear"] and calls["loss"], "the oracles never ran"
    assert bool(calls["lstm"]) == (task is _lstm_task)
    return oracle


@pytest.mark.parametrize("task", [_mlp_task, _lstm_task], ids=["mlp", "char_lstm"])
@pytest.mark.parametrize("algorithm", ["fedavg", "taco", "scaffold", "stem"])
def test_fused_run_matches_unfused_oracles(monkeypatch, task, algorithm):
    shipped = _train(task, algorithm)
    oracle = _train_on_oracles(monkeypatch, task, algorithm)
    assert shipped.dtype == oracle.dtype
    assert shipped.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("algorithm", ["fedavg", "taco", "scaffold", "stem"])
def test_char_lstm_float32_run_matches_oracles(monkeypatch, algorithm):
    with default_dtype("float32"):
        shipped = _train(_lstm_task, algorithm)
        oracle = _train_on_oracles(monkeypatch, _lstm_task, algorithm)
    assert shipped.dtype == oracle.dtype == np.dtype("float32")
    assert shipped.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("algorithm", ["fedavg", "taco", "scaffold", "stem"])
def test_cnn_run_matches_previous_conv_kernel(monkeypatch, algorithm):
    shipped = _train(_cnn_task, algorithm)

    calls = {"conv": 0}

    def previous_forward(layer, x):
        calls["conv"] += 1
        return take_im2col_conv2d(
            x, layer.weight, layer.bias, stride=layer.stride, padding=layer.padding
        )

    monkeypatch.setattr(Conv2d, "forward", previous_forward)
    oracle = _train(_cnn_task, algorithm)

    assert calls["conv"], "the oracle never ran"
    assert shipped.dtype == oracle.dtype
    assert shipped.tobytes() == oracle.tobytes()
