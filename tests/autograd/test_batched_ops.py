"""Slice-exactness of the client-batched kernels.

Every batched op carries a leading ``clients`` axis (``linear`` takes it
through a ``(clients, out, in)`` cohort weight); slice ``k`` of its
forward output and of every parameter gradient must be *byte-identical* to
running the sequential kernel on client k's slice alone.  That invariant is
what lets the batched execution path (repro.fl.batched) serve as a drop-in
replacement for the per-client loop under float64.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, batched_cross_entropy, cross_entropy, linear
from repro.nn.batched import BatchedModelProgram, build_batched_forward, supports_batched
from repro.nn.models import MLP, PaperCNN


def _grad(tensor):
    assert tensor.grad is not None
    return tensor.grad


class TestBatchedLinear:
    """``linear`` with a cohort weight against the unfused per-client graph."""

    def test_slices_match_sequential(self, rng):
        clients, batch, in_f, out_f = 5, 7, 11, 4
        x = Tensor(rng.normal(size=(clients, batch, in_f)), requires_grad=True)
        w = Tensor(rng.normal(size=(clients, out_f, in_f)), requires_grad=True)
        b = Tensor(rng.normal(size=(clients, out_f)), requires_grad=True)
        out = linear(x, w, b)
        g = rng.normal(size=out.shape)
        out.backward(g)
        for k in range(clients):
            xs = Tensor(x.data[k].copy(), requires_grad=True)
            ws = Tensor(w.data[k].copy(), requires_grad=True)
            bs = Tensor(b.data[k].copy(), requires_grad=True)
            ref = xs @ ws.T + bs  # the unfused affine graph
            ref.backward(g[k])
            assert np.array_equal(out.data[k], ref.data)
            assert np.array_equal(_grad(x)[k], _grad(xs))
            assert np.array_equal(_grad(w)[k], _grad(ws))
            assert np.array_equal(_grad(b)[k], _grad(bs))

    def test_input_grad_skipped_for_non_grad_input(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=False)
        w = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        out = linear(x, w, None)
        out.backward(np.ones(out.shape))
        assert x.grad is None
        assert w.grad is not None


class TestBatchedCrossEntropy:
    def test_sum_of_per_client_losses(self, rng):
        clients, batch, classes = 4, 6, 5
        logits = Tensor(rng.normal(size=(clients, batch, classes)), requires_grad=True)
        targets = rng.integers(0, classes, size=(clients, batch))
        loss = batched_cross_entropy(logits, targets)
        loss.backward()

        total = 0.0
        for k in range(clients):
            ls = Tensor(logits.data[k].copy(), requires_grad=True)
            ref = cross_entropy(ls, targets[k])
            ref.backward()
            total += ref.item()
            assert np.array_equal(_grad(logits)[k], _grad(ls))
        assert loss.item() == pytest.approx(total, rel=0, abs=1e-12)


class TestBatchedModelProgram:
    @pytest.mark.parametrize("make_model", [
        # image input: the batched forward flattens (clients, batch, C, H, W)
        lambda rng: (MLP(28 * 28, 10, hidden=(16, 8), rng=rng), (1, 28, 28)),
        # flat input and no hidden layer: a lone Linear, no ReLU, no flatten
        lambda rng: (MLP(12, 10, hidden=(), rng=rng), (12,)),
    ])
    def test_rows_match_template_model(self, rng, make_model):
        clients, batch = 3, 4
        template, sample_shape = make_model(np.random.default_rng(0))
        assert supports_batched(template)
        program = BatchedModelProgram(template, clients)

        base = template.parameters_vector()
        rows = [base + 0.01 * (k + 1) for k in range(clients)]
        program.load_rows(rows)
        x = rng.normal(size=(clients, batch, *sample_shape))
        targets = rng.integers(0, 10, size=(clients, batch))

        program.zero_grad()
        loss = batched_cross_entropy(program.forward(Tensor(x)), targets)
        loss.backward()
        grads = program.gradients_matrix()
        assert grads.shape == (clients, base.size)

        for k in range(clients):
            template.load_vector(rows[k])
            template.zero_grad()
            ref = cross_entropy(template(Tensor(x[k])), targets[k])
            ref.backward()
            assert np.array_equal(grads[k], template.gradient_vector())

    def test_load_rows_roundtrip_and_aliasing(self):
        template = MLP(6, 3, hidden=(5,), rng=np.random.default_rng(1))
        program = BatchedModelProgram(template, 2)
        base = template.parameters_vector()
        program.load_rows([base, base * 2.0])
        live = program.params_rows()
        assert np.array_equal(live[1], base * 2.0)
        # in-place SGD on the live buffer is visible through the parameters
        live -= 0.5 * live
        weight = program.params[0].data  # (clients, out, in) view into the arena
        assert np.array_equal(weight[0].ravel(), 0.5 * base[: weight[0].size])

    def test_unsupported_model_returns_none(self):
        class OddMLP(MLP):
            pass  # exact-type dispatch: subclasses must opt in themselves

        for model in (
            PaperCNN(width_multiplier=0.25, rng=np.random.default_rng(2)),
            OddMLP(6, 3, hidden=(5,), rng=np.random.default_rng(2)),
        ):
            assert build_batched_forward(model) is None
            assert not supports_batched(model)
            with pytest.raises(ValueError):
                BatchedModelProgram(model, 2)
