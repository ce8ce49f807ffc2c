"""FlatParameterArena semantics: aliasing, rebuilds, the dtype rule and
allocation behaviour."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.autograd import Tensor, default_dtype
from repro.nn import Linear, Parameter, ReLU, Sequential


@pytest.fixture
def model():
    rng = np.random.default_rng(3)
    return Sequential(Linear(6, 10, rng=rng), ReLU(), Linear(10, 4, rng=rng))


def _train_step(model, x_data):
    model.zero_grad()
    out = model(Tensor(x_data))
    (out * out).sum().backward()


class TestAliasing:
    def test_parameters_alias_one_buffer(self, model):
        vec = model.parameters_vector()
        arena = model._flat_arena
        assert arena is not None
        assert vec.size == model.num_parameters()
        for param in model.parameters():
            assert param.data.base is arena.buffer

    def test_load_vector_updates_parameter_views(self, model):
        vec = model.parameters_vector()
        model.load_vector(vec * 2.0)
        first = model.parameters()[0]
        np.testing.assert_array_equal(
            first.data.reshape(-1), (vec * 2.0)[: first.size]
        )

    def test_vectors_are_independent_copies(self, model):
        vec = model.parameters_vector()
        vec[:] = 0.0
        assert not np.allclose(model.parameters_vector(), 0.0)
        _train_step(model, np.random.default_rng(0).normal(size=(3, 6)))
        g1 = model.gradient_vector()
        g2 = model.gradient_vector()
        assert g1 is not g2 and g1.base is None
        g1[:] = -1.0
        np.testing.assert_array_equal(g2, model.gradient_vector())

    def test_backward_accumulates_into_grad_views(self, model):
        model.parameters_vector()  # builds the arena
        arena = model._flat_arena
        _train_step(model, np.random.default_rng(1).normal(size=(3, 6)))
        for param in model.parameters():
            assert param.grad is param._grad_view
            assert param.grad.base is arena.grad_buffer

    def test_gradient_vector_zeroes_stale_chunks(self, model):
        _train_step(model, np.random.default_rng(2).normal(size=(3, 6)))
        assert np.any(model.gradient_vector())
        model.zero_grad()
        np.testing.assert_array_equal(
            model.gradient_vector(), np.zeros(model.num_parameters())
        )


class TestRebuild:
    def test_rebind_invalidates_and_rebuilds(self, model):
        model.parameters_vector()
        old_arena = model._flat_arena
        first = model.parameters()[0]
        first.data = np.asarray(first.data).copy() * 3.0  # rebinding breaks the alias
        vec = model.parameters_vector()
        assert model._flat_arena is not old_arena
        np.testing.assert_array_equal(vec[: first.size], first.data.reshape(-1))

    def test_new_parameter_invalidates(self, model):
        model.parameters_vector()
        old_arena = model._flat_arena
        model.extra = Parameter(np.ones(5))
        vec = model.parameters_vector()
        assert model._flat_arena is not old_arena
        assert vec.size == model.num_parameters()
        # Registered on a child: the root's cached parameter list must see it.
        old_arena, old_size = model._flat_arena, vec.size
        model.layer0.extra = Parameter(np.full(3, 2.0))
        vec = model.parameters_vector()
        assert model._flat_arena is not old_arena
        assert vec.size == old_size + 3 == model.num_parameters()
        assert any(p is model.layer0.extra for p in model.parameters())

    def test_parameters_returns_fresh_list(self, model):
        params = model.parameters()
        size = model.parameters_vector().size
        params.append(Parameter(np.ones(4)))
        assert len(model.parameters()) == len(params) - 1
        assert model.parameters() is not model.parameters()
        assert model.parameters_vector().size == size

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_empty_module_has_no_arena(self, dtype):
        """No parameters: vectors are size 0 in the compute dtype."""
        with default_dtype(dtype):
            bare = Sequential(ReLU())
            for vec in (bare.parameters_vector(), bare.gradient_vector()):
                assert vec.size == 0 and vec.dtype == np.dtype(dtype)
        assert bare._flat_arena.size == 0

    @pytest.mark.parametrize(
        "op", ["parameters_vector", "gradient_vector", "load_vector"]
    )
    def test_mixed_dtypes_raise(self, op):
        with default_dtype("float32"):
            narrow = Linear(3, 2)
        mixed = Sequential(narrow, Linear(2, 2))
        args = (np.zeros(mixed.num_parameters()),) if op == "load_vector" else ()
        with pytest.raises(ValueError, match="float32, float64"):
            getattr(mixed, op)(*args)


class TestAllocationBehaviour:
    def test_steady_state_round_trip_allocates_only_returned_vectors(self, model):
        """The load/grad round trip must not grow allocations per iteration.

        Each iteration legitimately allocates the two returned copies (they
        die at the end of the loop body); what must NOT happen is per-call
        concatenation garbage growing the high-water mark as iterations pile
        up.  tracemalloc's current-size delta over many iterations catches
        exactly that.
        """
        x = np.random.default_rng(5).normal(size=(3, 6))
        vec = model.parameters_vector()

        def round_trip():
            model.load_vector(vec)
            _train_step(model, x)
            return model.gradient_vector()

        for _ in range(3):  # warm caches and the arena itself
            round_trip()

        tracemalloc.start()
        baseline = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            round_trip()
        current = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        # Allow slack for interpreter noise; 50 iterations of per-parameter
        # concatenation on this model would leak far more than this.
        assert current - baseline < 64 * vec.nbytes
