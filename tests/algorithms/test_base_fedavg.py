"""Tests for the Strategy base class and FedAvg."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import FedAvg, Strategy, make_strategy, algorithm_names, ALL_ALGORITHMS
from repro.fl.sampling import (
    AvailabilitySampling,
    FullParticipation,
    ReservoirSampling,
    UniformSampling,
)
from repro.fl.state import ClientUpdate, ServerState


def make_updates(deltas, samples=None):
    samples = samples or [10] * len(deltas)
    return [
        ClientUpdate(i, np.asarray(d, dtype=float), samples[i], 2, 0.1)
        for i, d in enumerate(deltas)
    ]


class TestStrategyBase:
    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            Strategy(local_lr=0.0)
        with pytest.raises(ValueError):
            Strategy(local_steps=0)

    def test_default_hooks(self):
        strategy = Strategy(local_lr=0.1, local_steps=2)
        state = ServerState(global_params=np.zeros(3), num_clients=2)
        assert strategy.broadcast(state) == {}
        assert strategy.prox_gradient(np.zeros(3), {}) is None
        grad = np.ones(3)
        assert strategy.local_direction(0, 0, np.zeros(3), grad, lambda p: grad, {}) is grad
        assert strategy.active_clients(state, [0, 1]) == [0, 1]
        np.testing.assert_allclose(strategy.final_output(state), np.zeros(3))

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            Strategy(local_lr=0.1, local_steps=2).aggregate(
                ServerState(global_params=np.zeros(2)), []
            )


class Expels(Strategy):
    """A strategy whose only behaviour is a fixed expelled set."""

    def __init__(self, expelled):
        super().__init__()
        self._expelled = frozenset(expelled)

    @property
    def expelled(self):
        return self._expelled


@st.composite
def ids_and_expelled(draw):
    """Registry-style ids (a range, or an unsorted list) and an expelled set."""
    if draw(st.booleans()):
        start = draw(st.integers(0, 40))
        ids = range(start, draw(st.integers(start, start + 60)))
    else:
        ids = draw(st.lists(st.integers(0, 120), unique=True, max_size=60))
    inside = draw(st.sets(st.sampled_from(ids))) if len(ids) else set()
    outside = draw(st.sets(st.integers(-20, 200)))  # may land in ids as well
    return ids, draw(st.sampled_from([set(), set(ids), inside | outside]))


def selection(scheme, active, seed):
    try:
        return scheme.select(active, 0, np.random.default_rng(seed))
    except ValueError:  # an empty active set, alike for the view and the list
        return ValueError


class TestActiveClients:
    """``Strategy.active_clients``: ``all_clients`` minus ``expelled`` as a view."""

    def test_nothing_expelled_passes_ids_through(self):
        ids = range(10**6)
        assert Strategy().active_clients(None, ids) is ids

    @settings(max_examples=200, deadline=None)
    @given(case=ids_and_expelled())
    def test_view_equals_materialised_list(self, case):
        ids, expelled = case
        view = Expels(expelled).active_clients(None, ids)
        kept = [cid for cid in ids if cid not in expelled]
        assert len(view) == len(kept)
        assert list(view) == kept
        assert [view[i] for i in range(-len(kept), len(kept))] == kept + kept
        for index in (len(kept), -len(kept) - 1):
            with pytest.raises(IndexError):
                view[index]

    @settings(max_examples=100, deadline=None)
    @given(case=ids_and_expelled(), seed=st.integers(0, 2**32 - 1))
    def test_schemes_select_alike_from_view_and_list(self, case, seed):
        ids, expelled = case
        view = Expels(expelled).active_clients(None, ids)
        kept = [cid for cid in ids if cid not in expelled]
        for scheme in (
            FullParticipation(),
            UniformSampling(0.3),
            AvailabilitySampling(0.5),
            ReservoirSampling(4),
        ):
            assert selection(scheme, view, seed) == selection(scheme, kept, seed)

    def test_view_memory_is_independent_of_population(self):
        tracemalloc.start()
        try:
            view = Expels({3, 999_999}).active_clients(None, range(1_000_000))
            cohort = ReservoirSampling(20).select(view, 0, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(view) == 999_998 and view[3] == 4 and view[-1] == 999_998
        assert len(cohort) == 20 and not {3, 999_999} & set(cohort)
        assert peak < 64 * 1024


class TestFedAvg:
    def test_uniform_aggregation(self):
        strategy = FedAvg(local_lr=0.1, local_steps=5)
        updates = make_updates([np.ones(3), 3 * np.ones(3)])
        delta = strategy.aggregate(ServerState(global_params=np.zeros(3)), updates)
        # (1/(K N eta_l)) * sum = (1 + 3) / (5 * 2 * 0.1) = 4
        np.testing.assert_allclose(delta, np.full(3, 4.0))

    def test_sample_weighted_aggregation(self):
        strategy = FedAvg(local_lr=0.1, local_steps=5, weighting="samples")
        updates = make_updates([np.ones(2), 3 * np.ones(2)], samples=[30, 10])
        delta = strategy.aggregate(ServerState(global_params=np.zeros(2)), updates)
        # weighted avg = 0.75*1 + 0.25*3 = 1.5; / (K eta_l) = 3
        np.testing.assert_allclose(delta, np.full(2, 3.0))

    def test_invalid_weighting(self):
        with pytest.raises(ValueError):
            FedAvg(weighting="bogus")

    def test_no_correction_flags(self):
        strategy = FedAvg()
        assert not strategy.has_local_correction
        assert not strategy.has_aggregation_correction
        assert not strategy.has_freeloader_detection

    def test_profile_is_single_gradient(self):
        profile = FedAvg().compute_profile()
        assert profile.grad == 1
        assert profile.extra_grad == 0


class TestRegistry:
    def test_all_names_constructible(self):
        for name in algorithm_names():
            strategy = make_strategy(name, local_lr=0.02, local_steps=7)
            assert strategy.local_lr == 0.02
            assert strategy.local_steps == 7

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_strategy("adamw")

    def test_paper_defaults(self):
        assert make_strategy("fedprox").zeta == pytest.approx(0.1)
        assert make_strategy("scaffold").alpha == pytest.approx(1.0)
        assert make_strategy("stem").alpha_t == pytest.approx(0.2)
        assert make_strategy("fedacg").beta == pytest.approx(0.001)
        taco = make_strategy("taco", local_steps=50)
        assert taco.gamma == pytest.approx(1.0 / 50)  # gamma = 1/K
        assert taco.kappa == pytest.approx(0.6)

    def test_taco_lambda_from_rounds(self):
        taco = make_strategy("taco", rounds=50)
        assert taco.expulsion_limit == 10  # T/5

    def test_override_wins(self):
        taco = make_strategy("taco", rounds=50, expulsion_limit=3)
        assert taco.expulsion_limit == 3

    def test_seven_paper_algorithms(self):
        assert set(ALL_ALGORITHMS) == {
            "fedavg",
            "fedprox",
            "foolsgold",
            "scaffold",
            "stem",
            "fedacg",
            "taco",
        }
