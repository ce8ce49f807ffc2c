"""Unit tests for TACO (Algorithm 2)."""

import numpy as np
import pytest

from repro.algorithms import INITIAL_ALPHA, TACO, FedAvg
from repro.fl.state import ClientUpdate, ServerState, cosine_similarity


def update(cid, delta, samples=10):
    return ClientUpdate(cid, np.asarray(delta, dtype=float), samples, 2, 0.1)


class TestAlphaComputation:
    """Eq. (7): alpha_i = (1 - norm share) * max(cos(Delta_i, mean Delta), 0)."""

    def test_matches_formula(self, rng):
        updates = [update(i, rng.normal(size=6)) for i in range(4)]
        alphas = TACO.compute_alphas(updates)
        norms = [np.linalg.norm(u.delta) for u in updates]
        mean_delta = np.mean([u.delta for u in updates], axis=0)
        for i, u in enumerate(updates):
            magnitude = 1.0 - norms[i] / sum(norms)
            direction = max(cosine_similarity(u.delta, mean_delta), 0.0)
            assert alphas[i] == pytest.approx(magnitude * direction)

    def test_alpha_in_unit_interval(self, rng):
        for _ in range(10):
            updates = [update(i, rng.normal(size=5)) for i in range(6)]
            for alpha in TACO.compute_alphas(updates).values():
                assert 0.0 <= alpha <= 1.0

    def test_larger_magnitude_smaller_alpha(self):
        """Fig. 3-Right: bigger ||Delta_i|| -> bigger correction factor."""
        direction = np.ones(4)
        updates = [update(0, direction), update(1, 5 * direction)]
        alphas = TACO.compute_alphas(updates)
        assert alphas[1] < alphas[0]

    def test_misaligned_client_smaller_alpha(self):
        """Fig. 3-Left: lower cosine with the crowd -> smaller alpha."""
        aligned = np.array([1.0, 0.0, 0.0])
        updates = [
            update(0, aligned),
            update(1, aligned),
            update(2, np.array([0.0, 1.0, 0.0])),  # orthogonal client
        ]
        alphas = TACO.compute_alphas(updates)
        assert alphas[2] < alphas[0]

    def test_negative_cosine_clamped_to_zero(self):
        updates = [
            update(0, np.array([1.0, 0.0])),
            update(1, np.array([1.0, 0.0])),
            update(2, np.array([1.0, 0.0])),
            update(3, np.array([-1.0, 0.0])),  # opposite to the crowd mean
        ]
        alphas = TACO.compute_alphas(updates)
        assert alphas[3] == 0.0
        assert alphas[0] > 0.0

    def test_zero_updates_degenerate(self):
        updates = [update(0, np.zeros(3)), update(1, np.zeros(3))]
        alphas = TACO.compute_alphas(updates)
        assert all(a == 0.0 for a in alphas.values())

    def test_empty(self):
        assert TACO.compute_alphas([]) == {}


class TestLocalCorrection:
    """Eq. (8): v = g + gamma * (1 - alpha_i) * Delta_t."""

    def test_correction_applied(self):
        taco = TACO(local_lr=0.1, local_steps=4, gamma=0.5)
        payload = {"alpha": 0.2, "global_delta": np.full(3, 2.0)}
        grad = np.ones(3)
        direction = taco.local_direction(0, 0, np.zeros(3), grad, None, payload)
        np.testing.assert_allclose(direction, grad + 0.5 * 0.8 * 2.0)

    def test_gamma_zero_is_plain_sgd(self):
        taco = TACO(local_lr=0.1, local_steps=4, gamma=0.0)
        payload = {"alpha": 0.2, "global_delta": np.full(3, 2.0)}
        grad = np.ones(3)
        np.testing.assert_allclose(
            taco.local_direction(0, 0, np.zeros(3), grad, None, payload), grad
        )

    def test_ablation_correction_off(self):
        taco = TACO(local_lr=0.1, local_steps=4, use_tailored_correction=False)
        payload = {"alpha": 0.2, "global_delta": np.full(3, 2.0)}
        grad = np.ones(3)
        np.testing.assert_allclose(
            taco.local_direction(0, 0, np.zeros(3), grad, None, payload), grad
        )

    def test_initial_alpha_default(self):
        taco = TACO(local_lr=0.1, local_steps=4)
        assert taco.alpha_for(99) == pytest.approx(INITIAL_ALPHA)

    def test_payload_round_zero_has_zero_delta(self):
        taco = TACO(local_lr=0.1, local_steps=4)
        state = ServerState(global_params=np.zeros(3), global_delta=None, num_clients=2)
        payload = taco.client_payload(0, state, {})
        np.testing.assert_allclose(payload["global_delta"], np.zeros(3))

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            TACO(gamma=1.5)
        with pytest.raises(ValueError):
            TACO(kappa=0.0)


class TestAggregation:
    """Eq. (9): alpha-weighted, (1/(K eta_l sum alpha)) normalisation."""

    def test_weighted_by_alpha(self):
        taco = TACO(local_lr=0.1, local_steps=5)
        state = ServerState(global_params=np.zeros(2), num_clients=3)
        updates = [
            update(0, np.array([1.0, 0.0])),
            update(1, np.array([1.0, 0.0])),
            update(2, np.array([0.0, 8.0])),  # big, misaligned
        ]
        delta = taco.aggregate(state, updates)
        alphas = taco.last_alphas
        expected = sum(
            alphas[u.client_id] * u.delta for u in updates
        ) / (5 * 0.1 * sum(alphas.values()))
        np.testing.assert_allclose(delta, expected)
        # The misaligned client must be down-weighted.
        assert alphas[2] < alphas[0]

    def test_ablation_aggregation_off_is_uniform(self):
        taco = TACO(local_lr=0.1, local_steps=5, use_tailored_aggregation=False)
        fedavg = FedAvg(local_lr=0.1, local_steps=5)
        state = ServerState(global_params=np.zeros(2), num_clients=2)
        updates = [update(0, np.array([1.0, 2.0])), update(1, np.array([3.0, 0.0]))]
        np.testing.assert_allclose(
            taco.aggregate(state, updates),
            fedavg.aggregate(ServerState(global_params=np.zeros(2)), updates),
        )

    def test_degenerate_alphas_fall_back_to_uniform(self):
        taco = TACO(local_lr=0.1, local_steps=5)
        state = ServerState(global_params=np.zeros(2), num_clients=2)
        updates = [update(0, np.array([1.0, 0.0])), update(1, np.array([-1.0, 0.0]))]
        delta = taco.aggregate(state, updates)
        assert np.isfinite(delta).all()


class TestFreeloaderExpulsion:
    """Eq. (10) + the lambda strike counter."""

    def _round(self, taco, state, updates):
        taco.aggregate(state, updates)
        taco.post_round(state, updates)
        state.round += 1  # strikes are only counted from round 1 onward

    def test_expelled_after_lambda_strikes(self):
        taco = TACO(local_lr=0.1, local_steps=2, kappa=0.7, expulsion_limit=2)
        state = ServerState(global_params=np.zeros(3), num_clients=3)
        aligned = np.array([1.0, 1.0, 1.0])
        updates = [
            update(0, aligned + 0.5 * np.array([1.0, -1.0, 0.0])),
            update(1, aligned + 0.5 * np.array([-1.0, 1.0, 0.0])),
            update(2, aligned * 0.4),  # freeloader-ish: small & aligned -> high alpha
        ]
        self._round(taco, state, updates)  # round 0: no strikes by design
        assert taco.strikes.get(2, 0) == 0
        self._round(taco, state, updates)
        assert taco.strikes.get(2, 0) >= 1
        assert 2 not in taco.expelled
        self._round(taco, state, updates)
        assert 2 in taco.expelled
        assert list(taco.active_clients(state, [0, 1, 2])) == [0, 1]

    def test_detection_disabled(self):
        taco = TACO(local_lr=0.1, local_steps=2, kappa=0.01, expulsion_limit=1, detect_freeloaders=False)
        state = ServerState(global_params=np.zeros(2), num_clients=2)
        updates = [update(0, np.ones(2)), update(1, np.ones(2))]
        self._round(taco, state, updates)
        assert not taco.expelled

    def test_kappa_one_detects_nothing(self):
        """Table VIII's kappa = 1.0 row: TPR = 0 (alpha < 1 strictly)."""
        taco = TACO(local_lr=0.1, local_steps=2, kappa=1.0, expulsion_limit=1)
        state = ServerState(global_params=np.zeros(2), num_clients=2)
        updates = [update(0, np.ones(2)), update(1, np.ones(2) * 0.1)]
        self._round(taco, state, updates)
        assert not taco.expelled

    def test_reset_clears_state(self):
        taco = TACO(local_lr=0.1, local_steps=2, kappa=0.01, expulsion_limit=1)
        state = ServerState(global_params=np.zeros(2), num_clients=2)
        updates = [update(0, np.ones(2)), update(1, np.ones(2) * 0.2)]
        self._round(taco, state, updates)
        self._round(taco, state, updates)  # round 1: strikes accumulate
        taco.reset()
        assert not taco.expelled
        assert not taco.strikes
        assert taco.alpha_for(0) == pytest.approx(INITIAL_ALPHA)


class TestFinalOutput:
    """Eq. (15): z_T = w_T + (1 - alpha_T)(w_T - w_{T-1})."""

    def test_z_formula(self):
        taco = TACO(local_lr=0.1, local_steps=2)
        taco._alphas = {0: 0.3, 1: 0.5}  # mean 0.4
        state = ServerState(global_params=np.full(2, 2.0), num_clients=2)
        state.prev_global_params = np.full(2, 1.0)
        z = taco.final_output(state)
        np.testing.assert_allclose(z, 2.0 + 0.6 * 1.0)

    def test_z_equals_w_before_any_round(self):
        taco = TACO(local_lr=0.1, local_steps=2)
        state = ServerState(global_params=np.ones(3), num_clients=1)
        np.testing.assert_allclose(taco.final_output(state), np.ones(3))

    def test_z_equals_w_when_alpha_one(self):
        taco = TACO(local_lr=0.1, local_steps=2)
        taco._alphas = {0: 1.0}
        state = ServerState(global_params=np.full(2, 5.0), num_clients=1)
        state.prev_global_params = np.zeros(2)
        np.testing.assert_allclose(taco.final_output(state), np.full(2, 5.0))


class TestFeatureFlags:
    def test_table3_row(self):
        taco = TACO()
        assert taco.has_local_correction
        assert taco.has_aggregation_correction
        assert taco.has_freeloader_detection

    def test_profile_low_overhead(self):
        assert TACO().compute_profile().correction == 1
        assert TACO(use_tailored_correction=False).compute_profile().correction == 0
