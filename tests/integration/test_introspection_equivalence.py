"""Acceptance: enabling introspection never changes training numerics.

Two fixed-seed runs — one under ``introspection_session()``, one with the
no-op default — must produce byte-identical final parameter vectors.  The
collector only *reads* values the round already produced (alphas, update
deltas); any write-back or dtype round-trip anywhere in the publish path
would surface here as a ULP of drift.
"""

import numpy as np
import pytest

from repro.experiments import run_algorithm
from repro.experiments.runner import _RESULT_CACHE, make_experiment_strategy
from repro.introspect import introspection_session


@pytest.fixture
def fresh_cache():
    """Isolate the memoised-run cache (explicit strategies bypass it anyway)."""
    saved = dict(_RESULT_CACHE)
    _RESULT_CACHE.clear()
    yield
    _RESULT_CACHE.clear()
    _RESULT_CACHE.update(saved)


class TestIntrospectionEquivalence:
    @pytest.mark.parametrize("algorithm", ["fedavg", "scaffold", "stem", "taco"])
    def test_two_round_run_byte_equal(self, tiny_config, fresh_cache, algorithm):
        config = tiny_config.with_overrides(rounds=2)

        plain = run_algorithm(
            config, algorithm, strategy=make_experiment_strategy(config, algorithm)
        )
        with introspection_session() as introspector:
            observed = run_algorithm(
                config, algorithm, strategy=make_experiment_strategy(config, algorithm)
            )

        assert plain.final_params.tobytes() == observed.final_params.tobytes()
        np.testing.assert_array_equal(
            plain.history.accuracies, observed.history.accuracies
        )
        # The observed run actually collected something.
        assert len(introspector.records) == config.rounds
        assert observed.diagnostics == introspector.records
        assert plain.diagnostics == []
