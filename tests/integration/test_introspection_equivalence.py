"""Acceptance: collecting algorithm diagnostics never changes training numerics.

Two fixed-seed runs — one under an exporter-less ``telemetry_session()``
(what ``--introspect`` installs), one with the no-op default — must
produce byte-identical final parameter vectors.  The round window only
*reads* values the round already produced (alphas, update deltas); any
write-back or dtype round-trip anywhere in the publish path would surface
here as a ULP of drift.
"""

import numpy as np
import pytest

from repro.experiments import run_algorithm
from repro.experiments.runner import _RESULT_CACHE, make_experiment_strategy
from repro.telemetry import InMemoryExporter, telemetry_session


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
        exporter = InMemoryExporter()
        with telemetry_session([exporter]):
            observed = run_algorithm(
                config, algorithm, strategy=make_experiment_strategy(config, algorithm)
            )

        assert plain.final_params.tobytes() == observed.final_params.tobytes()
        np.testing.assert_array_equal(
            plain.history.accuracies, observed.history.accuracies
        )
        # The observed run actually collected something, one record per round.
        events = [e["fields"] for e in exporter.events if e.get("name") == "round.record"]
        assert [d.round for d in observed.diagnostics] == list(range(config.rounds))
        assert [d.to_dict() for d in observed.diagnostics] == [
            fields["diagnostics"] for fields in events
        ]
        assert plain.diagnostics == []
