"""Algorithm diagnostics: the telemetry hub's round window, the live theory
proxy, and what each strategy publishes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import run_algorithm
from repro.fl.engine import RoundEngine
from repro.fl.history import RoundRecord
from repro.experiments.runner import _RESULT_CACHE, make_experiment_strategy
from repro.fl.state import ClientUpdate
from repro.introspect import live_theory_scalars
from repro.telemetry import (
    NOOP,
    AlgoDiagnostics,
    InMemoryExporter,
    Telemetry,
    get_telemetry,
    telemetry_session,
)


def _update(client_id: int, delta: np.ndarray) -> ClientUpdate:
    return ClientUpdate(
        client_id=client_id,
        delta=np.asarray(delta, dtype=float),
        num_samples=10,
        num_steps=3,
        sim_time=1.0,
    )


class TestCollector:
    def test_default_is_noop(self):
        assert get_telemetry() is NOOP
        assert not get_telemetry().enabled
        NOOP.begin_round(0, "taco")
        NOOP.scalar("taco.mean_alpha", 0.5)
        NOOP.per_client("taco.alpha", {0: 0.5})
        assert NOOP.end_round() is None

    def test_session_installs_and_restores(self):
        with telemetry_session() as telemetry:
            assert get_telemetry() is telemetry
            assert telemetry.enabled
            assert telemetry.exporters == []
        assert get_telemetry() is NOOP

    def test_session_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with telemetry_session():
                raise RuntimeError("boom")
        assert get_telemetry() is NOOP

    def test_round_lifecycle_collects_one_record_per_round(self):
        telemetry = Telemetry()
        telemetry.begin_round(0, "taco")
        telemetry.scalar("taco.mean_alpha", 0.5)
        telemetry.per_client("taco.alpha", {1: 0.4, 0: 0.6})
        telemetry.per_client("taco.strikes", {1: 2.0})
        record = telemetry.end_round()
        assert record.round == 0
        assert record.algorithm == "taco"
        assert record.scalars == {"taco.mean_alpha": 0.5}
        assert record.per_client["taco.alpha"] == {0: 0.6, 1: 0.4}
        assert record.per_client["taco.strikes"] == {1: 2.0}
        assert telemetry.end_round() is None  # the window closed with the record

    def test_publishes_outside_a_round_are_dropped(self):
        telemetry = Telemetry()
        telemetry.scalar("x", 1.0)
        telemetry.per_client("y", {0: 1.0})
        assert telemetry.end_round() is None  # no open round: no-op
        telemetry.begin_round(0, "fedavg")
        record = telemetry.end_round()
        assert record.scalars == {} and record.per_client == {}

    def test_reset_drops_records_and_open_round(self):
        telemetry = Telemetry()
        telemetry.begin_round(0, "fedavg")
        telemetry.scalar("x", 1.0)
        assert telemetry.end_round().round == 0
        telemetry.begin_round(1, "fedavg")
        telemetry.reset()
        telemetry.scalar("x", 1.0)  # dropped: reset closed the round
        assert telemetry.end_round() is None

    def test_end_round_mirrors_record_to_telemetry(self):
        # The window emits nothing itself: the round engine streams the
        # returned record nested in its ``round.record`` event.
        exporter = InMemoryExporter()
        with telemetry_session([exporter]) as telemetry:
            telemetry.begin_round(4, "taco")
            telemetry.scalar("taco.threshold_hits", 2.0)
            telemetry.per_client("taco.strikes", {1: 1.0, 0: 2.0})
            diagnostics = telemetry.end_round()
            assert exporter.events == []
            RoundEngine._stream(RoundRecord(4, 0.5, 1.0, 0.0, 0.0, 0.0, diagnostics=diagnostics))
        events = [e for e in exporter.events if e.get("name") == "round.record"]
        assert len(events) == 1
        fields = events[0]["fields"]["diagnostics"]
        assert fields["round"] == 4
        assert fields["algorithm"] == "taco"
        assert fields["scalars"] == {"taco.threshold_hits": 2.0}
        assert fields["per_client"] == {"taco.strikes": {"0": 2.0, "1": 1.0}}

    def test_diagnostics_round_trip_through_dict(self):
        diag = AlgoDiagnostics(round=2, algorithm="taco")
        diag.merge_scalar("a", 1.5)
        diag.merge_per_client("b", {3: 0.1, 1: 0.2})
        restored = AlgoDiagnostics.from_dict(diag.to_dict())
        assert restored.round == 2
        assert restored.algorithm == "taco"
        assert restored.scalars == diag.scalars
        assert restored.per_client == diag.per_client


class TestLiveTheory:
    def test_returns_theory_scalars_on_heterogeneous_round(self):
        rng = np.random.default_rng(0)
        updates = [_update(i, rng.normal(size=8) + i) for i in range(4)]
        alphas = {0: 0.9, 1: 0.6, 2: 0.4, 3: 0.2}
        scalars = live_theory_scalars(alphas, updates, local_steps=3, local_lr=0.1)
        assert scalars["theory.y_t"] >= 0.0
        assert scalars["theory.corollary2_gap"] >= 0.0
        assert scalars["theory.mean_drift_ratio"] > 0.0

    def test_empty_inputs_yield_empty_dict(self):
        assert live_theory_scalars({}, [], local_steps=3, local_lr=0.1) == {}
        updates = [_update(7, np.ones(4))]
        assert live_theory_scalars({0: 0.5}, updates, local_steps=3, local_lr=0.1) == {}

    def test_degenerate_zero_mean_round_yields_empty_dict(self):
        updates = [_update(0, np.zeros(4)), _update(1, np.zeros(4))]
        alphas = {0: 0.5, 1: 0.5}
        assert live_theory_scalars(alphas, updates, local_steps=3, local_lr=0.1) == {}


@pytest.fixture
def fresh_cache():
    saved = dict(_RESULT_CACHE)
    _RESULT_CACHE.clear()
    yield
    _RESULT_CACHE.clear()
    _RESULT_CACHE.update(saved)


class TestStrategiesPublish:
    def _run(self, config, name):
        exporter = InMemoryExporter()
        with telemetry_session([exporter]):
            result = run_algorithm(
                config, name, strategy=make_experiment_strategy(config, name)
            )
        events = [e["fields"] for e in exporter.events if e.get("name") == "round.record"]
        return events, result

    def test_taco_publishes_alphas_drift_and_theory(self, tiny_config, fresh_cache):
        config = tiny_config.with_overrides(rounds=2)
        events, result = self._run(config, "taco")
        assert len(result.diagnostics) == config.rounds
        assert [d.to_dict() for d in result.diagnostics] == [e["diagnostics"] for e in events]
        alphas = result.history.records[-1].alphas  # alpha_i is a record field
        assert alphas and set(alphas) <= set(range(config.num_clients))
        assert events[-1]["alphas"] == {str(c): a for c, a in alphas.items()}
        record = result.diagnostics[-1]
        assert "taco.drift_cosine" in record.per_client
        assert not {"taco.alpha", "taco.update_norm"} & set(record.per_client)
        assert not {"taco.mean_alpha", "server.test_accuracy"} & set(record.scalars)
        assert "theory.y_t" in record.scalars
        assert "theory.corollary2_gap" in record.scalars

    def test_taco_freeloader_scoreboard(self, tiny_config, fresh_cache):
        # Detection (Eq. 10) only runs when freeloaders are configured, and
        # round 0 is excluded — so look at the last of three rounds.
        config = tiny_config.with_overrides(rounds=3, num_freeloaders=2)
        _, result = self._run(config, "taco")
        record = result.diagnostics[-1]
        assert "taco.threshold_hits" in record.scalars
        # Expulsions are record fields (RoundRecord.expelled), not scalars.
        assert not {"taco.expelled_this_round", "taco.expelled_total"} & set(record.scalars)

    def test_scaffold_publishes_control_norms(self, tiny_config, fresh_cache):
        config = tiny_config.with_overrides(rounds=2)
        _, result = self._run(config, "scaffold")
        record = result.diagnostics[-1]
        assert "scaffold.server_control_norm" in record.scalars
        assert "scaffold.client_control_norm" in record.per_client

    def test_stem_publishes_momentum_norms(self, tiny_config, fresh_cache):
        config = tiny_config.with_overrides(rounds=2)
        _, result = self._run(config, "stem")
        record = result.diagnostics[-1]
        assert "stem.momentum_norm" in record.per_client

    def test_fedprox_publishes_zeta_per_client(self, tiny_config, fresh_cache):
        config = tiny_config.with_overrides(rounds=2)
        _, result = self._run(config, "fedprox")
        record = result.diagnostics[-1]
        participants = result.history.records[-1].participating
        assert sorted(record.per_client["fedprox.zeta"]) == sorted(participants)

    def test_disabled_introspection_leaves_result_diagnostics_empty(
        self, tiny_config, fresh_cache
    ):
        config = tiny_config.with_overrides(rounds=2)
        result = run_algorithm(
            config, "taco", strategy=make_experiment_strategy(config, "taco")
        )
        assert result.diagnostics == []
