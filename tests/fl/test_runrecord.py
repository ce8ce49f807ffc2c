"""Run records: schema validation, determinism, and emission points."""

from __future__ import annotations

import json

import pytest

from repro.experiments import run_algorithm
from repro.experiments.runner import _RESULT_CACHE, make_experiment_strategy
from repro.runrecord import (
    RunRecordError,
    SCHEMA_VERSION,
    active_record_dir,
    build_run_record,
    canonical_json,
    load_run_record,
    recording_session,
    run_slug,
    validate_run_record,
    write_run_record,
)
from repro.telemetry import telemetry_session


@pytest.fixture
def fresh_cache():
    saved = dict(_RESULT_CACHE)
    _RESULT_CACHE.clear()
    yield
    _RESULT_CACHE.clear()
    _RESULT_CACHE.update(saved)


def _fresh_run(config, name, introspect=False):
    if introspect:
        with telemetry_session():
            return run_algorithm(
                config, name, strategy=make_experiment_strategy(config, name)
            )
    return run_algorithm(config, name, strategy=make_experiment_strategy(config, name))


class TestSchema:
    def _valid_record(self, tiny_config):
        config = tiny_config.with_overrides(rounds=2)
        result = _fresh_run(config, "fedavg")
        return build_run_record(result, algorithm="fedavg", config=config)

    def test_build_produces_valid_record(self, tiny_config, fresh_cache):
        record = self._valid_record(tiny_config)
        assert validate_run_record(record) is record
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["algorithm"] == "fedavg"
        assert record["config"]["dataset"] == tiny_config.dataset
        assert len(record["rounds"]) == 2
        assert record["final"]["rounds"] == 2

    def test_wrong_version_rejected(self, tiny_config, fresh_cache):
        record = self._valid_record(tiny_config)
        record["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(RunRecordError, match="schema version"):
            validate_run_record(record)

    def test_missing_key_rejected(self, tiny_config, fresh_cache):
        record = self._valid_record(tiny_config)
        del record["traffic"]
        with pytest.raises(RunRecordError, match="missing keys"):
            validate_run_record(record)

    def test_wall_clock_leak_into_rounds_rejected(self, tiny_config, fresh_cache):
        record = self._valid_record(tiny_config)
        record["rounds"][0]["round_wall_time"] = 0.5
        with pytest.raises(RunRecordError, match="wall-clock"):
            validate_run_record(record)

    def test_non_dict_rejected(self):
        with pytest.raises(RunRecordError, match="must be an object"):
            validate_run_record([1, 2, 3])

    def test_serving_section_optional_and_validated(self, tiny_config, fresh_cache):
        record = self._valid_record(tiny_config)
        assert "serving" not in record  # absent unless delivery tracing ran
        record["serving"] = {"deliveries": 4, "rounds": [{"round": 0}]}
        assert validate_run_record(record) is record
        record["serving"] = {"deliveries": 4}  # no rounds list
        with pytest.raises(RunRecordError, match="serving"):
            validate_run_record(record)
        record["serving"] = ["not", "a", "dict"]
        with pytest.raises(RunRecordError, match="serving"):
            validate_run_record(record)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "runrecord.json"
        path.write_text("{not json")
        with pytest.raises(RunRecordError, match="not valid JSON"):
            load_run_record(path)

    def test_write_then_load_round_trips(self, tiny_config, fresh_cache, tmp_path):
        record = self._valid_record(tiny_config)
        path = write_run_record(record, tmp_path / "runrecord.json")
        loaded = load_run_record(path)
        assert loaded == json.loads(canonical_json(record))


class TestDeterminism:
    def test_same_seed_records_byte_identical_modulo_timing(
        self, tiny_config, fresh_cache
    ):
        """All wall-clock state lives under the single top-level 'timing' key."""
        config = tiny_config.with_overrides(rounds=2)
        records = []
        for _ in range(2):
            result = _fresh_run(config, "taco", introspect=True)
            records.append(build_run_record(result, algorithm="taco", config=config))
        for record in records:
            record.pop("timing")
        assert canonical_json(records[0]) == canonical_json(records[1])

    def test_diagnostics_present_and_deterministic(self, tiny_config, fresh_cache):
        config = tiny_config.with_overrides(rounds=2)
        result = _fresh_run(config, "taco", introspect=True)
        record = build_run_record(result, algorithm="taco", config=config)
        assert len(record["diagnostics"]) == 2
        assert "taco.drift_cosine" in record["diagnostics"][0]["per_client"]
        assert record["rounds"][0]["alphas"]


class TestEmission:
    def test_recording_session_emits_per_run(self, tiny_config, fresh_cache, tmp_path):
        config = tiny_config.with_overrides(rounds=2)
        assert active_record_dir() is None
        with recording_session(tmp_path / "runs") as record_dir:
            assert active_record_dir() == record_dir
            run_algorithm(config, "fedavg")
        assert active_record_dir() is None
        path = tmp_path / "runs" / run_slug(config, "fedavg") / "runrecord.json"
        assert path.exists()
        record = load_run_record(path)
        assert record["algorithm"] == "fedavg"
        assert record["config"]["seed"] == config.seed

    def test_cache_hit_still_emits(self, tiny_config, fresh_cache, tmp_path):
        config = tiny_config.with_overrides(rounds=2)
        run_algorithm(config, "fedavg")  # populate the memoised-result cache
        with recording_session(tmp_path / "runs"):
            run_algorithm(config, "fedavg")  # served from cache
        path = tmp_path / "runs" / run_slug(config, "fedavg") / "runrecord.json"
        assert load_run_record(path)["final"]["rounds"] == 2

    def test_experiment_module_emits_records(self, fresh_cache, tmp_path):
        from repro.experiments import default_config_for, fig4_time_to_accuracy

        config = default_config_for("adult").with_overrides(
            num_clients=3,
            rounds=2,
            local_steps=2,
            train_size=120,
            test_size=50,
            width_multiplier=0.3,
        )
        with recording_session(tmp_path / "runs"):
            fig4_time_to_accuracy.run(config)
        emitted = sorted(p.parent.name for p in (tmp_path / "runs").glob("*/runrecord.json"))
        assert emitted  # one directory per algorithm the experiment ran
        assert any("taco" in name for name in emitted)

    def test_async_runs_write_one_record_per_cell(self, tmp_path):
        # run_federation writes where run_algorithm does, one directory per
        # (dataset, algorithm, population, buffer, seed).
        from repro.experiments import table10_federation

        with recording_session(tmp_path / "runs"):
            table10_federation.run(populations=(1_000,), buffers=(4, 8), rounds=1)
        emitted = sorted(p.parent.name for p in (tmp_path / "runs").glob("*/runrecord.json"))
        assert emitted == ["adult-fedavg-p1000-b4-s0", "adult-fedavg-p1000-b8-s0"]
        for name in emitted:
            record = load_run_record(tmp_path / "runs" / name / "runrecord.json")
            assert record["config"]["buffer_size"] == int(name.split("-b")[1].split("-")[0])
