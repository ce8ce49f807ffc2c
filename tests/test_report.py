"""``repro report`` / ``repro diff``: rendering and exit codes."""

from __future__ import annotations

import json

import pytest

from repro.analysis.runrecords import (
    accuracy_series,
    flatten_final_fields,
    load_records,
    per_client_envelope,
    record_label,
    scalar_series,
)
from repro.cli import main
from repro.experiments import run_algorithm
from repro.experiments.runner import _RESULT_CACHE, make_experiment_strategy
from repro.report import (
    diff_records,
    has_regressions,
    render_ascii,
    render_deltas,
    render_html,
)
from repro.runrecord import build_run_record, load_run_record, write_run_record
from repro.telemetry import telemetry_session


@pytest.fixture(scope="module")
def taco_record_path(tmp_path_factory):
    """One introspected TACO run record, shared across this module."""
    from repro.experiments import default_config_for

    saved = dict(_RESULT_CACHE)
    _RESULT_CACHE.clear()
    config = default_config_for("adult").with_overrides(
        num_clients=4,
        rounds=3,
        local_steps=3,
        batch_size=16,
        train_size=200,
        test_size=80,
        width_multiplier=0.3,
    )
    with telemetry_session():
        result = run_algorithm(
            config, "taco", strategy=make_experiment_strategy(config, "taco")
        )
    record = build_run_record(result, algorithm="taco", config=config)
    path = tmp_path_factory.mktemp("records") / "runrecord.json"
    write_run_record(record, path)
    _RESULT_CACHE.clear()
    _RESULT_CACHE.update(saved)
    return path


class TestAnalysisHelpers:
    def test_series_extraction(self, taco_record_path):
        (record,) = load_records([taco_record_path])
        assert "taco (adult, s0)" == record_label(record)
        accuracies = accuracy_series(record)
        assert len(accuracies) == 3
        rounds, y_t = scalar_series(record, "theory.y_t")
        assert len(rounds) == len(y_t) > 0
        envelope = per_client_envelope(record, "alphas")
        assert set(envelope) == {"min", "mean", "max"}
        assert envelope["mean"][0] == [0, 1, 2]  # alpha_i is read from every round
        assert all(
            lo <= mid <= hi
            for lo, mid, hi in zip(
                envelope["min"][1], envelope["mean"][1], envelope["max"][1]
            )
        )
        flat = flatten_final_fields(record)
        assert "final.final_accuracy" in flat
        assert "timing.elapsed_seconds" in flat


class TestReport:
    def test_html_report_contains_taco_panels(self, taco_record_path):
        records = load_records([taco_record_path])
        html = render_html(records)
        assert html.startswith("<!DOCTYPE html>")
        for needle in (
            "α spread",
            "drift cosine",
            "Over-correction",
            "y_t",
            "corollary2_gap",
            "Test accuracy",
            "prefers-color-scheme: dark",
            "<table",  # accessibility table view
        ):
            assert needle in html, f"missing {needle!r}"
        # Self-contained: no external fetches (the SVG xmlns URI is not one).
        for fetch in ("<script src=", "<link ", "@import", "url(http", 'src="http'):
            assert fetch not in html

    def test_alpha_panel_without_diagnostics(self, tiny_config):
        """alpha_i and expulsions are round fields: a TACO record written
        with telemetry off still shows its alpha spread."""
        config = tiny_config.with_overrides(rounds=2)
        result = run_algorithm(config, "taco", strategy=make_experiment_strategy(config, "taco"))
        record = build_run_record(result, algorithm="taco", config=config)
        assert record["diagnostics"] == []
        assert "α spread" in render_html([record])
        assert "alpha spread" in render_ascii([record])

    def test_ascii_report_renders(self, taco_record_path):
        records = load_records([taco_record_path])
        text = render_ascii(records)
        assert "taco (adult, s0)" in text
        assert "accuracy" in text.lower()

    def test_report_command_writes_html(self, taco_record_path, tmp_path, capsys):
        out = tmp_path / "nested" / "report.html"
        code = main(["report", str(taco_record_path), "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "α spread" in out.read_text()

    def test_report_command_ascii_to_stdout(self, taco_record_path, capsys):
        code = main(["report", str(taco_record_path), "--ascii"])
        assert code == 0
        assert "taco (adult, s0)" in capsys.readouterr().out

    def test_report_command_rejects_bad_record(self, tmp_path, capsys):
        bad = tmp_path / "runrecord.json"
        bad.write_text("{}")
        assert main(["report", str(bad)]) == 2
        assert "cannot load" in capsys.readouterr().err


class TestDiff:
    def test_identical_records_pass(self, taco_record_path, capsys):
        code = main(["diff", str(taco_record_path), str(taco_record_path)])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_accuracy_drop_fails_with_delta_table(
        self, taco_record_path, tmp_path, capsys
    ):
        record = load_run_record(taco_record_path)
        record["final"]["final_accuracy"] -= 0.5
        tampered = tmp_path / "runrecord.json"
        write_run_record(record, tampered)
        code = main(["diff", str(taco_record_path), str(tampered)])
        captured = capsys.readouterr()
        assert code == 1
        assert "final.final_accuracy" in captured.out  # per-field delta table
        assert "REGRESSION" in captured.err

    def test_tolerance_flag_allows_the_drop(self, taco_record_path, tmp_path):
        record = load_run_record(taco_record_path)
        record["final"]["final_accuracy"] -= 0.5
        record["final"]["output_accuracy"] -= 0.5
        record["final"]["best_accuracy"] -= 0.5
        tampered = tmp_path / "runrecord.json"
        write_run_record(record, tampered)
        code = main(
            ["diff", str(taco_record_path), str(tampered), "--acc-tolerance", "0.6"]
        )
        assert code == 0

    def test_divergence_is_a_regression(self, taco_record_path, tmp_path):
        record = load_run_record(taco_record_path)
        record["final"]["diverged"] = True
        tampered = tmp_path / "runrecord.json"
        write_run_record(record, tampered)
        assert main(["diff", str(taco_record_path), str(tampered)]) == 1

    def test_wall_time_is_informational(self, taco_record_path, tmp_path, capsys):
        record = load_run_record(taco_record_path)
        record["timing"]["elapsed_seconds"] *= 10.0
        slower = tmp_path / "runrecord.json"
        write_run_record(record, slower)
        assert main(["diff", str(taco_record_path), str(slower)]) == 0
        assert "timing.elapsed_seconds" in capsys.readouterr().out

    def test_diff_records_api(self, taco_record_path):
        record = load_run_record(taco_record_path)
        deltas = diff_records(record, record)
        assert not has_regressions(deltas)
        assert "final.final_accuracy" in render_deltas(deltas)

    def test_missing_operands_is_usage_error(self, capsys):
        assert main(["diff"]) == 2
        assert "needs two run records" in capsys.readouterr().err


class TestServingReport:
    @pytest.fixture(scope="class")
    def loadtest_payload_path(self, tmp_path_factory):
        from repro.serving import LoadTestConfig, run_loadtest

        payload = run_loadtest(LoadTestConfig(rate_factors=(0.5, 2.0), bursts=8))
        path = tmp_path_factory.mktemp("serving") / "loadtest.json"
        path.write_text(json.dumps(payload))
        return path

    def test_is_serving_payload_routing(self, loadtest_payload_path):
        from repro.report import is_serving_payload

        payload = json.loads(loadtest_payload_path.read_text())
        assert is_serving_payload(payload)
        assert not is_serving_payload({"benchmarks": {}})
        assert not is_serving_payload([])

    def test_render_serving_html(self, loadtest_payload_path):
        from repro.report import render_html

        payload = json.loads(loadtest_payload_path.read_text())
        page = render_html([], serving=[payload])
        assert "Throughput vs offered load" in page
        assert "Delivery latency vs offered load" in page
        assert "<svg" in page

    def test_render_serving_ascii(self, loadtest_payload_path):
        from repro.report import render_serving_ascii

        payload = json.loads(loadtest_payload_path.read_text())
        text = render_serving_ascii(payload)
        assert "serving capacity" in text
        assert "throughput" in text

    def test_report_command_routes_serving_payload(
        self, loadtest_payload_path, tmp_path, capsys
    ):
        out = tmp_path / "serving.html"
        code = main(["report", str(loadtest_payload_path), "--out", str(out)])
        assert code == 0
        assert "Throughput vs offered load" in out.read_text()
        code = main(["report", str(loadtest_payload_path), "--ascii"])
        assert code == 0
        assert "serving capacity" in capsys.readouterr().out

    def test_report_command_mixes_records_and_serving(
        self, taco_record_path, loadtest_payload_path, tmp_path
    ):
        out = tmp_path / "mixed.html"
        code = main(
            ["report", str(taco_record_path), str(loadtest_payload_path),
             "--out", str(out)]
        )
        assert code == 0
        page = out.read_text()
        assert "Test accuracy" in page
        assert "Throughput vs offered load" in page
