"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "taco"
        assert args.dataset == "fmnist"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "adamw"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "imagenet"])

    def test_compare_multiple_algorithms(self):
        args = build_parser().parse_args(
            ["compare", "--algorithms", "fedavg", "taco", "scaffold"]
        )
        assert args.algorithms == ["fedavg", "taco", "scaffold"]

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "flag", ["--drop-rate", "--corrupt-rate", "--straggler-rate",
                 "--transient-rate", "--over-selection"]
    )
    @pytest.mark.parametrize("value", ["-0.1", "1.5", "nan", "two"])
    def test_rates_must_be_probabilities(self, flag, value, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", flag, value])
        err = capsys.readouterr().err
        assert "rate must be in [0, 1]" in err or "expected a number" in err

    def test_rate_boundaries_accepted(self):
        args = build_parser().parse_args(["run", "--drop-rate", "0", "--corrupt-rate", "1"])
        assert args.drop_rate == 0.0
        assert args.corrupt_rate == 1.0

    def test_guard_flags_parsed(self):
        args = build_parser().parse_args(
            ["run", "--guard", "--rollback-window", "5",
             "--max-rollbacks", "2", "--lr-backoff", "0.25"]
        )
        assert args.guard
        assert args.rollback_window == 5
        assert args.max_rollbacks == 2
        assert args.lr_backoff == 0.25

    def test_guard_off_by_default(self):
        assert not build_parser().parse_args(["run"]).guard

    @pytest.mark.parametrize("value", ["0", "1.5", "-0.5"])
    def test_lr_backoff_range_enforced(self, value, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--lr-backoff", value])
        assert "backoff must be in (0, 1]" in capsys.readouterr().err

    def test_no_quarantine_flag(self):
        args = build_parser().parse_args(["run", "--no-quarantine"])
        assert args.no_quarantine

    def test_nan_stealth_corrupt_mode_accepted(self):
        args = build_parser().parse_args(["run", "--corrupt-mode", "nan-stealth"])
        assert args.corrupt_mode == ["nan-stealth"]


class TestCommands:
    COMMON = [
        "--dataset", "adult", "--clients", "3", "--rounds", "2",
        "--local-steps", "2", "--train-size", "120", "--test-size", "50",
    ]

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "taco" in out
        assert "fmnist" in out
        assert "table5" in out

    def test_run_table_output(self, capsys):
        assert main(["run", "--algorithm", "fedavg", *self.COMMON]) == 0
        out = capsys.readouterr().out
        assert "fedavg" in out
        assert "adult" in out

    def test_run_json_output(self, capsys):
        assert main(["run", "--algorithm", "taco", "--json", *self.COMMON]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "taco"
        assert payload["dataset"] == "adult"
        assert len(payload["accuracies"]) == 2
        assert isinstance(payload["diverged"], bool)

    def test_compare(self, capsys):
        assert main(["compare", "--algorithms", "fedavg", "taco", *self.COMMON]) == 0
        out = capsys.readouterr().out
        assert "fedavg" in out and "taco" in out

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "table99"]) == 2

    def test_guarded_chaos_run_recovers(self, capsys):
        # End-to-end through the CLI: stealth-NaN uploads + disabled
        # quarantine + hot server lr must be survived when --guard is on.
        assert main([
            "run", "--algorithm", "fedavg", "--json", *self.COMMON,
            "--seed", "3", "--global-lr", "2.0",
            "--corrupt-rate", "0.5", "--corrupt-mode", "nan-stealth",
            "--no-quarantine", "--guard", "--lr-backoff", "0.25",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diverged"] is False
        assert payload["guard"]["rollbacks"] >= 1
        assert payload["guard"]["lr_scale"] < 1.0

    def test_json_guard_summary_present_when_clean(self, capsys):
        assert main(["run", "--algorithm", "fedavg", "--json", *self.COMMON, "--guard"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["guard"]["rollbacks"] == 0
        assert payload["guard"]["skips"] == 0
        assert payload["guard"]["aborted"] is False

    @pytest.mark.parametrize("argv", [
        ["run", "--clients", "0"],
        ["run", "--rounds", "0"],
        ["compare", "--clients", "10", "--freeloaders", "50"],
    ])
    def test_invalid_config_is_usage_error(self, argv, capsys):
        assert main([*argv, "--dataset", "adult"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1  # one line, no traceback

    def test_seed_flag_changes_run(self, capsys):
        main(["run", "--algorithm", "fedavg", "--json", *self.COMMON, "--seed", "1"])
        first = json.loads(capsys.readouterr().out)
        main(["run", "--algorithm", "fedavg", "--json", *self.COMMON, "--seed", "2"])
        second = json.loads(capsys.readouterr().out)
        assert first["accuracies"] != second["accuracies"]


class TestUnsatisfiablePartition:
    """A Dirichlet draw that leaves a client short is one usage error."""

    DIRICHLET = ["--dataset", "adult", "--partition", "dirichlet", "--phi", "0.01",
                 "--clients", "40", "--rounds", "1"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", *DIRICHLET],
            ["compare", *DIRICHLET, "--algorithms", "fedavg"],
            ["experiment", "table2", "--datasets", "adult"],
        ],
        ids=["run", "compare", "experiment"],
    )
    def test_one_line_usage_error(self, argv, capsys, monkeypatch):
        if argv[0] == "experiment":
            # Every paper experiment's own base partitions; give table2 one
            # that cannot, with the same settings as DIRICHLET.
            default = cli.default_config_for
            monkeypatch.setattr(
                cli,
                "default_config_for",
                lambda name: default(name).with_overrides(
                    partition="dirichlet", phi=0.01, num_clients=40, rounds=1
                ),
            )
        assert main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: Dirichlet partition with phi=")
        assert "clients min_samples_per_client=2" in lines[0]


class TestTable9Base:
    """``experiment table9 --datasets D`` keeps Table IX's own small base."""

    @pytest.mark.parametrize("dataset", ["adult", "fmnist"])
    def test_datasets_flag_swaps_only_the_dataset(self, dataset, monkeypatch, capsys):
        from repro.experiments import table9_attack_matrix

        specs = []

        def stub_grid(spec):
            specs.append(spec)
            return {"spec": {"attacks": [], "defences": [], "phis": [], "algorithms": []},
                    "cells": [], "verdicts": []}

        monkeypatch.setattr(table9_attack_matrix, "run_matrix", stub_grid)
        assert main(["experiment", "table9", "--datasets", dataset]) == 0
        (spec,) = specs
        default = table9_attack_matrix.default_spec()
        assert spec.base == default.base.with_overrides(dataset=dataset)
        assert spec.base.num_clients == 8 and spec.base.train_size == 240


class TestScenarios:
    def test_parser_rejects_unknown_attack_and_defence(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "--attacks", "backdoor"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "--defences", "firewall"])

    def test_list_shows_attacks_and_defences(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "attacks:" in out and "ipm" in out
        assert "defences:" in out and "geomedian" in out
        assert "table9" in out

    def test_smoke_grid_end_to_end(self, capsys, tmp_path):
        out = tmp_path / "matrix.json"
        report = tmp_path / "matrix.html"
        argv = [
            "scenarios", "--smoke", "--attacks", "ipm",
            "--defences", "none", "median", "--seeds", "0",
            "--out", str(out), "--report", str(report),
        ]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "attack × defence" in text
        assert "breakdown verdicts" in text
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["kind"] == "scenario-matrix"
        assert len(payload["cells"]) == 4  # (clean + ipm) x (none, median)
        html = report.read_text(encoding="utf-8")
        assert "matrix-table" in html and "Breakdown verdicts" in html

        # Determinism contract: a second run differs only in `timing`.
        rerun = tmp_path / "matrix2.json"
        assert main(argv[:-4] + ["--out", str(rerun)]) == 0
        capsys.readouterr()
        second = json.loads(rerun.read_text(encoding="utf-8"))
        payload.pop("timing"), second.pop("timing")
        assert payload == second

        # `repro report` accepts the matrix artifact in both modes.
        assert main(["report", str(out), "--ascii"]) == 0
        assert "attack × defence" in capsys.readouterr().out
        html_out = tmp_path / "report.html"
        assert main(["report", str(out), "--out", str(html_out)]) == 0
        capsys.readouterr()
        assert "matrix-table" in html_out.read_text(encoding="utf-8")

    def test_invalid_grid_is_reported(self, capsys):
        assert main(["scenarios", "--attackers", "99", "--attacks", "ipm",
                     "--defences", "none", "--algorithms", "fedavg",
                     "--clients", "4", "--rounds", "1"]) == 2
        assert "invalid scenario grid" in capsys.readouterr().err


class TestFederate:
    def test_smoke_json(self, capsys):
        assert main(["federate", "--smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["population"] == 1000
        assert payload["cohort_size"] == 8
        assert payload["buffer_size"] == 4
        assert payload["rounds"] == 3
        assert isinstance(payload["final_accuracy"], float)
        assert payload["diverged"] is False
        assert payload["virtual_time"] > 0

    def test_smoke_with_overrides(self, capsys):
        assert main(["federate", "--smoke", "--json", "--algorithm", "taco",
                     "--rounds", "2", "--buffer", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rounds"] == 2
        assert payload["buffer_size"] == 8
        # B == cohort: the sync-equivalent setting has no staleness at all.
        assert payload["mean_staleness"] == 0.0

    def test_table_output(self, capsys):
        assert main(["federate", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "population" in out
        assert "1,000" in out or "1000" in out

    def test_runrecord_written(self, tmp_path, capsys):
        assert main(["federate", "--smoke", "--json",
                     "--record-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        records = list(tmp_path.rglob("runrecord.json"))
        assert len(records) == 1
        record = json.loads(records[0].read_text(encoding="utf-8"))
        assert record["config"]["population"] == 1000

    def test_unknown_scheme_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["federate", "--smoke", "--scheme", "roundrobin"])
        assert "invalid choice" in capsys.readouterr().err

    def test_checkpoint_resume_round_trip(self, tmp_path, capsys):
        checkpoints = tmp_path / "ckpt"
        assert main(["federate", "--smoke", "--json", "--checkpoint-every", "3",
                     "--checkpoint-dir", str(checkpoints)]) == 0
        capsys.readouterr()
        assert main(["federate", "--smoke", "--json", "--rounds", "5",
                     "--checkpoint-dir", str(checkpoints), "--resume"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rounds"] == 5

    @pytest.mark.parametrize("writer, reader", [("run", "federate"), ("federate", "run")])
    def test_resume_from_other_engine_is_usage_error(self, tmp_path, capsys, writer, reader):
        argv = {
            "run": ["run", *TestCommands.COMMON],
            "federate": ["federate", "--smoke", "--rounds", "2"],
        }
        checkpoints = str(tmp_path / "ckpt")
        assert main([*argv[writer], "--checkpoint-every", "1",
                     "--checkpoint-dir", checkpoints]) == 0
        capsys.readouterr()
        assert main([*argv[reader], "--checkpoint-dir", checkpoints, "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot resume")
        assert err.count("\n") == 1  # one line, no traceback

    def test_resume_under_other_dtype_is_usage_error(self, tmp_path, capsys):
        checkpoints = str(tmp_path / "ckpt")
        assert main(["run", *TestCommands.COMMON, "--checkpoint-every", "1",
                     "--checkpoint-dir", checkpoints]) == 0
        capsys.readouterr()
        assert main(["run", *TestCommands.COMMON, "--dtype", "float32",
                     "--checkpoint-dir", checkpoints, "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot resume")
        assert "float64" in err and "float32" in err
        assert err.count("\n") == 1  # one line, no traceback


class TestServingObservability:
    def test_federate_trace_deliveries_summary(self, capsys):
        assert main(["federate", "--smoke", "--json", "--trace-deliveries"]) == 0
        payload = json.loads(capsys.readouterr().out)
        serving = payload["serving"]
        assert serving["deliveries"] >= 12
        assert len(serving["rounds"]) == payload["rounds"]
        for stats in serving["rounds"]:
            assert stats["e2e_p99"] >= stats["e2e_p50"] > 0

    def test_federate_without_flag_has_no_serving_key(self, capsys):
        assert main(["federate", "--smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "serving" not in payload

    def test_traced_runrecord_has_serving_section(self, tmp_path, capsys):
        assert main(["federate", "--smoke", "--json", "--trace-deliveries",
                     "--record-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        (record_path,) = tmp_path.rglob("runrecord.json")
        record = json.loads(record_path.read_text(encoding="utf-8"))
        assert record["serving"]["deliveries"] >= 12

    def test_loadtest_writes_payload_and_table(self, tmp_path, capsys):
        out = tmp_path / "loadtest.json"
        assert main(["loadtest", "--rates", "0.5", "2", "--bursts", "8",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "serving capacity" in stdout
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload["serving"]["sweep"]) == 2

    def test_loadtest_json_output(self, capsys):
        assert main(["loadtest", "--rates", "0.5", "--bursts", "8",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["serving"]["sweep"][0]["rate_factor"] == 0.5

    def test_loadtest_rejects_descending_rates(self, capsys):
        assert main(["loadtest", "--rates", "4", "1"]) == 2
        assert "invalid load test" in capsys.readouterr().err

    def test_trace_export_round_trip(self, tmp_path, capsys):
        jsonl = tmp_path / "serving.jsonl"
        assert main(["federate", "--smoke", "--trace-deliveries", "--json",
                     "--telemetry", f"jsonl:{jsonl}"]) == 0
        capsys.readouterr()
        out = tmp_path / "chrome.json"
        assert main(["trace", "export", str(jsonl), "--out", str(out)]) == 0
        assert "trace events" in capsys.readouterr().out
        trace = json.loads(out.read_text(encoding="utf-8"))
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {"serving.delivery", "serving.flush"} <= {e["name"] for e in spans}
        assert all(isinstance(e["ts"], int) for e in spans)

    @pytest.mark.parametrize(
        "content, message",
        [
            ("", "no span events"),
            ('{"type": "span", "start": 0, "end": 1}', "line 1: a span needs"),
            ('{"type": "span", "name": "x", "end": 1}', "line 1: a span needs"),
            ('{"type": "span", "name": "x", "start": 0}', "line 1: a span needs"),
            ("[1, 2]", "line 1 is not a JSON object"),
            ('{"type": "metrics"}\n{"type": "span", "name": "x", "start": "0", "end": 1}',
             "line 2: a span needs"),
            ('{"type": "span", "name": "x", "start": Infinity, "end": 1}',
             "line 1: a span needs"),
            ('{"type": "span", "name": "x", "start": 0, "end": 1, "attributes": []}',
             "line 1: a span needs"),
        ],
        ids=["empty", "no-name", "no-start", "no-end", "array", "text-start",
             "infinite-start", "list-attributes"],
    )
    def test_trace_export_empty_source_is_usage_error(self, tmp_path, capsys, content, message):
        """An empty or malformed trace is one line on stderr and exit 2, not a traceback."""
        source = tmp_path / "trace.jsonl"
        source.write_text(content)
        assert main(["trace", "export", str(source),
                     "--out", str(tmp_path / "chrome.json")]) == 2
        err = capsys.readouterr().err
        assert message in err and err.startswith("cannot export trace:")
        assert err.count("\n") == 1
