"""Self-tests of the benchmark: ``python -m pytest bench/tests``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_nested_spans_charge_self_time_exclusively():
    clock = FakeClock()
    tracer = Tracer(clock=clock, keep_spans=True)
    outer, inner = tracer.layer("outer"), tracer.layer("inner")
    tracer.enter(outer)
    clock.advance(1.0)
    tracer.enter(inner)
    clock.advance(2.0)
    tracer.exit()
    clock.advance(0.5)
    tracer.enter(inner)
    clock.advance(0.25)
    tracer.exit()
    tracer.exit()
    assert tracer.totals() == {"outer": (1.5, 1), "inner": (2.25, 2)}


def test_recursive_layer_counts_each_instant_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def work(depth):
        clock.advance(1.0)
        if depth:
            traced(depth - 1)
        clock.advance(1.0)

    traced = tracer.wrap("layer", work)
    traced(2)
    assert tracer.totals() == {"layer": (6.0, 3)}


def test_raising_span_is_closed_and_charged():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fail():
        clock.advance(3.0)
        raise KeyError("boom")

    traced = tracer.wrap("failing", fail)
    outer = tracer.layer("outer")
    tracer.enter(outer)
    with pytest.raises(KeyError):
        traced()
    clock.advance(1.0)
    tracer.exit()
    assert tracer.totals() == {"outer": (1.0, 1), "failing": (3.0, 1)}


def test_spans_are_written_as_exportable_jsonl(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock=clock, keep_spans=True, run_id="r1")
    traced = tracer.wrap("a", lambda: clock.advance(1.0))
    tracer.wrap("b", traced)()
    path = tmp_path / "spans.jsonl"
    assert tracer.write_jsonl(path) == 2
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["type"] for e in events] == ["span", "span"]
    assert events[1]["attributes"] == {"run": "r1", "id": 1, "parent": 0}
    assert events[1]["end"] - events[1]["start"] == 1.0


def test_benchmark_json_is_within_the_declared_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [e["name"] for e in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and "\n" not in workload["why"]
        assert len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.fullmatch(metric["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_declared_workloads_and_layers_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(child.WORKLOADS)
    stats = ("self_s", "calls", "share")
    expected = [f"{layer}.{stat}" for layer in layers.boundaries() for stat in stats]
    expected += ["unattributed.self_s", "unattributed.share",
                 "trace.overhead_ratio", "federation.useful_ratio"]
    assert [m["name"] for m in SPEC["per_layer"]] == expected


def test_layer_install_wraps_and_restores_public_functions():
    from repro.nn.module import Module

    original = vars(Module)["__call__"]
    restore = layers.install(Tracer())
    try:
        assert vars(Module)["__call__"] is not original
    finally:
        restore()
    assert vars(Module)["__call__"] is original


def test_smoke_run_reports_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    result = json.loads(out.read_text())["workloads"]
    assert list(result) == [w["name"] for w in SPEC["workloads"]]
    for summary in result.values():
        assert summary["correct"] and summary["failed"] == 0
        assert [m["name"] for m in SPEC["end_to_end"]] == list(summary["end_to_end"])
        assert [m["name"] for m in SPEC["per_layer"]] == list(summary["per_layer"])
        assert summary["per_layer"]["unattributed.share"]["value"] <= 0.10
    assert elapsed < 20.0


def fake_child(digest="d" * 64, traced=False, loss=0.5):
    return {
        "traced": traced, "wall_s": 1.0, "setup_s": 0.2, "run_s": 1.0,
        "local_rounds": 10, "local_steps": 40, "aggregated": 10, "errors": [],
        "digest": digest, "final_loss": loss, "final_accuracy": 0.9,
        "time_to_target_s": 0.5, "round_intervals": [0.1, 0.11, 0.12],
        "peak_rss_mb": 50.0,
    }


def test_check_fails_a_tampered_digest(monkeypatch):
    children = [fake_child(), fake_child(), fake_child(digest="e" * 64)]
    monkeypatch.setattr(run, "measure", lambda *args: [dict(c) for c in children])
    monkeypatch.setattr(run, "baseline_loss", lambda *args: None)
    assert run.main(["--workload", "cnn_sync"]) == 0
    assert run.main(["--workload", "cnn_sync", "--check"]) == 1
    summary = run.summarize("cnn_sync", 0, "full", [dict(c) for c in children])
    assert not summary["correct"] and summary["failed"] == 1
    assert "sha256" in summary["problems"][0]


def test_check_fails_a_loss_outside_the_baseline():
    problems = run.check([fake_child(loss=0.5), fake_child(loss=0.5)], expected_loss=0.52)
    assert len(problems) == 2 and "baseline" in problems[0]
    assert run.check([fake_child(loss=0.5)], expected_loss=0.502) == []


def metric(value, spread, samples):
    return {"value": value, "quartiles": [value * (1 - spread / 2), value * (1 + spread / 2)],
            "samples": samples}


@pytest.mark.parametrize(
    "b, expected",
    [
        (metric(1.03, 0.02, [1.02, 1.03, 1.04]), "within-bound"),
        (metric(1.20, 0.02, [1.19, 1.20, 1.21]), "worse-beyond-bound"),
        (metric(0.80, 0.02, [0.79, 0.80, 0.81]), "better"),
        (metric(1.00, 0.30, [0.80, 1.00, 1.20]), "unresolved"),
        (metric(0.95, 0.30, [0.85, 0.95, 0.98]), "better"),  # noisy but separated
        (metric(0.97, 0.02, [0.96, 0.97, 0.98]), "within-bound"),  # separated, small
    ],
)
def test_compare_verdicts(b, expected):
    a = metric(1.0, 0.02, [0.99, 1.0, 1.01])
    assert run.verdict(a, b, "lower", 0.1)[1] == expected
