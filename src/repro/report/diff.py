"""Run-record comparison and BENCH-floor regression gating (``repro diff``).

Two modes:

- :func:`diff_records` — field-by-field comparison of two run records
  (candidate vs baseline).  Accuracy fields regress when the candidate
  drops more than ``accuracy_tolerance`` below the baseline; wall time
  regresses when it grows more than ``time_tolerance`` (fractional);
  a candidate that diverged where the baseline did not always regresses.
  Everything else (traffic, fault totals, guard actions) is reported
  informationally — deterministic runs should match exactly, so any delta
  is visible in the table without failing the gate.

- :func:`check_bench` — validates committed ``BENCH_*.json`` artifacts
  against fixed floors: kernel speedups (``BENCH_kernels.json``) must stay
  at or above the same floors ``scripts/bench_kernels.py --smoke`` enforces,
  telemetry/introspection overhead (``BENCH_telemetry.json``) must stay
  under 10% with ``bit_identical`` true for every algorithm, and the
  federation registry's peak-memory growth across populations
  (``BENCH_federation.json``) must stay within 2x.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

from ..analysis.runrecords import flatten_final_fields
from ..analysis.tables import render_table

#: Same floors scripts/bench_kernels.py --smoke enforces on a live run.
KERNEL_SPEEDUP_FLOORS: Dict[str, float] = {
    "max_pool2d": 5.0,
    "cnn_round": 2.0,
    "conv2d": 1.5,
}

#: Acceptance ceiling for telemetry/introspection overhead (percent).
OVERHEAD_CEILING_PCT = 10.0

#: Largest/smallest-population peak-memory ratio the registry may show.
FEDERATION_MEMORY_RATIO_CEILING = 2.0

#: Loss rate every benched algorithm must survive (accuracy floor met)
#: in ``BENCH_chaos.json`` — the documented graceful-degradation bar.
CHAOS_LOSS_THRESHOLD_FLOOR = 0.3

#: Minimum offered-load points a ``BENCH_serving.json`` sweep must cover.
SERVING_MIN_SWEEP_POINTS = 4


@dataclass
class FieldDelta:
    """One compared field: baseline value, candidate value, verdict."""

    field: str
    baseline: Any
    candidate: Any
    regression: bool
    note: str = ""

    @property
    def delta(self) -> str:
        """Human-readable candidate-minus-baseline delta."""
        if isinstance(self.baseline, bool) or isinstance(self.candidate, bool):
            return "" if self.baseline == self.candidate else "changed"
        try:
            return f"{float(self.candidate) - float(self.baseline):+.6g}"
        except (TypeError, ValueError):
            return ""


def diff_records(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    accuracy_tolerance: float = 0.02,
    time_tolerance: float = 0.5,
    check_performance: bool = True,
) -> List[FieldDelta]:
    """Compare two validated run records field by field (see module doc)."""
    base_flat = flatten_final_fields(baseline)
    cand_flat = flatten_final_fields(candidate)
    deltas: List[FieldDelta] = []
    for field in sorted(set(base_flat) | set(cand_flat)):
        base_value = base_flat.get(field)
        cand_value = cand_flat.get(field)
        regression = False
        note = ""
        if base_value is None or cand_value is None:
            note = "only in one record"
        elif field == "final.diverged":
            regression = bool(cand_value) and not bool(base_value)
            if regression:
                note = "candidate diverged"
        elif field in (
            "final.final_accuracy",
            "final.output_accuracy",
            "final.best_accuracy",
        ):
            drop = float(base_value) - float(cand_value)
            regression = drop > accuracy_tolerance
            if regression:
                note = f"accuracy dropped {drop:.4f} > tol {accuracy_tolerance}"
        elif field == "timing.elapsed_seconds":
            if check_performance and float(base_value) > 0:
                growth = float(cand_value) / float(base_value) - 1.0
                regression = growth > time_tolerance
                if regression:
                    note = f"wall time grew {growth:.0%} > tol {time_tolerance:.0%}"
        deltas.append(
            FieldDelta(
                field=field,
                baseline=base_value,
                candidate=cand_value,
                regression=regression,
                note=note,
            )
        )
    return deltas


def render_deltas(deltas: List[FieldDelta], title: str = "run-record diff") -> str:
    """The per-field delta table ``repro diff`` prints."""

    def fmt(value: Any) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    rows = [
        [
            d.field,
            fmt(d.baseline),
            fmt(d.candidate),
            d.delta,
            "REGRESSION" if d.regression else ("" if not d.note else d.note),
        ]
        for d in deltas
    ]
    table = render_table(["field", "baseline", "candidate", "delta", "status"], rows, title=title)
    notes = [f"  {d.field}: {d.note}" for d in deltas if d.regression and d.note]
    return table + ("\n" + "\n".join(notes) if notes else "")


def has_regressions(deltas: List[FieldDelta]) -> bool:
    """True when any compared field regressed beyond tolerance."""
    return any(d.regression for d in deltas)


# ----------------------------------------------------------------------
# BENCH_*.json floor gating
# ----------------------------------------------------------------------
def check_bench(path: str | Path) -> Tuple[List[List[str]], List[str]]:
    """Validate one BENCH artifact against its floors.

    Returns ``(rows, failures)``: table rows describing every checked
    quantity, and the list of floor violations (empty = pass).  The file
    kind is detected from its layout — ``benchmarks`` (kernels) vs
    ``algorithms`` (telemetry) vs ``populations`` (federation scaling) vs
    ``chaos`` (network-chaos invariants + loss thresholds) vs ``serving``
    (open-loop load-test sweep).
    """
    target = Path(path)
    data = json.loads(target.read_text(encoding="utf-8"))
    if "benchmarks" in data:
        return _check_kernel_bench(target.name, data)
    if "algorithms" in data:
        return _check_telemetry_bench(target.name, data)
    if "populations" in data:
        return _check_federation_bench(target.name, data)
    if "chaos" in data:
        return _check_chaos_bench(target.name, data)
    if "serving" in data:
        return _check_serving_bench(target.name, data)
    raise ValueError(
        f"{target}: unrecognised BENCH layout "
        "(expected 'benchmarks', 'algorithms', 'populations', 'chaos', or 'serving')"
    )


def _check_kernel_bench(name: str, data: Dict[str, Any]) -> Tuple[List[List[str]], List[str]]:
    rows: List[List[str]] = []
    failures: List[str] = []
    benchmarks = data["benchmarks"]
    for bench, floor in KERNEL_SPEEDUP_FLOORS.items():
        entry = benchmarks.get(bench)
        if entry is None or "speedup" not in entry:
            failures.append(f"{name}: missing speedup for {bench!r}")
            rows.append([bench, "speedup", "?", f">= {floor}x", "MISSING"])
            continue
        speedup = float(entry["speedup"])
        ok = speedup >= floor
        rows.append([bench, "speedup", f"{speedup:.2f}x", f">= {floor}x", "ok" if ok else "FAIL"])
        if not ok:
            failures.append(f"{name}: {bench} speedup {speedup:.2f}x below floor {floor}x")
    return rows, failures


def _check_telemetry_bench(name: str, data: Dict[str, Any]) -> Tuple[List[List[str]], List[str]]:
    rows: List[List[str]] = []
    failures: List[str] = []
    for algorithm, entry in sorted(data["algorithms"].items()):
        overhead_keys = [key for key in entry if key.endswith("overhead_pct")]
        for key in sorted(overhead_keys):
            overhead = float(entry[key])
            ok = overhead <= OVERHEAD_CEILING_PCT
            rows.append(
                [
                    algorithm,
                    key,
                    f"{overhead:.2f}%",
                    f"<= {OVERHEAD_CEILING_PCT:.0f}%",
                    "ok" if ok else "FAIL",
                ]
            )
            if not ok:
                failures.append(
                    f"{name}: {algorithm} {key} {overhead:.2f}% over ceiling"
                    f" {OVERHEAD_CEILING_PCT:.0f}%"
                )
        identical_keys = [key for key in entry if key.endswith("bit_identical")]
        for key in sorted(identical_keys):
            ok = bool(entry[key])
            rows.append([algorithm, key, str(bool(entry[key])), "True", "ok" if ok else "FAIL"])
            if not ok:
                failures.append(f"{name}: {algorithm} {key} is False")
    return rows, failures


def _check_federation_bench(name: str, data: Dict[str, Any]) -> Tuple[List[List[str]], List[str]]:
    rows: List[List[str]] = []
    failures: List[str] = []
    ceiling = FEDERATION_MEMORY_RATIO_CEILING
    ratio_entry = data.get("memory_ratio")
    if not isinstance(ratio_entry, dict) or "peak_traced_ratio" not in ratio_entry:
        failures.append(f"{name}: missing memory_ratio.peak_traced_ratio")
        rows.append(["memory_ratio", "peak_traced_ratio", "?", f"<= {ceiling}x", "MISSING"])
    else:
        ratio = float(ratio_entry["peak_traced_ratio"])
        ok = ratio <= ceiling
        rows.append(
            [
                "memory_ratio",
                "peak_traced_ratio",
                f"{ratio:.2f}x",
                f"<= {ceiling}x",
                "ok" if ok else "FAIL",
            ]
        )
        if not ok:
            failures.append(
                f"{name}: peak-memory ratio {ratio:.2f}x over ceiling {ceiling}x "
                "(registry memory is growing with population)"
            )
    for population, entry in sorted(data["populations"].items(), key=lambda kv: int(kv[0])):
        diverged = bool(entry.get("diverged", False))
        rows.append(
            [
                f"population {int(population):,}",
                "diverged",
                str(diverged),
                "False",
                "FAIL" if diverged else "ok",
            ]
        )
        if diverged:
            failures.append(f"{name}: population {population} run diverged")
    return rows, failures


def _check_serving_bench(name: str, data: Dict[str, Any]) -> Tuple[List[List[str]], List[str]]:
    """Floors for the load-test capacity sweep (``BENCH_serving.json``).

    The sweep must cover at least :data:`SERVING_MIN_SWEEP_POINTS` offered
    rates, every point must report positive throughput and ordered latency
    percentiles (p99 >= p50 > 0), and the knee must mark saturation —
    a sweep that never saturates did not push the coordinator hard enough
    to measure capacity.
    """
    rows: List[List[str]] = []
    failures: List[str] = []
    serving = data["serving"]
    sweep = serving.get("sweep") or []
    ok = len(sweep) >= SERVING_MIN_SWEEP_POINTS
    rows.append(
        [
            "sweep",
            "points",
            str(len(sweep)),
            f">= {SERVING_MIN_SWEEP_POINTS}",
            "ok" if ok else "FAIL",
        ]
    )
    if not ok:
        failures.append(
            f"{name}: sweep has {len(sweep)} offered-load points, need"
            f" >= {SERVING_MIN_SWEEP_POINTS}"
        )
    for point in sweep:
        label = f"rate x{point.get('rate_factor', '?')}"
        throughput = float(point.get("throughput", 0.0))
        ok = throughput > 0.0
        rows.append(
            [label, "throughput", f"{throughput:.1f}/s", "> 0", "ok" if ok else "FAIL"]
        )
        if not ok:
            failures.append(f"{name}: {label} reports zero throughput")
        latency = point.get("latency", {})
        p50 = float(latency.get("p50", 0.0))
        p99 = float(latency.get("p99", 0.0))
        ok = p99 >= p50 > 0.0
        rows.append(
            [
                label,
                "latency p50/p99",
                f"{p50:.4f}/{p99:.4f}",
                "p99 >= p50 > 0",
                "ok" if ok else "FAIL",
            ]
        )
        if not ok:
            failures.append(
                f"{name}: {label} latency percentiles malformed (p50={p50}, p99={p99})"
            )
    knee = serving.get("knee") or {}
    saturated = bool(knee.get("saturated", False))
    rows.append(
        ["knee", "saturated", str(saturated), "True", "ok" if saturated else "FAIL"]
    )
    if not saturated:
        failures.append(
            f"{name}: sweep never saturated the coordinator — no capacity knee found"
        )
    return rows, failures


def _check_chaos_bench(name: str, data: Dict[str, Any]) -> Tuple[List[List[str]], List[str]]:
    rows: List[List[str]] = []
    failures: List[str] = []
    chaos = data["chaos"]
    for invariant in ("none_plan_bit_identical", "same_seed_deterministic"):
        value = chaos.get("invariants", {}).get(invariant)
        ok = bool(value)
        rows.append(["invariant", invariant, str(value), "True", "ok" if ok else "FAIL"])
        if not ok:
            failures.append(f"{name}: invariant {invariant} is {value}")
    floor = CHAOS_LOSS_THRESHOLD_FLOOR
    thresholds = chaos.get("loss_thresholds", {})
    if not thresholds:
        failures.append(f"{name}: missing chaos.loss_thresholds")
        rows.append(["loss_threshold", "-", "?", f">= {floor:g}", "MISSING"])
    for algorithm, threshold in sorted(thresholds.items()):
        ok = threshold is not None and float(threshold) >= floor
        shown = "none" if threshold is None else f"{float(threshold):g}"
        rows.append(
            ["loss_threshold", algorithm, shown, f">= {floor:g}", "ok" if ok else "FAIL"]
        )
        if not ok:
            failures.append(
                f"{name}: {algorithm} survives only loss {shown}, floor is {floor:g}"
            )
    return rows, failures
