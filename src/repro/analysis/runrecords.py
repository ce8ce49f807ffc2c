"""Loaders and series extractors for ``runrecord.json`` artifacts.

These helpers sit between :mod:`repro.runrecord` (schema + IO) and the
renderers (``repro report`` / ``repro diff``): load one or more records,
pull out per-round series — accuracy, loss, any ``diagnostics`` scalar, and
min/mean/max envelopes over per-client channels — and flatten a record's
headline numbers for field-by-field comparison.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..runrecord import load_run_record


def load_records(paths: Sequence[str | Path]) -> List[Dict[str, Any]]:
    """Load and validate several run records (order preserved)."""
    return [load_run_record(path) for path in paths]


def record_label(record: Dict[str, Any]) -> str:
    """Short display label: ``algorithm`` plus dataset/seed when known."""
    config = record.get("config") or {}
    algorithm = record["algorithm"]
    if config:
        return f"{algorithm} ({config.get('dataset', '?')}, s{config.get('seed', '?')})"
    return algorithm


def accuracy_series(record: Dict[str, Any]) -> List[float]:
    """Per-round test accuracy."""
    return [float(entry["test_accuracy"]) for entry in record["rounds"]]


def loss_series(record: Dict[str, Any]) -> List[float]:
    """Per-round test loss."""
    return [float(entry["test_loss"]) for entry in record["rounds"]]


def sim_time_series(record: Dict[str, Any]) -> List[float]:
    """Per-round simulated compute seconds."""
    return [float(entry["round_sim_time"]) for entry in record["rounds"]]


def scalar_series(record: Dict[str, Any], name: str) -> Tuple[List[int], List[float]]:
    """(rounds, values) for one diagnostics scalar; empty when never published."""
    rounds: List[int] = []
    values: List[float] = []
    for entry in record.get("diagnostics", []):
        if name in entry.get("scalars", {}):
            rounds.append(int(entry["round"]))
            values.append(float(entry["scalars"][name]))
    return rounds, values


def per_client_envelope(
    record: Dict[str, Any], name: str
) -> Dict[str, Tuple[List[int], List[float]]]:
    """min/mean/max series over one per-client diagnostics channel.

    Returns ``{"min": (rounds, values), "mean": ..., "max": ...}``; all
    three are empty when the channel was never published.
    """
    rounds: List[int] = []
    mins: List[float] = []
    means: List[float] = []
    maxs: List[float] = []
    for entry in record.get("diagnostics", []):
        channel = entry.get("per_client", {}).get(name, {})
        if not channel:
            continue
        values = np.array([float(v) for v in channel.values()])
        rounds.append(int(entry["round"]))
        mins.append(float(values.min()))
        means.append(float(values.mean()))
        maxs.append(float(values.max()))
    return {
        "min": (list(rounds), mins),
        "mean": (list(rounds), means),
        "max": (list(rounds), maxs),
    }


def delivery_series(record: Dict[str, Any]) -> Dict[str, List[float]]:
    """Per-round delivery-fault counts for the network chapter.

    Returns ``{"dropped": [...], "retried": [...], "duplicated": [...],
    "quarantined": [...]}`` (one value per round); empty when every count
    is zero — i.e. the run saw a perfect wire and no faults — so report
    renderers can skip the chapter entirely.
    """
    rounds = record["rounds"]
    series = {
        "dropped": [float(len(entry.get("dropped", []))) for entry in rounds],
        "retried": [
            float(sum(entry.get("retries", {}).values())) for entry in rounds
        ],
        "duplicated": [float(len(entry.get("duplicated", []))) for entry in rounds],
        "quarantined": [float(len(entry.get("quarantined", {}))) for entry in rounds],
    }
    if not any(any(values) for values in series.values()):
        return {}
    return series


def flatten_final_fields(record: Dict[str, Any]) -> Dict[str, Any]:
    """Headline numbers as a flat ``section.field -> value`` mapping.

    This is the field set ``repro diff`` compares: final metrics, traffic,
    fault and guard totals, and elapsed wall time.
    """
    flat: Dict[str, Any] = {}
    final = record["final"]
    for key in ("final_accuracy", "output_accuracy", "best_accuracy", "diverged", "rounds"):
        if key in final:
            flat[f"final.{key}"] = final[key]
    flat["final.expelled_clients"] = len(final.get("expelled_clients", []))
    for key, value in record["traffic"].items():
        flat[f"traffic.{key}"] = value
    for key, value in record["faults"].items():
        if isinstance(value, dict):
            # Nested totals (quarantine_reasons, deliveries): one flat
            # field per entry, so deterministic runs diff exactly.
            for sub_key, sub_value in value.items():
                flat[f"faults.{key}.{sub_key}"] = sub_value
        else:
            flat[f"faults.{key}"] = value
    guard = record["guard"]
    for key in ("skips", "rollbacks", "aborted"):
        if key in guard:
            flat[f"guard.{key}"] = guard[key]
    flat["timing.elapsed_seconds"] = record["timing"]["elapsed_seconds"]
    return flat
