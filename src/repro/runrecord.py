"""Structured, versioned run records (``runrecord.json``).

Every simulation can persist a self-describing JSON artifact holding the
config, platform, per-round history, per-round algorithm diagnostics
(collected by :mod:`repro.telemetry` while it is enabled and kept on each
round's record), final metrics, traffic/fault/guard totals and timing.
The schema is versioned (:data:`SCHEMA_VERSION`) and validated on load, so
``repro report`` / ``repro diff`` can refuse records they do not
understand instead of mis-rendering them.

Determinism contract: **every wall-clock-derived field lives under the
single top-level ``timing`` key.**  Two runs of the same config and seed
produce byte-identical records once ``timing`` is dropped — the property
``tests/fl/test_runrecord.py`` enforces and the ``repro diff`` baseline
mode relies on.

Emission: :func:`recording_session` installs a process-wide output
directory that ``repro.experiments.run_algorithm`` and
``repro.federation.run_federation`` (and therefore every experiment module
and CLI entry point) write into, one
``<dataset>-<algorithm>-s<seed>/runrecord.json`` per sync run and one
``<dataset>-<algorithm>-p<population>-b<buffer>-s<seed>/runrecord.json``
per semi-async run.  A caller that builds an engine by hand writes its
record with :func:`build_run_record` and :func:`write_run_record`.
"""

from __future__ import annotations

import contextlib
import json
import platform as _platform
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

import numpy as np

#: Bump when the record layout changes incompatibly.
SCHEMA_VERSION = 1

_REQUIRED_TOP_KEYS = (
    "schema_version",
    "algorithm",
    "config",
    "platform",
    "rounds",
    "diagnostics",
    "final",
    "traffic",
    "faults",
    "guard",
    "timing",
)


class RunRecordError(ValueError):
    """A run record failed schema validation."""


def _platform_info() -> Dict[str, str]:
    return {
        "python": _platform.python_version(),
        "numpy": np.__version__,
        "machine": _platform.machine(),
        "system": _platform.system(),
    }


def _round_to_dict(record) -> Dict[str, Any]:
    """JSON-safe round dump without ``round_wall_time`` (it belongs under
    ``timing``) and without the diagnostics (the top-level list holds them)."""
    data = record.to_dict()
    del data["round_wall_time"]
    data.pop("diagnostics", None)
    return data


def build_run_record(
    result,
    algorithm: str,
    config=None,
    serving: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the versioned record for one :class:`SimulationResult`.

    ``config`` is an :class:`repro.experiments.ExperimentConfig` (or ``None``
    when the simulation was built by hand); the diagnostics are the ones
    the history's rounds carry (``result.diagnostics``).  ``serving`` is
    an optional virtual-time section kept for callers that pass one; the
    engines write none (delivery latency lives on the ``serving.flush``
    spans), and the key is absent when it is ``None``.
    """
    from dataclasses import asdict, is_dataclass

    history = result.history
    config_dict = None
    if config is not None:
        config_dict = asdict(config) if is_dataclass(config) else dict(config)
    record: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "algorithm": algorithm,
        "config": config_dict,
        "platform": _platform_info(),
        "rounds": [_round_to_dict(r) for r in history.records],
        "diagnostics": [d.to_dict() for d in result.diagnostics],
        "final": {
            "final_accuracy": result.final_accuracy,
            "output_accuracy": result.output_accuracy,
            "best_accuracy": history.best_accuracy if len(history) else 0.0,
            "diverged": bool(result.diverged),
            "rounds": len(history),
            "expelled_clients": history.expelled_clients,
        },
        "traffic": {
            "uplink_bytes": history.total_uplink_bytes,
            "downlink_bytes": history.total_downlink_bytes,
        },
        "faults": {
            **history.fault_summary(),
            "quarantine_reasons": history.quarantine_reasons(),
            "deliveries": history.delivery_summary(),
        },
        "guard": history.recovery_summary(),
        "timing": {
            "elapsed_seconds": result.elapsed_seconds,
            "round_wall_times": [r.round_wall_time for r in history.records],
            "created_unix": time.time(),
        },
    }
    if serving is not None:
        record["serving"] = serving
    return record


def validate_run_record(record: Any) -> Dict[str, Any]:
    """Validate a record against the schema; returns it on success.

    Raises :class:`RunRecordError` on any structural problem — wrong
    version, missing keys, or mistyped sections — so downstream renderers
    can rely on the layout.
    """
    if not isinstance(record, dict):
        raise RunRecordError(f"run record must be an object, got {type(record).__name__}")
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        raise RunRecordError(
            f"unsupported run-record schema version {version!r} (expected {SCHEMA_VERSION})"
        )
    missing = [key for key in _REQUIRED_TOP_KEYS if key not in record]
    if missing:
        raise RunRecordError(f"run record is missing keys: {missing}")
    if not isinstance(record["algorithm"], str):
        raise RunRecordError("'algorithm' must be a string")
    for key in ("rounds", "diagnostics"):
        if not isinstance(record[key], list):
            raise RunRecordError(f"'{key}' must be a list")
    for key in ("final", "traffic", "faults", "guard", "timing", "platform"):
        if not isinstance(record[key], dict):
            raise RunRecordError(f"'{key}' must be an object")
    for i, entry in enumerate(record["rounds"]):
        if not isinstance(entry, dict) or "round" not in entry or "test_accuracy" not in entry:
            raise RunRecordError(f"rounds[{i}] is not a valid round entry")
        if "round_wall_time" in entry:
            raise RunRecordError(
                f"rounds[{i}] carries a wall-clock field; timing data belongs under 'timing'"
            )
    for i, entry in enumerate(record["diagnostics"]):
        if not isinstance(entry, dict) or "round" not in entry:
            raise RunRecordError(f"diagnostics[{i}] is not a valid diagnostics entry")
    final = record["final"]
    for key in ("final_accuracy", "diverged", "rounds"):
        if key not in final:
            raise RunRecordError(f"'final' is missing {key!r}")
    if "elapsed_seconds" not in record["timing"]:
        raise RunRecordError("'timing' is missing 'elapsed_seconds'")
    if "serving" in record:  # optional: present only when a caller passed one
        serving = record["serving"]
        if not isinstance(serving, dict) or not isinstance(
            serving.get("rounds"), list
        ):
            raise RunRecordError("'serving' must be an object with a 'rounds' list")
    return record


def canonical_json(record: Dict[str, Any]) -> str:
    """The stable serialisation (sorted keys) used for on-disk records."""
    return json.dumps(record, indent=2, sort_keys=True, default=_json_default) + "\n"


def _json_default(value: Any) -> Any:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value).__name__} into a run record")


def write_run_record(record: Dict[str, Any], path: str | Path) -> Path:
    """Validate and write the record to ``path`` (parents created)."""
    validate_run_record(record)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(canonical_json(record), encoding="utf-8")
    return target


def load_run_record(path: str | Path) -> Dict[str, Any]:
    """Load and validate a ``runrecord.json`` file."""
    target = Path(path)
    try:
        record = json.loads(target.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise RunRecordError(f"{target}: not valid JSON ({error})") from error
    return validate_run_record(record)


def run_slug(config, algorithm: str) -> str:
    """Deterministic directory name for one (config, algorithm) run."""
    return f"{config.dataset}-{algorithm}-s{config.seed}"


_record_dir: Optional[Path] = None


def set_record_dir(path: str | Path | None) -> Optional[Path]:
    """Install the process-wide record output directory (``None`` disables).

    Returns the previous directory so callers can restore it.
    """
    global _record_dir
    previous = _record_dir
    _record_dir = Path(path) if path is not None else None
    return previous


def active_record_dir() -> Optional[Path]:
    """The installed record output directory, or ``None`` when disabled."""
    return _record_dir


@contextlib.contextmanager
def recording_session(path: str | Path) -> Iterator[Path]:
    """Route every ``run_algorithm`` and ``run_federation`` call in the scope into ``path``."""
    target = Path(path)
    previous = set_record_dir(target)
    try:
        yield target
    finally:
        set_record_dir(previous)
