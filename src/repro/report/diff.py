"""Run-record comparison (``repro diff``).

:func:`diff_records` compares two run records (candidate vs baseline)
field by field.  Accuracy fields regress when the candidate drops more
than ``accuracy_tolerance`` below the baseline, and a candidate that
diverged where the baseline did not always regresses.  Everything else
(wall time, traffic, fault totals, guard actions) is reported for
information only: deterministic runs should match exactly, so any delta
is visible in the table without failing the gate.  Wall time is judged
by ``bench/run.py --compare``, which repeats each run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..analysis.runrecords import flatten_final_fields
from ..analysis.tables import render_table


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
