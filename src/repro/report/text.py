"""ASCII fallback for ``repro report`` (terminals, CI logs, no browser).

Renders the same panels as the HTML dashboard through
:func:`repro.analysis.plot_series` multi-series charts: accuracy/loss
overlays across records, each TACO record's α spread and expulsions (read
from its rounds), and, for a record with diagnostics, drift cosines, live
theory proxies and freeloader threshold hits.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..analysis.ascii_plot import plot_series
from ..analysis.runrecords import (
    accuracy_series,
    delivery_series,
    expelled_series,
    loss_series,
    per_client_envelope,
    record_label,
    scalar_series,
)


def _series_or_none(mapping: Dict[str, List[float]], **kwargs) -> str:
    cleaned = {name: values for name, values in mapping.items() if values}
    if not cleaned:
        return ""
    try:
        return plot_series(cleaned, **kwargs)
    except ValueError:
        return ""


def _envelope_mapping(record: Dict[str, Any], channel: str) -> Dict[str, List[float]]:
    envelope = per_client_envelope(record, channel)
    return {stat: values for stat, (_, values) in envelope.items() if values}


def render_ascii(records: List[Dict[str, Any]], title: str = "repro run report") -> str:
    """Render validated run records as stacked ASCII charts."""
    if not records:
        raise ValueError("need at least one run record")
    sections: List[str] = [title, "=" * len(title)]
    for record in records:
        final = record["final"]
        headline = "diverged" if final.get("diverged") else f"{final['final_accuracy']:.2%}"
        sections.append(f"{record_label(record)}: final acc {headline}, {final.get('rounds')} rounds")

    chart = _series_or_none(
        {record_label(r): accuracy_series(r) for r in records},
        title="test accuracy by round",
    )
    if chart:
        sections.append(chart)
    chart = _series_or_none(
        {record_label(r): loss_series(r) for r in records},
        title="test loss by round",
    )
    if chart:
        sections.append(chart)

    for record in records:
        label = record_label(record)
        chart = _series_or_none(
            _envelope_mapping(record, "alphas"),
            title=f"alpha spread (Eq. 7) — {label}",
        )
        if chart:
            sections.append(chart)
        chart = _series_or_none(
            _envelope_mapping(record, "taco.drift_cosine"),
            title=f"client-drift cosines — {label}",
        )
        if chart:
            sections.append(chart)
        theory = {}
        for name in ("theory.y_t", "theory.corollary2_gap"):
            _, values = scalar_series(record, name)
            if values:
                theory[name.split(".", 1)[-1]] = values
        chart = _series_or_none(theory, title=f"over-correction theory (proxy) — {label}")
        if chart:
            sections.append(chart)
        freeloader = {}
        _, hits = scalar_series(record, "taco.threshold_hits")
        if hits:
            freeloader["threshold_hits"] = hits
        expelled = expelled_series(record)
        if freeloader or any(expelled):
            freeloader["expelled_total"] = expelled
        chart = _series_or_none(freeloader, title=f"freeloader scores (Eq. 10) — {label}")
        if chart:
            sections.append(chart)
        chart = _series_or_none(
            delivery_series(record),
            title=f"delivery faults by round — {label}",
        )
        if chart:
            sections.append(chart)
            totals = record.get("faults", {}).get("deliveries", {})
            if totals:
                summary = ", ".join(
                    f"{key}={totals[key]}" for key in sorted(totals)
                )
                sections.append(f"delivery totals — {label}: {summary}")
    return "\n\n".join(sections) + "\n"
