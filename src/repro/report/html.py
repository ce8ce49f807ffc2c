"""Self-contained HTML dashboard for run records (``repro report``).

Hand-rolled inline SVG line charts — no JS dependencies, one file, opens
anywhere.  Chart styling follows the repo's data-viz conventions: a fixed
categorical palette applied in slot order (never cycled), 2px line marks
with end markers, hairline gridlines, one y axis per chart, text in ink
tokens (never series colors), a legend whenever a chart holds two or more
series, and light/dark modes via CSS custom properties keyed off
``prefers-color-scheme``.  Each chart panel also carries a collapsible
table view of its data, so identity is never color-alone.
"""

from __future__ import annotations

import html as _html
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.runrecords import (
    accuracy_series,
    delivery_series,
    loss_series,
    per_client_envelope,
    record_label,
    scalar_series,
    sim_time_series,
)

#: One (x, y) series: label, x values, y values.
Series = Tuple[str, Sequence[float], Sequence[float]]

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink-1);
}
.viz-root {
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
  --series-7: #4a3aa7; --series-8: #e34948;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --page: #0d0d0d; --surface-1: #1a1a19;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
    --series-7: #9085e9; --series-8: #e66767;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
.subtitle { color: var(--ink-2); font-size: 13px; margin-bottom: 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 20px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 150px;
}
.tile .value { font-size: 24px; font-weight: 600; }
.tile .label { font-size: 12px; color: var(--ink-2); margin-top: 2px; }
.grid { display: grid; grid-template-columns: repeat(auto-fill, minmax(420px, 1fr)); gap: 16px; }
.panel {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px;
}
.panel h2 { font-size: 14px; margin: 0 0 2px; }
.panel .desc { font-size: 12px; color: var(--ink-2); margin: 0 0 10px; }
.legend { display: flex; flex-wrap: wrap; gap: 12px; font-size: 12px; color: var(--ink-2); margin-top: 8px; }
.legend .swatch {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 5px; vertical-align: -1px;
}
details { margin-top: 10px; font-size: 12px; }
details summary { color: var(--ink-3); cursor: pointer; }
table { border-collapse: collapse; margin-top: 6px; font-variant-numeric: tabular-nums; }
th, td { padding: 2px 10px 2px 0; text-align: right; color: var(--ink-2); }
th { color: var(--ink-3); font-weight: 500; border-bottom: 1px solid var(--grid); }
td:first-child, th:first-child { text-align: left; }
.config-table td, .config-table th { font-size: 12px; }
.section-note { color: var(--ink-3); font-size: 12px; margin: 18px 0 8px; }
.matrix-panel { margin-top: 16px; }
.matrix-table { width: 100%; }
.matrix-table td { text-align: center; padding: 4px 8px; border-radius: 3px; }
.matrix-table td:first-child { text-align: left; }
"""


def _nice_ticks(lo: float, hi: float, count: int = 4) -> List[float]:
    """Round tick positions covering [lo, hi]."""
    if hi - lo < 1e-12:
        hi = lo + 1.0
    raw_step = (hi - lo) / count
    magnitude = 10.0 ** int(f"{raw_step:e}".split("e")[1])
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * magnitude
        if step >= raw_step:
            break
    start = step * (lo // step)
    ticks = []
    value = start
    while value <= hi + step * 0.501:
        if value >= lo - step * 0.501:
            ticks.append(round(value, 10))
        value += step
    return ticks or [lo, hi]


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _svg_line_chart(
    series: List[Series],
    y_label: str = "",
    width: int = 420,
    height: int = 220,
) -> str:
    """One SVG line chart: 2px lines, end markers, hairline grid, one axis."""
    series = [s for s in series if len(s[2])]
    if not series:
        return '<p class="desc">no data</p>'
    margin_l, margin_r, margin_t, margin_b = 46, 14, 10, 24
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    ticks = _nice_ticks(y_lo, y_hi)
    y_lo, y_hi = min(y_lo, ticks[0]), max(y_hi, ticks[-1])
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return margin_t + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" height="{height}"'
        ' role="img" xmlns="http://www.w3.org/2000/svg">'
    ]
    for tick in ticks:
        y = py(tick)
        parts.append(
            f'<line x1="{margin_l}" y1="{y:.1f}" x2="{width - margin_r}" y2="{y:.1f}"'
            ' stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_l - 6}" y="{y + 3.5:.1f}" text-anchor="end"'
            f' font-size="10" fill="var(--ink-3)">{_fmt(tick)}</text>'
        )
    baseline_y = margin_t + plot_h
    parts.append(
        f'<line x1="{margin_l}" y1="{baseline_y}" x2="{width - margin_r}" y2="{baseline_y}"'
        ' stroke="var(--axis)" stroke-width="1"/>'
    )
    for x in {x_lo, x_hi}:
        parts.append(
            f'<text x="{px(x):.1f}" y="{height - 8}" text-anchor="middle"'
            f' font-size="10" fill="var(--ink-3)">{_fmt(x)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="{margin_l}" y="{margin_t - 1}" text-anchor="start"'
            f' font-size="10" fill="var(--ink-3)">{_html.escape(y_label)}</text>'
        )
    for index, (label, xs, ys) in enumerate(series):
        color = f"var(--series-{index % 8 + 1})"
        points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}"'
            ' stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        )
        end_x, end_y = px(xs[-1]), py(ys[-1])
        title = _html.escape(f"{label}: {_fmt(ys[-1])} @ {_fmt(xs[-1])}")
        parts.append(
            f'<circle cx="{end_x:.1f}" cy="{end_y:.1f}" r="3.5" fill="{color}"'
            f' stroke="var(--surface-1)" stroke-width="2"><title>{title}</title></circle>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _legend(series: List[Series]) -> str:
    if len(series) < 2:
        return ""
    items = []
    for index, (label, _, _) in enumerate(series):
        color = f"var(--series-{index % 8 + 1})"
        items.append(
            f'<span><span class="swatch" style="background:{color}"></span>'
            f"{_html.escape(label)}</span>"
        )
    return f'<div class="legend">{"".join(items)}</div>'


def _data_table(series: List[Series], x_name: str = "round") -> str:
    """Collapsible table view of the panel's data (accessibility channel)."""
    series = [s for s in series if len(s[2])]
    if not series:
        return ""
    xs = sorted({float(x) for _, sxs, _ in series for x in sxs})
    lookup = [
        {float(x): y for x, y in zip(sxs, sys_)} for _, sxs, sys_ in series
    ]
    header = "".join(f"<th>{_html.escape(label)}</th>" for label, _, _ in series)
    rows = []
    for x in xs:
        cells = "".join(
            f"<td>{_fmt(table[x]) if x in table else ''}</td>" for table in lookup
        )
        rows.append(f"<tr><td>{_fmt(x)}</td>{cells}</tr>")
    return (
        "<details><summary>table view</summary><table>"
        f"<tr><th>{_html.escape(x_name)}</th>{header}</tr>{''.join(rows)}"
        "</table></details>"
    )


def _panel(title: str, desc: str, series: List[Series], y_label: str = "") -> str:
    return (
        '<div class="panel">'
        f"<h2>{_html.escape(title)}</h2>"
        f'<p class="desc">{_html.escape(desc)}</p>'
        + _svg_line_chart(series, y_label=y_label)
        + _legend(series)
        + _data_table(series)
        + "</div>"
    )


def _rounds_x(values: Sequence[float]) -> List[float]:
    return list(range(len(values)))


def _envelope_series(record: Dict[str, Any], channel: str) -> List[Series]:
    envelope = per_client_envelope(record, channel)
    out: List[Series] = []
    for stat in ("max", "mean", "min"):
        rounds, values = envelope[stat]
        if values:
            out.append((stat, rounds, values))
    return out


def _scalar_panel_series(record: Dict[str, Any], names: Sequence[str]) -> List[Series]:
    out: List[Series] = []
    for name in names:
        rounds, values = scalar_series(record, name)
        if values:
            out.append((name.split(".", 1)[-1], rounds, values))
    return out


def _overlay(records: List[Dict[str, Any]], extract) -> List[Series]:
    out: List[Series] = []
    for record in records:
        values = extract(record)
        if values:
            out.append((record_label(record), _rounds_x(values), values))
    return out


def _tiles(records: List[Dict[str, Any]]) -> str:
    tiles = []
    for record in records:
        final = record["final"]
        value = "diverged" if final.get("diverged") else f"{final['final_accuracy']:.2%}"
        tiles.append(
            '<div class="tile">'
            f'<div class="value">{value}</div>'
            f'<div class="label">{_html.escape(record_label(record))}'
            f" · {final.get('rounds', '?')} rounds</div></div>"
        )
    return f'<div class="tiles">{"".join(tiles)}</div>'


def _config_section(records: List[Dict[str, Any]]) -> str:
    configs = [r.get("config") for r in records if r.get("config")]
    if not configs:
        return ""
    keys = sorted({key for config in configs for key in config})
    header = "".join(
        f"<th>{_html.escape(record_label(r))}</th>" for r in records if r.get("config")
    )
    rows = []
    for key in keys:
        cells = "".join(
            f"<td>{_html.escape(str(config.get(key, '')))}</td>" for config in configs
        )
        rows.append(f"<tr><td>{_html.escape(key)}</td>{cells}</tr>")
    return (
        '<details class="panel" style="margin-top:16px"><summary>configuration</summary>'
        f'<table class="config-table"><tr><th>field</th>{header}</tr>{"".join(rows)}</table>'
        "</details>"
    )


def render_html(
    records: List[Dict[str, Any]],
    title: str = "repro run report",
    matrices: Optional[List[Dict[str, Any]]] = None,
    serving: Optional[List[Dict[str, Any]]] = None,
) -> str:
    """Render run records (plus scenario matrices / serving payloads) into one page."""
    matrices = matrices or []
    serving = serving or []
    if not records and not matrices and not serving:
        raise ValueError(
            "need at least one run record, scenario matrix, or serving payload"
        )
    serving_html = ""
    if serving:
        from .serving import serving_section

        serving_html = "".join(serving_section(payload) for payload in serving)
    if not records:
        subtitle = "scenario matrix" if matrices else "serving capacity"
        return _render_page(title, subtitle, serving_html, "", matrices)
    panels: List[str] = []
    panels.append(
        _panel(
            "Test accuracy",
            "global-model accuracy per communication round",
            _overlay(records, accuracy_series),
        )
    )
    panels.append(
        _panel(
            "Test loss",
            "global-model loss per communication round",
            _overlay(records, loss_series),
        )
    )
    sim_times = _overlay(records, sim_time_series)
    if any(any(v for v in s[2]) for s in sim_times):
        panels.append(
            _panel(
                "Simulated round time",
                "slowest-client compute seconds per round",
                sim_times,
                y_label="seconds",
            )
        )
    for record in records:
        label = record_label(record)
        alpha = _envelope_series(record, "taco.alpha")
        if alpha:
            panels.append(
                _panel(
                    f"α spread — {label}",
                    "per-client tailored coefficients α_i (Eq. 7): min/mean/max",
                    alpha,
                )
            )
        drift = _envelope_series(record, "taco.drift_cosine")
        if drift:
            panels.append(
                _panel(
                    f"Client-drift cosines — {label}",
                    "cos(Δ_i, mean Δ) per round: min/mean/max",
                    drift,
                )
            )
        theory = _scalar_panel_series(
            record, ["theory.y_t", "theory.corollary2_gap"]
        )
        if theory:
            panels.append(
                _panel(
                    f"Over-correction theory — {label}",
                    "live Theorem-1 Y_t and Corollary-2 optimality gap (proxy)",
                    theory,
                )
            )
        freeloader = _scalar_panel_series(
            record,
            ["taco.threshold_hits", "taco.expelled_total"],
        )
        strikes = _envelope_series(record, "taco.strikes")
        if strikes:
            freeloader.extend(
                [(f"strikes {name}", xs, ys) for name, xs, ys in strikes if name == "max"]
            )
        if freeloader:
            panels.append(
                _panel(
                    f"Freeloader scores — {label}",
                    "Eq. 10 detection: κ-threshold hits, expulsions, max strikes",
                    freeloader,
                )
            )
        controls = _envelope_series(record, "scaffold.client_control_norm")
        server_control = _scalar_panel_series(record, ["scaffold.server_control_norm"])
        if controls or server_control:
            panels.append(
                _panel(
                    f"Control variates — {label}",
                    "Scaffold control-variate norms: server + client envelope",
                    server_control + [(f"client {n}", xs, ys) for n, xs, ys in controls],
                )
            )
        momentum = _envelope_series(record, "stem.momentum_norm")
        if momentum:
            panels.append(
                _panel(
                    f"Momentum norms — {label}",
                    "STEM final local momentum ‖v_i‖ per round: min/mean/max",
                    momentum,
                )
            )
        deliveries = delivery_series(record)
        if deliveries:
            panels.append(
                _panel(
                    f"Delivery faults — {label}",
                    "per-round dropped / retried / deduplicated / quarantined uploads",
                    [
                        (name, _rounds_x(values), values)
                        for name, values in deliveries.items()
                    ],
                    y_label="uploads",
                )
            )
    subtitle = " · ".join(record_label(r) for r in records)
    return _render_page(
        title,
        subtitle,
        _tiles(records) + f'<div class="grid">{"".join(panels)}</div>' + serving_html,
        _config_section(records),
        matrices,
    )


def _render_page(
    title: str,
    subtitle: str,
    body: str,
    footer: str,
    matrices: List[Dict[str, Any]],
) -> str:
    from .matrix import render_matrix_html

    matrix_sections = "".join(render_matrix_html(matrix) for matrix in matrices)
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{_html.escape(title)}</title>"
        f"<style>{_CSS}</style></head>"
        '<body class="viz-root">'
        f"<h1>{_html.escape(title)}</h1>"
        f'<p class="subtitle">{_html.escape(subtitle)}</p>'
        + body
        + matrix_sections
        + footer
        + "</body></html>\n"
    )
