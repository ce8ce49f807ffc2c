"""Run-record rendering and regression detection (``repro report`` / ``repro diff``).

- :mod:`repro.report.html` — self-contained HTML dashboard with per-round
  diagnostic charts (α spread, drift cosines, Y_t, freeloader scores, ...);
- :mod:`repro.report.text` — ASCII fallback built on
  :func:`repro.analysis.plot_series`;
- :mod:`repro.report.diff` — field-by-field record comparison with an
  accuracy tolerance and a divergence check;
- :mod:`repro.report.serving` — the load-test capacity chapter
  (throughput and latency vs offered load).
"""

from .diff import FieldDelta, diff_records, has_regressions, render_deltas
from .html import render_html
from .matrix import render_matrix_ascii, render_matrix_html
from .serving import is_serving_payload, render_serving_ascii, render_serving_html
from .text import render_ascii

__all__ = [
    "render_html",
    "render_ascii",
    "render_matrix_html",
    "render_matrix_ascii",
    "render_serving_html",
    "render_serving_ascii",
    "is_serving_payload",
    "FieldDelta",
    "diff_records",
    "render_deltas",
    "has_regressions",
]
