"""Live Theorem-1 / Corollary-2 proxies for the per-round diagnostics.

Algorithm diagnostics (TACO's per-client alpha_i, correction-vector norms
and drift cosines, freeloader strikes and expulsions, Scaffold control
norms, STEM momentum norms) are published into the telemetry hub's round
window (:mod:`repro.telemetry`).  This package holds the one server-side
computation behind them that needs the theory layer:
:func:`live_theory_scalars`, which the round engine publishes as
``theory.y_t``, ``theory.corollary2_gap`` and ``theory.mean_drift_ratio``
each round while telemetry is enabled.
"""

from .live_theory import live_theory_scalars

__all__ = ["live_theory_scalars"]
