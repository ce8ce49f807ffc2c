"""repro — reproduction of TACO (Liu et al., ICDCS 2025).

TACO tackles over-correction in federated learning with non-IID data via
tailored, adaptive per-client correction coefficients (Eq. 7), a lightweight
corrected local update (Eq. 8), alpha-weighted aggregation (Eq. 9) and
freeloader expulsion (Eq. 10).

Quick start::

    from repro.experiments import ExperimentConfig, run_algorithm

    config = ExperimentConfig(dataset="fmnist", num_clients=10, rounds=10)
    result = run_algorithm(config, "taco")
    print(result.final_accuracy)

Subpackages:

- :mod:`repro.autograd` / :mod:`repro.nn` — the numpy deep-learning
  substrate (reverse-mode AD, layers, the paper's models).
- :mod:`repro.data` — synthetic stand-ins for the paper's eight datasets
  and the non-IID partitioners.
- :mod:`repro.fl` — clients, server, simulation driver, timing model.
- :mod:`repro.algorithms` — FedAvg, FedProx, FoolsGold, Scaffold, STEM,
  FedACG, TACO, and the Fig. 6 hybrids.
- :mod:`repro.attacks` — freeloader clients and detection metrics.
- :mod:`repro.faults` — deterministic fault injection (drops, stragglers,
  corrupted payloads, transient upload errors) for robustness testing.
- :mod:`repro.guard` — self-healing training: anomaly detection, automatic
  rollback to known-good snapshots, and adaptive recovery.
- :mod:`repro.theory` — Theorem 1 / Corollary 1-2 quantities.
- :mod:`repro.telemetry` — the one observation hub: spans, metrics and
  per-round algorithm diagnostics (alpha_i, drift cosines, strikes) behind
  a zero-overhead no-op default.
- :mod:`repro.introspect` — the live Theorem-1 / Corollary-2 proxies (Y_t)
  published into those diagnostics.
- :mod:`repro.runrecord` — versioned, schema-validated ``runrecord.json``
  artifacts written by simulations and experiments.
- :mod:`repro.report` — HTML/ASCII run reports and cross-run regression
  diffing (``repro report`` / ``repro diff``).
- :mod:`repro.experiments` — one module per paper table/figure.
"""

__version__ = "1.0.0"

from . import (
    algorithms,
    analysis,
    attacks,
    autograd,
    comm,
    data,
    faults,
    fl,
    guard,
    introspect,
    nn,
    report,
    runrecord,
    theory,
)

__all__ = [
    "algorithms",
    "analysis",
    "attacks",
    "autograd",
    "comm",
    "data",
    "faults",
    "fl",
    "guard",
    "introspect",
    "nn",
    "report",
    "runrecord",
    "theory",
    "__version__",
]
