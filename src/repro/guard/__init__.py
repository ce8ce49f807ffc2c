"""Self-healing training: anomaly detection, rollback, adaptive recovery.

The guard watches every round of a :class:`~repro.fl.simulation.FederatedSimulation`
(:class:`HealthMonitor`), and when training goes off the rails — non-finite
state, loss spikes, exploding updates — applies a deterministic escalation
ladder (:class:`RecoveryController`): skip the round, roll back to a
known-good engine state with server-lr backoff, tighten the degradation
quarantine, and only abort once the escalation budget is exhausted.

Attach it with ``FederatedSimulation(..., guard=GuardPolicy())`` or the CLI
``--guard`` flag.  Disabled (the default) the simulation is bit-identical
to an unguarded run.
"""

from .anomaly import (
    ANOMALY_KINDS,
    LOSS_SPIKE,
    NON_FINITE_DELTA,
    NON_FINITE_LOSS,
    NON_FINITE_PARAMS,
    NON_FINITE_UPDATE,
    NORM_BLOWUP,
    PLATEAU,
    SEVERITY_CRITICAL,
    SEVERITY_WARN,
    Anomaly,
    BlameReport,
)
from .monitor import HealthMonitor, locate_slice, parameter_layout
from .policy import GuardPolicy
from .recovery import ACTION_ABORT, ACTION_ROLLBACK, ACTION_SKIP, RecoveryController

__all__ = [
    "ANOMALY_KINDS",
    "ACTION_ABORT",
    "ACTION_ROLLBACK",
    "ACTION_SKIP",
    "Anomaly",
    "BlameReport",
    "GuardPolicy",
    "HealthMonitor",
    "LOSS_SPIKE",
    "NON_FINITE_DELTA",
    "NON_FINITE_LOSS",
    "NON_FINITE_PARAMS",
    "NON_FINITE_UPDATE",
    "NORM_BLOWUP",
    "PLATEAU",
    "RecoveryController",
    "SEVERITY_CRITICAL",
    "SEVERITY_WARN",
    "locate_slice",
    "parameter_layout",
]
