"""The recovery controller: an escalating, deterministic response ladder.

The controller keeps a ring buffer of the last K known-good engine
states (copies of :meth:`~repro.fl.engine.RoundEngine.state_dict`, the
state a checkpoint persists: server vectors, model buffers, strategy
state, the simulated-time and evaluation counters), each with the test
metrics of its round, and, when the monitor reports a critical anomaly,
climbs a fixed ladder:

1. **skip** — first anomaly after a healthy round: load the last good
   state but keep the round counter and the simulated time advanced,
   exactly a quorum-failure skip (``w_{t+1} = w_t``).  Cures round-local
   poison (a NaN upload that slipped through) without burning rollback
   budget.
2. **rollback** — the anomaly persists: rewind the run to the last good
   state (consecutive failures walk deeper into the ring buffer),
   multiply the server learning rate by ``lr_backoff``, and truncate the
   poisoned history records.  The rewound rounds replay with freshly drawn
   cohorts from the simulation's (checkpointed) RNG stream, so resume
   stays bit-exact.
3. **tighten** — once ``tighten_after`` rollbacks are spent, the
   degradation quarantine is hardened too: non-finite filtering is forced
   on and the norm-outlier gate is tightened by ``quarantine_tighten``.
4. **abort** — the ``max_rollbacks`` budget is exhausted: the run is
   declared diverged, with the full audit trail in
   ``TrainingHistory.recoveries``.

Every decision is a pure function of the observation sequence and the
policy — no wall clock, no extra randomness — which is what makes a
checkpoint saved mid-recovery resume bit-exactly.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Any, Dict, List, Sequence

from ..fl.degradation import DegradationPolicy
from ..fl.history import RecoveryEvent, RoundRecord
from ..telemetry import AlgoDiagnostics, get_telemetry
from .anomaly import Anomaly
from .policy import GuardPolicy

#: Recovery actions, as recorded in ``RecoveryEvent.action`` /
#: ``RoundRecord.recovery``.
ACTION_SKIP = "skip"
ACTION_ROLLBACK = "rollback"
ACTION_ABORT = "abort"

#: The norm-outlier factor is never tightened below this (it must stay a
#: meaningful multiple of the round-median norm).
_MIN_OUTLIER_FACTOR = 1.5


class RecoveryController:
    """Applies the escalation ladder to a :class:`FederatedSimulation`.

    Each ring entry is ``{"state": <engine state>, "test_accuracy": ...,
    "test_loss": ...}``; the metrics are ``None`` for the pre-training state.
    """

    def __init__(self, policy: GuardPolicy, base_global_lr: float) -> None:
        self.policy = policy
        self.base_global_lr = base_global_lr
        self.lr_scale = 1.0
        self.rollbacks_used = 0
        self.skips_used = 0
        self.consecutive = 0  # recoveries since the last healthy round
        self.aborted = False
        self.tightened = False
        self._ring: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # The ring of known-good states
    # ------------------------------------------------------------------
    def prime(self, simulation) -> None:
        """Seed the ring buffer with the (known-good) pre-training state."""
        self._ring = []
        self._keep(simulation, accuracy=None, loss=None)

    def note_healthy(self, simulation, record: RoundRecord) -> None:
        """A round passed every check: keep its state, reset the escalation."""
        self.consecutive = 0
        self._keep(
            simulation, accuracy=float(record.test_accuracy), loss=float(record.test_loss)
        )

    def _keep(self, simulation, accuracy, loss) -> None:
        self._ring.append(
            {
                "state": copy.deepcopy(simulation.state_dict()),
                "test_accuracy": accuracy,
                "test_loss": loss,
            }
        )
        del self._ring[: -self.policy.rollback_window]

    @property
    def snapshots(self) -> List[Dict[str, Any]]:
        """The ring's entries, oldest first."""
        return list(self._ring)

    # ------------------------------------------------------------------
    # The ladder
    # ------------------------------------------------------------------
    def respond(
        self, simulation, record: RoundRecord, anomalies: Sequence[Anomaly]
    ) -> str:
        """React to a critical anomaly; returns the action taken."""
        self.consecutive += 1
        kinds = [a.kind for a in anomalies]
        blamed = sorted(
            {cid for a in anomalies if a.blame is not None for cid in a.blame.clients}
        )
        telemetry = get_telemetry()

        last = self._ring[-1] if self._ring else None
        skip_possible = (
            self.consecutive == 1 and last is not None and last["test_loss"] is not None
        )
        if skip_possible:
            action = ACTION_SKIP
        elif self.rollbacks_used >= self.policy.max_rollbacks or not self._ring:
            action = ACTION_ABORT
        else:
            action = ACTION_ROLLBACK

        with telemetry.span("recovery", action=action, round=record.round):
            if action == ACTION_SKIP:
                self._apply_skip(simulation, record, last)
            elif action == ACTION_ROLLBACK:
                self._apply_rollback(simulation)
                # The rollback truncates this record from the history; the
                # annotation reaches its streamed ``round.record`` event.
                record.recovery = ACTION_ROLLBACK
            else:
                # The aborting round's record survives (nothing to rewind
                # to), so it carries the annotation.
                record.recovery = ACTION_ABORT

        event = RecoveryEvent(
            round=record.round,
            action=action,
            anomalies=kinds,
            rolled_back_to=(
                simulation.server.state.round if action == ACTION_ROLLBACK else None
            ),
            lr_scale=self.lr_scale,
            blamed_clients=blamed,
            detail="; ".join(a.describe() for a in anomalies),
        )
        simulation.history.recoveries.append(event)

        if action == ACTION_SKIP:
            self.skips_used += 1
            telemetry.counter("guard.skips").add(1)
        elif action == ACTION_ROLLBACK:
            telemetry.counter("guard.rollbacks").add(1)
            if telemetry.enabled:
                telemetry.gauge("guard.lr_scale").set(self.lr_scale)
        else:
            self.aborted = True
            telemetry.counter("guard.aborts").add(1)
        return action

    def _apply_skip(self, simulation, record: RoundRecord, entry: Dict[str, Any]) -> None:
        """Undo the round's step but keep its slot: w_{t+1} = last good w."""
        live = simulation.state_dict()
        state = copy.deepcopy(entry["state"])
        state["server"]["round"] = live["server"]["round"]
        state["cumulative_sim_time"] = live["cumulative_sim_time"]
        simulation.load_state_dict(state)
        # The recorded metrics were evaluated on poisoned parameters; after
        # the restore the model *is* the kept one, so carry its (finite)
        # metrics forward exactly as an eval_every gap would.
        record.test_accuracy = float(entry["test_accuracy"])
        record.test_loss = float(entry["test_loss"])
        record.recovery = ACTION_SKIP
        # The step was undone, so nothing computed from it describes the
        # model the run continues from: like a quorum-skipped round, the
        # record keeps no alphas and empty diagnostics.  The uploads' norms
        # stay: they are what the clients sent.
        record.alphas = {}
        if record.diagnostics is not None:
            record.diagnostics = AlgoDiagnostics(
                round=record.round, algorithm=record.diagnostics.algorithm
            )

    def _apply_rollback(self, simulation) -> None:
        """Rewind to the last good state with server-lr backoff."""
        self.rollbacks_used += 1
        # Consecutive failed recoveries walk deeper into the ring buffer:
        # the newest "good" state may sit right at the instability cliff.
        if self.consecutive > 2 and len(self._ring) > 1:
            self._ring.pop()
        simulation.load_state_dict(copy.deepcopy(self._ring[-1]["state"]))
        simulation.history.truncate(simulation.server.state.round)
        self.lr_scale *= self.policy.lr_backoff
        simulation.server.global_lr = self.base_global_lr * self.lr_scale
        if self.rollbacks_used >= self.policy.tighten_after:
            self._tighten_quarantine(simulation)

    def _tighten_quarantine(self, simulation) -> None:
        """Harden the degradation gate (escalation rung 3); idempotent."""
        if self.tightened:
            return
        self.tightened = True
        current = simulation.degradation or DegradationPolicy()
        factor = current.norm_outlier_factor
        if factor is not None:
            factor = max(_MIN_OUTLIER_FACTOR, factor * self.policy.quarantine_tighten)
        simulation.degradation = replace(
            current, quarantine_nonfinite=True, norm_outlier_factor=factor
        )
        get_telemetry().counter("guard.quarantine_tightened").add(1)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Everything needed to resume mid-recovery bit-exactly.

        The ring is keyed by position (``"0"`` oldest), so a checkpoint
        flattens it like any other nested state.
        """
        return {
            "lr_scale": self.lr_scale,
            "rollbacks_used": self.rollbacks_used,
            "skips_used": self.skips_used,
            "consecutive": self.consecutive,
            "aborted": self.aborted,
            "tightened": self.tightened,
            "snapshots": {str(i): entry for i, entry in enumerate(self._ring)},
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict`; an entry without an engine state raises ``KeyError``."""
        ring = state.get("snapshots", {})
        self._ring = [
            {name: ring[key][name] for name in ("state", "test_accuracy", "test_loss")}
            for key in sorted(ring, key=int)
        ]
        self.lr_scale = float(state["lr_scale"])
        self.rollbacks_used = int(state["rollbacks_used"])
        self.skips_used = int(state.get("skips_used", 0))
        self.consecutive = int(state["consecutive"])
        self.aborted = bool(state["aborted"])
        self.tightened = bool(state["tightened"])
