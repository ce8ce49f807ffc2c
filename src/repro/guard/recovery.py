"""The recovery controller: an escalating, deterministic response ladder.

The controller keeps a ring buffer of the last K known-good server
snapshots (the same state the PR-1 checkpoint serialisation persists:
server vectors, strategy ``state_dict``, round counters) and, when the
monitor reports a critical anomaly, climbs a fixed ladder:

1. **skip** — first anomaly after a healthy round: restore the last good
   server/strategy state but keep the round counter advanced, exactly a
   quorum-failure skip (``w_{t+1} = w_t``).  Cures round-local poison (a
   NaN upload that slipped through) without burning rollback budget.
2. **rollback** — the anomaly persists: rewind the run to the last good
   snapshot (consecutive failures walk deeper into the ring buffer),
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
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

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


@dataclass
class Snapshot:
    """One known-good server state, as captured after a healthy round."""

    round: int
    global_params: np.ndarray
    global_delta: Optional[np.ndarray]
    prev_global_params: Optional[np.ndarray]
    strategy_state: Dict[str, Any]
    cumulative_sim_time: float
    last_evaluated_round: int
    test_accuracy: Optional[float]  # None only for the pre-training seed
    test_loss: Optional[float]


class RecoveryController:
    """Applies the escalation ladder to a :class:`FederatedSimulation`."""

    def __init__(self, policy: GuardPolicy, base_global_lr: float) -> None:
        self.policy = policy
        self.base_global_lr = base_global_lr
        self.lr_scale = 1.0
        self.rollbacks_used = 0
        self.skips_used = 0
        self.consecutive = 0  # recoveries since the last healthy round
        self.aborted = False
        self.tightened = False
        self._snapshots: List[Snapshot] = []

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def prime(self, simulation) -> None:
        """Seed the ring buffer with the (known-good) pre-training state."""
        self._snapshots = []
        self._push_snapshot(simulation, accuracy=None, loss=None)

    def note_healthy(self, simulation, record: RoundRecord) -> None:
        """A round passed every check: snapshot it, reset the escalation."""
        self.consecutive = 0
        self._push_snapshot(
            simulation, accuracy=float(record.test_accuracy), loss=float(record.test_loss)
        )

    def _push_snapshot(self, simulation, accuracy, loss) -> None:
        state = simulation.server.state
        self._snapshots.append(
            Snapshot(
                round=state.round,
                global_params=state.global_params.copy(),
                global_delta=(
                    state.global_delta.copy() if state.global_delta is not None else None
                ),
                prev_global_params=(
                    state.prev_global_params.copy()
                    if state.prev_global_params is not None
                    else None
                ),
                strategy_state=copy.deepcopy(simulation.strategy.state_dict()),
                cumulative_sim_time=simulation._cumulative_sim_time,
                last_evaluated_round=simulation._last_evaluated_round,
                test_accuracy=accuracy,
                test_loss=loss,
            )
        )
        del self._snapshots[: -self.policy.rollback_window]

    @property
    def snapshots(self) -> List[Snapshot]:
        return list(self._snapshots)

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

        last = self._snapshots[-1] if self._snapshots else None
        skip_possible = (
            self.consecutive == 1 and last is not None and last.test_loss is not None
        )
        if skip_possible:
            action = ACTION_SKIP
        elif self.rollbacks_used >= self.policy.max_rollbacks or not self._snapshots:
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

    def _apply_skip(self, simulation, record: RoundRecord, snap: Snapshot) -> None:
        """Undo the round's step but keep its slot: w_{t+1} = last good w."""
        self._restore_arrays(simulation, snap)
        # The recorded metrics were evaluated on poisoned parameters; after
        # the restore the model *is* the snapshot model, so carry its
        # (finite) metrics forward exactly as an eval_every gap would.
        record.test_accuracy = float(snap.test_accuracy)
        record.test_loss = float(snap.test_loss)
        record.recovery = ACTION_SKIP
        simulation._last_evaluated_round = snap.last_evaluated_round
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
        """Rewind to the last good snapshot with server-lr backoff."""
        self.rollbacks_used += 1
        # Consecutive failed recoveries walk deeper into the ring buffer:
        # the newest "good" snapshot may sit right at the instability cliff.
        if self.consecutive > 2 and len(self._snapshots) > 1:
            self._snapshots.pop()
        snap = self._snapshots[-1]
        self._restore_arrays(simulation, snap)
        simulation.server.state.round = snap.round
        simulation.history.truncate(snap.round)
        simulation._cumulative_sim_time = snap.cumulative_sim_time
        simulation._last_evaluated_round = snap.last_evaluated_round
        self.lr_scale *= self.policy.lr_backoff
        simulation.server.global_lr = self.base_global_lr * self.lr_scale
        if self.rollbacks_used >= self.policy.tighten_after:
            self._tighten_quarantine(simulation)

    def _restore_arrays(self, simulation, snap: Snapshot) -> None:
        state = simulation.server.state
        state.global_params = snap.global_params.copy()
        state.global_delta = (
            snap.global_delta.copy() if snap.global_delta is not None else None
        )
        state.prev_global_params = (
            snap.prev_global_params.copy() if snap.prev_global_params is not None else None
        )
        simulation.strategy.reset()
        simulation.strategy.load_state_dict(copy.deepcopy(snap.strategy_state))

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
        """Everything needed to resume mid-recovery bit-exactly."""
        return {
            "lr_scale": self.lr_scale,
            "rollbacks_used": self.rollbacks_used,
            "skips_used": self.skips_used,
            "consecutive": self.consecutive,
            "aborted": self.aborted,
            "tightened": self.tightened,
            "snapshots": [
                {
                    "round": snap.round,
                    "global_params": snap.global_params,
                    "global_delta": snap.global_delta,
                    "prev_global_params": snap.prev_global_params,
                    "strategy_state": snap.strategy_state,
                    "cumulative_sim_time": snap.cumulative_sim_time,
                    "last_evaluated_round": snap.last_evaluated_round,
                    "test_accuracy": snap.test_accuracy,
                    "test_loss": snap.test_loss,
                }
                for snap in self._snapshots
            ],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.lr_scale = float(state["lr_scale"])
        self.rollbacks_used = int(state["rollbacks_used"])
        self.skips_used = int(state.get("skips_used", 0))
        self.consecutive = int(state["consecutive"])
        self.aborted = bool(state["aborted"])
        self.tightened = bool(state["tightened"])
        self._snapshots = [
            Snapshot(
                round=int(item["round"]),
                global_params=np.asarray(item["global_params"]),
                global_delta=(
                    np.asarray(item["global_delta"])
                    if item.get("global_delta") is not None
                    else None
                ),
                prev_global_params=(
                    np.asarray(item["prev_global_params"])
                    if item.get("prev_global_params") is not None
                    else None
                ),
                strategy_state=item.get("strategy_state", {}),
                cumulative_sim_time=float(item["cumulative_sim_time"]),
                last_evaluated_round=int(item["last_evaluated_round"]),
                test_accuracy=(
                    float(item["test_accuracy"])
                    if item.get("test_accuracy") is not None
                    else None
                ),
                test_loss=(
                    float(item["test_loss"]) if item.get("test_loss") is not None else None
                ),
            )
            for item in state.get("snapshots", [])
        ]
