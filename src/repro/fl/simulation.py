"""The federated-learning simulation driver.

``FederatedSimulation`` wires clients, server, strategy, timing model and
metrics into the training loop of Algorithm 1/2:

1. broadcast w_t (+ algorithm payload) to the active clients,
2. each client runs K local steps under the strategy's update rule,
3. the server aggregates Delta_i^t via the strategy and steps w_{t+1},
4. the slowest client's simulated compute time is charged to the round,
5. the global model is evaluated on the test set.

The run lifecycle around that round — resume, divergence, checkpoint
cadence, evaluation cadence, records — is :class:`~repro.fl.engine.RoundEngine`,
shared with the semi-async :class:`~repro.federation.AsyncCoordinator`.

Freeloader clients (``repro.attacks``) plug in through the same Client
interface; TACO's expulsions (``Strategy.expelled``) leave the active set.

Fault tolerance (see docs/ROBUSTNESS.md): an optional
:class:`~repro.faults.FaultPlan` injects crashes, stragglers, corrupted
payloads and transient upload errors into the round, and an optional
:class:`~repro.fl.degradation.DegradationPolicy` governs how the server
degrades — over-selection, a straggler deadline, an update-validation
quarantine, and a minimum quorum below which the global step is skipped.
Long runs checkpoint via ``run(checkpoint_every=..., checkpoint_dir=...)``
and restart bit-exact with ``resume_from=...``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.dataset import TensorDataset
from ..nn.module import Module
from ..telemetry import get_telemetry
from .client import Client
from .degradation import DegradationPolicy, split_stragglers
from .engine import RoundEngine, SimulationResult
from .history import RoundRecord
from .metrics import evaluate
from .sampling import FullParticipation
from .state import ClientUpdate
from .timing import CostModel


class FederatedSimulation(RoundEngine):
    """Run one FL training job.

    Parameters
    ----------
    model:
        The shared architecture; its initial parameters become w_0.
    clients:
        Client objects (benign or freeloaders) with local shards.
    strategy:
        The FL algorithm (owns local correction + aggregation).
    test_set:
        Held-out data for the per-round global evaluation.
    global_lr:
        eta_g; defaults to the paper's K * eta_l when None.
    cost_model:
        Simulated timing model; a default CNN-scale model when None.
    eval_every:
        Evaluate the global model every this many rounds (1 = every round).
    transport:
        Optional :class:`repro.comm.Transport` compressing client uploads
        before aggregation; each upload is then charged its compressed
        size in the round's ``uplink_bytes``.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` injecting client/transport
        failures into every round.
    degradation:
        Optional :class:`~repro.fl.degradation.DegradationPolicy`; when a
        ``fault_plan`` is given without one, a default policy is used so
        injected corruption is always quarantined.  Without either, the
        legacy trusting pipeline runs unchanged.
    guard:
        Optional :class:`~repro.guard.GuardPolicy` enabling self-healing:
        a :class:`~repro.guard.HealthMonitor` checks every round and a
        :class:`~repro.guard.RecoveryController` skips, rolls back (with
        server-lr backoff) or aborts on critical anomalies.  ``None`` (the
        default) keeps the run bit-identical to an unguarded one.
    batched_execution:
        When ``True``, run each round's benign clients through one
        ``(K, P)`` batched program (:mod:`repro.fl.batched`) instead of
        sequentially.  Only MLP models have a batched program; under
        float64 their runs are byte-identical to the sequential ones for
        every registered algorithm.  Clients with custom ``local_round``
        overrides and models without a batched program (PaperCNN, LSTM,
        ResNet) silently keep the sequential oracle.
    """

    def __init__(
        self,
        model: Module,
        clients: Sequence[Client],
        strategy,
        test_set: TensorDataset,
        global_lr: Optional[float] = None,
        cost_model: Optional[CostModel] = None,
        participation=None,
        eval_every: int = 1,
        seed: int = 0,
        transport=None,
        fault_plan=None,
        degradation: Optional[DegradationPolicy] = None,
        guard=None,
        batched_execution: bool = False,
    ) -> None:
        if not clients:
            raise ValueError("at least one client is required")
        self.clients = {client.client_id: client for client in clients}
        if len(self.clients) != len(clients):
            raise ValueError("client ids must be unique")
        if fault_plan is not None:
            from ..faults import FaultInjector  # local import: fl must not require faults

            self.fault_injector = FaultInjector(fault_plan)
            degradation = degradation or DegradationPolicy()
        else:
            self.fault_injector = None
        super().__init__(
            model,
            strategy,
            test_set,
            num_clients=len(clients),
            global_lr=global_lr,
            cost_model=cost_model,
            degradation=degradation,
            eval_every=eval_every,
            seed=seed,
        )
        self.participation = participation or FullParticipation()
        self.transport = transport

        self.batched_executor = None
        if batched_execution:
            from .batched import BatchedCohortExecutor  # deferred: optional path

            # ``None`` when the model has no batched forward — the round
            # loop then silently stays on the sequential oracle.
            self.batched_executor = BatchedCohortExecutor.try_build(model)

        if guard is not None:
            from ..guard import (  # local import: fl must not require guard
                HealthMonitor,
                RecoveryController,
                parameter_layout,
            )

            self.monitor = HealthMonitor(guard, parameter_layout(model))
            self.recovery = RecoveryController(guard, self.global_lr)
        else:
            self.monitor = None
            self.recovery = None
        self._round_upload_anomalies: list = []

    # ------------------------------------------------------------------
    def run(
        self,
        rounds: int,
        checkpoint_every: int = 0,
        checkpoint_dir: str | Path | None = None,
        resume_from: str | Path | None = None,
    ) -> SimulationResult:
        """Train for ``rounds`` communication rounds.

        ``checkpoint_every``/``checkpoint_dir`` persist the complete run
        state (the engine state, RNG streams, guard and history) every N
        rounds; ``resume_from`` restores such a checkpoint and continues —
        bit-exact with the uninterrupted run — until ``rounds`` total
        rounds are done.
        """
        from . import checkpoint  # deferred: checkpoint imports history/model only

        return self._run(
            rounds,
            checkpoint_every,
            checkpoint_dir,
            resume_from,
            save=checkpoint.save_simulation,
            load=checkpoint.load_simulation,
        )

    def _start_fresh(self) -> None:
        super()._start_fresh()
        if self.transport is not None:
            self.transport.reset()
        if self.recovery is not None:
            # Seed the rollback ring buffer with w_0 so even a round-0
            # anomaly has a known-good state to rewind to.
            self.recovery.prime(self)

    def _step(self) -> RoundRecord:
        return self.run_round()

    def _evaluate(self, params: np.ndarray):
        self.model.load_vector(params)
        return evaluate(self.model, self.test_set)

    def _diverged(self, record: RoundRecord) -> bool:
        """Without a guard, a non-finite round ends the run; with one, only an abort."""
        if self.recovery is None:
            return super()._diverged(record)
        state = self.server.state
        anomalies = self.monitor.check_round(record, state)
        record.anomalies.extend(a.kind for a in anomalies)
        critical = [a for a in anomalies if a.critical]
        if not critical:
            self.monitor.commit(record, state)
            self.recovery.note_healthy(self, record)
            return False
        # Upload anomalies carry the per-client blame; fold them into the
        # recovery event so the audit log names the offending uploads.
        action = self.recovery.respond(self, record, critical + self._round_upload_anomalies)
        return action == "abort"

    # ------------------------------------------------------------------
    def run_round(self) -> RoundRecord:
        """Execute one communication round and record it."""
        state = self.server.state
        round_started = time.perf_counter()
        round_index = state.round
        telemetry = get_telemetry()
        self._begin_round(round_index)

        with telemetry.span("round", round=round_index):
            active = self.strategy.active_clients(state, sorted(self.clients))
            participating = self.participation.select(active, round_index, self.rng)
            if not participating:
                raise RuntimeError("no clients available to participate")
            participating = self._over_select(active, participating)

            from ..faults import RoundFaultLog  # lightweight; only dataclasses

            fault_log = RoundFaultLog()
            runners = list(participating)
            if self.fault_injector is not None:
                # Crashed clients do no local work at all, so their private RNG
                # streams stay untouched — a drop is indistinguishable from not
                # having been selected.
                runners = self.fault_injector.filter_crashes(round_index, runners, fault_log)

            with telemetry.span("broadcast", round=round_index, clients=len(runners)):
                broadcast = self.strategy.broadcast(state)
            global_params = state.global_params

            updates: List[ClientUpdate] = []
            if self.batched_executor is not None:
                jobs = [
                    (
                        self.clients[client_id],
                        self.strategy.client_payload(client_id, state, broadcast),
                    )
                    for client_id in runners
                ]
                updates = self.batched_executor.run_cohort(
                    self.strategy, global_params, jobs, self.cost_model
                )
            else:
                for client_id in runners:
                    client = self.clients[client_id]
                    payload = self.strategy.client_payload(client_id, state, broadcast)
                    update = client.local_round(
                        self.model, self.strategy, global_params, payload, self.cost_model
                    )
                    updates.append(update)

            sent = updates  # every upload leaves its client at least once
            if self.fault_injector is not None:
                updates = self.fault_injector.process_updates(round_index, updates, fault_log)
            uplink_bytes = self._uplink_bytes(sent, updates, fault_log.retries)

            self._round_upload_anomalies = []
            if self.monitor is not None:
                # Attribution happens before the quarantine gate, so a
                # non-finite upload is blamed on its client even when the
                # degradation layer eats it a few lines down.
                self._round_upload_anomalies = self.monitor.check_updates(
                    round_index, updates
                )

            stragglers: List[int] = []
            if self.degradation is not None:
                updates, stragglers = split_stragglers(updates, self.degradation.round_deadline)
            updates, quarantined, skipped = self._aggregate(round_index, updates)

            round_sim = self._round_sim_time(updates, fault_log, stragglers)
            self._cumulative_sim_time += round_sim
            metrics = self._evaluate_round(round_index)

        return self._close_round(
            round_index,
            round_started,
            updates,
            skipped,
            metrics,
            round_sim,
            participating=list(participating),
            dropped=fault_log.dropped,
            quarantined=quarantined,
            stragglers=stragglers,
            retries=dict(fault_log.retries),
            uplink_bytes=uplink_bytes,
            downlink_bytes=global_params.nbytes * len(runners),
            anomalies=[a.kind for a in self._round_upload_anomalies],
        )

    # ------------------------------------------------------------------
    def _uplink_bytes(
        self,
        sent: Sequence[ClientUpdate],
        delivered: Sequence[ClientUpdate],
        retries: Dict[int, int],
    ) -> int:
        """Compress the delivered uploads; return the bytes every send cost.

        An upload costs its payload once per send attempt, its ``retries``
        plus the first, whether it arrived or was lost after retries.  The
        payload is the transport's compressed size when one is attached,
        else the delta's.
        """
        payload: Dict[int, int] = {}
        for update in delivered:
            payload[update.client_id] = (
                self.transport.compress(update)
                if self.transport is not None
                else update.delta.nbytes
            )
        total = 0
        for update in sent:
            size = payload.get(update.client_id)
            if size is None:  # lost after retries, so never compressed
                size = (
                    self.transport.compressor.wire_bytes(update.delta)
                    if self.transport is not None
                    else update.delta.nbytes
                )
            total += size * (retries.get(update.client_id, 0) + 1)
        return total

    def _over_select(self, active: Sequence[int], participating: List[int]) -> List[int]:
        """Add spare clients so the round survives drops with a quorum."""
        if self.degradation is None:
            return participating
        extra = self.degradation.extra_selections(len(participating))
        if not extra:
            return participating
        chosen = set(participating)
        pool = [cid for cid in active if cid not in chosen]
        if not pool:
            return participating
        take = min(extra, len(pool))
        picks = self.rng.choice(len(pool), size=take, replace=False)
        return sorted(chosen | {pool[int(i)] for i in picks})

    def _round_sim_time(
        self, updates: Sequence[ClientUpdate], fault_log, stragglers: Sequence[int]
    ) -> float:
        """Wall the server waited: slowest delivered client, or the deadline.

        When a deadline is configured and anything went missing (straggler
        cut off, crash, lost upload), the server necessarily waited the full
        deadline before closing the round.
        """
        delivered_max = max((u.sim_time for u in updates), default=0.0)
        deadline = self.degradation.round_deadline if self.degradation else None
        if deadline is not None and (stragglers or fault_log.dropped):
            return float(deadline)
        return float(delivered_max)
