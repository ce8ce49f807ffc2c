"""The federated-learning simulation driver.

``FederatedSimulation`` wires clients, server, strategy, timing model and
metrics into the training loop of Algorithm 1/2:

1. broadcast w_t (+ algorithm payload) to the active clients,
2. each client runs K local steps under the strategy's update rule,
3. the server aggregates Delta_i^t via the strategy and steps w_{t+1},
4. the slowest client's simulated compute time is charged to the round,
5. the global model is evaluated on the test set.

Freeloader clients (``repro.attacks``) plug in through the same Client
interface; TACO's expulsion shows up via ``Strategy.active_clients``.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from ..data.dataset import TensorDataset
from ..introspect import get_introspector, live_theory_scalars
from ..nn.module import Module
from ..telemetry import get_telemetry
from .client import Client
from .degradation import DegradationPolicy, split_stragglers, validate_updates
from .history import RoundRecord, TrainingHistory
from .metrics import evaluate
from .sampling import FullParticipation
from .server import Server
from .state import ClientUpdate
from .timing import CostModel


@dataclass
class SimulationResult:
    """Outcome of a full FL run."""

    history: TrainingHistory
    final_params: np.ndarray  # w_T
    output_params: np.ndarray  # the algorithm's reported output (TACO: z_T)
    final_accuracy: float
    output_accuracy: float
    diverged: bool
    elapsed_seconds: float = 0.0  # measured wall-clock for the whole run
    #: Per-round AlgoDiagnostics collected by repro.introspect (empty when
    #: introspection was disabled for the run).
    diagnostics: list = field(default_factory=list)


class FederatedSimulation:
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
        Optional :class:`repro.comm.Transport` applied to client uploads
        (compression + traffic accounting) before aggregation.
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
        self.model = model
        self.clients = {client.client_id: client for client in clients}
        if len(self.clients) != len(clients):
            raise ValueError("client ids must be unique")
        self.strategy = strategy
        self.test_set = test_set
        self.global_lr = global_lr if global_lr is not None else strategy.local_steps * strategy.local_lr
        self.cost_model = cost_model or CostModel()
        self.participation = participation or FullParticipation()
        self.transport = transport
        self.eval_every = max(1, eval_every)
        self.rng = np.random.default_rng(seed)

        if fault_plan is not None:
            from ..faults import FaultInjector  # local import: fl must not require faults

            self.fault_injector = FaultInjector(fault_plan)
            degradation = degradation or DegradationPolicy()
        else:
            self.fault_injector = None
        self.degradation = degradation

        self.batched_executor = None
        if batched_execution:
            from .batched import BatchedCohortExecutor  # deferred: optional path

            # ``None`` when the model has no batched forward — the round
            # loop then silently stays on the sequential oracle.
            self.batched_executor = BatchedCohortExecutor.try_build(model)

        self.server = Server(model.parameters_vector(), self.global_lr, len(clients))
        self.history = TrainingHistory()
        self._cumulative_sim_time = 0.0
        self._last_evaluated_round = -1

        if guard is not None:
            from ..guard import (  # local import: fl must not require guard
                HealthMonitor,
                RecoveryController,
                parameter_layout,
            )

            self.guard_policy = guard
            self.monitor = HealthMonitor(guard, parameter_layout(model))
            self.recovery = RecoveryController(guard, self.global_lr)
        else:
            self.guard_policy = None
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
        record_path: str | Path | None = None,
    ) -> SimulationResult:
        """Train for ``rounds`` communication rounds.

        ``checkpoint_every``/``checkpoint_dir`` persist the complete run
        state (model, server, strategy, RNG streams, history) every N
        rounds; ``resume_from`` restores such a checkpoint and continues —
        bit-exact with the uninterrupted run — until ``rounds`` total
        rounds are done.  ``record_path`` writes a schema-versioned
        ``runrecord.json`` (see :mod:`repro.runrecord`) when the run ends.
        """
        from . import checkpoint  # deferred: checkpoint imports history/model only

        if rounds <= 0:
            raise ValueError(f"rounds must be positive, got {rounds}")
        if checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")

        if resume_from is not None:
            completed = checkpoint.load_simulation(self, resume_from)
            if completed > rounds:
                raise ValueError(
                    f"checkpoint already has {completed} rounds, cannot run to {rounds}"
                )
        else:
            self.strategy.reset()
            if self.transport is not None:
                self.transport.reset()
            # Mirror Transport.reset(): back-to-back simulations in one
            # process each start from an empty trace and registry instead of
            # accumulating the previous run's events (already-streamed
            # exporter output, e.g. JSONL lines, is untouched).
            get_telemetry().reset()
            get_introspector().reset()
            if self.recovery is not None:
                # Seed the rollback ring buffer with w_0 so even a round-0
                # anomaly has a known-good state to rewind to.
                self.recovery.prime(self)

        run_started = time.perf_counter()
        diverged = False
        while self.server.state.round < rounds:
            record = self.run_round()
            if self.recovery is not None:
                if self._guard_intervene(record) == "abort":
                    diverged = True
                    break
            elif not np.isfinite(record.test_loss) or not np.isfinite(
                self.server.state.global_params
            ).all():
                diverged = True
                break
            # state.round is record.round + 1 on the legacy path, but a
            # guard rollback rewinds it — key the cadence on the counter so
            # checkpoints always describe the state actually on disk.
            if (
                checkpoint_every
                and checkpoint_dir is not None
                and self.server.state.round % checkpoint_every == 0
            ):
                checkpoint.save_simulation(self, checkpoint_dir)

        final_params = self.server.state.global_params.copy()
        self._refresh_final_metrics(final_params, diverged)
        output_params = self.strategy.final_output(self.server.state).copy()
        self.model.load_vector(final_params)
        final_accuracy = self.history.final_accuracy if len(self.history) else 0.0
        if np.isfinite(output_params).all():
            self.model.load_vector(output_params)
            output_accuracy, _ = evaluate(self.model, self.test_set)
        else:
            output_accuracy = 0.0
        self.model.load_vector(final_params)
        introspector = get_introspector()
        result = SimulationResult(
            history=self.history,
            final_params=final_params,
            output_params=output_params,
            final_accuracy=final_accuracy,
            output_accuracy=output_accuracy,
            diverged=diverged,
            elapsed_seconds=time.perf_counter() - run_started,
            diagnostics=list(introspector.records) if introspector.enabled else [],
        )
        if record_path is not None:
            from ..runrecord import build_run_record, write_run_record

            write_run_record(
                build_run_record(result, algorithm=getattr(self.strategy, "name", "unknown")),
                record_path,
            )
        return result

    def _guard_intervene(self, record: RoundRecord) -> str:
        """Run the round through the guard; returns the action taken."""
        state = self.server.state
        anomalies = self.monitor.check_round(record, state)
        record.anomalies.extend(a.kind for a in anomalies)
        critical = [a for a in anomalies if a.critical]
        if not critical:
            self.monitor.commit(record, state)
            self.recovery.note_healthy(self, record)
            return "ok"
        # Upload anomalies carry the per-client blame; fold them into the
        # recovery event so the audit log names the offending uploads.
        return self.recovery.respond(
            self, record, critical + self._round_upload_anomalies
        )

    def _refresh_final_metrics(self, final_params: np.ndarray, diverged: bool) -> None:
        """Force a final evaluation when ``eval_every`` skipped the last round.

        Without this, a run whose last round fell between evaluation points
        would report the *previous* evaluation's accuracy as its final one.
        The stale record is fixed up in place so history and
        ``SimulationResult.final_accuracy`` agree.
        """
        if diverged or not len(self.history):
            return
        last = self.history.records[-1]
        if last.round == self._last_evaluated_round:
            return
        if not np.isfinite(final_params).all():
            return
        self.model.load_vector(final_params)
        accuracy, loss = evaluate(self.model, self.test_set)
        last.test_accuracy = accuracy
        last.test_loss = loss
        self._last_evaluated_round = last.round

    # ------------------------------------------------------------------
    def run_round(self) -> RoundRecord:
        """Execute one communication round and record it."""
        state = self.server.state
        round_started = time.perf_counter()
        round_index = state.round
        telemetry = get_telemetry()
        introspector = get_introspector()
        if introspector.enabled:
            introspector.begin_round(
                round_index, getattr(self.strategy, "name", type(self.strategy).__name__)
            )

        with telemetry.span("round", round=round_index):
            previously_active = self.strategy.active_clients(state, sorted(self.clients))
            participating = self.participation.select(previously_active, round_index, self.rng)
            if not participating:
                raise RuntimeError("no clients available to participate")
            participating = self._over_select(previously_active, participating)

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
                if self.transport is not None:
                    self.transport.process_broadcast(state.global_params, len(runners))
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

            if self.fault_injector is not None:
                updates = self.fault_injector.process_updates(round_index, updates, fault_log)

            if self.transport is not None:
                updates = self.transport.process_round(
                    updates, retries=fault_log.retries
                )

            self._round_upload_anomalies = []
            if self.monitor is not None:
                # Attribution happens before the quarantine gate, so a
                # non-finite upload is blamed on its client even when the
                # degradation layer eats it a few lines down.
                self._round_upload_anomalies = self.monitor.check_updates(
                    round_index, updates
                )

            stragglers: List[int] = []
            quarantined = {}
            skipped = False
            if self.degradation is not None:
                updates, stragglers = split_stragglers(updates, self.degradation.round_deadline)
                updates, quarantined = validate_updates(updates, state.dim, self.degradation)
                if len(updates) < self.degradation.min_quorum:
                    skipped = True

            with telemetry.span(
                "aggregate", round=round_index, updates=len(updates), skipped=skipped
            ):
                if skipped:
                    self.server.skip_round()
                else:
                    self.server.run_aggregation(self.strategy, updates)

            still_active = set(
                self.strategy.active_clients(self.server.state, sorted(self.clients))
            )
            expelled = [cid for cid in participating if cid not in still_active]

            round_sim = self._round_sim_time(updates, fault_log, stragglers)
            self._cumulative_sim_time += round_sim

            if (round_index + 1) % self.eval_every == 0 or not len(self.history):
                with telemetry.span("evaluate", round=round_index):
                    self.model.load_vector(self.server.state.global_params)
                    accuracy, loss = evaluate(self.model, self.test_set)
                self._last_evaluated_round = round_index
            else:
                accuracy = self.history.records[-1].test_accuracy
                loss = self.history.records[-1].test_loss

        alphas = {} if skipped else dict(getattr(self.strategy, "last_alphas", {}) or {})
        record = RoundRecord(
            round=round_index,
            test_accuracy=accuracy,
            test_loss=loss,
            round_sim_time=round_sim,
            cumulative_sim_time=self._cumulative_sim_time,
            round_wall_time=time.perf_counter() - round_started,
            participating=list(participating),
            alphas=alphas,
            expelled=expelled,
            update_norms={u.client_id: u.delta_norm for u in updates},
            dropped=fault_log.dropped,
            quarantined=quarantined,
            stragglers=stragglers,
            retries=dict(fault_log.retries),
            aggregated=0 if skipped else len(updates),
            skipped=skipped,
            uplink_bytes=(
                self.transport.log.uplink_bytes_per_round[-1]
                if self.transport is not None
                else 0
            ),
            downlink_bytes=(
                self.transport.log.downlink_bytes_per_round[-1]
                if self.transport is not None
                else 0
            ),
            anomalies=[a.kind for a in self._round_upload_anomalies],
        )
        self.history.append(record)
        self._record_round_metrics(telemetry, record, round_sim)
        if introspector.enabled:
            self._record_round_diagnostics(introspector, record, updates, skipped)
            introspector.end_round()
        return record

    def _record_round_diagnostics(self, introspector, record, updates, skipped) -> None:
        """Publish server-side diagnostics (and the live theory proxies).

        Runs only when introspection is enabled, so the default path does no
        extra arithmetic.  The theory proxies need a coefficient assignment,
        so they are published only for strategies exposing ``last_alphas``
        (TACO and its Fig. 6 hybrids).
        """
        introspector.scalar("server.test_accuracy", record.test_accuracy)
        introspector.scalar("server.test_loss", record.test_loss)
        introspector.scalar("server.aggregated", float(record.aggregated))
        introspector.per_client("server.update_norm", dict(record.update_norms))
        delta = self.server.state.global_delta
        if delta is not None and not skipped:
            introspector.scalar(
                "server.global_delta_norm", float(np.linalg.norm(delta))
            )
        alphas = dict(getattr(self.strategy, "last_alphas", {}) or {})
        if alphas and updates and not skipped:
            for name, value in live_theory_scalars(
                alphas,
                updates,
                local_steps=self.strategy.local_steps,
                local_lr=self.strategy.local_lr,
                smoothness=getattr(introspector, "smoothness", 1.0),
            ).items():
                introspector.scalar(name, value)

    def _record_round_metrics(self, telemetry, record: RoundRecord, round_sim: float) -> None:
        """Publish one round's headline numbers to the metric registry."""
        telemetry.histogram("round.wall_seconds").observe(record.round_wall_time)
        telemetry.histogram("round.sim_seconds").observe(round_sim)
        telemetry.counter("agg.quarantined").add(len(record.quarantined))
        telemetry.counter("agg.stragglers").add(len(record.stragglers))
        telemetry.counter("agg.dropped").add(len(record.dropped))
        telemetry.counter("agg.aggregated").add(record.aggregated)
        if record.skipped:
            telemetry.counter("agg.skipped_rounds").add(1)
        if record.expelled:
            telemetry.counter("agg.expelled").add(len(record.expelled))
        if telemetry.enabled:
            telemetry.gauge("round.test_accuracy").set(record.test_accuracy)
            telemetry.gauge("round.test_loss").set(record.test_loss)

    # ------------------------------------------------------------------
    def _over_select(
        self, previously_active: Sequence[int], participating: List[int]
    ) -> List[int]:
        """Add spare clients so the round survives drops with a quorum."""
        if self.degradation is None:
            return participating
        extra = self.degradation.extra_selections(len(participating))
        if not extra:
            return participating
        chosen = set(participating)
        pool = [cid for cid in previously_active if cid not in chosen]
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
