"""The run lifecycle shared by the synchronous and semi-async engines.

A federated run has the same shape whichever loop gathers its updates:
start fresh or resume bit-exact from a checkpoint, close rounds until the
server reaches the requested version, stop on divergence, checkpoint on a
cadence, then report final and output metrics.  Every closed round passes
the same quarantine/quorum gate, aggregates, follows the same evaluation
cadence, and publishes the same :class:`RoundRecord` and telemetry; the
round's algorithm diagnostics ride on its record, so checkpoints, resumes
and guard rollbacks keep them in step with the rounds.

:class:`RoundEngine` owns that lifecycle once.  Its subclasses differ only
in how a round's updates arrive:

- :class:`~repro.fl.simulation.FederatedSimulation` closes one round per
  step: the whole cohort trains against the current server version;
- :class:`~repro.federation.coordinator.AsyncCoordinator` advances a
  virtual-time event loop and closes a round (a *flush*) whenever its
  arrival buffer fills.

Both checkpoint through :func:`repro.fl.checkpoint.save_run`, so they
share one on-disk core as well.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..introspect import live_theory_scalars
from ..telemetry import AlgoDiagnostics, get_telemetry
from .degradation import DegradationPolicy, validate_updates
from .history import RoundRecord, TrainingHistory
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

    @property
    def diagnostics(self) -> List[AlgoDiagnostics]:
        """Per-round AlgoDiagnostics, read from the history (empty for rounds
        closed while telemetry was disabled)."""
        return [r.diagnostics for r in self.history.records if r.diagnostics is not None]


#: A checkpoint writer or reader: ``(engine, directory) -> ...``.
CheckpointIO = Callable[["RoundEngine", Path], object]


class RoundEngine:
    """Run lifecycle over a model, a strategy, a server and a test set.

    Subclasses implement :meth:`_step` (advance the loop; return the
    record of the round it closed, or ``None``) and :meth:`_evaluate`, and
    may extend :meth:`_start_fresh` and :meth:`_diverged`.  Their public
    ``run`` forwards to :meth:`_run` with their checkpoint writer/reader.
    """

    #: Telemetry span wrapping the server step of a closed round.
    aggregate_span = "aggregate"

    def __init__(
        self,
        model,
        strategy,
        test_set,
        num_clients: int,
        global_lr: Optional[float] = None,
        cost_model: Optional[CostModel] = None,
        degradation: Optional[DegradationPolicy] = None,
        eval_every: int = 1,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.strategy = strategy
        self.test_set = test_set
        self.global_lr = (
            global_lr if global_lr is not None else strategy.local_steps * strategy.local_lr
        )
        self.cost_model = cost_model or CostModel()
        self.degradation = degradation
        if eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {eval_every}")
        self.eval_every = eval_every
        self.rng = np.random.default_rng(seed)
        self.server = Server(model.parameters_vector(), self.global_lr, num_clients)
        self.history = TrainingHistory()
        self._cumulative_sim_time = 0.0
        self._last_evaluated_round = -1
        self._started = False

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def _step(self) -> Optional[RoundRecord]:
        raise NotImplementedError

    def _evaluate(self, params: np.ndarray) -> Tuple[float, float]:
        """(accuracy, loss) of ``params`` on the test set; leaves them loaded.

        Each engine implements this in its own module, so a profiler that
        wraps that module's ``evaluate`` attributes the time to the engine.
        """
        raise NotImplementedError

    def _start_fresh(self) -> None:
        """Reset run state for a run that does not resume a checkpoint.

        Back-to-back runs in one process each start from an empty trace and
        metric registry instead of accumulating the previous run's
        (already-streamed exporter output is untouched).
        """
        self.strategy.reset()
        get_telemetry().reset()

    def _diverged(self, record: RoundRecord) -> bool:
        return not np.isfinite(record.test_loss) or not np.isfinite(
            self.server.state.global_params
        ).all()

    def _all_expelled(self) -> bool:
        """Eq. 10 has expelled every client, so no further round can train."""
        expelled = self.strategy.expelled
        return bool(expelled) and len(expelled) >= self.server.state.num_clients

    def serving_summary(self) -> Optional[dict]:
        """Always None: delivery latency lives on the ``serving.flush`` spans,
        not in the run record.  Kept because ``bench/child.py`` passes it to
        :func:`~repro.runrecord.build_run_record`."""
        return None

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------
    def _run(
        self,
        rounds: int,
        checkpoint_every: int,
        checkpoint_dir,
        resume_from,
        record_path,
        save: CheckpointIO,
        load: CheckpointIO,
    ) -> SimulationResult:
        """Close rounds until the server reaches version ``rounds``.

        ``save``/``load`` write and read the engine's checkpoint; a resumed
        run, like a repeated ``run`` call, continues bit-exact with the
        uninterrupted one.  A run whose strategy has expelled every client
        ends early, undiverged, with the rounds closed so far.
        """
        if rounds <= 0:
            raise ValueError(f"rounds must be positive, got {rounds}")
        if checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")

        if resume_from is not None:
            load(self, resume_from)
        elif not self._started:
            self._start_fresh()
        # A second ``run`` on the same engine continues training where the
        # first stopped, bit-exact like a resume; only the first call's last
        # record keeps the evaluation its report forced (see _result).
        self._started = True
        completed = self.server.state.round
        if completed > rounds:
            raise ValueError(f"run already has {completed} rounds, cannot run to {rounds}")

        run_started = time.perf_counter()
        diverged = False
        while self.server.state.round < rounds and not self._all_expelled():
            record = self._step()
            if record is None:
                continue
            if self._diverged(record):
                diverged = True
                break
            # Key the cadence on the server counter, not the record: a guard
            # rollback rewinds it, and a checkpoint must describe the state
            # actually on disk.
            if checkpoint_every and self.server.state.round % checkpoint_every == 0:
                save(self, checkpoint_dir)

        result = self._result(run_started, diverged)
        if record_path is not None:
            from ..runrecord import build_run_record, write_run_record

            write_run_record(
                build_run_record(result, algorithm=getattr(self.strategy, "name", "unknown")),
                record_path,
            )
        return result

    def _result(self, run_started: float, diverged: bool) -> SimulationResult:
        final_params = self.server.state.global_params.copy()
        # When eval_every skipped the last round, evaluate it now so history
        # and the reported final accuracy agree.
        last = self.history.records[-1] if len(self.history) else None
        if (
            not diverged
            and last is not None
            and last.round != self._last_evaluated_round
            and np.isfinite(final_params).all()
        ):
            last.test_accuracy, last.test_loss = self._evaluate(final_params)
            self._last_evaluated_round = last.round
        output_params = self.strategy.final_output(self.server.state).copy()
        output_accuracy = (
            self._evaluate(output_params)[0] if np.isfinite(output_params).all() else 0.0
        )
        self.model.load_vector(final_params)
        return SimulationResult(
            history=self.history,
            final_params=final_params,
            output_params=output_params,
            final_accuracy=self.history.final_accuracy if len(self.history) else 0.0,
            output_accuracy=output_accuracy,
            diverged=diverged,
            elapsed_seconds=time.perf_counter() - run_started,
        )

    # ------------------------------------------------------------------
    # One round
    # ------------------------------------------------------------------
    def _begin_round(self, round_index: int) -> None:
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.begin_round(
                round_index, getattr(self.strategy, "name", type(self.strategy).__name__)
            )

    def _aggregate(
        self, round_index: int, updates: List[ClientUpdate]
    ) -> Tuple[List[ClientUpdate], Dict[int, str], bool]:
        """Gate the updates, then step the server (or skip the step).

        The degradation policy quarantines malformed uploads; fewer
        survivors than its quorum (at least one) skip the global step.
        Returns (aggregated updates, quarantined {client: reason}, skipped).
        """
        quarantined: Dict[int, str] = {}
        quorum = 1
        if self.degradation is not None:
            updates, quarantined = validate_updates(
                updates, self.server.state.dim, self.degradation
            )
            quorum = self.degradation.min_quorum
        skipped = len(updates) < quorum
        with get_telemetry().span(
            self.aggregate_span, round=round_index, updates=len(updates), skipped=skipped
        ):
            if skipped:
                self.server.skip_round()
            else:
                self.server.run_aggregation(self.strategy, updates)
        return updates, quarantined, skipped

    def _evaluate_round(self, round_index: int) -> Tuple[float, float]:
        """Evaluate on the ``eval_every`` cadence; carry metrics forward otherwise."""
        if (round_index + 1) % self.eval_every == 0 or not len(self.history):
            with get_telemetry().span("evaluate", round=round_index):
                metrics = self._evaluate(self.server.state.global_params)
            self._last_evaluated_round = round_index
            return metrics
        last = self.history.records[-1]
        return last.test_accuracy, last.test_loss

    def _close_round(
        self,
        round_index: int,
        started: float,
        updates: Sequence[ClientUpdate],
        skipped: bool,
        metrics: Tuple[float, float],
        round_sim: float,
        **fields,
    ) -> RoundRecord:
        """Record the round, then publish its telemetry and keep its diagnostics.

        ``fields`` are the engine-specific :class:`RoundRecord` fields
        (participants, faults, traffic).  Expulsions are ``strategy.expelled``
        minus history's: resume and rollback restore both, so each shows once.
        """
        expelled = self.strategy.expelled
        if expelled:
            expelled = expelled - set(self.history.expelled_clients)
        record = RoundRecord(
            round=round_index,
            test_accuracy=metrics[0],
            test_loss=metrics[1],
            round_sim_time=round_sim,
            cumulative_sim_time=self._cumulative_sim_time,
            round_wall_time=time.perf_counter() - started,
            alphas={} if skipped else dict(getattr(self.strategy, "last_alphas", {}) or {}),
            update_norms={u.client_id: u.delta_norm for u in updates},
            aggregated=0 if skipped else len(updates),
            skipped=skipped,
            expelled=sorted(expelled),
            **fields,
        )
        self.history.append(record)

        telemetry = get_telemetry()
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
            self._publish_diagnostics(telemetry, record, updates)
            record.diagnostics = telemetry.end_round()
        return record

    def _publish_diagnostics(self, telemetry, record, updates) -> None:
        """Publish server-side diagnostics (and the live theory proxies).

        Runs only when telemetry is enabled, so the default path does no
        extra arithmetic.  The theory proxies need a coefficient assignment,
        so they are published only for strategies exposing ``last_alphas``
        (TACO and its Fig. 6 hybrids).
        """
        telemetry.scalar("server.test_accuracy", record.test_accuracy)
        telemetry.scalar("server.test_loss", record.test_loss)
        telemetry.scalar("server.aggregated", float(record.aggregated))
        telemetry.per_client("server.update_norm", dict(record.update_norms))
        if record.skipped:
            return
        delta = self.server.state.global_delta
        if delta is not None:
            telemetry.scalar("server.global_delta_norm", float(np.linalg.norm(delta)))
        if record.alphas and updates:
            for name, value in live_theory_scalars(
                record.alphas,
                updates,
                local_steps=self.strategy.local_steps,
                local_lr=self.strategy.local_lr,
            ).items():
                telemetry.scalar(name, value)
